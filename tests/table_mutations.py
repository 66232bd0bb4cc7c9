"""Corruptions of the lift's translation table, each patched in over
``cover._translations`` by the tests of the lift's closing certificate:
the table they return no longer agrees with the cover, and the lift must
report that as an internal fault.
"""


def generator_row_off_in_its_last_block(translations):
    """_translations with the last generator's row gathering its last
    block one vertex off: that row is no left translation."""
    def corrupted(cover):
        back = translations(cover)
        row, order = back[cover.edge_target[0][-1]], cover.group_order
        row[-order:] = row[-order + 1:] + row[-order:-order + 1]
        return back

    return corrupted


def generator_row_off_in_block_one(translations):
    """_translations with the last generator's row gathering block 1 one
    vertex off.  Over a rank-3 cover block 1 is neither the first block
    nor the last, so a check that reads only those misses it."""
    def corrupted(cover):
        back = translations(cover)
        row, order = back[cover.edge_target[0][-1]], cover.group_order
        row[order:2 * order] = row[order + 1:2 * order] + row[order:order + 1]
        return back

    return corrupted


def generator_row_block_one_reads_block_zero(translations):
    """_translations with the last generator's row gathering block 1 from
    block 0: entry (w, 1) reads the edge (y, 0) that ends where the edge
    (a^-1 w, 1) does.  Block 0 is untouched and the row still commutes with
    every edge; only its blocks failing to repeat block 0 tell it apart."""
    def corrupted(cover):
        back = translations(cover)
        row, order = back[cover.edge_target[0][-1]], cover.group_order
        ends = {cover.edge_target[y][0]: y for y in range(order)}
        row[order:2 * order] = [ends[cover.edge_target[x][1]] for x in row[:order]]
        return back

    return corrupted


def generator_row_with_two_vertices_swapped(translations):
    """_translations with the last generator's row sending the two last
    vertices, neither the identity nor a generator's, each where the other
    went, in every block.  It still sends its vertex to the identity and
    repeats over the blocks, and the edge heads that the table names read
    it only at the generators' vertices; only its failing to commute with
    the edges tells it apart."""
    def corrupted(cover):
        back = translations(cover)
        row, order = back[cover.edge_target[0][-1]], cover.group_order
        assert order - 2 > max(cover.edge_target[0])
        for k in range(order - 2, len(row), order):
            row[k], row[k + 1] = row[k + 1], row[k]
        return back

    return corrupted


def last_row_is_the_one_before(translations):
    """_translations with the last vertex's row, none of the generators',
    replaced by the row before it.  The last vertex's edges are all basis
    edges, and the table puts their heads elsewhere than the cover does."""
    def corrupted(cover):
        back = translations(cover)
        back[-1] = back[-2]
        return back

    return corrupted


def every_row_translating_the_other_way(translations):
    """_translations with each vertex's row replaced by its inverse's, so
    that row v gathers v^-1.c instead of v.c.  Every row still commutes
    with the edge steps and the table still names every edge's head; only
    a generator's row failing to send its own vertex to the identity tells
    it apart."""
    def corrupted(cover):
        back = translations(cover)
        return [back[row[0]] for row in back]

    return corrupted
