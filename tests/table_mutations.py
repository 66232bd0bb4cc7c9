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
