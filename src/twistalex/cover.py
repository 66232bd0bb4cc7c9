"""The G-regular cover of a bouquet of circles, lifts of monodromy powers,
and the induced twisted Alexander data (sI - H presentation, delta).

The cover of the one-vertex graph with n loops attached to a surjection
alpha onto a finite group G has vertex set G and an edge g -> g*alpha(x_i)
for every vertex g and loop x_i.  Loops at the base lift to edge paths;
the first homology of the cover is free on the edges outside a spanning
tree.  One breadth-first closure of the images gives the vertices, the
edges, the tree and the check that alpha is onto.  A compatible monodromy
power fixes every vertex of the cover; one chain of homomorphisms
alpha . f^k, k = 0..d, gives the compatibility check (its last member is
alpha again) and the action on basis cycles, a product of chain maps, one
per factor of the power, each spelling f's own short images as edge paths.
The chain maps commute with left translation by G, so only the images of
the n edges at the identity are pushed through them (the rows of f^d's Fox
matrix over Z[G]), each a flat integer list of length n*|G| with edge
(w, l) at l*|G| + w.  A translate is one gather through a row of one
table whose rows are composed along the tree.  The columns of H are
assembled from those images by such translates, on the non-tree positions
only; that they are images of cycles is certified once, from the n pushed
chains and the generators' rows of the table, not column by column.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator

from . import laurent
from .errors import InternalError, InvariantError, SizeLimitError, number_text
from .exactla import IntMatrix, CokernelInvariants, char_poly, smith_normal_form
from .freegrp import FreeEndo
from .grouphom import FiniteHom, _closure
from .laurent import LaurentPoly

# Cap on the work of the chain-map product in lift_power_matrix, counted in
# inner-loop operations: each of the d steps is charged the cost of pushing
# every basis cycle through it, times the 64-bit limbs of the largest entry
# of the pushed chains.  A step pushes only n chains, about n * |G| * (the
# letters of f's images) operations, so the charge is a conservative bound,
# kept so that the set of refused inputs does not change with the route.
# The translation table, n * |G|^2 entries, is charged up front too (the
# tree images and the table's gathers at the non-tree positions hold
# |G| * H1 rank entries each, no more than that); that refuses more only
# when n = 1, where a step's charge is linear in |G|.
# The figure-eight map at d = 100 over Z/25 spends about 8e5.
MAX_LIFT_WORK = 2 * 10**7


@dataclasses.dataclass(frozen=True, eq=False)
class CoverGraph:
    """The regular cover of an n-loop bouquet attached to alpha.

    Vertices are group elements in breadth-first discovery order from the
    identity, generators in index order; the spanning tree is that of the
    search, and ``tree[v]`` is the tree edge (vertex index, generator
    index) that enters v (None at the identity).  The homology basis is
    the sorted list of non-tree edges.
    """

    rank: int
    alpha: FiniteHom
    vertices: tuple
    edge_target: tuple[tuple[int, ...], ...]
    tree: tuple[tuple[int, int] | None, ...]
    basis: tuple[tuple[int, int], ...]

    @property
    def group_order(self) -> int:
        return len(self.vertices)

    @property
    def h1_rank(self) -> int:
        return len(self.basis)


def build_cover(rank: int, alpha: FiniteHom) -> CoverGraph:
    """Construct the cover attached to alpha from one breadth-first closure
    of the images, which also shows alpha is onto (it reaches all of G)."""
    if alpha.rank != rank:
        raise ValueError(f"alpha has rank {alpha.rank}, expected {rank}")
    vertices, parent, edge_target = _closure(alpha)
    target = alpha.target
    order = len(vertices)
    if order != target.order:
        raise InvariantError(
            f"images generate a proper subgroup of {target.name()}; cover would be disconnected")
    tree_edges = set(parent[1:])
    basis = tuple(sorted(
        (v, g) for v in range(order) for g in range(rank) if (v, g) not in tree_edges))
    if len(basis) != rank * order - order + 1:
        raise InternalError(f"spanning tree leaves {len(basis)} edges, "
                            f"expected {rank * order - order + 1}")
    return CoverGraph(
        rank=rank,
        alpha=alpha,
        vertices=tuple(vertices),
        edge_target=tuple(edge_target),
        tree=tuple(parent),
        basis=basis,
    )


def lift_power_matrix(cover: CoverGraph, f: FreeEndo, d: int) -> IntMatrix:
    """Matrix of the lift of f^d fixing the identity vertex, on the H1 basis.

    With a_k = alpha . f^k, the chain map Phi_k sends edge (v, i) of the
    Cayley graph of (G, a_k) to the edge chain of the path that f(x_i)
    spells from v in the Cayley graph of (G, a_(k-1)); that path ends at
    v*a_k(x_i).  So Phi_1 ... Phi_d carries the edge chain of a word w's
    path to that of f^d(w), and f^d is never expanded.  Every Phi_k
    commutes with left translation by G, so the product is fixed by the
    images c_i of the n edges (1, i), which grow one factor at a time on
    the right: c_i <- sum of +-u.c_j over the letters x_j^(+-1) that
    f(x_i) crosses at vertex u.  Column k of H is the image of the k-th
    basis cycle tree(v) + e_(v,g) - tree(head), read on the non-tree
    edges.  Free reduction cancels only an edge crossed against its
    reverse, so this is the matrix that spelling each word f^d(w) edge by
    edge gives.
    """
    if f.rank != cover.rank:
        raise ValueError("rank mismatch between endomorphism and cover")
    if d < 1:
        raise ValueError("d must be a positive integer")
    n, order = cover.rank, cover.group_order
    step = _charge_lift(f, order, d)
    homs = _alpha_chain(f, cover.alpha, d)
    if homs[-1].images != cover.alpha.images:
        raise InvariantError(
            "endomorphism does not satisfy alpha(f(x)) = alpha(x); it has no lift")
    back = _translations(cover)
    index = {x: k for k, x in enumerate(cover.vertices)}
    # chains[i][l * |G| + w]: coefficient of edge (w, l) in the image of edge (1, i)
    chains = [[int(k == i * order) for k in range(n * order)] for i in range(n)]
    work = 0
    for hom in homs[:-1]:  # Phi_1 first: a_0, ..., a_(d-1)
        images = [index[a] for a in hom.images]
        chains = [_spell(word, chains, images, back) for word in f.images]
        top = max((max(max(c), -min(c)) for c in chains), default=0)
        work += step * (1 + top.bit_length() // 64)
        if work > MAX_LIFT_WORK:
            raise SizeLimitError(f"lifting f^{d}: chain work passed the cap of "
                                 f"{MAX_LIFT_WORK} with entries of {top.bit_length()} bits")
    return _assemble(cover, back, chains)


def _charge_lift(f: FreeEndo, order: int, d: int) -> int:
    """One step's charge for lifting f^d over a cover of order |G|, whose
    H1 rank is (n - 1)|G| + 1; a SizeLimitError if the up-front charge
    passes MAX_LIFT_WORK.  It needs no cover built."""
    n = f.rank
    step = ((n - 1) * order + 2) * order * (n + sum(len(w) for w in f.images)) + 100
    charge = max(d * step, n * order * order)
    if charge > MAX_LIFT_WORK:
        raise SizeLimitError(f"lifting f^{number_text(d)} needs at least "
                             f"{number_text(charge)} units of chain work, above the "
                             f"cap of {MAX_LIFT_WORK}")
    return step


def _alpha_chain(f: FreeEndo, alpha: FiniteHom, d: int) -> list[FiniteHom]:
    """a_k = alpha . f^k for k = 0..d, each read off f's own images under
    a_(k-1), so f^d is never expanded.  f^d lifts exactly when a_d = alpha
    (both are homomorphisms, so generators suffice)."""
    chain = [alpha]
    for _ in range(d):
        chain.append(chain[-1].precompose(f))
    return chain


def _translations(cover: CoverGraph) -> list[list[int]]:
    """back[v][l*|G| + w] = l*|G| + index(v^-1 w), so the flat chain v.c
    is c gathered through back[v]; v^-1 is back[v][0] and v*g is
    back[back[v][0]][g].  The row of each generator's vertex a comes from
    the tree walk: the path to w = p*alpha(x_h), read from a instead of
    the identity, ends at a*w = edge_target[a*p][h], with no group
    multiplication; that permutation is inverted and repeated over the n
    blocks.  Every other row is one gather, back[p*a_h] = back[a_h] o
    back[p] for tree[w] = (p, h)."""
    n, order = cover.rank, cover.group_order
    steps = cover.tree[1:]
    back = [list(range(n * order))] + [None] * (order - 1)
    for a in set(cover.edge_target[0]):
        row = [a]  # row[w] = index(a*w)
        for p, h in steps:
            row.append(cover.edge_target[row[p]][h])
        inverse = [0] * order
        for w, x in enumerate(row):
            inverse[x] = w
        back[a] = [l * order + w for l in range(n) for w in inverse]
    for w, (p, h) in enumerate(steps, 1):
        if back[w] is None:
            back[w] = list(map(back[cover.edge_target[0][h]].__getitem__, back[p]))
    return back


def _spell(word, chains, images, back) -> list[int]:
    """The image of the edge chain that word spells from the identity in
    the Cayley graph whose generators have the vertex indices ``images``:
    each letter x_j^(+-1) crossed at vertex u adds +-u.chains[j], one
    gather through back[u]."""
    out = [0] * len(back[0])
    u = 0
    for j, e in word.blocks:
        op = operator.add if e > 0 else operator.sub
        a = images[j] if e > 0 else back[images[j]][0]  # u moves to u*a
        for _ in range(abs(e)):
            if e < 0:
                u = back[back[u][0]][a]
            out = list(map(op, out, map(chains[j].__getitem__, back[u])))
            if e > 0:
                u = back[back[u][0]][a]
    return out


def _assemble(cover: CoverGraph, back, chains) -> IntMatrix:
    """H from the images c_g of the edges at the identity, built on the
    non-tree positions only.  Each row of the table is gathered once at
    the positions; the tree images are T(1) = 0, T(w) = T(p) + p.c_h for
    tree[w] = (p, h), and column (v, g) is T(v) + v.c_g - T(head).

    Those sums are linear in the c_g and each translate is a chain
    isomorphism, so every column is a cycle once ``_closes`` certifies
    the chains and the table."""
    if not _closes(cover, back, chains):
        raise InternalError("image of a basis cycle did not close up at the basepoint")
    add, sub = operator.add, operator.sub
    positions = [l * cover.group_order + w for w, l in cover.basis]
    at = [list(map(row.__getitem__, positions)) for row in back]
    tree_images = [[0] * len(positions)]
    for p, h in cover.tree[1:]:
        tree_images.append(list(map(add, tree_images[p], map(chains[h].__getitem__, at[p]))))
    heads = cover.edge_target
    columns = [list(map(sub, map(add, tree_images[v], map(chains[g].__getitem__, at[v])),
                        tree_images[heads[v][g]]))
               for v, g in cover.basis]
    del at, tree_images  # freed before H's entries are copied out, which sets the peak
    return IntMatrix(len(columns), len(columns), itertools.chain.from_iterable(zip(*columns)))


def _closes(cover: CoverGraph, back, chains) -> bool:
    """The certificate that every image of a basis cycle closes up, in
    O(n^2 |G|) steps, over heads[l*|G| + w], the head of edge (w, l), in
    the layout of the chains and the table's rows:

    (a) each pushed chain c_i has boundary [a_i] - [1], a_i the vertex of
        alpha(x_i), read in one pass over its entries: +x at the head and
        -x at the tail w of each edge (w, l);
    (b) each generator's row of the table is the left translation by
        a^-1: its block 0 sends a to the identity, every other block
        repeats block 0, and the row commutes with every edge,
        block[heads[k]] = heads[row[k]];
    (c) every edge (v, g), tree or basis, ends where the table says:
        edge_target[v][g] = back[back[v][0]][a_g].

    By (b) every row composed from the generators' rows is the translation
    by its vertex's inverse, so v.c has boundary v.[a_g] - v.[1] by (a),
    the tree images telescope to [w] - [1], and every column's boundary is
    zero.  The composition and the column sums do not branch on the input
    and are not re-checked here; (c) reads the composed rows at the
    entries that name an edge's head."""
    order = cover.group_order
    gens = cover.edge_target[0]
    heads = [row[l] for l in range(cover.rank) for row in cover.edge_target]
    for a, chain in zip(gens, chains):
        net = [0] * order  # inflow minus outflow at every vertex
        for k, x in enumerate(chain):
            net[heads[k]] += x
            net[k % order] -= x
        net[a] -= 1
        net[0] += 1
        if any(net):
            return False
    for a in set(gens):
        row = back[a]
        block = row[:order]
        if (block[a] != 0
                or row != [k + w for k in range(0, len(row), order) for w in block]
                or list(map(block.__getitem__, heads)) != list(map(heads.__getitem__, row))):
            return False
    return heads == [back[back[v][0]][a_g] for a_g in gens for v in range(order)]


@dataclasses.dataclass(frozen=True)
class TwistedInvariants:
    """Twisted Alexander data of a fibred monodromy over a finite cover:
    the action H of s on the cover's first homology, and delta =
    det(sI - H) in canonical form, the one maximal minor of the square
    presentation sI - H."""

    h_matrix: IntMatrix
    delta: LaurentPoly


def twisted_invariants(f: FreeEndo, d: int, alpha: FiniteHom) -> TwistedInvariants:
    """Compute the invariants of the d-fold cover data (f, alpha).

    Only the d-th power of the monodromy needs to be compatible with
    alpha; it is lifted as a product of d chain maps.  A cover too large
    to lift is refused from the order of alpha's target, before it is built.
    """
    if d < 1:
        raise InvariantError("d must be a positive integer")
    _charge_lift(f, alpha.target.order, d)
    cover = build_cover(f.rank, alpha)
    h = lift_power_matrix(cover, f, d)
    return TwistedInvariants(h_matrix=h, delta=laurent.canonicalize(char_poly(h)))


def branched_cover_homology_from_monodromy(f: FreeEndo, d: int) -> CokernelInvariants:
    """H1 of the d-fold branched cover: coker(T^d - I) for T the
    abelianized monodromy."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    t = f.abelianization_matrix()
    n = t.rows
    return smith_normal_form(t ** d - IntMatrix.identity(n)).cokernel()
