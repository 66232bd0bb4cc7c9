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
the n edges at the identity are pushed through them, as n integer vectors
of length |G| each (the rows of f^d's Fox matrix over Z[G]); the columns
of H are assembled from those images by translation along the tree.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator

from . import laurent
from .errors import (CompatibilityError, InternalError, LiftSizeError,
                     NonSurjectiveError)
from .exactla import IntMatrix, CokernelInvariants, Pencil, smith_normal_form
from .freegrp import FreeEndo
from .grouphom import FiniteHom, _closure
from .laurent import LaurentPoly

# Cap on the work of the chain-map product in lift_power_matrix, counted in
# inner-loop operations: each of the d steps is charged the cost of pushing
# every basis cycle through it, times the 64-bit limbs of the largest entry
# of the pushed chains.  A step pushes only n chains, about n * |G| * (the
# letters of f's images) operations, so the charge is a conservative bound,
# kept so that the set of refused inputs does not change with the route.
# The translation table and the tree images, n * |G|^2 entries, are charged
# up front too; that refuses more only when n = 1, where a step's charge is
# linear in |G|.
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
        raise NonSurjectiveError(
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
    step = (cover.h1_rank + 1) * order * (n + sum(len(w) for w in f.images)) + 100
    # The translation table and the tree images hold n * |G|^2 entries,
    # less than one step's charge unless n = 1.
    charge = max(d * step, n * order * order)
    if charge > MAX_LIFT_WORK:
        raise LiftSizeError(f"lifting f^{d} needs at least {charge} units of "
                            f"chain work, above the cap of {MAX_LIFT_WORK}")
    homs = _alpha_chain(f, cover.alpha, d)
    if homs[-1].images != cover.alpha.images:
        raise CompatibilityError(
            "endomorphism does not satisfy alpha(f(x)) = alpha(x); it has no lift")
    left = _left_translations(cover)
    inverse = [row.index(0) for row in left]
    index = {x: k for k, x in enumerate(cover.vertices)}
    # chains[i][l][w]: coefficient of edge (w, l) in the image of edge (1, i)
    chains = [[[int(l == i and w == 0) for w in range(order)] for l in range(n)]
              for i in range(n)]
    work = 0
    for hom in homs[:-1]:  # Phi_1 first: a_0, ..., a_(d-1)
        images = [index[a] for a in hom.images]
        chains = [_spell(word, chains, images, left, inverse) for word in f.images]
        top = max((max(max(c), -min(c)) for chain in chains for c in chain), default=0)
        work += step * (1 + top.bit_length() // 64)
        if work > MAX_LIFT_WORK:
            raise LiftSizeError(f"lifting f^{d}: chain work passed the cap of "
                                f"{MAX_LIFT_WORK} with entries of "
                                f"{top.bit_length()} bits")
    return _assemble(cover, left, inverse, chains)


def _alpha_chain(f: FreeEndo, alpha: FiniteHom, d: int) -> list[FiniteHom]:
    """a_k = alpha . f^k for k = 0..d, each read off f's own images under
    a_(k-1), so f^d is never expanded.  f^d lifts exactly when a_d = alpha
    (both are homomorphisms, so generators suffice)."""
    chain = [alpha]
    for _ in range(d):
        chain.append(chain[-1].precompose(f))
    return chain


def _left_translations(cover: CoverGraph) -> list[list[int]]:
    """left[u][w] is the index of u*w: the tree path to w = p*alpha(x_h),
    read from u instead of the identity, so left[u][w] =
    edge_target[left[u][p]][h], with no group multiplication."""
    steps = cover.tree[1:]
    left = []
    for u in range(cover.group_order):
        row = [u]
        for p, h in steps:
            row.append(cover.edge_target[row[p]][h])
        left.append(row)
    return left


def _spell(word, chains, images, left, inverse) -> list[list[int]]:
    """The image of the edge chain that word spells from the identity in
    the Cayley graph whose generators have the vertex indices ``images``:
    each letter x_j^(+-1) crossed at vertex u adds +-u.chains[j], gathered
    through the left translation by u^-1.  t tracks the index of u^-1."""
    out = [[0] * len(left) for _ in chains]
    t = 0
    for j, e in word.blocks:
        op = operator.add if e > 0 else operator.sub
        for _ in range(abs(e)):
            if e < 0:
                t = left[images[j]][t]
            out = [list(map(op, o, map(c.__getitem__, left[t]))) for o, c in zip(out, chains[j])]
            if e > 0:
                t = left[inverse[images[j]]][t]
    return out


def _assemble(cover: CoverGraph, left, inverse, chains) -> IntMatrix:
    """H from the images c_g of the edges at the identity: tree images
    T(1) = 0, T(w) = T(p) + p.c_h for tree[w] = (p, h); column (v, g) is
    T(v) + v.c_g - T(head), which must be a cycle (zero boundary at every
    vertex), read on the non-tree edges."""
    order = cover.group_order

    def moved(v, chain):  # v.chain: coefficient at (w, l) is chain[l][v^-1 w]
        perm = left[inverse[v]]
        return [list(map(c.__getitem__, perm)) for c in chain]

    tree_images = [[[0] * order for _ in chains]]
    for p, h in cover.tree[1:]:
        tree_images.append([list(map(operator.add, x, y))
                            for x, y in zip(tree_images[p], moved(p, chains[h]))])
    # sources[l][y] = y*alpha(x_l)^-1, the tail of the edge (., l) into y
    sources = [[row[inverse[a]] for row in left] for a in cover.edge_target[0]]
    positions = [l * order + w for w, l in cover.basis]
    columns = []
    for v, g in cover.basis:
        column = [list(map(operator.sub, map(operator.add, x, y), z)) for x, y, z in
                  zip(tree_images[v], moved(v, chains[g]), tree_images[cover.edge_target[v][g]])]
        inflow = zip(*(map(c.__getitem__, s) for c, s in zip(column, sources)))
        if any(map(operator.ne, map(sum, inflow), map(sum, zip(*column)))):
            raise InternalError("image of a basis cycle did not close up at the basepoint")
        flat = list(itertools.chain.from_iterable(column))
        columns.append(map(flat.__getitem__, positions))
    return IntMatrix.from_rows(zip(*columns))


@dataclasses.dataclass(frozen=True)
class TwistedInvariants:
    """Twisted Alexander data of a fibred monodromy over a finite cover:
    the action H of s on the cover's first homology, the square
    presentation sI - H as an integer pencil, and delta = det(sI - H) in
    canonical form, from the pencil's one determinant."""

    h_matrix: IntMatrix
    presentation: Pencil
    delta: LaurentPoly


def twisted_invariants(f: FreeEndo, d: int, alpha: FiniteHom) -> TwistedInvariants:
    """Compute the invariants of the d-fold cover data (f, alpha).

    Only the d-th power of the monodromy needs to be compatible with
    alpha; it is lifted as a product of d chain maps.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    cover = build_cover(f.rank, alpha)
    h = lift_power_matrix(cover, f, d)
    presentation = Pencil(h)
    return TwistedInvariants(
        h_matrix=h,
        presentation=presentation,
        delta=laurent.canonicalize(presentation.det()),
    )


def branched_cover_homology_from_monodromy(f: FreeEndo, d: int) -> CokernelInvariants:
    """H1 of the d-fold branched cover: coker(T^d - I) for T the
    abelianized monodromy."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    t = f.abelianization_matrix()
    n = t.rows
    return smith_normal_form(t ** d - IntMatrix.identity(n)).cokernel()
