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
"""

from __future__ import annotations

import dataclasses

from . import laurent
from .errors import (CompatibilityError, InternalError, LiftSizeError,
                     NonSurjectiveError)
from .exactla import IntMatrix, CokernelInvariants, Pencil, smith_normal_form
from .freegrp import FreeEndo
from .grouphom import FiniteHom, _closure
from .laurent import LaurentPoly

# Cap on the work of the chain-map product in lift_power_matrix, counted in
# inner-loop operations: each of the d steps is charged an upper bound on
# its operations times the 64-bit limbs of its largest entry.  The
# figure-eight map at d = 100 over Z/25 spends about 8e5; a run that
# reaches the cap takes a few seconds.
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

    Edge (v, i) of a Cayley graph on G has index v*n + i.  With a_k =
    alpha . f^k, the chain map Phi_k sends edge (v, i) of the Cayley graph
    of (G, a_k) to the edge chain of the path that f(x_i) spells from v in
    the Cayley graph of (G, a_(k-1)); that path ends at v*a_k(x_i).  So
    Phi_1 ... Phi_d carries the edge chain of a word w's path to that of
    f^d(w), and f^d is never expanded.  Column k is the image of the k-th
    basis cycle tree(v) + e_(v,g) - tree(head), read on the non-tree edges.
    Free reduction cancels only an edge crossed against its reverse, so
    this is the matrix that spelling each word f^d(w) edge by edge gives.
    """
    if f.rank != cover.rank:
        raise ValueError("rank mismatch between endomorphism and cover")
    if d < 1:
        raise ValueError("d must be a positive integer")
    n, order = cover.rank, cover.group_order
    columns = [_basis_cycle(cover, v, g) for v, g in cover.basis]
    # Operations of one step, per limb of the largest entry: pushing every
    # column through Phi_k, building Phi_k, and the step's fixed cost.
    step = (len(columns) + 1) * order * (n + sum(len(w) for w in f.images)) + 100
    if d * step > MAX_LIFT_WORK:
        raise LiftSizeError(f"lifting f^{d} needs at least {d * step} units of "
                            f"chain work, above the cap of {MAX_LIFT_WORK}")
    homs = _alpha_chain(f, cover.alpha, d)
    if homs[-1].images != cover.alpha.images:
        raise CompatibilityError(
            "endomorphism does not satisfy alpha(f(x)) = alpha(x); it has no lift")
    index = {x: k for k, x in enumerate(cover.vertices)}
    work = 0
    for hom in reversed(homs[:-1]):  # Phi_d first: a_(d-1), ..., a_0
        phi = _chain_map(f, hom, cover.vertices, index)
        columns = [_push(phi, c) for c in columns]
        top = max((max(max(c), -min(c)) for c in columns), default=0)
        work += step * (1 + top.bit_length() // 64)
        if work > MAX_LIFT_WORK:
            raise LiftSizeError(f"lifting f^{d}: chain work passed the cap of "
                                f"{MAX_LIFT_WORK} with entries of "
                                f"{top.bit_length()} bits")
    for c in columns:
        _check_closed(cover, c)
    return IntMatrix.from_rows([[c[v * n + g] for c in columns] for v, g in cover.basis])


def _alpha_chain(f: FreeEndo, alpha: FiniteHom, d: int) -> list[FiniteHom]:
    """a_k = alpha . f^k for k = 0..d, each read off f's own images under
    a_(k-1), so f^d is never expanded.  f^d lifts exactly when a_d = alpha
    (both are homomorphisms, so generators suffice)."""
    chain = [alpha]
    for _ in range(d):
        chain.append(chain[-1].precompose(f))
    return chain


def _basis_cycle(cover: CoverGraph, v: int, g: int) -> list[int]:
    """Edge chain tree(v) + e_(v,g) - tree(head) of a basis cycle."""
    n = cover.rank
    chain = [0] * (n * cover.group_order)
    chain[v * n + g] += 1
    for u, sign in ((v, 1), (cover.edge_target[v][g], -1)):
        while cover.tree[u] is not None:
            u, h = cover.tree[u]
            chain[u * n + h] += sign
    return chain


def _chain_map(f: FreeEndo, hom: FiniteHom, vertices, index) -> list[tuple]:
    """Phi for f over hom: for each edge v*n + i, the edges that the path
    f(x_i) spells from v in the Cayley graph of (G, hom) crosses forwards,
    and those it crosses backwards."""
    target = hom.target
    n = f.rank
    forward = [[index[target.mul(x, a)] for a in hom.images] for x in vertices]
    inverses = [target.inv(a) for a in hom.images]
    backward = [[index[target.mul(x, a)] for a in inverses] for x in vertices]
    phi = []
    for v in range(len(vertices)):
        for word in f.images:
            plus, minus = [], []
            u = v
            for j, e in word.blocks:
                for _ in range(abs(e)):
                    if e > 0:
                        plus.append(u * n + j)
                        u = forward[u][j]
                    else:
                        u = backward[u][j]
                        minus.append(u * n + j)
            phi.append((plus, minus))
    return phi


def _push(phi: list[tuple], chain: list[int]) -> list[int]:
    out = [0] * len(chain)
    for edge, x in enumerate(chain):
        if x:
            plus, minus = phi[edge]
            for image in plus:
                out[image] += x
            for image in minus:
                out[image] -= x
    return out


def _check_closed(cover: CoverGraph, chain: list[int]) -> None:
    """An image of a cycle must be a cycle: zero boundary at every vertex."""
    n = cover.rank
    boundary = [0] * cover.group_order
    for edge, x in enumerate(chain):
        if x:
            v, g = divmod(edge, n)
            boundary[v] -= x
            boundary[cover.edge_target[v][g]] += x
    if any(boundary):
        raise InternalError("image of a basis cycle did not close up at the basepoint")


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
