"""The G-regular cover of a bouquet of circles, lifts of monodromy powers,
and the induced twisted Alexander data (sI - H presentation, delta).

The cover of the one-vertex graph with n loops attached to a surjection
alpha onto a finite group G has vertex set G and an edge g -> g*alpha(x_i)
for every vertex g and loop x_i.  Loops at the base lift to edge paths;
the first homology of the cover is free on the edges outside a spanning
tree.  A compatible monodromy power fixes every vertex of the cover, and
its action on basis cycles is read off by spelling image words as edge
paths and recording the non-tree edges they cross.
"""

from __future__ import annotations

import dataclasses

from . import laurent
from .errors import CompatibilityError, InternalError, NonSurjectiveError
from .exactla import (IntMatrix, LambdaMatrix, CokernelInvariants, char_poly,
                      cokernel_invariants, si_minus)
from .freegrp import FreeEndo, Word, check_compatibility
from .grouphom import FiniteHom, generated_subgroup_order
from .laurent import LaurentPoly


@dataclasses.dataclass(frozen=True, eq=False)
class CoverGraph:
    """The regular cover of an n-loop bouquet attached to alpha.

    Vertices are group elements in discovery order (identity first); the
    spanning tree is grown from the identity in generator-index order.
    The homology basis is the sorted list of non-tree edges (vertex index,
    generator index).
    """

    rank: int
    alpha: FiniteHom
    vertices: tuple
    edge_target: tuple[tuple[int, ...], ...]
    edge_source: tuple[tuple[int, ...], ...]
    tree_words: tuple[Word, ...]
    basis: tuple[tuple[int, int], ...]

    @property
    def group_order(self) -> int:
        return len(self.vertices)

    @property
    def h1_rank(self) -> int:
        return len(self.basis)

    def basis_index(self, vertex: int, gen: int) -> int | None:
        try:
            return self.basis.index((vertex, gen))
        except ValueError:
            return None

    def schreier_word(self, vertex: int, gen: int) -> Word:
        """The loop class of an edge: tree word in, the edge, tree word out."""
        head = self.edge_target[vertex][gen]
        return self.tree_words[vertex] * Word.generator(gen) * self.tree_words[head].inverse()


def build_cover(rank: int, alpha: FiniteHom, tree: str = "bfs") -> CoverGraph:
    """Construct the cover attached to a surjective alpha.

    ``tree`` selects the deterministic spanning-tree traversal ("bfs" or
    "dfs"); any choice changes the induced matrices by conjugation only.
    """
    if alpha.rank != rank:
        raise ValueError(f"alpha has rank {alpha.rank}, expected {rank}")
    target = alpha.target
    if generated_subgroup_order(alpha) != target.order:
        raise NonSurjectiveError(
            f"images generate a proper subgroup of {target.name()}; cover would be disconnected")
    if tree not in ("bfs", "dfs"):
        raise ValueError(f"unknown tree order {tree!r}")

    gens = [alpha.images[i] for i in range(rank)]
    vertices = [target.identity]
    index = {target.identity: 0}
    tree_words: list[Word] = [Word.identity()]
    tree_edges: set[tuple[int, int]] = set()

    if tree == "bfs":
        cursor = 0
        while cursor < len(vertices):
            v = vertices[cursor]
            for g in range(rank):
                w = target.mul(v, gens[g])
                if w not in index:
                    index[w] = len(vertices)
                    vertices.append(w)
                    tree_words.append(tree_words[cursor] * Word.generator(g))
                    tree_edges.add((cursor, g))
            cursor += 1
    else:
        stack = [0]
        while stack:
            vi = stack.pop()
            v = vertices[vi]
            for g in reversed(range(rank)):
                w = target.mul(v, gens[g])
                if w not in index:
                    index[w] = len(vertices)
                    vertices.append(w)
                    tree_words.append(tree_words[vi] * Word.generator(g))
                    tree_edges.add((vi, g))
                    stack.append(index[w])

    order = len(vertices)
    edge_target = tuple(
        tuple(index[target.mul(vertices[v], gens[g])] for g in range(rank))
        for v in range(order))
    edge_source = [[0] * rank for _ in range(order)]
    for v in range(order):
        for g in range(rank):
            edge_source[edge_target[v][g]][g] = v
    basis = tuple(sorted(
        (v, g) for v in range(order) for g in range(rank) if (v, g) not in tree_edges))
    if len(basis) != rank * order - order + 1:
        raise InternalError(f"spanning tree leaves {len(basis)} edges, "
                            f"expected {rank * order - order + 1}")
    return CoverGraph(
        rank=rank,
        alpha=alpha,
        vertices=tuple(vertices),
        edge_target=edge_target,
        edge_source=tuple(tuple(r) for r in edge_source),
        tree_words=tuple(tree_words),
        basis=basis,
    )


def lift_action_matrix(cover: CoverGraph, f: FreeEndo) -> IntMatrix:
    """Matrix of the lift of f fixing the identity vertex, on the H1 basis.

    Column k is the homology class of the image of the k-th basis cycle:
    the image loop word is spelled as an edge path from the identity
    vertex, tree edges contributing nothing and each non-tree edge its
    basis vector.
    """
    if f.rank != cover.rank:
        raise ValueError("rank mismatch between endomorphism and cover")
    if not check_compatibility(f, cover.alpha):
        raise CompatibilityError(
            "endomorphism does not satisfy alpha(f(x)) = alpha(x); it has no lift")
    basis_idx = {edge: k for k, edge in enumerate(cover.basis)}
    n = cover.h1_rank
    columns = []
    for (v, g) in cover.basis:
        word = f(cover.schreier_word(v, g))
        vec = [0] * n
        cur = 0
        for gen, sign in word.letters():
            if sign > 0:
                k = basis_idx.get((cur, gen))
                if k is not None:
                    vec[k] += 1
                cur = cover.edge_target[cur][gen]
            else:
                prev = cover.edge_source[cur][gen]
                k = basis_idx.get((prev, gen))
                if k is not None:
                    vec[k] -= 1
                cur = prev
        if cur != 0:
            raise InternalError("image of a kernel word did not close up at the basepoint")
        columns.append(vec)
    return IntMatrix(n, n, [columns[j][i] for i in range(n) for j in range(n)])


@dataclasses.dataclass(frozen=True)
class TwistedInvariants:
    """Twisted Alexander data of a fibred monodromy over a finite cover:
    the action H of s on the cover's first homology, the square
    presentation sI - H, and delta = det(sI - H) in canonical form."""

    h_matrix: IntMatrix
    presentation: LambdaMatrix
    delta: LaurentPoly
    ideal_generators: tuple[LaurentPoly, ...]


def twisted_invariants(f: FreeEndo, d: int, alpha: FiniteHom,
                       tree: str = "bfs") -> TwistedInvariants:
    """Compute the invariants of the d-fold cover data (f, alpha).

    Only the d-th power of the monodromy needs to be compatible with
    alpha, so the power is taken first and lifted once.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    fd = f.power(d)
    cover = build_cover(f.rank, alpha, tree=tree)
    h = lift_action_matrix(cover, fd)
    delta = laurent.canonicalize(char_poly(h))
    return TwistedInvariants(
        h_matrix=h,
        presentation=si_minus(h),
        delta=delta,
        ideal_generators=(delta,),
    )


def branched_cover_homology_from_monodromy(f: FreeEndo, d: int) -> CokernelInvariants:
    """H1 of the d-fold branched cover: coker(T^d - I) for T the
    abelianized monodromy."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    t = f.abelianization_matrix()
    n = t.rows
    return cokernel_invariants(t ** d - IntMatrix.identity(n))
