"""Finite permutation and cyclic groups, homomorphisms from finitely
presented groups by generator assignment, and relation verification."""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Union

from .errors import InvariantError, ParseError, SizeLimitError, number_text
from .freegrp import Word
from .laurent import _binpow

CLOSURE_BOUND = 10**6


@dataclasses.dataclass(frozen=True)
class Perm:
    """A permutation of {0..m-1}; ``images[i]`` is where i goes.

    Products compose like functions: ``(p * q)(x) == p(q(x))``, so a word
    evaluated left to right applies its rightmost factor first.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise InvariantError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm(tuple(self.images[other.images[x]] for x in range(self.degree)))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(tuple(inv))

    def __pow__(self, n: int) -> "Perm":
        base = self if n >= 0 else self.inverse()
        return _binpow(base, abs(n), Perm.__mul__, Perm.identity(self.degree))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    @property
    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def __str__(self) -> str:
        return perm_to_cycle_text(self)


def perm_to_cycle_text(p: Perm) -> str:
    """Cycle notation with 1-indexed points, e.g. ``(1 3 2)(4 5)``."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)


def perm_from_cycle_text(text: str, degree: int, line: int | None = None) -> Perm:
    """Parse disjoint-cycle notation, 1-indexed points.

    Accepts spaced points ``(1 3 2)`` and, for single-digit points, the
    juxtaposed form ``(132)``.  ``()`` is the identity.
    """
    images = list(range(degree))
    moved: set[int] = set()
    text = text.strip()
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "(":
            raise ParseError(f"expected '(' in cycle notation, got {text[i]!r}", line, i + 1)
        j = text.find(")", i)
        if j < 0:
            raise ParseError("unclosed cycle", line, i + 1)
        body = text[i + 1 : j].replace(",", " ").strip()
        if body:
            try:
                points = [int(tok) for tok in (body.split() if " " in body else body)]
            except ValueError:
                raise ParseError("malformed cycle point", line, i + 1) from None
            if any(not 1 <= x <= degree for x in points):
                raise ParseError(f"cycle point out of range 1..{degree}", line, i + 1)
            pts0 = [x - 1 for x in points]
            if len(set(pts0)) != len(pts0) or moved & set(pts0):
                raise ParseError("repeated point in cycle notation", line, i + 1)
            moved.update(pts0)
            for k, x in enumerate(pts0):
                images[x] = pts0[(k + 1) % len(pts0)]
        i = j + 1
    return Perm(tuple(images))


# -- target groups ---------------------------------------------------------
#
# A target is a small descriptor with a uniform duck-typed surface:
# order, identity, mul, pow (pow(a, -1) is the inverse), contains, name.


@dataclasses.dataclass(frozen=True)
class CyclicTarget:
    """Z_r with elements 0..r-1 under addition."""

    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("cyclic order must be >= 1")

    @property
    def order(self) -> int:
        return self.r

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.r

    def pow(self, a: int, n: int) -> int:
        return (a * n) % self.r

    def contains(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.r

    def name(self) -> str:
        return f"Z/{self.r}"


@dataclasses.dataclass(frozen=True)
class PermutationTarget:
    """S_m, or A_m when even_only is set."""

    degree: int
    even_only: bool = False

    @property
    def order(self) -> int:
        n = math.factorial(self.degree)
        if self.even_only and self.degree >= 2:
            n //= 2
        return n

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def mul(self, a: Perm, b: Perm) -> Perm:
        return a * b

    def pow(self, a: Perm, n: int) -> Perm:
        return a ** n

    def contains(self, x) -> bool:
        return (isinstance(x, Perm) and x.degree == self.degree
                and (not self.even_only or x.is_even))

    def name(self) -> str:
        return ("A" if self.even_only else "S") + str(self.degree)


def cyclic(r: int) -> CyclicTarget:
    return CyclicTarget(r)


def alternating(degree: int) -> PermutationTarget:
    return PermutationTarget(degree, even_only=True)


def symmetric(degree: int) -> PermutationTarget:
    return PermutationTarget(degree, even_only=False)


Target = Union[CyclicTarget, PermutationTarget]


@dataclasses.dataclass(frozen=True, init=False)
class FiniteHom:
    """A homomorphism from the free group of the given rank into a finite
    target, determined by its generator images."""

    rank: int
    target: Target
    images: tuple

    def __init__(self, rank: int, target: Target, images: Iterable):
        images = tuple(images)
        if len(images) != rank:
            raise ValueError(f"need {rank} images, got {len(images)}")
        for x in images:
            if not target.contains(x):
                raise InvariantError(f"image {x} does not lie in {target.name()}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def evaluate(self, w: Word):
        """Image of a word: the product of generator images along its letters."""
        acc = self.target.identity
        for g, e in w.blocks:
            if g >= self.rank:
                raise ValueError(f"generator index {g} out of range for rank {self.rank}")
            acc = self.target.mul(acc, self.target.pow(self.images[g], e))
        return acc

    def precompose(self, f) -> "FiniteHom":
        """This homomorphism after the endomorphism f of its source: the
        images of f's generator images."""
        return FiniteHom(self.rank, self.target, [self.evaluate(w) for w in f.images])


@dataclasses.dataclass(frozen=True, init=False)
class Presentation:
    """A finite presentation: rank-many generators and relator words
    (each relator is written so that it evaluates to the identity)."""

    rank: int
    relators: tuple[Word, ...]

    def __init__(self, rank: int, relators: Iterable[Word]):
        relators = tuple(relators)
        for w in relators:
            if w.max_generator() >= rank:
                raise ValueError("relator uses a generator outside the rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "relators", relators)


def verify_homomorphism(hom: FiniteHom, pres: Presentation) -> tuple[int, ...]:
    """Indices of relators NOT killed by the homomorphism (empty = valid)."""
    if hom.rank != pres.rank:
        raise ValueError("rank mismatch between homomorphism and presentation")
    failures = []
    for k, rel in enumerate(pres.relators):
        if hom.evaluate(rel) != hom.target.identity:
            failures.append(k)
    return tuple(failures)


def generated_subgroup_order(hom: FiniteHom) -> int:
    """Order of the subgroup generated by the images."""
    return len(_closure(hom)[0])


def check_closure_bound(target: Target) -> None:
    """Raise SizeLimitError when the order of target passes CLOSURE_BOUND.

    S_k and A_k are refused from the degree alone: the factorial is
    multiplied up only until it passes the bound, so no degree, however
    large, costs a full factorial or a list of its points.  This bounds the
    ambient group, not the subgroup that the images generate; closure of a
    target given by its generators is to replace it."""
    if isinstance(target, CyclicTarget):
        if target.order > CLOSURE_BOUND:
            raise SizeLimitError(f"target order {number_text(target.order)} exceeds the "
                                 f"closure bound {CLOSURE_BOUND}")
        return
    order = 1
    for k in range(3, target.degree + 1):  # order of S_k / 2, or of A_k
        order *= k
        if order * (1 if target.even_only else 2) > CLOSURE_BOUND:
            raise SizeLimitError(
                f"target order of {'A' if target.even_only else 'S'}"
                f"{number_text(target.degree)} exceeds the closure bound {CLOSURE_BOUND}")


def _closure(hom: FiniteHom) -> tuple[list, list, list]:
    """Breadth-first closure of the identity under right multiplication by
    the generator images: the elements in discovery order (identity first),
    for each element the (element index, generator index) edge that first
    reached it (None at the identity), and for each element the indices of
    its products with the images, in generator order."""
    target = hom.target
    check_closure_bound(target)
    elements = [target.identity]
    index = {target.identity: 0}
    parent: list[tuple[int, int] | None] = [None]
    products: list[tuple[int, ...]] = []
    for k, x in enumerate(elements):  # also visits the elements appended below
        row = []
        for g, a in enumerate(hom.images):
            y = target.mul(x, a)
            j = index.get(y)
            if j is None:
                j = index[y] = len(elements)
                elements.append(y)
                parent.append((k, g))
            row.append(j)
        products.append(tuple(row))
    return elements, parent, products
