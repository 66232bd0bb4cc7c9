"""Reduced words in a finitely generated free group and endomorphisms
given by generator images (monodromies and their powers)."""

from __future__ import annotations

import dataclasses
import random
from typing import Iterable, Iterator

from .errors import WordLengthError
from .exactla import IntMatrix
from .laurent import _binpow

MAX_WORD_LETTERS = 10**7


def _reduce_blocks(blocks: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Freely reduce a run-length block sequence; enforces the letter cap."""
    stack: list[list[int]] = []
    total = 0
    for g, e in blocks:
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            top = stack[-1]
            total -= abs(top[1])
            top[1] += e
            if top[1] == 0:
                stack.pop()
            else:
                total += abs(top[1])
        else:
            stack.append([g, e])
            total += abs(e)
        if total > MAX_WORD_LETTERS:
            raise WordLengthError(
                f"word grew past {MAX_WORD_LETTERS} letters; monodromy power too large")
    return tuple((g, e) for g, e in stack)


@dataclasses.dataclass(frozen=True, init=False)
class Word:
    """A freely reduced word, stored as (generator index, signed exponent)
    blocks with nonzero exponents and distinct adjacent generators."""

    blocks: tuple[tuple[int, int], ...]

    def __init__(self, blocks: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "blocks", _reduce_blocks(blocks))

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def generator(cls, i: int, exp: int = 1) -> "Word":
        return cls(((i, exp),))

    @property
    def is_identity(self) -> bool:
        return not self.blocks

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.blocks)

    def letters(self) -> Iterator[tuple[int, int]]:
        """Yield expanded letters (generator, +1 or -1), left to right."""
        for g, e in self.blocks:
            sign = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield g, sign

    def max_generator(self) -> int:
        return max((g for g, _ in self.blocks), default=-1)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.blocks)))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.blocks + other.blocks)

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return _binpow(base, abs(n), Word.__mul__, Word.identity())

    def exponent_sums(self, rank: int) -> list[int]:
        sums = [0] * rank
        for g, e in self.blocks:
            sums[g] += e
        return sums

    def __str__(self) -> str:
        if not self.blocks:
            return "1"
        return " ".join(f"x{g}" + (f"^{e}" if e != 1 else "") for g, e in self.blocks)


@dataclasses.dataclass(frozen=True, init=False)
class FreeEndo:
    """Endomorphism of a free group of the given rank, by generator images."""

    rank: int
    images: tuple[Word, ...]

    def __init__(self, rank: int, images: Iterable[Word]):
        images = tuple(images)
        if len(images) != rank:
            raise ValueError(f"need {rank} images, got {len(images)}")
        for w in images:
            if w.max_generator() >= rank:
                raise ValueError("image uses a generator outside the rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, rank: int) -> "FreeEndo":
        return cls(rank, [Word.generator(i) for i in range(rank)])

    def __call__(self, w: Word) -> Word:
        """Apply to a word: substitute every image, then freely reduce once."""
        if w.max_generator() >= self.rank:
            raise ValueError("word uses a generator outside the rank")

        def blocks():
            for g, e in w.blocks:
                image = self.images[g] if e > 0 else self.images[g].inverse()
                for _ in range(abs(e)):
                    yield from image.blocks

        return Word(blocks())

    def compose(self, other: "FreeEndo") -> "FreeEndo":
        """self after other: (self.compose(other))(w) == self(other(w))."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeEndo(self.rank, [self(img) for img in other.images])

    def power(self, d: int) -> "FreeEndo":
        """d-fold composition; d = 0 gives the identity endomorphism."""
        if d < 0:
            raise ValueError("negative powers are not defined for endomorphisms")
        return _binpow(self, d, FreeEndo.compose, FreeEndo.identity(self.rank))

    def abelianization_matrix(self) -> IntMatrix:
        """n x n exponent-sum matrix; column j abelianizes images[j]."""
        n = self.rank
        cols = [w.exponent_sums(n) for w in self.images]
        return IntMatrix(n, n, [cols[j][i] for i in range(n) for j in range(n)])


def check_compatibility(f: FreeEndo, alpha, d: int = 1) -> bool:
    """True iff alpha(f^d(x_i)) == alpha(x_i) for every generator.

    This is the lifting hypothesis for covers: f^d descends to the cover
    attached to alpha exactly when it holds (both sides are homomorphisms,
    so checking generators suffices).  alpha . f^k is read off f's own
    images under alpha . f^(k-1), so f^d is never expanded.
    """
    beta = alpha
    for _ in range(d):
        beta = beta.precompose(f)
    return beta.images == alpha.images


def random_nielsen_automorphism(rank: int, moves: int, rng: random.Random) -> FreeEndo:
    """Compose up to ``moves`` elementary Nielsen moves into an automorphism.

    Moves: swap two generators, invert a generator, or right-multiply one
    generator by another (or its inverse).
    """
    f = FreeEndo.identity(rank)
    for _ in range(moves):
        kind = rng.randrange(3)
        images = [Word.generator(i) for i in range(rank)]
        if kind == 0 and rank >= 2:
            i, j = rng.sample(range(rank), 2)
            images[i], images[j] = images[j], images[i]
        elif kind == 1:
            i = rng.randrange(rank)
            images[i] = Word.generator(i, -1)
        else:
            if rank < 2:
                continue
            i, j = rng.sample(range(rank), 2)
            e = rng.choice((1, -1))
            images[i] = Word(((i, 1), (j, e)))
        f = FreeEndo(rank, images).compose(f)
    return f
