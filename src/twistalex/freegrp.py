"""Reduced words in a finitely generated free group and endomorphisms
given by generator images (monodromies).

Words are only read here: parsed, evaluated under a homomorphism and
abelianized.  No word is multiplied or substituted into: a power of a
monodromy is lifted to a cover by chain maps (``cover.py``), and the word
algebra that spells f^d(w) is the tests' oracle (``tests/word_oracle.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from .errors import WordLengthError
from .exactla import IntMatrix

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
            raise WordLengthError(f"word has more than {MAX_WORD_LETTERS} letters")
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

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.blocks)

    def max_generator(self) -> int:
        return max((g for g, _ in self.blocks), default=-1)

    def exponent_sums(self, rank: int) -> list[int]:
        sums = [0] * rank
        for g, e in self.blocks:
            sums[g] += e
        return sums


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

    def abelianization_matrix(self) -> IntMatrix:
        """n x n exponent-sum matrix; column j abelianizes images[j]."""
        n = self.rank
        cols = [w.exponent_sums(n) for w in self.images]
        return IntMatrix(n, n, [cols[j][i] for i in range(n) for j in range(n)])
