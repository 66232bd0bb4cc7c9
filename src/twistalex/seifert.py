"""Seifert-matrix pipelines: the classical Alexander polynomial, branched
cyclic-cover homology via the block presentation, the monodromy-power
presentation H^n - I, resultant consistency, and character jumps."""

from __future__ import annotations

import dataclasses
import math
import random

from . import laurent
from .errors import InvariantError, SizeLimitError
from .exactla import (CokernelInvariants, IntMatrix, Pencil,
                      cokernel_invariants, smith_normal_form,
                      surjection_onto_cyclic)
from .laurent import LaurentPoly

# Rows of the largest block presentation built; its Smith elimination
# grows entries over Z, and n(d - 1) rows past this are beyond desk scale.
MAX_PRESENTATION_ROWS = 1000


@dataclasses.dataclass(frozen=True, init=False)
class SeifertMatrix:
    """An integer Seifert matrix S; for a knot, det(S - S^T) must be a unit.

    The empty 0x0 matrix stands for the unknot.
    """

    matrix: IntMatrix

    def __init__(self, matrix):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix.from_rows(matrix)
        if not matrix.is_square:
            raise InvariantError("Seifert matrix must be square")
        d = (matrix - matrix.transpose()).det()
        if d not in (1, -1):
            raise InvariantError(
                f"det(S - S^T) = {d}; a knot Seifert matrix needs a unit")
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return self.matrix.rows


def alexander_polynomial(s: SeifertMatrix) -> LaurentPoly:
    """Classical Alexander polynomial det(tS - S^T), canonicalized.

    The 0x0 matrix gives 1 (unknot convention).
    """
    m = s.matrix
    return laurent.canonicalize(Pencil(m.to_rows(), m.transpose().to_rows()).det())


def branched_presentation(s: SeifertMatrix, d: int) -> IntMatrix:
    """The block-tridiagonal presentation matrix of H1 of the d-fold
    branched cyclic cover: diagonal blocks S + S^T, superdiagonal -S^T,
    subdiagonal -S, with d - 1 block rows.

    Generators are ordered sheet-major: block row j holds the meridians
    gamma_{1j} .. gamma_{mj} of sheet j.  More than MAX_PRESENTATION_ROWS
    rows raise SizeLimitError before anything is allocated.
    """
    if d < 2:
        raise ValueError("branched presentation needs d >= 2")
    m = s.matrix
    n = m.rows
    size = n * (d - 1)
    if size > MAX_PRESENTATION_ROWS:
        raise SizeLimitError(
            f"the {d}-fold branched presentation of a {n}x{n} Seifert matrix has "
            f"{size} rows, above the cap of {MAX_PRESENTATION_ROWS}")
    rows = [[0] * size for _ in range(size)]
    # (block row - block column, block): diagonal, subdiagonal, superdiagonal
    blocks = ((0, m + m.transpose()), (1, -m), (-1, -m.transpose()))
    for jb in range(d - 1 if n else 0):  # the unknot (n = 0) has no blocks
        for offset, block in blocks:
            ib = jb + offset
            if 0 <= ib < d - 1:
                for i in range(n):
                    rows[ib * n + i][jb * n : (jb + 1) * n] = block.row(i)
    return IntMatrix(size, size, [x for r in rows for x in r])


def branched_homology(s: SeifertMatrix, d: int) -> CokernelInvariants:
    """Invariant factors of H1 of the d-fold branched cyclic cover."""
    return cokernel_invariants(branched_presentation(s, d))


@dataclasses.dataclass(frozen=True)
class ResultantCheck:
    """Both sides of the order formula: the group order from Smith normal
    form (0 encodes an infinite group) and |Res(Delta(t), t^d - 1)|."""

    snf_order: int
    resultant: int
    agree: bool


def resultant_order_check(s: SeifertMatrix, d: int) -> ResultantCheck:
    """Compare branched-cover homology order against the Alexander-polynomial
    resultant over the d-th roots of unity."""
    if d < 2:
        raise ValueError("needs d >= 2")
    return branched_cover(s, d).check


@dataclasses.dataclass(frozen=True)
class MonodromyPower:
    """H = S^-1 S^T together with det(H^n - I) for the requested power."""

    h: IntMatrix
    n: int
    det_power_minus_identity: int


def monodromy_power_presentation(s: SeifertMatrix, n: int) -> MonodromyPower:
    """For a nonsingular unimodular S, H^n - I presents H1 of the n-fold
    branched cover, where H = S^-1 S^T."""
    if n < 2:
        raise ValueError("needs n >= 2")
    m = s.matrix
    det = m.det()
    if det not in (1, -1):
        raise InvariantError(f"det(S) = {det}; need a unimodular Seifert matrix")
    h = m.inverse_unimodular() * m.transpose()
    d = (h ** n - IntMatrix.identity(h.rows)).det()
    return MonodromyPower(h=h, n=n, det_power_minus_identity=d)


@dataclasses.dataclass(frozen=True)
class CharacterJump:
    """A surjective character on the branched-cover meridians, with the
    first adjacent sheet pair where its value jumps.

    ``character[j-1][i-1]`` is the value on gamma_{ij} (1-based i, j);
    ``jump`` is that (i, j); ``order`` is the order of the difference in Z_r.
    """

    character: tuple[tuple[int, ...], ...]
    jump: tuple[int, int]
    order: int


def character_jump(s: SeifertMatrix, d: int, r: int) -> CharacterJump | None:
    """Find a surjection of the branched-cover homology onto Z_r and the
    first adjacent character jump.

    The meridian family has sheets j = 1..d-1; adjacent unpadded pairs
    (j, j+1) are scanned first, and the absent sheet d is treated as
    carrying the zero character, which is the only comparison available
    when d = 2.  Returns None iff no surjection onto Z_r exists.
    """
    if d < 2 or r < 2:
        raise ValueError("needs d >= 2 and r >= 2")
    return _character_jump(surjection_onto_cyclic(branched_presentation(s, d), r),
                           s.size, d, r)


def _character_jump(chi, m: int, d: int, r: int) -> CharacterJump | None:
    if chi is None:
        return None
    sheets = tuple(tuple(chi[j * m + i] for i in range(m)) for j in range(d - 1))

    def find_jump():
        for i in range(m):
            for j in range(d - 2):
                if sheets[j][i] != sheets[j + 1][i]:
                    return i + 1, j + 1, sheets[j][i] - sheets[j + 1][i]
        for i in range(m):  # pad with the absent sheet d (value 0)
            if sheets[d - 2][i] != 0:
                return i + 1, d - 1, sheets[d - 2][i]
        return None

    found = find_jump()
    if found is None:  # unreachable for a genuine surjection; defensive
        return None
    i, j, diff = found
    order = r // math.gcd(diff % r, r)
    return CharacterJump(character=sheets, jump=(i, j), order=order)


@dataclasses.dataclass(frozen=True)
class BranchedCover:
    """H1 of the d-fold branched cyclic cover, its resultant cross-check,
    and, when a target order r was given, the character jump onto Z_r
    (None when there is no surjection onto Z_r, or no r)."""

    homology: CokernelInvariants
    check: ResultantCheck
    jump: CharacterJump | None


def branched_cover(s: SeifertMatrix, d: int, r: int | None = None,
                   alexander: LaurentPoly | None = None) -> BranchedCover:
    """branched_homology, resultant_order_check and, for r, character_jump
    at once, from a single Smith elimination of the branched presentation.
    ``alexander`` is alexander_polynomial(s), when the caller has it."""
    pres = branched_presentation(s, d)
    if r is not None and r < 2:
        raise ValueError("needs d >= 2 and r >= 2")
    smith = smith_normal_form(pres, r)
    hom = smith.cokernel()
    snf_order = hom.order if hom.order is not None else 0
    if alexander is None:
        alexander = alexander_polynomial(s)
    res = laurent.resultant_with_cyclotomic(alexander, d)
    check = ResultantCheck(snf_order=snf_order, resultant=res, agree=snf_order == res)
    jump = None if r is None else _character_jump(smith.character(), s.size, d, r)
    return BranchedCover(homology=hom, check=check, jump=jump)


def random_seifert_matrix(size: int, rng: random.Random, spread: int = 2) -> SeifertMatrix:
    """A random valid Seifert matrix: symmetric noise plus the standard
    symplectic upper part, twisted by a random unimodular congruence."""
    if size % 2:
        raise ValueError("size must be even")
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = rng.randint(-spread, spread)
            rows[i][j] += v
            if j != i:
                rows[j][i] += v
    for k in range(0, size, 2):
        rows[k][k + 1] += 1
    m = IntMatrix.from_rows(rows)
    for _ in range(2 * size):
        i, j = rng.sample(range(size), 2) if size >= 2 else (0, 0)
        q = rng.randint(-1, 1)
        if q == 0 or i == j:
            continue
        e = IntMatrix.identity(size).to_rows()
        e[i][j] = q
        p = IntMatrix.from_rows(e)
        m = p * m * p.transpose()
    return SeifertMatrix(m)
