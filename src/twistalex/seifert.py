"""Seifert-matrix pipelines: the classical Alexander polynomial, branched
cyclic-cover homology, resultant consistency and character jumps from
Seifert's 2g x 2g presentation, the monodromy-power presentation H^n - I,
and the block presentation of the branched cover, which serves as their
independent oracle."""

from __future__ import annotations

import dataclasses
import math
import operator
import random

from . import laurent
from .errors import InternalError, InvariantError, SizeLimitError
from .exactla import (CokernelInvariants, IntMatrix, Pencil, SmithForm,
                      smith_normal_form)
from .laurent import LaurentPoly

# Rows of the largest block presentation of a branched cover, n(d - 1) for
# an n x n Seifert matrix.  A character on the cover has one value per
# row, and past this size a cover is beyond desk scale.
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


def check_cover(n: int, d: int, r: int | None = None) -> None:
    """The checks every branched cover of degree d of an n x n Seifert
    matrix (with a character onto Z_r, for r) passes first: d >= 2, n(d - 1)
    rows within the cap, and r >= 2."""
    if d < 2:
        raise ValueError("branched presentation needs d >= 2")
    size = n * (d - 1)
    if size > MAX_PRESENTATION_ROWS:
        raise SizeLimitError(
            f"the {d}-fold branched presentation of a {n}x{n} Seifert matrix has "
            f"{size} rows, above the cap of {MAX_PRESENTATION_ROWS}")
    if r is not None and r < 2:
        raise ValueError("needs d >= 2 and r >= 2")


def branched_presentation(s: SeifertMatrix, d: int) -> IntMatrix:
    """The block-tridiagonal presentation matrix of H1 of the d-fold
    branched cyclic cover: diagonal blocks S + S^T, superdiagonal -S^T,
    subdiagonal -S, with d - 1 block rows.

    Generators are ordered sheet-major: block row j holds the meridians
    gamma_{1j} .. gamma_{mj} of sheet j.  More than MAX_PRESENTATION_ROWS
    rows raise SizeLimitError before anything is allocated.  No pipeline
    eliminates it: it is the oracle of branched_cover.
    """
    m = s.matrix
    n = m.rows
    check_cover(n, d)
    size = n * (d - 1)
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
    return _cover_smith(s, d, None)[1].cokernel()


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
    gamma, smith = _cover_smith(s, d, r)
    return _cover_jump(s.matrix, gamma, smith, d, r)


def _character_jump(chi, m: int, d: int, r: int) -> CharacterJump | None:
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
                   alexander: LaurentPoly | None = None,
                   resultant: int | None = None) -> BranchedCover:
    """branched_homology, resultant_order_check and, for r, character_jump
    at once, from one Smith elimination of Seifert's presentation.
    ``alexander`` is alexander_polynomial(s) and ``resultant`` is
    resultant_with_cyclotomic(alexander, d), when the caller has them.

    With A = S - S^T (unimodular) and Gamma = A^-1 S, H1 of the d-fold
    branched cyclic cover is coker M for the n x n matrix
    M = Gamma^d - (Gamma - I)^d (H. Seifert, Math. Ann. 110, 1935).  A
    character x with M x = 0 (mod r) is pushed to the sheet meridians
    (_push_character).  branched_homology and character_jump share the
    Smith elimination but take no resultant: its bound ||Delta||_1^d can
    pass laurent.MAX_RESULTANT_BITS where H1 itself is small.
    """
    gamma, smith = _cover_smith(s, d, r)
    hom = smith.cokernel()
    snf_order = hom.order if hom.order is not None else 0
    if resultant is None:
        if alexander is None:
            alexander = alexander_polynomial(s)
        resultant = laurent.resultant_with_cyclotomic(alexander, d)
    check = ResultantCheck(snf_order=snf_order, resultant=resultant, agree=snf_order == resultant)
    jump = None if r is None else _cover_jump(s.matrix, gamma, smith, d, r)
    return BranchedCover(homology=hom, check=check, jump=jump)


def _cover_smith(s: SeifertMatrix, d: int,
                 r: int | None) -> tuple[IntMatrix, SmithForm]:
    """Gamma = (S - S^T)^-1 S and the Smith form (with a character onto
    Z_r, for r) of M^T, M = Gamma^d - (Gamma - I)^d."""
    m = s.matrix
    n = m.rows
    check_cover(n, d, r)
    gamma = (m - m.transpose()).inverse_unimodular() * m
    shifted = gamma - IntMatrix.identity(n)
    # coker M^T and coker M have the same invariant factors
    return gamma, smith_normal_form((gamma ** d - shifted ** d).transpose(), r)


def _cover_jump(m: IntMatrix, gamma: IntMatrix, smith: SmithForm, d: int,
                r: int) -> CharacterJump | None:
    """The character jump of a character x of the Smith form onto Z_r,
    pushed to the sheet meridians; None when there is no such x."""
    x = smith.character()
    if x is None:
        return None
    return _character_jump(_push_character(m, gamma, x, d, r), m.rows, d, r)


def _push_character(m: IntMatrix, gamma: IntMatrix, x, d: int,
                    r: int) -> tuple[int, ...]:
    """The character on the sheet meridians (sheet-major, as in
    branched_presentation) that x, with M x = 0 (mod r) and onto Z_r,
    stands for, checked against every relation.

    Let c_j be the values on sheet j, with c_0 = c_d = 0, and
    e_j = c_j - c_(j+1).  Column block j of c^T P = 0 reads
    S^T e_j = S e_(j-1), that is (Gamma - I) e_j = Gamma e_(j-1), which
    e_j = Gamma^j (Gamma - I)^(d-1-j) x solves for j = 0..d-1; the e_j sum
    to M x = 0, so c_0 = c_d.  t^(d-1) and (t - 1)^(d-1) generate the unit
    ideal of Z[t], so c = 0 (mod p) would force x = 0 (mod p): c is onto
    Z_r.  Before it is returned, c is checked to kill every column of P,
    block by block, and to be onto; a failure is a fault in the program.
    """
    n = m.rows
    g = [[v % r for v in gamma.row(i)] for i in range(n)]
    b = [[(v - (i == j)) % r for j, v in enumerate(row)] for i, row in enumerate(g)]

    def apply(a, v):
        return [sum(map(operator.mul, row, v)) % r for row in a]

    def spread(lo: int, hi: int, y: list[int]) -> list[list[int]]:
        # [Gamma^(j-lo) (Gamma - I)^(hi-1-j) y for j = lo..hi-1], splitting
        # the range in halves: O(d log d) products in all
        if hi - lo == 1:
            return [y]
        mid = (lo + hi) // 2
        left = right = y
        for _ in range(hi - mid):
            left = apply(b, left)
        for _ in range(mid - lo):
            right = apply(g, right)
        return spread(lo, mid, left) + spread(mid, hi, right)

    e = spread(0, d, list(x))
    c = [[0] * n]  # c_d, then c_j = c_(j+1) + e_j down to c_1
    for j in range(d - 1, 0, -1):
        c.append([(u + v) % r for u, v in zip(c[-1], e[j])])
    c.append([0] * n)  # c_0
    c.reverse()
    # column block j of c^T P: (S + S^T) c_j - S^T c_(j+1) - S c_(j-1)
    rows, cols = m.to_rows(), m.transpose().to_rows()
    sc = [apply(rows, cj) for cj in c]
    stc = [apply(cols, cj) for cj in c]
    flat = tuple(v for cj in c[1:d] for v in cj)
    if any((sc[j][i] + stc[j][i] - stc[j + 1][i] - sc[j - 1][i]) % r
           for j in range(1, d) for i in range(n)) or math.gcd(r, *flat) != 1:
        raise InternalError(f"the character pushed to the {d}-fold cover fails its check mod {r}")
    return flat


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
