"""Seifert-matrix pipelines, both from Seifert's Gamma = (S - S^T)^-1 S:
the classical Alexander polynomial, and the homology of the branched cyclic
covers with, on request, a character onto Z_r and its jump between sheets.
A fibred monodromy's branched covers are read here too, from its
abelianization T: one helper builds Gamma^d - (Gamma - I)^d and T^d - I."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import random

from . import laurent
from .errors import InternalError, InvariantError, SizeLimitError, number_text
from .exactla import CokernelInvariants, IntMatrix, char_poly, smith_normal_form
from .freegrp import FreeEndo
from .laurent import LaurentPoly

# Rows of the largest block presentation of a branched cover, n(d - 1) for
# an n x n Seifert matrix.  A character on the cover has one value per
# row, and past this size a cover is beyond desk scale.
MAX_PRESENTATION_ROWS = 1000


@dataclasses.dataclass(frozen=True, init=False)
class SeifertMatrix:
    """An integer Seifert matrix S; for a knot, A = S - S^T must be
    unimodular.  ``gamma`` is Seifert's Gamma = A^-1 S, so that
    tS - S^T = A (I + (t - 1) Gamma), taken at construction by the one
    solve of [A | S] that also gives det A: a det A other than +-1 is
    named in the InvariantError that refuses S.  ``gamma_char_poly`` is
    char_poly(Gamma), taken on first use and kept: the Alexander polynomial
    and every branched cover read it, and a refused S never takes it.

    The empty 0x0 matrix stands for the unknot.
    """

    matrix: IntMatrix
    gamma: IntMatrix = dataclasses.field(repr=False, compare=False)

    def __init__(self, matrix):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix.from_rows(matrix)
        if not matrix.is_square:
            raise InvariantError("Seifert matrix must be square")
        det, gamma = (matrix - matrix.transpose()).solve(matrix)
        if gamma is None:
            raise InvariantError(f"det(S - S^T) = {det}; a knot Seifert matrix needs a unit")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "gamma", gamma)

    @property
    def size(self) -> int:
        return self.matrix.rows

    @functools.cached_property
    def gamma_char_poly(self) -> LaurentPoly:
        return char_poly(self.gamma)


def alexander_polynomial(s: SeifertMatrix) -> LaurentPoly:
    """Classical Alexander polynomial det(tS - S^T), canonicalized.

    As det A = +-1, it is det(I + (t - 1) Gamma) = sum_k c_k (1 - t)^(n - k)
    up to sign, for char_poly(Gamma) = sum_k c_k s^k.  The 0x0 matrix gives
    1 (unknot convention).
    """
    chi = s.gamma_char_poly
    delta: list[int] = []  # ascending coefficients in t
    for k in range(s.size + 1):  # Horner's rule: delta = delta (1 - t) + c_k
        delta = [a - b for a, b in zip(delta + [0], [0] + delta)]
        delta[0] += chi.coefficient(k)
    return laurent.canonicalize(LaurentPoly(0, delta))


def _check_cover(n: int, d: int, r: int | None = None) -> None:
    """The checks every branched cover of degree d of an n x n Seifert
    matrix (with a character onto Z_r, for r) passes first: d >= 2, n(d - 1)
    rows within the cap, and r >= 2."""
    if d < 2:
        raise InvariantError("branched presentation needs d >= 2")
    size = n * (d - 1)
    if size > MAX_PRESENTATION_ROWS:
        raise SizeLimitError(
            f"the {number_text(d)}-fold branched presentation of a {n}x{n} Seifert "
            f"matrix has {number_text(size)} rows, above the cap of {MAX_PRESENTATION_ROWS}")
    if r is not None and r < 2:
        raise InvariantError("a character onto Z/r needs r >= 2")


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


def _character_jump(chi, m: int, d: int, r: int) -> CharacterJump:
    """The first jump of the character chi, onto Z_r, on the meridians of
    sheets 1..d-1: adjacent pairs (j, j+1) first, then sheet d - 1 against
    the absent sheet d, which carries 0 and is the only comparison when
    d = 2.  chi is onto, so some value is nonzero and a jump exists."""
    sheets = tuple(tuple(chi[j * m + i] for i in range(m)) for j in range(d - 1))
    adjacent = ((i, j, sheets[j][i] - sheets[j + 1][i]) for i in range(m) for j in range(d - 2))
    last = ((i, d - 2, sheets[d - 2][i]) for i in range(m))
    i, j, diff = next(jump for jump in itertools.chain(adjacent, last) if jump[2])
    order = r // math.gcd(diff % r, r)
    return CharacterJump(character=sheets, jump=(i + 1, j + 1), order=order)


@dataclasses.dataclass(frozen=True)
class BranchedCover:
    """H1 of the d-fold branched cyclic cover and, when a target order r
    was given, the character jump onto Z_r (None when there is no
    surjection onto Z_r, or no r)."""

    homology: CokernelInvariants
    jump: CharacterJump | None


def branched_cover(s: SeifertMatrix, d: int, r: int | None = None) -> BranchedCover:
    """H1 of the d-fold branched cyclic cover and, for r, a character onto
    Z_r with its jump, from one Smith elimination.

    H1 is coker M for the n x n matrix M = Gamma^d - (Gamma - I)^d
    (H. Seifert, Math. Ann. 110, 1935), built as r(Gamma) from
    char_poly(Gamma) (_cover_matrix), so a Gamma past char_poly's work cap
    raises its SizeLimitError here.  coker M^T has the same invariant
    factors, and its Smith form gives a character x with M x = 0 (mod r),
    which is pushed to the sheet meridians (_push_character).
    """
    n = s.size
    _check_cover(n, d, r)
    m = _cover_matrix(s.gamma, s.gamma_char_poly, [-1, 1], d)
    smith = smith_normal_form(m.transpose(), r)
    x = None if r is None else smith.character()
    jump = None if x is None else _character_jump(
        _push_character(s.matrix, s.gamma, x, d, r), n, d, r)
    return BranchedCover(homology=smith.cokernel(), jump=jump)


def branched_cover_homology_from_monodromy(f: FreeEndo, d: int) -> CokernelInvariants:
    """H1 of the d-fold branched cover: coker(T^d - I) for T the
    abelianized monodromy, built by _cover_matrix from char_poly(T), so a
    T past char_poly's work cap raises its SizeLimitError here."""
    if d < 1:
        raise InvariantError("d must be a positive integer")
    t = f.abelianization_matrix()
    return smith_normal_form(_cover_matrix(t, char_poly(t), [1], d)).cokernel()


def _cover_matrix(a: IntMatrix, chi: LaurentPoly, b: list[int], d: int) -> IntMatrix:
    """A^d - b(A)^d as r(A), for the remainder r = (t^d - b(t)^d) mod chi of
    degree below n, b given by its ascending coefficients: chi =
    char_poly(A) is monic and chi(A) = 0 (Cayley-Hamilton), so the two
    agree exactly.  Both powers are taken in Z[t]/chi by square-and-multiply,
    and r(A) by Paterson-Stockmeyer (_evaluate)."""
    n = a.rows
    # by exponent: a singular A's chi has no constant term, which the
    # LaurentPoly drops
    chi = [chi.coefficient(k) for k in range(n + 1)]

    def mulmod(x: list[int], y: list[int]) -> list[int]:
        prod = [0] * (2 * n - 1)
        for i, xi in enumerate(x):
            if xi:
                prod[i : i + n] = [c + xi * yj for c, yj in zip(prod[i : i + n], y)]
        return _reduce(prod, chi)

    # d >= 1, so _binpow never returns its answer for d = 0
    powers = [laurent._binpow(_reduce(base, chi), d, mulmod, None) for base in ([0, 1], b)]
    return _evaluate(laurent._trim([x - y for x, y in zip(*powers)]), a)


def _reduce(a: list[int], chi: list[int]) -> list[int]:
    """a modulo the monic chi of degree n, ascending coefficients: the n
    coefficients of the remainder, zeros kept."""
    n = len(chi) - 1
    a = a + [0] * (n - len(a))
    for k in range(len(a) - 1, n - 1, -1):
        q = a[k]
        if q:  # a -= q t^(k-n) chi, which clears a[k]
            a[k - n : k] = [x - q * c for x, c in zip(a[k - n : k], chi)]
    return a[:n]


def _evaluate(r: list[int], a: IntMatrix) -> IntMatrix:
    """r(A) for the L ascending coefficients r, trimmed of zeros at the
    top, by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973): the powers I,
    A, ..., A^m for m = ceil(sqrt(L)), then Horner's rule in A^m over r's
    blocks of m coefficients.  That is at most (m - 1) + (ceil(L / m) - 1)
    <= 2m - 2 products, and a remainder modulo char_poly(A) has L <= n
    whatever the degree of the cover."""
    n = a.rows
    if not r:
        return IntMatrix(n, n, [0] * (n * n))
    m = math.isqrt(len(r) - 1) + 1
    blocks = [r[i : i + m] for i in range(0, len(r), m)]
    powers = [IntMatrix.identity(n), a]
    while len(powers) <= (m if len(blocks) > 1 else len(r) - 1):
        powers.append(powers[-1] * a)
    acc = None
    for block in reversed(blocks):
        coeffs, terms = list(block), powers[: len(block)]
        if acc is not None:
            coeffs.append(1)
            terms.append(acc * powers[m])
        acc = IntMatrix(n, n, [sum(map(operator.mul, coeffs, entries))
                               for entries in zip(*(t.entries for t in terms))])
    return acc


def _push_character(m: IntMatrix, gamma: IntMatrix, x, d: int,
                    r: int) -> tuple[int, ...]:
    """The character on the sheet meridians that x, with M x = 0 (mod r)
    and onto Z_r, stands for, checked against every relation.

    The meridians gamma_{ij} of sheets j = 1..d-1 are ordered sheet-major
    and presented by the block-tridiagonal P: diagonal blocks S + S^T,
    superdiagonal -S^T, subdiagonal -S.  Let c_j be the values on sheet j,
    with c_0 = c_d = 0, and e_j = c_j - c_(j+1).  Column block j of
    c^T P = 0 reads S^T e_j = S e_(j-1), that is
    (Gamma - I) e_j = Gamma e_(j-1), which e_j = Gamma^j (Gamma - I)^(d-1-j) x
    solves for j = 0..d-1; the e_j sum to M x = 0, so c_0 = c_d.  t^(d-1) and (t - 1)^(d-1) generate the unit
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


def random_seifert_matrix(size: int, rng: random.Random) -> SeifertMatrix:
    """A random valid Seifert matrix: symmetric noise in -2..2 plus the
    standard symplectic upper part, twisted by a random unimodular
    congruence."""
    if size % 2:
        raise ValueError("size must be even")
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = rng.randint(-2, 2)
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
