"""Exact integer linear algebra and Laurent-matrix tools.

Over Z: Smith normal form (with the left transform's row operations modulo
r on request), cokernel invariants and characters onto cyclic groups.  A
modular characteristic polynomial det(sI - H) gives the determinant of an
integer matrix as well as that of the pencil type sI - H, which keeps it.
Over Z[s, s^-1], a modular evaluation kernel gives every maximal minor of a
Laurent matrix at once.  Every other Laurent determinant, the rank over the
field of fractions and the maximal-minor gcds come from that kernel, the
gcds after the unit entries +-s^k have been pivoted away.  The kernel's
Gauss-Jordan step modulo a prime, lifted by the Chinese remainder theorem,
also inverts a unimodular integer matrix.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator

from . import laurent
from .errors import MinorLimitError, SizeLimitError
from .laurent import LaurentPoly, _binpow, _crt_lift, _crt_primes, _primes

# A desk-scale cap on the maximal minors that maximal_minor_gcd enumerates.
MAX_MINORS = 100_000
# Cap on the Hessenberg work of char_poly: each prime's row operations
# times their length, times the number of primes its CRT bound needs.  No
# job of the bench pools (seeds 1-3) or selftest spends more than about
# 1.1e4, nor any test more than 7.6e4 (the figure-eight map at d = 100 over
# Z/25).  The figure-eight map over A6 at d = 5 (361-square H, 51 primes)
# reaches the cap within 0.2 s; at the cap a dense run takes about 8 s.
MAX_CHAR_POLY_WORK = 2 * 10**7


class NonUnitError(ValueError):
    """A matrix to invert whose determinant ``det`` is not +-1 (None: too
    large to take under MAX_CHAR_POLY_WORK)."""

    def __init__(self, det: int | None):
        shown = "past the char_poly work cap" if det is None else det
        super().__init__(f"matrix has determinant {shown}, not a unit")
        self.det = det


@dataclasses.dataclass(frozen=True, init=False)
class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary-precision entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         [x for j in range(self.cols) for x in self.entries[j::self.cols]])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         [a - b for a, b in zip(self.entries, other.entries)])

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        cols = [other.entries[j::other.cols] for j in range(other.cols)]
        return IntMatrix(self.rows, other.cols,
                         [sum(map(operator.mul, self.row(i), c))
                          for i in range(self.rows) for c in cols])

    def __pow__(self, n: int) -> "IntMatrix":
        if not self.is_square:
            raise ValueError("powers need a square matrix")
        if n < 0:
            raise ValueError("negative matrix powers not supported")
        return _binpow(self, n, IntMatrix.__mul__, IntMatrix.identity(self.rows))

    def det(self) -> int:
        """Exact determinant, (-1)^n times the constant term of char_poly."""
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        return (-1) ** self.rows * char_poly(self).coefficient(0)

    def inverse_unimodular(self) -> "IntMatrix":
        """Inverse of a matrix with determinant +-1.

        Modulo each CRT prime p, [A | I] is brought to reduced row-echelon
        form (_rref_mod), which ends at [I | A^-1] with det A alongside; a
        pivot missing from the left block means p divides det A, so A is no
        unit.  By Hadamard's inequality |det A| <= sqrt(prod_i ||row_i||^2),
        and so is every cofactor once det A != 0, each row norm being at
        least 1; when det A = +-1 the entries of A^-1 are cofactors up to
        sign, so all n^2 + 1 values lift under that bound.  A matrix that is
        no unit raises NonUnitError with its exact determinant, or with None
        when char_poly refuses to take it.
        """
        if not self.is_square:
            raise ValueError("inverse needs a square matrix")
        n = self.rows
        rows = self.to_rows()
        bound = math.isqrt(math.prod(sum(x * x for x in r) for r in rows)) + 1

        def residues():
            for p in _primes():
                a = [[x % p for x in r] + [int(i == j) for j in range(n)]
                     for i, r in enumerate(rows)]
                pivots, d = _rref_mod(a, p)
                if pivots != list(range(n)):
                    try:
                        det = self.det()
                    except SizeLimitError:
                        det = None
                    raise NonUnitError(det)
                yield p, [d] + [x for r in a for x in r[n:]]

        d, *inverse = _crt_lift(bound, n * n + 1, residues())
        if d not in (1, -1):
            raise NonUnitError(d)
        return IntMatrix(n, n, inverse)


# -- Smith normal form ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SmithForm:
    """The Smith normal form diagonal d of a matrix A with ``rows`` rows:
    U * A * V = diag(d), padded with zeros, for some unimodular U and V.

    d has min(rows, cols) entries; they are nonnegative, nonzero entries
    divide their successors, and zeros come last.  When a modulus r was
    asked for, U = N * E_t * ... * E_1 is kept as its row operations modulo
    r, in order: ``ops`` holds (i, j, q) for row_i -= q row_j and (i, j,
    None) for a swap of rows i and j, and ``negated`` the rows of the sign
    matrix N that are -1.
    """

    d: tuple[int, ...]
    rows: int
    r: int | None = None
    ops: tuple[tuple[int, int, int | None], ...] = ()
    negated: tuple[int, ...] = ()

    def cokernel(self) -> CokernelInvariants:
        """Invariant factors != 1 and free rank of coker(A)."""
        nonzero = [x for x in self.d if x]
        return CokernelInvariants(torsion=tuple(x for x in nonzero if x > 1),
                                  free_rank=self.rows - len(nonzero))

    def character(self) -> tuple[int, ...] | None:
        """A character on the row generators of coker(A) surjecting onto
        Z_r, or None iff no surjection exists.

        Generator i has coordinates U[:, i] with respect to the
        diagonalized relations, and coordinate j there has order d_j
        (0 meaning infinite).
        """
        r = self.r
        if r is None:
            raise ValueError("the character needs the Smith form taken with a modulus r")
        diag = list(self.d) + [0] * (self.rows - len(self.d))
        # gcd(0, r) == r: free generators carry full weight
        weights = [(r // math.gcd(dj, r)) % r for dj in diag]
        if math.gcd(r, *weights) != 1:
            return None
        return self._times_u(weights)

    def _times_u(self, w: list[int]) -> tuple[int, ...]:
        """w^T U mod r, by replaying the row operations backwards on w."""
        r = self.r
        v = list(w)
        for k in self.negated:
            v[k] = -v[k]
        for i, j, q in reversed(self.ops):
            if q is None:
                v[i], v[j] = v[j], v[i]
            else:  # w^T (I - q e_i e_j^T) = w^T - q w_i e_j^T
                v[j] = (v[j] - q * v[i]) % r
        return tuple(x % r for x in v)


def smith_normal_form(a: IntMatrix, r: int | None = None) -> SmithForm:
    """Smith normal form diagonal; with r, also the left transform U mod r,
    as its log of row operations.

    Pivots are chosen as the nonzero entry of minimal absolute value in the
    working submatrix (ties: lowest row, then lowest column), which keeps
    intermediate entries small and the output reproducible.  Neither the
    right transform nor U itself is built: U only ever receives row
    operations, so the operations are logged modulo r and replayed on the
    one covector that SmithForm.character needs.
    """
    rows, cols = a.rows, a.cols
    m = a.to_rows()
    ops = None if r is None else []

    # At step k, rows and columns before k are zero off the diagonal, so
    # operations on the working matrix only touch the trailing submatrix.
    def row_addmul(i: int, j: int, q: int, k: int) -> None:
        # row_i -= q * row_j
        m[i][k:] = [x - q * y for x, y in zip(m[i][k:], m[j][k:])]
        if ops is not None and q % r:  # an operation that is the identity mod r is left out
            ops.append((i, j, q % r))

    def find_pivot(k: int) -> tuple[int, int] | None:
        best, best_abs = None, 0
        for i in range(k, rows):
            row = m[i]
            low = min(map(abs, filter(None, row[k:])), default=0)
            if low and (not best_abs or low < best_abs):
                j = next(j for j in range(k, cols) if abs(row[j]) == low)
                best, best_abs = (i, j), low
                if low == 1:  # no later row can beat it: ties go to the lowest row
                    break
        return best

    for k in range(min(rows, cols)):
        piv = find_pivot(k)
        while piv is not None:
            i, j = piv
            if i != k:
                m[k], m[i] = m[i], m[k]
                if ops is not None:
                    ops.append((k, i, None))
            if j != k:
                for row in m[k:]:
                    row[k], row[j] = row[j], row[k]
            pivot = m[k][k]
            clean = True
            for i in range(k + 1, rows):
                if m[i][k]:
                    row_addmul(i, k, m[i][k] // pivot, k)
                    if m[i][k]:
                        clean = False
            # col_j -= q * col_k, on the rows where col_k is nonzero
            touched = [row for row in m[k:] if row[k]]
            for j in range(k + 1, cols):
                if m[k][j]:
                    q = m[k][j] // pivot
                    for row in touched:
                        row[j] -= q * row[k]
                    if m[k][j]:
                        clean = False
            if clean:
                # Ensure the pivot divides every remaining entry before
                # moving on; a unit pivot divides everything.
                if pivot in (1, -1):
                    break
                bad = next((i for i in range(k + 1, rows)
                            if any(x % pivot for x in m[i][k + 1:])), None)
                if bad is None:
                    break
                row_addmul(k, bad, -1, k)
            piv = find_pivot(k)
        if piv is None:
            break

    diag = [m[k][k] for k in range(min(rows, cols))]
    d = tuple(map(abs, diag))
    if r is None:
        return SmithForm(d=d, rows=rows)
    negated = tuple(k for k, x in enumerate(diag) if x < 0)
    return SmithForm(d=d, rows=rows, r=r, ops=tuple(ops), negated=negated)


@dataclasses.dataclass(frozen=True)
class CokernelInvariants:
    """Torsion coefficients (> 1, each dividing the next) and free rank of
    coker(A: Z^cols -> Z^rows)."""

    torsion: tuple[int, ...]
    free_rank: int

    @property
    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        return math.prod(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and not self.free_rank

    def group_text(self) -> str:
        if self.is_trivial:
            return "0"
        parts = [f"Z/{t}" for t in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts)


def char_poly(h: IntMatrix) -> LaurentPoly:
    """det(sI - H) for an integer matrix, exactly.

    Modulo each CRT prime of laurent._crt_lift, H is brought to Hessenberg
    form (_char_poly_mod).  No coefficient exceeds prod_i (1 + sum_j |h_ij|)
    in absolute value (bound the Leibniz expansion term by term).  Each
    prime may spend MAX_CHAR_POLY_WORK over the number of primes that
    bound needs; past that a SizeLimitError is raised.
    """
    if not h.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    rows = h.to_rows()
    bound = math.prod(sum(map(abs, r)) + 1 for r in rows)
    budget = MAX_CHAR_POLY_WORK // _crt_primes(bound)
    residues = ((p, _char_poly_mod([[v % p for v in r] for r in rows], p, budget))
                for p in _primes())
    return LaurentPoly(0, _crt_lift(bound, h.rows + 1, residues))


def _char_poly_mod(h: list[list[int]], p: int, budget: int) -> list[int]:
    """det(sI - H) mod p, ascending coefficients; H is overwritten.

    H is brought to upper Hessenberg form by similarity transforms, whose
    characteristic polynomials p_0, ..., p_n obey a short recurrence
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    Every row operation of either stage is counted at its length, and a
    SizeLimitError is raised as soon as the count passes ``budget``.
    """
    n = len(h)
    work = 0
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for r in h:
                r[m], r[piv] = r[piv], r[m]
        inv = pow(h[m][m - 1], -1, p)
        rm = h[m]
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                # row_i -= u * row_m, then col_m += u * col_i: a similarity
                h[i] = [(v - u * w) % p for v, w in zip(h[i], rm)]
                for r in h:
                    r[m] = (r[m] + u * r[i]) % p
                work += 2 * n
                if work > budget:
                    raise _over_cap(n)
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        nxt = [0] + prev
        diag = h[m][m]
        for k, c in enumerate(prev):
            nxt[k] -= diag * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            u = t * h[i][m] % p
            for k, c in enumerate(polys[i]):
                nxt[k] -= u * c
            work += i + 1
            if work > budget:
                raise _over_cap(n)
        polys.append([c % p for c in nxt])
    return polys[n]


def _over_cap(n: int) -> SizeLimitError:
    return SizeLimitError(
        f"the characteristic polynomial of a {n}-square matrix passes the work cap "
        f"of {MAX_CHAR_POLY_WORK} (Hessenberg row operations over all CRT primes)")


# -- matrices over Z[s, s^-1] --------------------------------------------------


@dataclasses.dataclass(frozen=True, init=False)
class LambdaMatrix:
    """Immutable matrix with LaurentPoly entries, row-major."""

    rows: int
    cols: int
    entries: tuple[LaurentPoly, ...]

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "LambdaMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    def at(self, i: int, j: int) -> LaurentPoly:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[LaurentPoly]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> LaurentPoly:
        """Exact determinant.

        sI - Y (s minus an integer on the diagonal, integers elsewhere) is
        char_poly(Y); any other matrix is its own one maximal minor, from
        the evaluation kernel.
        """
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        if all(p.low >= 0 and p.degree <= 1 and p.coefficient(1) == (k % (n + 1) == 0)
               for k, p in enumerate(self.entries)):  # k % (n + 1) == 0 on the diagonal
            return char_poly(IntMatrix(n, n, [-p.coefficient(0) for p in self.entries]))
        return _maximal_minors(self)[0]


@dataclasses.dataclass(frozen=True)
class Pencil:
    """The square pencil sI - H over Z[s, s^-1], kept as the integer matrix H.

    Its determinant, char_poly(H), is taken once and kept; being monic of
    degree n, it makes the rank n.
    """

    h: IntMatrix

    def __post_init__(self):
        if not self.h.is_square:
            raise ValueError("a pencil sI - H needs a square H")

    @property
    def rows(self) -> int:
        return self.h.rows

    cols = rows

    def det(self) -> LaurentPoly:
        """det(sI - H), exactly."""
        return self._det

    @functools.cached_property
    def _det(self) -> LaurentPoly:
        return char_poly(self.h)


def rank_over_fractions(p: LambdaMatrix | Pencil) -> int:
    """Rank of P over the field of fractions of Z[s, s^-1]."""
    if isinstance(p, Pencil):  # det(sI - H) is monic of degree n
        return p.rows
    return _evaluation_rank(p)


def maximal_minor_gcd(p: LambdaMatrix | Pencil) -> LaurentPoly:
    """Gcd of all n x n minors of an n x m matrix with n <= m, in canonical
    form.

    Follows the convention that a matrix with more generators than
    relations (n > m) has zero ideal and zero gcd.  The minors are capped
    at MAX_MINORS column choices; beyond that a MinorLimitError is raised
    before any work.  The cap counts the input's minors, not those left
    after the unit pivots.  A square matrix has one minor, its
    determinant (a Pencil's kept one); a wide one loses its unit pivots
    (_unit_reduced) and the rest come from one evaluation kernel.
    """
    n, m = p.rows, p.cols
    if n > m:
        return laurent.ZERO
    count = math.comb(m, n)
    if count > MAX_MINORS:
        raise MinorLimitError(
            f"would enumerate {count} minors, above the cap of {MAX_MINORS}")
    if n == m:
        return laurent.canonicalize(p.det())
    g = laurent.ZERO
    for minor in _maximal_minors(_unit_reduced(p)):
        g = laurent.gcd(g, minor)
    return laurent.canonicalize(g)


def _is_unit(e: LaurentPoly) -> bool:
    return len(e.coeffs) == 1 and e.coeffs[0] in (1, -1)


def _unit_reduced(p: LambdaMatrix) -> LambdaMatrix:
    """P with its unit pivots eliminated, still n' x m' with n' < m'; its
    maximal minors generate the same ideal as P's (the Fitting ideal of
    coker P, Eisenbud, Commutative Algebra, section 20), so their gcd is
    the same.

    While an entry u = +-s^k is left, the one at (i, j) with the least
    (row nonzeros - 1) * (column nonzeros - 1), ties by row and then by
    column, clears its column: every other row r loses a_rj u^-1 times
    row i.  Row i and column j are then dropped.  These row operations have
    determinant 1, so each maximal minor of the result on columns C is
    +-u^-1 times the minor on C and j; column operations by u, which would
    clear row i without touching the other rows, bring P's other minors
    into the same ideal.
    """
    rows = p.to_rows()
    cols = p.cols
    while rows:
        row_nz = [sum(map(bool, row)) - 1 for row in rows]
        col_nz = [sum(map(bool, col)) - 1 for col in zip(*rows)]
        pivot = min(((row_nz[i] * col_nz[j], i, j)
                     for i, row in enumerate(rows) for j, e in enumerate(row) if _is_unit(e)),
                    default=None)
        if pivot is None:
            break
        _, i, j = pivot
        top = rows.pop(i)
        u = top.pop(j)
        minus_inverse = LaurentPoly(-u.low, (-u.coeffs[0],))  # -(+-s^k)^-1 = -+s^-k
        for row in rows:
            factor = row.pop(j) * minus_inverse
            if factor:
                row[:] = [e + factor * t if t else e for e, t in zip(row, top)]
        cols -= 1
    return LambdaMatrix(len(rows), cols, [e for row in rows for e in row])


# -- maximal minors and rank by evaluation ------------------------------------
#
# All C(m, n) maximal minors of an n x m Laurent matrix A at once.  Row i
# times s^-low_i has polynomial entries of degree <= span_i, so every minor
# is s^(sum_i low_i) times a polynomial of degree <= D = sum_i span_i.  On
# the unit circle |a_ij| <= |a_ij|_1, so by Hadamard's inequality no
# coefficient of any minor exceeds sqrt(prod_i sum_j |a_ij|_1^2), each row
# factor being at least 1 once zero rows are gone.  Modulo each CRT prime,
# A is evaluated at s = 0..D and reduced once per point to reduced
# row-echelon form E = L A.
# With pivot columns P and d = det A[:, P] = det L^-1, the minor on columns
# C is d * det E[:, C].  The columns of C in P are unit vectors, so moving
# the rows T whose pivot is not in C to the bottom and the columns C \ P to
# the right leaves +-det E[T, C \ P]: over all C, exactly the square minors
# of E's non-pivot columns.  Newton's divided differences on the nodes
# 0..D interpolate each minor from its D + 1 values in O(D^2), and so does
# evaluating A at every node.  A square matrix has one maximal minor, its
# determinant, and a single row is its own list of minors.
#
# The rank over the field of fractions is the largest rank of A, zero rows
# dropped, modulo a CRT prime at s = 0..D, over primes until their product
# exceeds the same bound.  No evaluation raises the rank.  If A has rank r,
# some r x r minor is nonzero, one of its coefficients survives one of
# those primes, and being of degree <= D it is nonzero at one of the D + 1
# points.

def _normalised(rows: list[list[LaurentPoly]]) -> tuple[int, list, int, int]:
    """(sum_i low_i, the coefficient runs of row i times s^-low_i, the bound
    on every minor's coefficients (0 if a row is zero), D + 1) for A's rows."""
    lows = [min((e.low for e in row if e), default=0) for row in rows]
    polys = [[(0,) * (e.low - low) + e.coeffs if e else () for e in row]
             for row, low in zip(rows, lows)]
    norms = [sum(sum(map(abs, e)) ** 2 for e in row) for row in polys]
    bound = math.isqrt(math.prod(norms)) + 1 if all(norms) else 0
    points = sum(max(map(len, row)) for row in polys) - len(rows) + 1  # D + 1
    return sum(lows), polys, bound, points


def _rref_mod(a: list[list[int]], p: int) -> tuple[list[int], int]:
    """Bring A, entries reduced mod p, to reduced row-echelon form in place
    by Gauss-Jordan elimination; returns (pivot columns, det).

    Pivots are taken down each column in row order, and a column with no
    pivot left is skipped.  When there is a pivot in every row, det is the
    determinant of the input's pivot columns mod p.
    """
    n = len(a)
    pivots, det = [], 1
    for k in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if a[i][k]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det = det * a[r][k] % p
        inv = pow(a[r][k], -1, p)
        rk = a[r] = [v * inv % p for v in a[r]]
        for i in range(n):
            u = a[i][k]
            if u and i != r:
                a[i] = [(v - u * w) % p for v, w in zip(a[i], rk)]
        pivots.append(k)
    return pivots, det


def _evaluate_mod(polys: list[list[tuple]], c: int, q: int) -> list[list[int]]:
    """The polynomial matrix at s = c mod q."""
    powers = [1] * max((len(e) for row in polys for e in row), default=0)
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] * c % q
    return [[sum(map(operator.mul, e, powers)) % q for e in row] for row in polys]


def _interpolate_mod(values, q: int) -> list[int]:
    """Ascending coefficients mod a prime q > len(values) of the polynomial
    of degree < len(values) with values[c] at s = c, in O(len(values)^2): its
    Newton form on the nodes 0, 1, ... (forward differences at 0 over k!)."""
    newton, inv = [], 1
    for k in range(len(values)):
        if k:
            inv = inv * pow(k, -1, q) % q
        newton.append(values[0] * inv % q)
        values = [(b - a) % q for a, b in zip(values, values[1:])]
    poly: list[int] = []
    for k in range(len(newton) - 1, -1, -1):  # poly = poly * (s - k) + newton[k]
        poly = [(a - k * b) % q for a, b in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + newton[k]) % q
    return poly


def _maximal_minors(p: LambdaMatrix) -> list[LaurentPoly]:
    """The n x n minors of an n x m matrix with n <= m, exactly, in the
    order of itertools.combinations(range(m), n)."""
    n, m = p.rows, p.cols
    if n == 1:  # a row is its own list of minors
        return p.to_rows()[0]
    count = math.comb(m, n)
    shift, polys, bound, points = _normalised(p.to_rows())
    if not bound:  # a zero row
        return [laurent.ZERO] * count
    plans: dict[tuple[int, ...], list] = {}  # pivot columns -> _minor_plan

    def residues():
        for q in _primes():
            minors = list(zip(*(_minors_mod(_evaluate_mod(polys, c, q), m, q, plans)
                                for c in range(points))))
            if len(minors) <= points:
                yield q, [v for minor in minors for v in _interpolate_mod(minor, q)]
            else:  # fewer nodes: interpolate the unit vectors, the inverse Vandermonde
                w = list(zip(*(_interpolate_mod([int(c == k) for c in range(points)], q)
                               for k in range(points))))
                yield q, [sum(map(operator.mul, r, minor)) % q for minor in minors for r in w]

    flat = _crt_lift(bound, count * points, residues())
    return [LaurentPoly(shift, flat[i:i + points]) for i in range(0, count * points, points)]


def _evaluation_rank(p: LambdaMatrix) -> int:
    """Rank of P over the field of fractions of Z[s, s^-1], by evaluation;
    it returns as soon as the rank is full."""
    rows = [row for row in p.to_rows() if any(row)]
    full = min(len(rows), p.cols)
    _, polys, bound, points = _normalised(rows)
    rank, modulus = 0, 1
    for q in _primes():
        for c in range(points):
            rank = max(rank, len(_rref_mod(_evaluate_mod(polys, c, q), q)[0]))
            if rank == full:
                return rank
        modulus *= q
        if modulus > bound:
            return rank


def _minors_mod(a: list[list[int]], m: int, q: int, plans: dict) -> list[int]:
    """The maximal minors of the n x m matrix A mod q, A overwritten; the
    plan for each set of pivot columns is kept in ``plans``."""
    n = len(a)
    pivots, d = _rref_mod(a, q)
    if len(pivots) < n:
        return [0] * math.comb(m, n)
    key = tuple(pivots)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _minor_plan(key, m)
    free = [j for j in range(m) if j not in key]
    small = _square_minors([[row[j] for j in free] for row in a], q)
    return [sign * d * small[t, k] % q for sign, t, k in plan]


def _minor_plan(pivots: tuple[int, ...], m: int) -> list[tuple[int, tuple, tuple]]:
    """For each column set C, in combinations order: (sign, T, K) with the
    minor on C equal to sign * d * det E[T, K], K indexing the non-pivot
    columns."""
    n = len(pivots)
    free = {j: k for k, j in enumerate(j for j in range(m) if j not in pivots)}
    plan = []
    for cols in itertools.combinations(range(m), n):
        chosen = set(cols)
        t = tuple(i for i, j in enumerate(pivots) if j not in chosen)
        k = tuple(free[j] for j in cols if j in free)
        moves = (_to_end_parity(t, n)
                 + _to_end_parity([i for i, j in enumerate(cols) if j in free], n))
        plan.append((-1 if moves & 1 else 1, t, k))
    return plan


def _to_end_parity(positions, size: int) -> int:
    """Transpositions, mod 2, that move the ascending ``positions`` of
    range(size) to its end in order."""
    t = len(positions)
    return sum(size - t + i - at for i, at in enumerate(positions)) & 1


def _square_minors(f: list[list[int]], q: int) -> dict[tuple[tuple, tuple], int]:
    """Every square minor of F mod q, keyed by (rows, columns), each by
    Laplace expansion along its first row over the minors one size down."""
    n, w = len(f), len(f[0]) if f else 0
    minors = {((), ()): 1}
    for t in range(1, min(n, w) + 1):
        for rs in itertools.combinations(range(n), t):
            top, rest = f[rs[0]], rs[1:]
            for cs in itertools.combinations(range(w), t):
                v = 0
                for k, j in enumerate(cs):
                    if top[j]:
                        sub = top[j] * minors[rest, cs[:k] + cs[k + 1:]]
                        v = v - sub if k & 1 else v + sub
                minors[rs, cs] = v % q
    return minors
