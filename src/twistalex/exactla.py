"""Exact integer linear algebra and Laurent-matrix tools.

Over Z: Smith normal form (with the left transform's row operations modulo
r on request), cokernel invariants and characters onto cyclic groups.  A
modular characteristic polynomial det(sI - H) gives the maximal-minor gcd
of a Laurent matrix of the shape sI - H.  Over Z[s, s^-1], a kernel gives
every maximal minor of a Laurent matrix at once by Kronecker substitution:
it evaluates the matrix at one node s = 2^b, takes the minors' values
there modulo packs of CRT primes, lifts them, and reads each minor off
its value's balanced base-2^b digits.  Every other maximal-minor gcd,
square or wide, comes from that kernel after the unit entries +-s^k have
been pivoted away on the matrix's exact values at that node, and so does
the rank over the field of fractions, plus one per pivot.  The kernel's
Gauss-Jordan step modulo a pack of CRT primes, lifted by the Chinese
remainder theorem, also gives det A exactly (IntMatrix.det) and, for
det A = +-1, the solution of A X = B over Z.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator

from . import laurent
from .errors import MinorLimitError, SizeLimitError
from .laurent import LaurentPoly, _crt_lift, _crt_primes, _crt_residues, _inverse_pivot

# A desk-scale cap on the maximal minors that maximal_minor_gcd enumerates.
MAX_MINORS = 100_000
# Cap on the work of char_poly: each pass's n^2 for the reduction mod q
# plus its Hessenberg row operations times their length, times the number
# of primes its CRT bound needs.  A pass runs modulo a pack of up to
# laurent._CRT_PACK primes with the budget of one prime, so the cap refuses
# what it refused when each prime took a pass, but for the coincidences
# that _char_poly_mod names.  No job of the bench pools (seeds 1-3) or
# selftest delta spends more than about 1.5e4, nor any test more than 1.2e5
# (the figure-eight map at d = 100 over Z/25); IntMatrix.det, the selftest's
# det(H) included, spends none.  The figure-eight map over A6 at d = 5
# (361-square H, 51 primes) reaches the cap within 0.25 s; a dense
# 100-square H of entries in [-9, 9] (15 primes, 1.7e7) takes about 3 s.
MAX_CHAR_POLY_WORK = 2 * 10**7


@dataclasses.dataclass(frozen=True, init=False)
class Matrix:
    """Immutable matrix, row-major: the storage IntMatrix and LambdaMatrix
    share."""

    rows: int
    cols: int
    entries: tuple

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    def to_rows(self) -> list[list]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


class IntMatrix(Matrix):
    """Immutable integer matrix, row-major, arbitrary-precision entries."""

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

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
                         [sum(map(operator.mul, row, c))
                          for row in map(self.row, range(self.rows)) for c in cols])

    def det(self) -> int:
        """Exact determinant: solve's det A for an empty right side."""
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        return self.solve(IntMatrix(self.rows, 0, ()))[0]

    def solve(self, b: "IntMatrix") -> tuple[int, "IntMatrix | None"]:
        """(det A, A^-1 B), or (det A, None) when det A is not +-1.

        Modulo each pack q of CRT primes (laurent._crt_residues), [A | B] is
        brought to reduced row-echelon form (_rref_mod).  When the pivots
        are A's columns it ends at [I | A^-1 B], with det A alongside, and
        the kernel keeps det A and adj(A) B = det A * A^-1 B; a pivot missing
        from A means every prime of q divides det A, and it keeps zeros.  A
        pivot that is no unit modulo q sends the pack back one prime at a
        time.  By Hadamard's inequality |det A| <= h = sqrt(prod_i
        ||row_i||^2), and so is every cofactor once det A != 0, each row
        norm being at least 1; so det A, and adj(A) B when det A = +-1, lift
        under h times the largest column sum of |B|.
        """
        if not self.is_square or b.rows != self.rows:
            raise ValueError("solve needs a square matrix and a right side of its rows")
        n, w = self.rows, b.cols
        rows = [a + r for a, r in zip(self.to_rows(), b.to_rows())]
        h = math.isqrt(math.prod(sum(x * x for x in r[:n]) for r in rows)) + 1
        bound = h * max([1, *(sum(map(abs, b.entries[j::w])) for j in range(w))])

        def kernel(q):
            a = [[x % q for x in r] for r in rows]
            pivots, d = _rref_mod(a, q)
            if pivots != list(range(n)):  # det A = 0 mod q
                return [0] * (n * w + 1)
            return [d] + [d * x % q for r in a for x in r[n:]]

        det, *adjoint = _crt_lift(_crt_residues(bound, kernel))
        if det not in (1, -1):
            return det, None
        return det, IntMatrix(n, w, [det * x for x in adjoint])


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

    Each pivot is the least (|x|, row, column) over the nonzero entries of
    the trailing block, which keeps entries small and the output
    reproducible.  U only ever receives row operations, so neither it nor
    the right transform is built: the operations are logged modulo r and
    replayed on the one covector that SmithForm.character needs.
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

    for k in range(min(rows, cols)):
        while piv := min(((abs(x), i, j) for i in range(k, rows)
                          for j, x in enumerate(m[i][k:], k) if x), default=None):
            _, i, j = piv
            if i != k:
                m[k], m[i] = m[i], m[k]
                if ops is not None:
                    ops.append((k, i, None))
            if j != k:
                for row in m[k:]:
                    row[k], row[j] = row[j], row[k]
            pivot = m[k][k]
            for i in range(k + 1, rows):
                if m[i][k]:
                    row_addmul(i, k, m[i][k] // pivot, k)
            # col_j -= q * col_k, on the rows where col_k is nonzero
            touched = [row for row in m[k:] if row[k]]
            for j in range(k + 1, cols):
                if m[k][j]:
                    q = m[k][j] // pivot
                    for row in touched:
                        row[j] -= q * row[k]
            if any(row[k] for row in m[k + 1:]) or any(m[k][k + 1:]):
                continue  # not clean: a nonzero remainder is left
            if pivot in (1, -1):  # a unit divides everything
                break
            bad = next((i for i in range(k + 1, rows)
                        if any(x % pivot for x in m[i][k + 1:])), None)
            if bad is None:  # the pivot divides every trailing entry
                break
            row_addmul(k, bad, -1, k)  # row_k += the first row it does not divide
        else:
            break  # the trailing block is zero

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

    Modulo each pack of CRT primes (laurent._crt_residues), H is brought
    to Hessenberg form (_char_poly_mod).  No coefficient exceeds
    prod_i (1 + sum_j |h_ij|) in absolute value (bound the Leibniz
    expansion term by term).  Each pass, over a pack or over a lone prime
    when a pack falls back, may spend MAX_CHAR_POLY_WORK over the number of
    primes that bound needs; past that a SizeLimitError is raised.
    """
    if not h.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    rows = h.to_rows()
    bound = math.prod(sum(map(abs, r)) + 1 for r in rows)
    budget = MAX_CHAR_POLY_WORK // _crt_primes(bound)
    residues = _crt_residues(bound, lambda q: _char_poly_mod(rows, q, budget))
    return LaurentPoly(0, _crt_lift(residues))


def _char_poly_mod(rows: list[list[int]], q: int, budget: int) -> list[int]:
    """det(sI - H) mod q for the integer rows of H, ascending coefficients.

    H mod q is brought to upper Hessenberg form by similarity transforms,
    whose characteristic polynomials p_0, ..., p_n obey a short recurrence
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    The reduction mod q counts n^2 and every row operation of either stage
    its length; a SizeLimitError is raised as soon as the count passes
    ``budget``.  A pivot that is no unit modulo q raises
    laurent._NonUnitPivot.  Modulo a pack, the count is at least that of
    each of its primes, and more only where an entry vanishes modulo some
    of the pack's primes and not others: a row operation or a recurrence
    step that such a prime skips is then made and counted.
    """
    n = len(rows)
    work = n * n
    if work > budget:
        raise _over_cap(n)
    h = [[v % q for v in r] for r in rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for r in h:
                r[m], r[piv] = r[piv], r[m]
        inv = _inverse_pivot(h[m][m - 1], q)
        rm = h[m]
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % q
            if u:
                # row_i -= u * row_m, then col_m += u * col_i: a similarity
                h[i] = [(v - u * w) % q for v, w in zip(h[i], rm)]
                for r in h:
                    r[m] = (r[m] + u * r[i]) % q
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
            t = t * h[i + 1][i] % q
            if not t:
                break
            u = t * h[i][m] % q
            for k, c in enumerate(polys[i]):
                nxt[k] -= u * c
            work += i + 1
            if work > budget:
                raise _over_cap(n)
        polys.append([c % q for c in nxt])
    return polys[n]


def _over_cap(n: int) -> SizeLimitError:
    return SizeLimitError(
        f"the characteristic polynomial of a {n}-square matrix passes the work cap "
        f"of {MAX_CHAR_POLY_WORK} (reduction and Hessenberg row operations over all CRT primes)")


# -- matrices over Z[s, s^-1] --------------------------------------------------


class LambdaMatrix(Matrix):
    """Immutable matrix with LaurentPoly entries, row-major."""


def maximal_minor_gcd(p: LambdaMatrix) -> LaurentPoly:
    """Gcd of all n x n minors of an n x m matrix with n <= m, in canonical
    form.

    Follows the convention that a matrix with more generators than
    relations (n > m) has zero ideal and zero gcd.  The minors are capped
    at MAX_MINORS column choices; beyond that a MinorLimitError is raised
    before any work.  The cap counts the input's minors, not those left
    after the unit pivots.  An input of the shape sI - Y (s minus an
    integer on the diagonal, integers elsewhere) is char_poly(Y); any
    other loses its unit pivots at one node (_unit_reduced), and the rest
    come from one kernel (_maximal_minors), handed the integer rows and
    the window that _unit_reduced returns.  laurent.gcd leaves the gcd
    canonical.
    """
    n, m = p.rows, p.cols
    if n > m:
        return laurent.ZERO
    count = math.comb(m, n)
    if count > MAX_MINORS:
        raise MinorLimitError(
            f"would enumerate {count} minors, above the cap of {MAX_MINORS}")
    # Read off the input, not the reduced matrix: each of sI - Y's unit
    # pivots would cost a pass over the fill-in that char_poly never makes.
    if n == m and all(e.low >= 0 and e.degree <= 1 and e.coefficient(1) == (k % (n + 1) == 0)
                      for k, e in enumerate(p.entries)):  # k % (n + 1) == 0 on the diagonal
        return laurent.canonicalize(
            char_poly(IntMatrix(n, n, [-e.coefficient(0) for e in p.entries])))
    g = laurent.ZERO
    # zero and repeated minors add nothing to the gcd
    for minor in dict.fromkeys(filter(None, _maximal_minors(*_unit_reduced(p)))):
        g = laurent.gcd(g, minor)
    return g


def _unit_reduced(p: LambdaMatrix
                  ) -> tuple[list[list[int]], int, list[int], tuple[int, int, int, int]]:
    """(the rows of P with its unit pivots eliminated, n' x m' with
    m' - n' = m - n, as values at s = X = 2^b; m'; the rows' lows; and
    the window (b, low, D + 1, bound) of their maximal minors).  Those
    minors generate the same ideal as P's (the Fitting ideal of coker P,
    Eisenbud, Commutative Algebra, section 20), so their gcd is the same.
    A square P leaves a square matrix, 0 x 0 when every row is a pivot's.

    P's rows are normalised (_normalised) and evaluated once, with
    b = bound.bit_length() + 1 for P's bound: row i is s^low_i times a
    polynomial R_i, held as the values R_i(X).  While an entry u = +-s^e
    of some R_i is left, the one at (i, j) with the least
    (row nonzeros - 1) * (column nonzeros - 1), ties by row and then by
    column, clears its column: every other row R whose entry a there is
    nonzero becomes R X^e - sign(u) a T, for the pivot row T.  That is
    s^e (R - a u^-1 T), so the row's low drops by e; then the digits 0
    that end every value of the row are shifted off, and its low rises by
    their number.  Row i and column j are dropped.

    The values decide the zero test, the unit test and the lows exactly.
    Each entry of the reduced rows is a monomial times a minor of P, so
    its coefficients lie within the bound, below X/2, and they are its
    value's balanced base-X digits (_digits).  So a value is 0 exactly
    when its entry is, |v| = X^e exactly when the entry is +-s^e, and as
    the lowest nonzero digit ends in fewer than b - 1 zero bits, v's
    trailing zero bits over b count the digits 0 below it.

    The row operations have determinant 1, so each maximal minor of the
    result on columns C is +-u^-1 times the minor on C and j; column
    operations by u, which would clear row i without touching the other
    rows, bring P's other minors into the same ideal.  Over all pivots,
    the minor on C is +-s^-K times P's minor on C and the pivot columns,
    K the sum of the pivots' exponents low_i + e: the window is P's
    shifted by -K, however far fill-in widens the rows.  A zero row of P
    takes no row update, so it stays zero, and so does every minor.
    """
    lows, polys, bound, points = _normalised(p.to_rows())
    shift = sum(lows)
    b = bound.bit_length() + 1
    rows = _at_node(polys, b)
    cols, k = p.cols, 0
    while rows:
        row_nz = [sum(map(bool, row)) - 1 for row in rows]
        col_nz = [sum(map(bool, col)) - 1 for col in zip(*rows)]
        # |v| = 2^(b e): a single bit, b e + 1 bits long (v = 0 has none)
        pivot = min(((row_nz[i] * col_nz[j], i, j)
                     for i, row in enumerate(rows) for j, v in enumerate(row)
                     if (x := abs(v)).bit_length() % b == 1 and not x & (x - 1)),
                    default=None)
        if pivot is None:
            break
        _, i, j = pivot
        top = rows.pop(i)
        u = top.pop(j)
        e = (abs(u).bit_length() - 1) // b
        k += lows.pop(i) + e
        for r, row in enumerate(rows):
            a = row.pop(j)
            if a:
                f = -a if u > 0 else a
                row[:] = [(v << b * e) + f * t for v, t in zip(row, top)]
                bits = functools.reduce(operator.or_, row, 0)  # the lowest set bit of any value
                drop = ((bits & -bits).bit_length() - 1) // b if bits else 0
                if drop:
                    row[:] = [v >> b * drop for v in row]
                lows[r] += drop - e
        cols -= 1
    return rows, cols, lows, (b, shift - k, points, bound)


# -- maximal minors and rank at one node ---------------------------------------
#
# All C(m, n) maximal minors of an n x m Laurent matrix A at once.  Row i
# times s^-low_i has polynomial entries of degree <= span_i, so every
# minor's exponents lie in the window from S = sum_i low_i to
# S + sum_i span_i.  On the unit circle |a_ij| <= |a_ij|_1, so by
# Hadamard's inequality no coefficient of any minor, maximal or not,
# exceeds sqrt(prod_i sum_j |a_ij|_1^2) over the nonzero rows, each row
# factor being at least 1 (_normalised).  The kernel is handed the rows
# that _unit_reduced leaves and the input's window shifted by -K,
# s^low..s^(low + D), with the input's bound: the minors of those rows
# are +-s^-K times the input's, however far fill-in has widened them.
#
# Kronecker substitution reads every minor off its value at one integer
# node, s = X = 2^b with b = bound.bit_length() + 1, so X > 2 * bound.
# _unit_reduced evaluates the row-shifted input there once, exactly, and
# its pivots keep the rows at X.  The kernel reduces them modulo each pack
# q of CRT primes (laurent._crt_residues) to reduced row-echelon form
# E = L A; a pivot that is no unit modulo q sends the pack back one prime
# at a time.  With pivot columns P and d = det A[:, P] = det L^-1, the
# minor on columns C is d * det E[:, C].  The columns of C in P are unit
# vectors, so moving the rows T whose pivot is not in C to the bottom and
# the columns C \ P to the right leaves +-det E[T, C \ P]: over all C,
# exactly the square minors of E's non-pivot columns, built by one Laplace
# pass.  Fewer than n pivots mean that every minor vanishes at X modulo q.
# These are the minors of the row-shifted matrix, s^-S times A's, at X;
# times X^(S - low), a unit modulo the odd q even when the minors' lowest
# terms lie above S and S - low < 0, they are M(X) for M = s^-low times a
# minor, a polynomial of degree <= D whose coefficients lie within the
# bound.  So |M(X)| <= bound * (X^(D + 1) - 1) / (X - 1), and the moduli
# lift M(X) exactly.  Its balanced base-X digits, each in (-X/2, X/2), are
# M's coefficients: M(X) mod X fixes the lowest one, as no two numbers
# under X/2 in absolute value agree modulo X, and so on up.  So M = 0
# exactly when M(X) = 0, and equal minors have equal values: the minors
# are keyed by M(X), and each distinct nonzero one is decoded once and
# shared by its repeats.  A square matrix has one maximal minor, its
# determinant, and the 0 x 0 one has the minor 1; a single row is its own
# list of minors, whose values are exact without the CRT.  The gcd is
# taken once per distinct nonzero minor.
#
# The rank over the field of fractions is one per unit pivot +-s^k
# (_unit_reduced) plus the rank of the matrix A the pivots leave: the
# largest rank of A, zero rows dropped, at the same node X modulo the packs
# of CRT primes until their product exceeds twice the value bound.  No
# evaluation raises the rank, and while every pivot of the elimination is
# a unit modulo a pack, the rank there is that modulo each of its primes.
# If A has rank r, some r x r minor N is nonzero; as a Schur complement's
# minor it is a monomial times a minor of the input, so the D + 1 and bound
# of the input's window hold for it.  On the row-shifted rows N = s^j M
# with M(0) != 0, and M(X) != 0: its lowest coefficient is below X/2, so
# not 0 modulo X.  |M(X)| is within the value bound, so some prime
# does not divide it, and X^j is a unit modulo every prime.

def _normalised(rows: list[list[LaurentPoly]]) -> tuple[list[int], list, int, int]:
    """(low_i, the coefficient runs of row i times s^-low_i, the bound on
    every minor's coefficients, D + 1) for A's rows; a zero row has low 0
    and adds nothing to the bound or to D."""
    lows = [min((e.low for e in row if e), default=0) for row in rows]
    polys = [[(0,) * (e.low - low) + e.coeffs if e else () for e in row]
             for row, low in zip(rows, lows)]
    norms = [sum(sum(map(abs, e)) ** 2 for e in row) for row in polys]
    bound = math.isqrt(math.prod(filter(None, norms))) + 1
    points = sum(max(map(len, row)) - 1 for row in polys if any(row)) + 1  # D + 1
    return lows, polys, bound, points


def _rref_mod(a: list[list[int]], q: int) -> tuple[list[int], int]:
    """Bring A, entries reduced mod q, to reduced row-echelon form in place
    by Gauss-Jordan elimination; returns (pivot columns, det).

    Pivots are taken down each column in row order, and a column with no
    pivot left is skipped; a pivot that is no unit modulo q raises
    laurent._NonUnitPivot.  When there is a pivot in every row, det is the
    determinant of the input's pivot columns mod q.
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
        inv = _inverse_pivot(a[r][k], q)
        det = det * a[r][k] % q
        rk = a[r] = [v * inv % q for v in a[r]]
        for i in range(n):
            u = a[i][k]
            if u and i != r:
                a[i] = [(v - u * w) % q for v, w in zip(a[i], rk)]
        pivots.append(k)
    return pivots, det


def _at_node(polys: list[list[tuple]], b: int) -> list[list[int]]:
    """The polynomial matrix at s = 2^b, exactly."""
    return [[sum(c << (b * k) for k, c in enumerate(e) if c) for e in row] for row in polys]


def _ones(b: int, points: int) -> int:
    """(X^points - 1) / (X - 1) for X = 2^b: ``points`` base-X digits 1.
    Times the bound, it bounds |M(X)| for every M of degree < points with
    coefficients within the bound."""
    return ((1 << (b * points)) - 1) // ((1 << b) - 1)


def _digits(v: int, b: int, points: int) -> list[int]:
    """The ``points`` balanced base-2^b digits of v, ascending, each in
    (-2^(b-1), 2^(b-1)).  Adding 2^(b-1) to every digit makes them the
    plain binary digits of one nonnegative number, read off its bit string."""
    half = 1 << (b - 1)
    bits = format(v + _ones(b, points) * half, f"0{b * points}b")
    return [int(bits[i - b:i], 2) - half for i in range(len(bits), 0, -b)]


def _maximal_minors(rows: list[list[int]], m: int, lows: list[int],
                    window: tuple[int, int, int, int]) -> list[LaurentPoly]:
    """The n x n minors of the n x m matrix with n <= m whose row i is
    s^low_i times R_i, from the values R_i(X) at X = 2^b, exactly, in the
    order of itertools.combinations(range(m), n); equal minors are one
    shared LaurentPoly, each decoded once.

    ``window`` = (b, low, D + 1, bound) must hold for every minor: its
    exponents lie in low..low + D and its coefficients within bound.
    """
    b, low, points, bound = window
    n, shift = len(rows), sum(lows)
    count = math.comb(m, n)

    def kernel(q):  # M(X) mod q for every minor
        e = [[v % q for v in row] for row in rows]
        pivots, d = _rref_mod(e, q)
        if len(pivots) < n:
            return [0] * count
        d = d * pow(2, b * (shift - low), q) % q
        free = [j for j in range(m) if j not in pivots]
        small = _square_minors([[row[j] for j in free] for row in e], q)
        return [sign * d * small[t, k] for sign, t, k in _minor_plan(tuple(pivots), m)]

    if n == 1:  # a row is its own list of minors, its values M(X) exact
        values = [v and v << b * (shift - low) for v in rows[0]]
    else:
        values = _crt_lift(_crt_residues(bound * _ones(b, points), kernel))
    distinct = dict.fromkeys(values)
    distinct.pop(0, None)  # the zero minor
    for v in distinct:
        distinct[v] = LaurentPoly(low, _digits(v, b, points))
    return [distinct.get(v, laurent.ZERO) for v in values]


def rank_over_fractions(p: LambdaMatrix) -> int:
    """Rank of P over the field of fractions of Z[s, s^-1]: one per unit
    pivot (_unit_reduced) plus the rank of the rows they leave, at the node
    s = 2^b and under the value bound of the window _unit_reduced returns;
    it returns as soon as that rank is full."""
    reduced, cols, _, (b, _, points, bound) = _unit_reduced(p)
    rows = [row for row in reduced if any(row)]
    full = min(len(rows), cols)

    def kernel(q):
        return [len(_rref_mod([[v % q for v in row] for row in rows], q)[0])]

    rank = 0
    for _, (at_q,) in _crt_residues(bound * _ones(b, points), kernel):
        rank = max(rank, at_q)
        if rank == full:
            break
    return p.rows - len(reduced) + rank


@functools.lru_cache(maxsize=32)
def _minor_plan(pivots: tuple[int, ...], m: int) -> tuple[tuple[int, tuple, tuple], ...]:
    """For each column set C, in combinations order: (sign, T, K) with the
    minor on C equal to sign * d * det E[T, K], K indexing the non-pivot
    columns.  Kept across calls: every matrix of one reduced shape asks for
    the same few plans."""
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
    return tuple(plan)


def _to_end_parity(positions, size: int) -> int:
    """Transpositions, mod 2, that move the ascending ``positions`` of
    range(size) to its end in order."""
    t = len(positions)
    return sum(size - t + i - at for i, at in enumerate(positions)) & 1


def _square_minors(f: list[list[int]], q: int) -> dict[tuple[tuple, tuple], int]:
    """Every square minor of F mod q, keyed by (rows, columns), each by
    Laplace expansion along its first row over the minors one size down;
    the 0 x 0 minor is 1."""
    n, w = len(f), len(f[0]) if f else 0
    minors = {((), ()): 1}
    minors.update((((i,), (j,)), e) for i, row in enumerate(f) for j, e in enumerate(row))
    for t in range(2, min(n, w) + 1):
        for rs in itertools.combinations(range(n), t):
            top, rest = f[rs[0]], rs[1:]
            for cs in itertools.combinations(range(w), t):
                total = 0
                for k, j in enumerate(cs):
                    x = top[j] * minors[rest, cs[:k] + cs[k + 1:]]
                    total += -x if k & 1 else x
                minors[rs, cs] = total % q
    return minors
