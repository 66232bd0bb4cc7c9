import itertools
import math
import random

from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex import exactla, laurent
from twistalex.errors import InternalError, MinorLimitError, SizeLimitError
from twistalex.exactla import (IntMatrix, LambdaMatrix, Pencil, _maximal_minors,
                               char_poly, maximal_minor_gcd, rank_over_fractions,
                               smith_normal_form)
from twistalex.laurent import LaurentPoly, ONE, ZERO, _prime, canonicalize, parse_laurent
from twistalex.seifert import SeifertMatrix, alexander_polynomial, random_seifert_matrix

from bareiss_oracle import bareiss, divexact, divexact_int
from seifert_oracle import branched_presentation


def P(text):
    return parse_laurent(text)


def brute_det(m: IntMatrix) -> int:
    """Permutation-expansion determinant, an oracle independent of Bareiss."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m.at(i, perm[i])
        total += sign * prod
    return total


def random_matrix(rng, rows, cols, lo=-9, hi=9) -> IntMatrix:
    return IntMatrix(rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


def zeros(rows, cols) -> IntMatrix:
    return IntMatrix(rows, cols, [0] * (rows * cols))


class Smith(NamedTuple):
    d: tuple[int, ...]
    u: IntMatrix
    v: IntMatrix

    def diagonal_matrix(self) -> IntMatrix:
        rows, cols = self.u.rows, self.v.cols
        return IntMatrix(rows, cols, [self.d[i] if i == j and i < len(self.d) else 0
                                      for i in range(rows) for j in range(cols)])


def smith_with_transforms(a: IntMatrix) -> Smith:
    """Smith normal form with both integer transforms, U * A * V = D: the
    transform-tracking elimination that smith_normal_form replaced, kept as
    its oracle.  It makes the same pivot choices and the same operations on
    the working matrix, over every row and column."""
    rows, cols = a.rows, a.cols
    m = a.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def row_addmul(i: int, j: int, q: int) -> None:
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_addmul(i: int, j: int, q: int) -> None:
        for r in m:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def find_pivot(k: int) -> tuple[int, int] | None:
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                x = m[i][j]
                if x and (best is None or abs(x) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    for k in range(min(rows, cols)):
        while True:
            piv = find_pivot(k)
            if piv is None:
                break
            i, j = piv
            if i != k:
                m[k], m[i] = m[i], m[k]
                u[k], u[i] = u[i], u[k]
            if j != k:
                for r in m:
                    r[k], r[j] = r[j], r[k]
                for r in v:
                    r[k], r[j] = r[j], r[k]
            pivot = m[k][k]
            clean = True
            for i in range(k + 1, rows):
                if m[i][k]:
                    row_addmul(i, k, m[i][k] // pivot)
                    if m[i][k]:
                        clean = False
            for j in range(k + 1, cols):
                if m[k][j]:
                    col_addmul(j, k, m[k][j] // pivot)
                    if m[k][j]:
                        clean = False
            if not clean:
                continue
            fixed = True
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if m[i][j] % pivot:
                        row_addmul(k, i, -1)
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        if find_pivot(k) is None:
            break

    for k in range(min(rows, cols)):
        if m[k][k] < 0:
            m[k] = [-x for x in m[k]]
            u[k] = [-x for x in u[k]]

    d = tuple(m[k][k] for k in range(min(rows, cols)))
    return Smith(d, IntMatrix(rows, rows, [x for r in u for x in r]),
                 IntMatrix(cols, cols, [x for r in v for x in r]))


def u_from_log(snf) -> IntMatrix:
    """U mod r, row i rebuilt by replaying the Smith form's row-operation
    log on the unit covector e_i."""
    n = snf.rows
    return IntMatrix.from_rows([snf._times_u([int(i == j) for j in range(n)])
                                for i in range(n)])


def character_from_transform(d, u: IntMatrix, r: int):
    """The character of SmithForm.character, read off an integer U."""
    diag = list(d) + [0] * (u.rows - len(d))
    weights = [(r // math.gcd(dj, r)) % r for dj in diag]
    if math.gcd(r, *weights) != 1:
        return None
    return tuple(sum(w * u.at(j, i) for j, w in enumerate(weights)) % r
                 for i in range(u.rows))


def surjection_onto_cyclic(a: IntMatrix, r: int) -> tuple[int, ...] | None:
    """A character on the row generators of coker(A) surjecting onto Z_r,
    built from the left Smith transform modulo r; None iff no surjection
    exists.  It pins SmithForm.character on arbitrary presentations."""
    if r < 2:
        raise ValueError("cyclic target must have order >= 2")
    return smith_normal_form(a, r).character()


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(IntMatrix.identity(3)).d == (1, 1, 1)

    def test_trefoil_symmetrized(self):
        # A + A^T for the trefoil Seifert matrix; reduces by hand to diag(1, 3)
        snf = smith_normal_form(IntMatrix.from_rows([[-2, 1], [1, -2]]))
        assert snf.d == (1, 3)

    def test_zero_matrix(self):
        assert smith_normal_form(zeros(2, 3)).d == (0, 0)

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            snf = smith_normal_form(zeros(rows, cols), 5)
            assert snf.d == () and snf.rows == rows
            assert snf.ops == () and snf.negated == ()
            assert u_from_log(snf) == IntMatrix.identity(rows)
            oracle = smith_with_transforms(zeros(rows, cols))
            assert oracle.u.rows == rows and oracle.v.cols == cols

    def test_reconstruction_on_random_matrices(self):
        # U * A * V = D for the oracle; the fast routine must match its diagonal
        rng = random.Random(11)
        for _ in range(120):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            a = random_matrix(rng, rows, cols)
            snf = smith_with_transforms(a)
            assert snf.u * a * snf.v == snf.diagonal_matrix()
            assert abs(brute_det(snf.u) if rows <= 6 else snf.u.det()) == 1
            assert abs(brute_det(snf.v) if cols <= 6 else snf.v.det()) == 1
            d = snf.d
            assert all(x >= 0 for x in d)
            nonzero = [x for x in d if x]
            assert list(d[:len(nonzero)]) == nonzero, "zeros must come last"
            for x, y in zip(nonzero, nonzero[1:]):
                assert y % x == 0
            assert smith_normal_form(a).d == d

    def test_deterministic(self):
        a = IntMatrix.from_rows([[6, 4, 2], [4, 8, 0], [2, 0, 10]])
        assert smith_normal_form(a) == smith_normal_form(a)
        assert smith_normal_form(a, 6) == smith_normal_form(a, 6)

    def test_no_transform_without_modulus(self):
        snf = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert snf.ops == () and snf.negated == () and snf.r is None and snf.d == (2, 4)
        with pytest.raises(ValueError):
            snf.character()


MODULI = (2, 3, 4, 6, 12, 2**61 - 1)


def oracle_agrees(a: IntMatrix, r: int) -> None:
    """smith_normal_form(a, r) against the transform oracle: the same
    diagonal, U mod r, and character onto Z/r."""
    fast = smith_normal_form(a, r)
    slow = smith_with_transforms(a)
    assert fast.d == slow.d
    assert u_from_log(fast) == IntMatrix(a.rows, a.rows, [x % r for x in slow.u.entries])
    assert fast.character() == character_from_transform(slow.d, slow.u, r)
    assert surjection_onto_cyclic(a, r) == fast.character()


class TestSmithAgainstOracle:
    def test_random_shapes(self):
        rng = random.Random(71)
        for _ in range(150):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            a = random_matrix(rng, rows, cols, *rng.choice(((-3, 3), (-9, 9), (-200, 200))))
            oracle_agrees(a, rng.choice(MODULI))

    def test_square_rectangular_zero_and_empty(self):
        rng = random.Random(73)
        shapes = [(4, 4), (3, 6), (6, 3), (1, 5), (5, 1)]
        for r in MODULI:
            for rows, cols in shapes:
                oracle_agrees(random_matrix(rng, rows, cols), r)
                oracle_agrees(zeros(rows, cols), r)
            for rows, cols in ((0, 0), (0, 4), (4, 0)):
                oracle_agrees(zeros(rows, cols), r)

    def test_singular(self):
        rng = random.Random(79)
        for r in MODULI:
            for n in (2, 3, 5):
                rows = random_matrix(rng, n, n).to_rows()
                q = rng.randint(-3, 3)
                rows[-1] = [x + q * y for x, y in zip(rows[0], rows[-2])]  # det = 0
                a = IntMatrix.from_rows(rows)
                assert smith_normal_form(a).d[-1] == 0
                oracle_agrees(a, r)
                oracle_agrees(a.transpose(), r)

    def test_branched_presentations(self):
        # the Seifert pipeline's own matrices, diagonals with many factors
        rng = random.Random(83)
        for _ in range(6):
            s = random_seifert_matrix(rng.choice((2, 4)), rng)
            a = branched_presentation(s, rng.randint(2, 5))
            for r in MODULI:
                oracle_agrees(a, r)

    @pytest.mark.parametrize("r", (2, 3, 6))
    def test_non_unit_pivots(self, r):
        # diag(2, 3): the clean pivot 2 does not divide 3, so the fix-up
        # adds row 1 to row 0, the only operation that ever writes row 0
        # here.  [[2, 4], [6, 8]]: the pivot 2 divides what is left.
        for rows, d, fix_up in (([[2, 0], [0, 3]], (1, 6), True),
                                ([[2, 4], [6, 8]], (2, 4), False)):
            a = IntMatrix.from_rows(rows)
            snf = smith_normal_form(a, r)
            assert snf.d == d
            assert any(i == 0 and q is not None for i, _, q in snf.ops) == fix_up
            oracle_agrees(a, r)
            oracle_agrees(a.transpose(), r)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda rows: st.integers(0, 5).flatmap(
               lambda cols: st.lists(st.integers(-12, 12), min_size=rows * cols,
                                     max_size=rows * cols).map(
                   lambda ents: IntMatrix(rows, cols, ents)))),
           st.sampled_from(MODULI))
    def test_hypothesis(self, a, r):
        oracle_agrees(a, r)


class TestCokernel:
    def test_trefoil_block(self):
        inv = smith_normal_form(IntMatrix.from_rows([[-2, 1], [1, -2]])).cokernel()
        assert inv.torsion == (3,) and inv.free_rank == 0
        assert inv.order == 3
        assert inv.group_text() == "Z/3"

    def test_identity_gives_trivial_group(self):
        for n in (1, 2, 5):
            inv = smith_normal_form(IntMatrix.identity(n)).cokernel()
            assert inv.is_trivial and inv.order == 1
            assert inv.group_text() == "0"

    def test_divisor_chaining(self):
        inv = smith_normal_form(IntMatrix.from_rows([[3, 0], [0, 5]])).cokernel()
        assert inv.torsion == (15,)

    def test_free_rank(self):
        inv = smith_normal_form(zeros(2, 3)).cokernel()
        assert inv.free_rank == 2 and inv.order is None
        assert inv.group_text() == "Z + Z"

    def test_order_equals_det_for_nonsingular(self):
        rng = random.Random(23)
        done = 0
        while done < 40:
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n, -5, 5)
            d = brute_det(a)
            if d == 0:
                continue
            assert smith_normal_form(a).cokernel().order == abs(d)
            done += 1


def chi_kills_relations(chi, a: IntMatrix, r: int) -> bool:
    for j in range(a.cols):
        if sum(chi[i] * a.at(i, j) for i in range(a.rows)) % r:
            return False
    return True


def chi_surjective(chi, r: int) -> bool:
    return math.gcd(r, *chi) == 1 if chi else False


class TestSurjectionOntoCyclic:
    def test_trefoil_z3(self):
        a = IntMatrix.from_rows([[-2, 1], [1, -2]])
        chi = surjection_onto_cyclic(a, 3)
        assert chi is not None
        assert all(x % 3 for x in chi), "both generators land away from 0 in Z/3"
        assert chi_kills_relations(chi, a, 3) and chi_surjective(chi, 3)

    def test_trivial_group_has_none(self):
        assert surjection_onto_cyclic(IntMatrix.identity(2), 2) is None

    def test_klein_four(self):
        a = IntMatrix.from_rows([[2, 0], [0, 2]])
        chi = surjection_onto_cyclic(a, 2)
        assert chi is not None
        assert chi_kills_relations(chi, a, 2) and chi_surjective(chi, 2)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            surjection_onto_cyclic(IntMatrix.identity(1), 1)

    def test_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(80):
            rows, cols = rng.randint(1, 3), rng.randint(0, 3)
            a = random_matrix(rng, rows, cols, -4, 4)
            r = rng.randint(2, 4)
            chi = surjection_onto_cyclic(a, r)
            candidates = [
                c for c in itertools.product(range(r), repeat=rows)
                if chi_kills_relations(c, a, r) and chi_surjective(list(c), r)
            ]
            if chi is None:
                assert not candidates
            else:
                assert chi_kills_relations(chi, a, r) and chi_surjective(chi, r)
                assert candidates


def faddeev_leverrier(h: IntMatrix) -> LaurentPoly:
    """det(sI - H) by the Faddeev-LeVerrier recurrence, an oracle independent
    of the modular kernel and of elimination."""
    n = h.rows
    cs = [1]
    mk = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = h * mk
        ck = -sum(am.at(i, i) for i in range(n)) // k
        cs.append(ck)
        mk = IntMatrix.from_rows([[x + ck * (i == j) for j, x in enumerate(am.row(i))]
                                  for i in range(n)])
    # cs[k] is the coefficient of s^(n-k)
    return LaurentPoly(0, list(reversed(cs)))


def leibniz_det(m: LambdaMatrix) -> LaurentPoly:
    """Permutation expansion of a Laurent determinant, independent of elimination."""
    n = m.rows
    total = ZERO
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = LaurentPoly.const(-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * m.at(i, perm[i])
        total = total + term
    return total


def pencil(x, y) -> LambdaMatrix:
    """sX - Y from integer row lists."""
    return LambdaMatrix.from_rows(
        [[LaurentPoly(0, (-b, a)) for a, b in zip(xr, yr)] for xr, yr in zip(x, y)])


def si_minus(h: IntMatrix) -> LambdaMatrix:
    """sI - H with Laurent entries: the expansion that Pencil never builds,
    kept as its oracle (its det() is char_poly(H) again)."""
    return pencil(IntMatrix.identity(h.rows).to_rows(), h.to_rows())


def unimodular(rng, n):
    """A random integer matrix of determinant +-1, from elementary row moves."""
    x = IntMatrix.identity(n).to_rows()
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            k = rng.randint(-3, 3)
            x[i] = [a + k * b for a, b in zip(x[i], x[j])]
    if n and rng.random() < 0.5:
        x[0] = [-a for a in x[0]]
    return x


def adjugate_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant +-1 from its n^2 cofactor
    determinants, all by the fraction-free oracle: the route that
    IntMatrix.inverse_unimodular replaced, kept as its oracle."""
    d = bareiss(m.to_rows(), 1, divexact_int)[1]
    if d not in (1, -1):
        raise ValueError(f"matrix has determinant {d}, not a unit")
    n = m.rows
    rows = m.to_rows()
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
            adj[i][j] = (-1) ** (i + j) * bareiss(minor, 1, divexact_int)[1]
    return IntMatrix(n, n, [d * x for r in adj for x in r])


class TestIntDeterminant:
    """IntMatrix.det, from char_poly, against the fraction-free oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2**32), st.sampled_from(("any", "singular")))
    def test_against_bareiss(self, n, seed, kind):
        rng = random.Random(seed)
        big = 2**72  # several CRT primes
        m = random_matrix(rng, n, n, -big, big)
        if kind == "singular" and n:
            rows = m.to_rows()
            # a combination of two rows, which are one row when n = 2
            rows[-1] = [3 * x - 2 * y for x, y in zip(rows[0], rows[n - 2])] if n > 1 else [0]
            m = IntMatrix.from_rows(rows)
        det = bareiss(m.to_rows(), 1, divexact_int)[1]
        assert m.det() == det
        assert kind != "singular" or n == 0 or det == 0

    def test_shape_check(self):
        with pytest.raises(ValueError, match="determinant needs a square matrix"):
            zeros(2, 3).det()


class TestInverseUnimodular:
    """The one-solve inverse against the cofactor adjugate."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2**32), st.sampled_from(("unit", "any", "singular")))
    def test_against_adjugate(self, n, seed, kind):
        rng = random.Random(seed)
        big = 2**40
        if kind == "unit":
            # upper unitriangular with entries up to 2^40, times row moves
            upper = [[int(i == j) if j <= i else rng.randint(-big, big) for j in range(n)]
                     for i in range(n)]
            m = IntMatrix.from_rows(unimodular(rng, n)) * IntMatrix.from_rows(upper)
        else:
            m = random_matrix(rng, n, n, -big, big)
            if kind == "singular" and n:
                rows = m.to_rows()
                rows[-1] = [2 * x for x in rows[0]] if n > 1 else [0]
                m = IntMatrix.from_rows(rows)
        try:
            expected = adjugate_inverse(m)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                m.inverse_unimodular()
            assert str(info.value) == str(exc)
            assert kind != "unit"
            return
        inv = m.inverse_unimodular()
        assert inv == expected
        assert inv * m == m * inv == IntMatrix.identity(n)

    def test_fixed_cases(self):
        assert IntMatrix(0, 0, ()).inverse_unimodular() == IntMatrix(0, 0, ())
        assert IntMatrix.from_rows([[-1]]).inverse_unimodular() == IntMatrix.from_rows([[-1]])
        # a zero leading entry forces a row swap
        m = IntMatrix.from_rows([[0, 1], [1, 3]])
        assert m.inverse_unimodular() == IntMatrix.from_rows([[-3, 1], [1, 0]])
        for rows, det in (([[2]], 2), ([[1, 2], [2, 4]], 0), ([[0, 0], [0, 0]], 0)):
            with pytest.raises(ValueError, match=f"matrix has determinant {det}, not a unit"):
                IntMatrix.from_rows(rows).inverse_unimodular()
        with pytest.raises(ValueError):
            zeros(2, 3).inverse_unimodular()

    def test_a_prime_divisor_of_det_exits_at_that_prime(self, monkeypatch):
        # det A = 0 modulo a CRT prime: that reduction misses a pivot and
        # raises with the exact det, before any later prime or the lift
        primes = []

        def counted(a, p):
            primes.append(p)
            return rref(a, p)

        rref = exactla._rref_mod
        monkeypatch.setattr(exactla, "_rref_mod", counted)
        p0, p1 = _prime(0), _prime(1)
        for rows, det, reduced in (([[p0]], p0, [p0]),
                                   ([[p0, 0], [0, p1]], p0 * p1, [p0]),
                                   ([[p1]], p1, [p0, p1])):
            primes.clear()
            with pytest.raises(ValueError, match=f"matrix has determinant {det}, not a unit"):
                IntMatrix.from_rows(rows).inverse_unimodular()
            assert primes == reduced

    def test_a_det_past_the_char_poly_cap_is_left_unnamed(self, monkeypatch):
        # the matrix is still no unit (a ValueError, not a SizeLimitError)
        monkeypatch.setattr(exactla, "MAX_CHAR_POLY_WORK", 0)
        with pytest.raises(exactla.NonUnitError) as info:
            IntMatrix.from_rows([[0, 2, 1], [-2, 0, 3], [-1, -3, 0]]).inverse_unimodular()
        assert info.value.det is None
        assert str(info.value) == "matrix has determinant past the char_poly work cap, not a unit"


def bareiss_det(m: LambdaMatrix) -> LaurentPoly:
    """A Laurent determinant by the fraction-free oracle alone."""
    return bareiss(m.to_rows(), ONE, divexact)[1]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts, by size, the calls of the evaluation kernel: the route of
    LambdaMatrix.det for every square matrix but sI - Y."""
    calls = []

    def counted(p):
        calls.append(p.rows)
        return maximal_minors(p)

    maximal_minors = exactla._maximal_minors
    monkeypatch.setattr(exactla, "_maximal_minors", counted)
    return calls


class TestCharPoly:
    def test_matches_lambda_determinant(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(0, 6)
            h = random_matrix(rng, n, n, -4, 4)
            assert char_poly(h) == bareiss_det(si_minus(h)) == faddeev_leverrier(h)

    def test_huge_entries_need_several_primes(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(1, 5)
            h = random_matrix(rng, n, n, -2**72, 2**72)
            assert char_poly(h) == bareiss_det(si_minus(h)) == faddeev_leverrier(h)

    def test_constant_term_is_det(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(1, 5)
            h = random_matrix(rng, n, n, -4, 4)
            assert char_poly(h).coefficient(0) == (-1) ** n * brute_det(h)

    @pytest.mark.parametrize("bits", [0, 1, 60, 61, 62, 121, 122, 123, 1000])
    def test_prime_count_is_what_the_crt_lift_draws(self, bits):
        drawn = []

        def residues():
            for p in laurent._primes():
                drawn.append(p)
                yield p, [0]

        for bound in (2**bits - 1, 2**bits, 2**bits + 1):
            drawn.clear()
            laurent._crt_lift(bound, 1, residues())
            assert laurent._crt_primes(bound) == len(drawn)

    def test_work_cap_fires_within_the_first_prime(self, monkeypatch):
        budgets = []

        def counted(h, p, budget):
            budgets.append(budget)
            return char_poly_mod(h, p, budget)

        char_poly_mod = exactla._char_poly_mod
        monkeypatch.setattr(exactla, "_char_poly_mod", counted)
        h = random_matrix(random.Random(5), 12, 12, -2**70, 2**70)
        expected = bareiss_det(si_minus(h))
        assert char_poly(h) == expected
        primes = len(budgets)
        assert primes == laurent._crt_primes(math.prod(sum(map(abs, r)) + 1 for r in h.to_rows()))
        assert primes > 1
        assert budgets == [exactla.MAX_CHAR_POLY_WORK // primes] * primes
        budgets.clear()
        monkeypatch.setattr(exactla, "MAX_CHAR_POLY_WORK", 100 * primes)
        with pytest.raises(SizeLimitError, match="12-square matrix passes the work cap of"):
            char_poly(h)
        assert budgets == [100]


class TestPencilDeterminant:
    def test_sizes_zero_and_one(self, kernel_calls):
        assert char_poly(IntMatrix(0, 0, ())) == LaurentPoly.const(1)
        assert LambdaMatrix(0, 0, ()).det() == LaurentPoly.const(1)
        assert char_poly(IntMatrix.from_rows([[7]])) == P("s - 7")
        assert pencil([[1]], [[7]]).det() == P("s - 7")
        assert kernel_calls == []
        # a 1 x 1 sX - Y with X != 1 is its own one minor
        assert pencil([[3]], [[5]]).det() == P("3s - 5")
        assert pencil([[0]], [[0]]).det() == ZERO
        assert kernel_calls == [1, 1]

    def test_identity_x(self, kernel_calls):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 4)
            y = random_matrix(rng, n, n, -5, 5).to_rows()
            m = pencil(IntMatrix.identity(n).to_rows(), y)
            assert m.det() == leibniz_det(m) == bareiss_det(m)
        assert kernel_calls == []

    def test_unimodular_x(self, kernel_calls):
        rng = random.Random(43)
        evaluated = 0
        for _ in range(30):
            n = rng.randint(1, 4)
            x = unimodular(rng, n)
            y = random_matrix(rng, n, n, -5, 5).to_rows()
            m = pencil(x, y)
            assert m.det() == leibniz_det(m) == bareiss_det(m)
            evaluated += x != IntMatrix.identity(n).to_rows()
        assert len(kernel_calls) == evaluated >= 25  # X != I takes the evaluation kernel

    def test_huge_entries(self, kernel_calls):
        rng = random.Random(47)
        evaluated = 0
        for _ in range(10):
            n = rng.randint(2, 6)
            x = unimodular(rng, n)
            y = random_matrix(rng, n, n, -2**75, 2**75).to_rows()
            m = pencil(x, y)
            assert m.det() == bareiss_det(m)
            h = IntMatrix.from_rows(y)
            assert si_minus(h).det() == char_poly(h) == bareiss_det(si_minus(h))
            evaluated += x != IntMatrix.identity(n).to_rows()
        assert len(kernel_calls) == evaluated >= 8  # X != I only

    def test_singular_x_with_zero_determinant(self, kernel_calls):
        rng = random.Random(53)
        for _ in range(10):
            n = rng.randint(2, 4)
            x = random_matrix(rng, n, n, -4, 4).to_rows()
            y = random_matrix(rng, n, n, -4, 4).to_rows()
            x[1], y[1] = list(x[0]), list(y[0])  # equal rows: det(sX - Y) = 0
            assert pencil(x, y).det() == ZERO
        assert len(kernel_calls) == 10

    def test_singular_x_with_nonzero_determinant(self, kernel_calls):
        rng = random.Random(59)
        done = 0
        while done < 10:
            n = rng.randint(2, 4)
            x = random_matrix(rng, n, n, -4, 4).to_rows()
            x[-1] = [0] * n  # det X = 0 over Q
            m = pencil(x, random_matrix(rng, n, n, -4, 4).to_rows())
            expected = leibniz_det(m)
            if expected.is_zero:
                continue
            assert m.det() == expected
            done += 1
        assert len(kernel_calls) == 10

    def test_x_singular_modulo_first_prime_falls_back(self, kernel_calls):
        p = laurent._prime(0)
        rng = random.Random(61)
        for _ in range(5):
            n = rng.randint(2, 4)
            u = IntMatrix.from_rows(unimodular(rng, n))
            x = (u * IntMatrix.from_rows(
                [[p if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]))
            assert abs(x.det()) == p
            m = pencil(x.to_rows(), random_matrix(rng, n, n, -4, 4).to_rows())
            assert m.det() == leibniz_det(m)
        assert len(kernel_calls) == 5

    def test_non_pencils_take_the_evaluation_kernel(self, kernel_calls):
        m = LambdaMatrix.from_rows([[P("s^2"), P("1")], [P("s^-1"), P("s")]])
        assert m.det() == leibniz_det(m) == bareiss_det(m) == P("s^3 - s^-1")
        assert kernel_calls == [2]

    def test_prime_sequence(self):
        sieve = [n for n in range(2, 2000) if all(n % q for q in range(2, int(n**0.5) + 1))]
        assert [n for n in range(2000) if laurent._is_prime(n)] == sieve
        # strong pseudoprimes to several small bases, and Carmichael numbers
        for n in (561, 41041, 3215031751, 3825123056546413051):
            assert not laurent._is_prime(n)
        primes = [laurent._prime(k) for k in range(4)]
        assert primes[0] == 2**61 - 1
        assert primes == sorted(set(primes), reverse=True)
        assert all(laurent._is_prime(q) for q in primes)


class TestLambdaMatrix:
    def test_minor_gcd_of_row(self):
        m = LambdaMatrix.from_rows([[P("s - 1"), P("s^2 - 1")]])
        assert maximal_minor_gcd(m) == P("s - 1")

    def test_trefoil_presentation_delta(self):
        h = IntMatrix.from_rows([[1, 0, -1, -1], [0, 1, -1, -1],
                                 [1, 1, -1, -1], [0, 0, -1, 0]])
        assert maximal_minor_gcd(si_minus(h)) == P("s^4 - s^3 - s + 1")

    def test_two_by_three_minors(self):
        m = LambdaMatrix.from_rows([
            [P("s - 1"), ZERO, ZERO],
            [ZERO, P("s - 1"), ZERO],
        ])
        assert maximal_minor_gcd(m) == P("s^2 - 2s + 1")

    def test_more_generators_than_relations(self):
        m = LambdaMatrix.from_rows([[P("s")], [P("1")]])
        assert maximal_minor_gcd(m) == ZERO

    def test_square_gcd_is_canonical_determinant(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 3)
            ents = [LaurentPoly(rng.randint(-1, 1),
                                [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))])
                    for _ in range(n * n)]
            m = LambdaMatrix(n, n, ents)
            assert maximal_minor_gcd(m) == canonicalize(m.det())

    def test_minor_cap(self, monkeypatch):
        m = LambdaMatrix.from_rows([[P("s"), P("1"), P("s"), P("1")],
                                    [P("1"), P("s"), P("1"), P("s")]])
        monkeypatch.setattr(exactla, "MAX_MINORS", 5)
        with pytest.raises(MinorLimitError):
            maximal_minor_gcd(m)
        monkeypatch.setattr(exactla, "MAX_MINORS", 6)  # exactly C(4, 2)
        maximal_minor_gcd(m)


def enumerated_minors(m: LambdaMatrix) -> list[LaurentPoly]:
    """Every maximal minor, one fraction-free oracle determinant per column
    set in combinations order: the route the evaluation kernel replaced,
    kept as its oracle."""
    rows = m.to_rows()
    return [bareiss([[r[j] for j in cols] for r in rows], ONE, divexact)[1]
            for cols in itertools.combinations(range(m.cols), m.rows)]


def enumerated_gcd(m: LambdaMatrix) -> LaurentPoly:
    g = ZERO
    for minor in enumerated_minors(m):
        g = laurent.gcd(g, minor)
    return canonicalize(g)


HUGE = st.integers(2**70 - 2**8, 2**70 + 2**8) | st.integers(-2**70 - 2**8, -2**70 + 2**8)


@st.composite
def wide_matrices(draw, n):
    """An n x m Laurent matrix, n < m <= n + 4: general entries with
    negative exponents and zeros, pencils sX - Y, pencils whose X has
    dependent rows (every square block of X singular), or entries near
    2^70, so the lift needs several primes; sometimes with a row repeated."""
    m = draw(st.integers(n + 1, n + 4))
    kind = draw(st.sampled_from(("laurent", "pencil", "singular-x", "huge")))
    coeff = HUGE | st.just(0) if kind == "huge" else st.integers(-3, 3)
    if kind in ("laurent", "huge"):
        entry = st.builds(LaurentPoly, st.integers(-2, 2), st.lists(coeff, max_size=3))
        rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    else:
        x = [[draw(coeff) for _ in range(m)] for _ in range(n)]
        if kind == "singular-x":
            k = draw(st.integers(-2, 2))
            x[-1] = [k * v for v in x[0]]
        rows = [[LaurentPoly(0, (draw(coeff), v)) for v in xr] for xr in x]
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = list(rows[0])
    return LambdaMatrix.from_rows(rows)


def refuse_laurent_determinants(monkeypatch):
    """Makes any Laurent determinant fail."""
    def refuse(*args):
        raise AssertionError("the evaluation kernel took a Laurent determinant")

    monkeypatch.setattr(exactla.LambdaMatrix, "det", refuse)
    monkeypatch.setattr(exactla.Pencil, "det", refuse)


class TestMaximalMinors:
    """The evaluation kernel behind maximal_minor_gcd for n < m, against
    one Laurent determinant per column set."""

    @pytest.mark.parametrize("n", range(1, 6))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_against_enumeration(self, n, data):
        m = data.draw(wide_matrices(n))
        assert _maximal_minors(m) == enumerated_minors(m)
        gcd = enumerated_gcd(m)
        assert maximal_minor_gcd(m) == gcd
        rows = m.to_rows()
        if any(rows.count(r) > 1 for r in rows):
            assert gcd == ZERO

    def test_repeated_row_gives_zero(self):
        row = [P("s - 1"), P("s^-1"), P("2s + 3"), ZERO]
        m = LambdaMatrix.from_rows([row, [P("1"), P("s"), P("s^2"), P("s^-2")], row])
        assert _maximal_minors(m) == [ZERO] * 4 == enumerated_minors(m)
        assert maximal_minor_gcd(m) == ZERO

    def test_pivot_columns_change_between_points(self):
        # at s = 0 the first column vanishes, so the pivots move right
        m = LambdaMatrix.from_rows([[P("s"), P("1"), ZERO, P("s^2 + 1")],
                                    [ZERO, P("s"), P("1"), P("-s")]])
        assert _maximal_minors(m) == enumerated_minors(m)
        assert maximal_minor_gcd(m) == enumerated_gcd(m) == ONE

    def test_no_rows_has_one_minor(self, monkeypatch):
        refuse_laurent_determinants(monkeypatch)
        for m in (1, 3):
            assert _maximal_minors(LambdaMatrix(0, m, ())) == [ONE]
            assert maximal_minor_gcd(LambdaMatrix(0, m, ())) == ONE

    def test_zero_row_gives_zero(self, monkeypatch):
        refuse_laurent_determinants(monkeypatch)
        m = LambdaMatrix.from_rows([[P("s - 1"), ONE, P("s")], [ZERO, ZERO, ZERO]])
        assert _maximal_minors(m) == [ZERO] * 3
        assert maximal_minor_gcd(m) == ZERO

    def test_no_laurent_determinant_or_elimination(self, monkeypatch):
        rng = random.Random(79)
        cases = []
        for _ in range(10):
            n = rng.randint(1, 4)
            m = LambdaMatrix.from_rows(random_rows(rng, n, n + rng.randint(1, 3),
                                                   random_laurent, ZERO))
            cases.append((m, enumerated_gcd(m)))
        refuse_laurent_determinants(monkeypatch)
        for m, gcd in cases:
            assert maximal_minor_gcd(m) == gcd


@st.composite
def unit_rich_matrices(draw, n):
    """An n x m Laurent matrix, n < m <= n + 3, with entries +-s^k planted
    among small general ones and zeros, then mixed by row operations
    row_r += f row_i, so that some units come back only as fill-in of the
    reduction."""
    m = draw(st.integers(n + 1, n + 3))
    unit = st.builds(LaurentPoly, st.integers(-2, 2), st.sampled_from(((1,), (-1,))))
    general = st.builds(LaurentPoly, st.integers(-1, 1),
                        st.lists(st.integers(-2, 2), max_size=2))
    rows = [[draw(unit | general | st.just(ZERO)) for _ in range(m)] for _ in range(n)]
    for _ in range(draw(st.integers(0, n))):
        r, i = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if r != i:
            f = draw(general)
            rows[r] = [a + f * b for a, b in zip(rows[r], rows[i])]
    return LambdaMatrix.from_rows(rows)


def record_kernel_inputs(monkeypatch) -> list[LambdaMatrix]:
    """The matrices _maximal_minors receives from here on."""
    seen = []
    kernel = exactla._maximal_minors

    def recorded(p):
        seen.append(p)
        return kernel(p)

    monkeypatch.setattr(exactla, "_maximal_minors", recorded)
    return seen


def trefoil_block_presentation() -> LambdaMatrix:
    """[A | AQ] with A = sS - S^T for S the block sum of two trefoil
    Seifert matrices, the shape of the bench's fibred presentations."""
    t = [[-1, 1], [0, -1]]
    s = [[t[i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(4)] for i in range(4)]
    q = [[1, -2], [0, 1], [2, 0], [-1, 1]]
    a = [[LaurentPoly(0, (-s[j][i], s[i][j])) for j in range(4)] for i in range(4)]
    return LambdaMatrix.from_rows(
        [row + [sum((row[j] * q[j][c] for j in range(4)), ZERO) for c in range(2)]
         for row in a])


class TestUnitPivots:
    """The unit-pivot reduction ahead of the evaluation kernel, against the
    enumerated gcd of the unreduced matrix."""

    @pytest.mark.parametrize("n", range(1, 5))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_against_enumeration(self, n, data):
        m = data.draw(unit_rich_matrices(n))
        reduced = exactla._unit_reduced(m)
        assert reduced.cols - reduced.rows == m.cols - m.rows
        assert not any(map(exactla._is_unit, reduced.entries))
        assert maximal_minor_gcd(m) == enumerated_gcd(m)

    def test_fill_in_unit_reduces_to_no_rows(self, monkeypatch):
        # the only unit is the 1 at (0, 0); clearing its column leaves a
        # 1 at (1, 1), which takes the last row
        m = LambdaMatrix.from_rows([[ONE, P("s + 1"), P("2")],
                                    [P("2"), P("2s + 3"), P("3s")]])
        seen = record_kernel_inputs(monkeypatch)
        assert maximal_minor_gcd(m) == ONE == enumerated_gcd(m)
        assert [(p.rows, p.cols) for p in seen] == [(0, 1)]

    def test_reduces_to_one_row(self, monkeypatch):
        m = LambdaMatrix.from_rows([[ONE, P("s"), P("2"), P("s + 1")],
                                    [P("2s"), P("2"), P("3"), P("5")]])
        seen = record_kernel_inputs(monkeypatch)
        assert maximal_minor_gcd(m) == enumerated_gcd(m)
        assert seen == [LambdaMatrix.from_rows([[P("-2s^2 + 2"), P("-4s + 3"),
                                                 P("-2s^2 - 2s + 5")]])]

    def test_reduces_to_a_zero_row(self, monkeypatch):
        m = LambdaMatrix.from_rows([[ONE, P("s"), P("2")],
                                    [P("s"), P("s^2"), P("2s")]])
        seen = record_kernel_inputs(monkeypatch)
        assert maximal_minor_gcd(m) == ZERO == enumerated_gcd(m)
        assert seen == [LambdaMatrix.from_rows([[ZERO, ZERO]])]

    def test_no_unit_reaches_the_kernel_unreduced(self, monkeypatch):
        m = LambdaMatrix.from_rows([[P("s - 1"), P("2"), P("s + 1")],
                                    [P("2s"), P("s^2 + 1"), P("3")]])
        seen = record_kernel_inputs(monkeypatch)
        assert maximal_minor_gcd(m) == enumerated_gcd(m)
        assert seen == [m]

    def test_trefoil_block_presentation(self, monkeypatch):
        m = trefoil_block_presentation()
        seen = record_kernel_inputs(monkeypatch)
        assert maximal_minor_gcd(m) == P("s^4 - 2s^3 + 3s^2 - 2s + 1") == enumerated_gcd(m)
        assert [(p.rows, p.cols) for p in seen] == [(2, 4)]


class TestRankOverFractions:
    def test_pencil_is_full_rank(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(1, 4)
            h = random_matrix(rng, n, n, -4, 4)
            assert rank_over_fractions(si_minus(h)) == n

    def test_zero_matrix(self):
        m = LambdaMatrix.from_rows([[ZERO, ZERO], [ZERO, ZERO]])
        assert rank_over_fractions(m) == 0

    def test_equal_rows(self):
        row = [P("s - 1"), P("s - 1")]
        m = LambdaMatrix.from_rows([row, row])
        assert rank_over_fractions(m) == 1

    def test_square_singular_with_zero_leading_column(self):
        # the zero column is skipped; it does not end the elimination
        for rows in ([[ZERO, ONE], [ZERO, ONE]], [[ZERO, P("s")], [ZERO, P("s - 1")]]):
            assert rank_over_fractions(LambdaMatrix.from_rows(rows)) == 1


def seifert_pencil(s: IntMatrix) -> LambdaMatrix:
    """tS - S^T with Laurent entries: the expansion that alexander_polynomial
    no longer builds, kept as its oracle."""
    return pencil(s.to_rows(), s.transpose().to_rows())


def singular_seifert(rng, k: int) -> IntMatrix:
    """A 2k + 2 square Seifert matrix with det S = 0: a random Seifert
    matrix summed with [[0, 1], [0, 0]], then congruent by a unimodular P."""
    base = random_seifert_matrix(2 * k, rng).matrix.to_rows() if k else []
    n = 2 * k + 2
    rows = [r + [0, 0] for r in base] + [[0] * (n - 2) + [0, 1], [0] * n]
    q = IntMatrix.from_rows(unimodular(rng, n))
    return q * IntMatrix.from_rows(rows) * q.transpose()


@st.composite
def integer_pencils(draw):
    """(kind, X rows or None, Y rows) of an n x n pencil sX - Y: X the identity,
    X unimodular, X singular (tS - S^T of a Seifert matrix with det S = 0),
    X and Y sharing a repeated row (det 0, rank < n), or X unimodular and
    Y near 2^70, so the lift needs several primes.  n runs from 0 to 5."""
    kind = draw(st.sampled_from(("identity", "unimodular", "seifert", "dependent", "huge")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "seifert":
        s = singular_seifert(rng, draw(st.integers(0, 2)))
        return kind, s.to_rows(), s.transpose().to_rows()
    n = draw(st.integers(0, 5))
    entry = HUGE if kind == "huge" else st.integers(-4, 4)
    y = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "identity":
        return kind, None, y
    if kind == "dependent":
        x = random_matrix(rng, n, n, -4, 4).to_rows()
        if n > 1:
            i = draw(st.integers(1, n - 1))
            x[i], y[i] = list(x[0]), list(y[0])
        return kind, x, y
    return kind, unimodular(rng, n), y


def laurent_pencil(x, y) -> LambdaMatrix:
    """sX - Y with Laurent entries, X = None standing for the identity."""
    return si_minus(IntMatrix.from_rows(y)) if x is None else pencil(x, y)


class TestPencil:
    """Pencils sX - Y as Laurent matrices, and sI - H as a Pencil, against
    the fraction-free oracle over Z[s, s^-1] on the Laurent expansion."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(integer_pencils())
    def test_against_laurent_elimination(self, case):
        kind, x, y = case
        m = laurent_pencil(x, y)
        rank, det = bareiss(m.to_rows(), ONE, divexact)
        assert m.det() == det
        assert rank_over_fractions(m) == rank
        assert maximal_minor_gcd(m) == canonicalize(det)
        if x is None:
            p = Pencil(IntMatrix.from_rows(y))
            assert (p.rows, p.cols) == (len(y), len(y))
            assert p.det() == det
            assert rank_over_fractions(p) == rank == len(y)
            assert maximal_minor_gcd(p) == canonicalize(det)
        if kind == "seifert":
            assert alexander_polynomial(SeifertMatrix(x)) == canonicalize(det)

    def test_sizes_zero_and_one(self):
        for x, y, det, rank in ((None, [], ONE, 0), ([], [], ONE, 0),
                                (None, [[7]], P("s - 7"), 1), ([[3]], [[5]], P("3s - 5"), 1),
                                ([[0]], [[3]], P("-3"), 1), ([[0]], [[0]], ZERO, 0)):
            m = laurent_pencil(x, y)
            assert (m.det(), rank_over_fractions(m)) == (det, rank)
            assert (rank, det) == bareiss(m.to_rows(), ONE, divexact)
            if x is None:
                p = Pencil(IntMatrix.from_rows(y))
                assert (p.det(), rank_over_fractions(p), p.rows) == (det, rank, len(y))

    def test_determinant_is_taken_once(self, monkeypatch):
        calls = []

        def counted(h):
            calls.append(h.rows)
            return char_poly(h)

        monkeypatch.setattr(exactla, "char_poly", counted)
        h = IntMatrix.from_rows([[1, 0, -1, -1], [0, 1, -1, -1], [1, 1, -1, -1], [0, 0, -1, 0]])
        p = Pencil(h)
        assert rank_over_fractions(p) == 4 and calls == []  # monic of degree n: full rank
        assert p.det() == p.det() == P("s^4 - s^3 - s + 1")
        assert maximal_minor_gcd(p) == p.det()
        assert calls == [4]

    def test_evaluation_only_when_x_is_not_the_identity(self, kernel_calls):
        # sI - Y, as a Pencil or as a Laurent matrix, is char_poly(Y); a
        # square sX - Y with X != I is one call of the evaluation kernel
        rng = random.Random(127)
        for _ in range(10):
            n = rng.randint(1, 5)
            y = random_matrix(rng, n, n, -5, 5)
            p = Pencil(y)
            assert rank_over_fractions(p) == n and not p.det().is_zero
            assert si_minus(y).det() == p.det()
        assert kernel_calls == []
        x = unimodular(rng, 3)
        assert x != IntMatrix.identity(3).to_rows()
        m = pencil(x, random_matrix(rng, 3, 3, -5, 5).to_rows())
        assert m.det() == bareiss_det(m)
        assert kernel_calls == [3]

    def test_alexander_polynomial_of_a_singular_seifert_matrix(self, kernel_calls):
        # Gamma = (S - S^T)^-1 S exists whatever det S is: no evaluation
        s = singular_seifert(random.Random(131), 2)
        assert s.det() == 0
        assert alexander_polynomial(SeifertMatrix(s)) == canonicalize(
            bareiss_det(seifert_pencil(s)))
        assert kernel_calls == []

    def test_shape_checks(self):
        for h in (IntMatrix.from_rows([[1, 2]]), zeros(2, 1)):
            with pytest.raises(ValueError, match="square H"):
                Pencil(h)

    def test_equal_pencils_compare_equal(self):
        a = Pencil(IntMatrix.from_rows([[1, 2], [3, 4]]))
        b = Pencil(IntMatrix.from_rows(((1, 2), (3, 4))))
        a.det()
        assert a == b and hash(a) == hash(b)


class TestAlexanderByGamma:
    """alexander_polynomial, from char_poly(Gamma) in 1 - t, against the
    fraction-free determinant of tS - S^T."""

    def test_against_bareiss(self):
        rng = random.Random(139)
        cases = [IntMatrix(0, 0, ())]  # the unknot
        for k in range(6):  # sizes 0..10
            cases += [random_seifert_matrix(2 * k, rng).matrix for _ in range(5)]
            if k < 5:  # det S = 0, sizes 2..10
                cases += [singular_seifert(rng, k) for _ in range(3)]
        assert sum(m.det() == 0 for m in cases) >= 15
        for m in cases:
            assert alexander_polynomial(SeifertMatrix(m)) == canonicalize(
                bareiss_det(seifert_pencil(m)))


def minor_rank(rows, ncols, det) -> int:
    """Largest k with a nonzero k x k minor, each minor taken by ``det``."""
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in itertools.combinations(range(len(rows)), k):
            for cs in itertools.combinations(range(ncols), k):
                if det([[rows[i][j] for j in cs] for i in rs]):
                    return k
    return 0


def random_int(rng) -> int:
    return rng.choice((0, rng.randint(-5, 5), rng.randint(-5, 5)))


def random_laurent(rng) -> LaurentPoly:
    if rng.random() < 0.2:
        return ZERO
    return LaurentPoly(rng.randint(-1, 1), [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])


def random_rows(rng, rows, cols, entry, zero):
    """A random rows x cols matrix: dense, of rank below min(rows, cols) (a
    product through a narrower middle), with its leading columns zero, or
    with a zero top-left entry (the first pivot needs a row swap)."""
    shape = rng.choice(("dense", "low", "zero-lead", "swap"))
    if shape == "low" and rows and cols:
        k = rng.randint(0, min(rows, cols) - 1)
        b = [[entry(rng) for _ in range(k)] for _ in range(rows)]
        c = [[entry(rng) for _ in range(cols)] for _ in range(k)]
        out = []
        for i in range(rows):
            row = []
            for j in range(cols):
                acc = zero
                for t in range(k):
                    acc = acc + b[i][t] * c[t][j]
                row.append(acc)
            out.append(row)
        return out
    out = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    if shape == "zero-lead" and cols:
        lead = rng.randint(1, max(1, cols - 1))
        for row in out:
            row[:lead] = [zero] * lead
    if shape == "swap" and rows and cols:
        out[0][0] = zero
    return out


class TestBareissKernel:
    """The fraction-free oracle against Leibniz expansion, over Z and over
    Z[s, s^-1]."""

    RINGS = {
        "Z": (1, divexact_int, random_int, 0,
              lambda rows: brute_det(IntMatrix.from_rows(rows))),
        "Laurent": (ONE, divexact, random_laurent, ZERO,
                    lambda rows: leibniz_det(LambdaMatrix.from_rows(rows))),
    }

    @pytest.mark.parametrize("ring", sorted(RINGS))
    def test_against_leibniz(self, ring):
        one, div, entry, zero, det = self.RINGS[ring]
        rng = random.Random(71)
        shapes = [(r, c) for r in range(5) for c in range(5) if r == c or r < 4]
        for rows, cols in shapes * 20:
            m = random_rows(rng, rows, cols, entry, zero)
            rank, d = bareiss(m, one, div)
            assert rank == minor_rank(m, cols, det)
            if rows == cols:
                assert d == det(m)

    @pytest.mark.parametrize("ring", sorted(RINGS))
    def test_row_swaps_flip_the_sign(self, ring):
        one, div, _, zero, det = self.RINGS[ring]
        two = one + one
        for m, expected in (([[zero, one], [one, zero]], -one),
                            ([[zero, one, zero], [zero, zero, one], [one, zero, zero]], one),
                            ([[zero, zero, one], [zero, one, zero], [one, zero, zero]], -one),
                            ([[zero, two, one], [one, one, zero], [zero, one, one]], -one)):
            assert bareiss(m, one, div) == (len(m), expected)
            assert det(m) == expected

    @pytest.mark.parametrize("ring", sorted(RINGS))
    def test_empty_shapes(self, ring):
        one, div, _, zero, _ = self.RINGS[ring]
        assert bareiss([], one, div) == (0, one)
        for k in (1, 3):
            assert bareiss([[] for _ in range(k)], one, div) == (0, zero)
        assert IntMatrix(0, 0, ()).det() == 1
        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            assert rank_over_fractions(LambdaMatrix(rows, cols, ())) == 0

    def test_public_callers_use_the_kernel(self):
        rng = random.Random(73)
        for _ in range(20):
            n = rng.randint(0, 4)
            a = random_matrix(rng, n, n, -6, 6)
            assert a.det() == brute_det(a) == bareiss(a.to_rows(), 1, divexact_int)[1]
            m = LambdaMatrix.from_rows(random_rows(rng, n, n + 1, random_laurent, ZERO))
            assert rank_over_fractions(m) == minor_rank(
                m.to_rows(), m.cols, lambda rows: leibniz_det(LambdaMatrix.from_rows(rows)))

    def test_inexact_oracle_division_over_z_is_internal_error(self):
        with pytest.raises(ValueError):
            divexact_int(7, 2)
        # a wrong unit makes the first division inexact: 1 / 2
        with pytest.raises(InternalError, match="inexact division"):
            bareiss([[1, 1], [1, 2]], 2, divexact_int)

    def test_inexact_division_over_laurent_is_internal_error(self):
        # a wrong unit makes the first division inexact: (s^2 - 1) / 2
        with pytest.raises(InternalError, match="inexact division"):
            bareiss([[P("s"), ONE], [ONE, P("s")]], LaurentPoly.const(2), divexact)


@st.composite
def laurent_matrices(draw, square=False):
    """An n x m Laurent matrix for the evaluation kernel against the
    oracle: dense, of rank below min(n, m) (a product through a narrower
    middle), with a zero row, a pencil sX - Y with singular X (its last
    row a multiple of the first), or with two-term entries of degree up to
    40.  n runs from 0 to 5 (to 3 for the high degrees) and, unless
    square, m from 0 to 6, so the empty matrix and n > m both occur."""
    kind = draw(st.sampled_from(("dense", "low", "zero-row", "singular-x", "high")))
    coeff = st.integers(-3, 3)
    n = draw(st.integers(0, 3 if kind == "high" else 5))
    m = n if square or kind == "singular-x" else draw(st.integers(0, 6))

    def entry():
        if kind == "high":
            return sum((LaurentPoly.monomial(draw(st.integers(-2, 40))) * draw(coeff)
                        for _ in range(2)), ZERO)
        return LaurentPoly(draw(st.integers(-2, 2)),
                           [draw(coeff) for _ in range(draw(st.integers(0, 3)))])

    if kind == "singular-x":
        x = [[draw(coeff) for _ in range(n)] for _ in range(n)]
        if n:
            k = draw(st.integers(-2, 2))
            x[-1] = [k * v for v in x[0]]
        return LambdaMatrix.from_rows([[LaurentPoly(0, (-draw(coeff), v)) for v in xr]
                                       for xr in x])
    if kind == "low" and n and m:
        k = draw(st.integers(0, min(n, m) - 1))
        b = [[entry() for _ in range(k)] for _ in range(n)]
        c = [[entry() for _ in range(m)] for _ in range(k)]
        return LambdaMatrix.from_rows([[sum((b[i][t] * c[t][j] for t in range(k)), ZERO)
                                        for j in range(m)] for i in range(n)])
    rows = [[entry() for _ in range(m)] for _ in range(n)]
    if kind == "zero-row" and n:
        rows[draw(st.integers(0, n - 1))] = [ZERO] * m
    return LambdaMatrix(n, m, [e for r in rows for e in r])


class TestHighDegree:
    """Square matrices whose entries have high degree, and the interpolation
    on the nodes 0..D that their determinants take."""

    def test_interpolation_inverts_evaluation(self):
        rng = random.Random(5)
        q = laurent._prime(0)
        for length in (1, 2, 3, 10, 64):
            coeffs = [rng.randrange(q) for _ in range(length)]
            values = [sum(a * c ** k for k, a in enumerate(coeffs)) % q for c in range(length)]
            assert exactla._interpolate_mod(values, q) == coeffs

    def test_sparse_entries_of_high_degree(self):
        m = LambdaMatrix.from_rows([[P("s^300-1"), P("s")], [ONE, P("s^300+1")]])
        assert m.det() == P("s^600-s-1") == bareiss(m.to_rows(), ONE, divexact)[1]
        wide = LambdaMatrix.from_rows([[P("s^200"), P("1"), P("s^-3+2")],
                                       [P("2"), P("s^150-s"), P("s")]])
        rows = wide.to_rows()
        assert _maximal_minors(wide) == [
            bareiss([[r[i], r[j]] for r in rows], ONE, divexact)[1]
            for i, j in itertools.combinations(range(3), 2)]

    def test_a_row_is_its_own_list_of_minors(self):
        row = [P("s^2000-1"), ZERO, P("2s^-3")]
        assert _maximal_minors(LambdaMatrix.from_rows([row])) == row
        assert LambdaMatrix.from_rows([row[:1]]).det() == row[0]


class TestEvaluationAgainstBareiss:
    """Differential pairs: the evaluation kernel's rank and determinant
    against the fraction-free oracle over Z[s, s^-1]."""

    @settings(max_examples=300, deadline=None)
    @given(laurent_matrices())
    def test_rank(self, m):
        rank = bareiss(m.to_rows(), ONE, divexact)[0]
        assert rank_over_fractions(m) == exactla._evaluation_rank(m) == rank

    @settings(max_examples=200, deadline=None)
    @given(laurent_matrices(square=True))
    def test_determinant(self, m):
        det = bareiss(m.to_rows(), ONE, divexact)[1]
        assert m.det() == _maximal_minors(m)[0] == det

    @settings(max_examples=150, deadline=None)
    @given(laurent_matrices())
    def test_maximal_minors(self, m):
        if m.rows > m.cols:
            return
        rows = m.to_rows()
        assert _maximal_minors(m) == [
            bareiss([[r[j] for j in cols] for r in rows], ONE, divexact)[1]
            for cols in itertools.combinations(range(m.cols), m.rows)]

    @settings(max_examples=100, deadline=None)
    @given(integer_pencils())
    def test_pencils(self, case):
        _, x, y = case
        m = laurent_pencil(x, y)
        rank, det = bareiss(m.to_rows(), ONE, divexact)
        assert exactla._evaluation_rank(m) == rank
        assert _maximal_minors(m) == [det]
