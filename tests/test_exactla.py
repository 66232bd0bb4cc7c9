import itertools
import math
import operator
import random

from typing import NamedTuple

import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

from twistalex import exactla, laurent
from twistalex.errors import InternalError, MinorLimitError, SizeLimitError
from twistalex.exactla import (IntMatrix, LambdaMatrix, _digits, char_poly, maximal_minor_gcd,
                               rank_over_fractions, smith_normal_form)
from twistalex.laurent import LaurentPoly, ZERO, _prime, canonicalize, parse_laurent
from twistalex.obstruction import evaluate_fibred_obstruction
from twistalex.seifert import (SeifertMatrix, _cover_matrix, alexander_polynomial,
                               random_seifert_matrix)

from bareiss_oracle import (INTEGERS, LAURENT, bareiss, divexact_int, minors_at_node, pencil,
                            si_minus)
from laurent_ring import add, mul, neg, sub
from seifert_oracle import branched_presentation

ONE = LaurentPoly(0, (1,))


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
            prod *= m.row(i)[perm[i]]
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
    return tuple(sum(w * u.row(j)[i] for j, w in enumerate(weights)) % r
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

    def test_cover_matrices(self):
        # the matrix branched_cover hands to smith_normal_form, M^T, at the
        # sizes and degrees the pipeline sees: entries of up to 275 bits at
        # d = 126
        def cover_matrix(s, d):
            return _cover_matrix(s.gamma, s.gamma_char_poly, [-1, 1], d).transpose()

        rng = random.Random(89)
        singular = SeifertMatrix([[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        for s in [random_seifert_matrix(n, rng) for n in (2, 4, 6, 8)] + [singular]:
            for d in (2, 3, 5, 8, 11, 30):
                for r in MODULI:
                    oracle_agrees(cover_matrix(s, d), r)
        cliff = random_seifert_matrix(8, random.Random(7))
        oracle_agrees(cover_matrix(cliff, 126), 2)

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
        if sum(chi[i] * a.row(i)[j] for i in range(a.rows)) % r:
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
        ck = -sum(am.row(i)[i] for i in range(n)) // k
        cs.append(ck)
        mk = IntMatrix.from_rows([[x + ck * (i == j) for j, x in enumerate(am.row(i))]
                                  for i in range(n)])
    # cs[k] is the coefficient of s^(n-k)
    return LaurentPoly(0, list(reversed(cs)))


def leibniz_det(m: LambdaMatrix) -> LaurentPoly:
    """Permutation expansion of a Laurent determinant, independent of elimination."""
    n, rows = m.rows, m.to_rows()
    total = ZERO
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = LaurentPoly(0, (-1 if inversions % 2 else 1,))
        for i in range(n):
            term = mul(term, rows[i][perm[i]])
        total = add(total, term)
    return total


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
    IntMatrix.solve replaced, kept as its oracle."""
    d = bareiss(m.to_rows(), INTEGERS)[1]
    if d not in (1, -1):
        raise ValueError(f"matrix has determinant {d}, not a unit")
    n = m.rows
    rows = m.to_rows()
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
            adj[i][j] = (-1) ** (i + j) * bareiss(minor, INTEGERS)[1]
    return IntMatrix(n, n, [d * x for r in adj for x in r])


def assert_det_against_bareiss(n, seed, kind):
    rng = random.Random(seed)
    big = 2**72  # several CRT primes
    m = random_matrix(rng, n, n, -big, big)
    if kind == "singular" and n:
        rows = m.to_rows()
        # a combination of two rows, which are one row when n = 2
        rows[-1] = [3 * x - 2 * y for x, y in zip(rows[0], rows[n - 2])] if n > 1 else [0]
        m = IntMatrix.from_rows(rows)
    det = bareiss(m.to_rows(), INTEGERS)[1]
    assert m.det() == det
    assert kind != "singular" or n == 0 or det == 0


class TestIntDeterminant:
    """IntMatrix.det, from solve, against the fraction-free oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2**32), st.sampled_from(("any", "singular")))
    def test_against_bareiss(self, n, seed, kind):
        assert_det_against_bareiss(n, seed, kind)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2**32), st.sampled_from(("any", "singular")))
    def test_takes_no_char_poly(self, n, seed, kind):
        def refused(h):
            raise AssertionError("IntMatrix.det ran char_poly")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactla, "char_poly", refused)
            assert_det_against_bareiss(n, seed, kind)

    def test_shape_check(self):
        with pytest.raises(ValueError, match="determinant needs a square matrix"):
            zeros(2, 3).det()


class TestIntMatrixProduct:
    def test_a_non_matrix_operand_is_refused(self):
        # __mul__ returns NotImplemented, and int has no product with a matrix either
        with pytest.raises(TypeError):
            IntMatrix.identity(2) * 2

    def test_no_matrix_power(self):
        # r(A) by Paterson-Stockmeyer is the one route to a matrix power
        with pytest.raises(TypeError):
            IntMatrix.identity(2) ** 2


class TestInverseUnimodular:
    """A^-1 as the one solve of [A | I], against the cofactor adjugate."""

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
        det, inv = m.solve(IntMatrix.identity(n))
        try:
            expected = adjugate_inverse(m)
        except ValueError as exc:
            assert inv is None
            assert str(exc) == f"matrix has determinant {det}, not a unit"
            assert kind != "unit"
            return
        assert det == bareiss(m.to_rows(), INTEGERS)[1]
        assert inv == expected
        assert inv * m == m * inv == IntMatrix.identity(n)

    def test_fixed_cases(self):
        assert IntMatrix(0, 0, ()).solve(IntMatrix(0, 0, ())) == (1, IntMatrix(0, 0, ()))
        assert IntMatrix.from_rows([[-1]]).solve(IntMatrix.identity(1)) == (
            -1, IntMatrix.from_rows([[-1]]))
        # a zero leading entry forces a row swap
        m = IntMatrix.from_rows([[0, 1], [1, 3]])
        assert m.solve(IntMatrix.identity(2)) == (-1, IntMatrix.from_rows([[-3, 1], [1, 0]]))
        for rows, det in (([[2]], 2), ([[1, 2], [2, 4]], 0), ([[0, 0], [0, 0]], 0)):
            assert IntMatrix.from_rows(rows).solve(IntMatrix.identity(len(rows))) == (det, None)
        for a, b in ((zeros(2, 3), IntMatrix.identity(2)),
                     (IntMatrix.identity(2), IntMatrix.identity(3))):
            with pytest.raises(ValueError, match="solve needs a square matrix"):
                a.solve(b)

    def test_a_prime_divisor_of_det_falls_back_to_that_prime(self, monkeypatch):
        # det A = 0 modulo a CRT prime: the pack holding it meets a pivot
        # that is no unit and falls back, that prime's reduction misses a
        # pivot, and the exact det is still lifted from every prime
        moduli = []

        def counted(a, q):
            moduli.append(q)
            return rref(a, q)

        rref = exactla._rref_mod
        monkeypatch.setattr(exactla, "_rref_mod", counted)
        p0, p1, p2 = _prime(0), _prime(1), _prime(2)
        for rows, det, reduced in (([[p0]], p0, [p0 * p1, p0, p1]),
                                   ([[p0, 0], [0, p1]], p0 * p1, [p0 * p1 * p2, p0, p1, p2]),
                                   ([[p1]], p1, [p0 * p1, p0, p1])):
            moduli.clear()
            assert IntMatrix.from_rows(rows).solve(IntMatrix.identity(len(rows))) == (det, None)
            assert moduli == reduced

    def test_a_det_past_the_char_poly_cap_is_named(self, monkeypatch):
        # neither det nor solve takes char_poly work: with none left, det
        # names the exact det, and the matrix is still no unit, not a
        # SizeLimitError
        monkeypatch.setattr(exactla, "MAX_CHAR_POLY_WORK", 0)
        m = IntMatrix.from_rows([[0, 2, 1], [-2, 0, 3], [-1, -3, 0]])
        assert m.det() == 0
        assert m.solve(IntMatrix.identity(3)) == (0, None)

    def test_a_right_side_past_the_hadamard_bound_lifts(self):
        # the bound is Hadamard's for A times the largest column sum of |B|:
        # A's bound alone would lift B's 2^200 entries modulo one prime
        big = [[2**200 - 1, -(2**200) + 3], [5, 2**199]]
        assert IntMatrix.identity(2).solve(IntMatrix.from_rows(big)) == (
            1, IntMatrix.from_rows(big))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 4), st.integers(0, 2**32),
           st.sampled_from(("unit", "any", "singular")))
    def test_against_brute_det_and_the_product(self, n, w, seed, kind):
        rng = random.Random(seed)
        b = random_matrix(rng, n, w, -2**70, 2**70)
        if kind == "unit":
            m = IntMatrix.from_rows(unimodular(rng, n))
        else:
            m = random_matrix(rng, n, n, -9, 9)
            if kind == "singular" and n:
                rows = m.to_rows()
                # a combination of two rows, which are one row when n = 2
                rows[-1] = [3 * x - 2 * y for x, y in zip(rows[0], rows[n - 2])] if n > 1 else [0]
                m = IntMatrix.from_rows(rows)
        det, x = m.solve(b)
        assert det == brute_det(m) == bareiss(m.to_rows(), INTEGERS)[1]
        assert (x is None) == (det not in (1, -1))
        assert x is None or m * x == b


def bareiss_det(m: LambdaMatrix) -> LaurentPoly:
    """A Laurent determinant by the fraction-free oracle alone."""
    return bareiss(m.to_rows(), LAURENT)[1]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts, by size, the calls of the evaluation kernel: the route of
    maximal_minor_gcd for every matrix but sI - Y, after the unit pivots."""
    calls = []

    def counted(rows, *args):
        calls.append(len(rows))
        return maximal_minors(rows, *args)

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
        # the fewest leading CRT primes whose product exceeds twice the bound
        for bound in (2**bits - 1, 2**bits, 2**bits + 1):
            product, count = 1, 0
            while product <= 2 * bound:
                product *= _prime(count)
                count += 1
            assert laurent._crt_primes(bound) == count

    def test_work_cap_fires_within_the_first_pass(self, monkeypatch):
        # one pass per pack of primes, each with the budget of one prime
        calls = []

        def counted(h, q, budget):
            calls.append((q, budget))
            return char_poly_mod(h, q, budget)

        char_poly_mod = exactla._char_poly_mod
        monkeypatch.setattr(exactla, "_char_poly_mod", counted)
        h = random_matrix(random.Random(5), 12, 12, -2**70, 2**70)
        bound = math.prod(sum(map(abs, r)) + 1 for r in h.to_rows())
        expected = bareiss_det(si_minus(h))
        assert char_poly(h) == expected
        primes = laurent._crt_primes(bound)
        packs = list(laurent._crt_packs(1, bound))
        assert sum(map(len, packs)) == primes > laurent._CRT_PACK
        budget = exactla.MAX_CHAR_POLY_WORK // primes
        assert calls == [(math.prod(pack), budget) for pack in packs]
        calls.clear()
        # past the n^2 of the reduction, short of the Hessenberg work
        monkeypatch.setattr(exactla, "MAX_CHAR_POLY_WORK", 1000 * primes)
        with pytest.raises(SizeLimitError, match="12-square matrix passes the work cap of"):
            char_poly(h)
        assert calls == [(math.prod(packs[0]), 1000)]

    def test_reduction_counts_n_squared(self, monkeypatch):
        # a diagonal H takes no row operation: its work is the reduction's
        n = 20
        h = IntMatrix(n, n, [(i + 2) * (i == j) for i in range(n) for j in range(n)])
        primes = laurent._crt_primes(math.prod(sum(map(abs, r)) + 1 for r in h.to_rows()))
        expected = bareiss_det(si_minus(h))
        monkeypatch.setattr(exactla, "MAX_CHAR_POLY_WORK", n * n * primes)
        assert char_poly(h) == expected
        monkeypatch.setattr(exactla, "MAX_CHAR_POLY_WORK", n * n * primes - 1)
        with pytest.raises(SizeLimitError, match="20-square matrix passes the work cap of"):
            char_poly(h)


def square_gcd(m: LambdaMatrix) -> LaurentPoly:
    """The determinant of a square m by the evaluation kernel alone, after
    checking that maximal_minor_gcd is its canonical form."""
    det = minors_at_node(m)[0]
    assert maximal_minor_gcd(m) == canonicalize(det)
    return det


class TestPencilDeterminant:
    """Square pencils sX - Y: sI - Y goes to char_poly, any other takes the
    evaluation kernel once, after its unit pivots."""

    def test_sizes_zero_and_one(self, kernel_calls):
        assert char_poly(IntMatrix(0, 0, ())) == ONE
        assert square_gcd(LambdaMatrix(0, 0, ())) == ONE
        assert char_poly(IntMatrix.from_rows([[7]])) == P("s - 7")
        assert square_gcd(pencil([[1]], [[7]])) == P("s - 7")
        assert kernel_calls == []
        # a 1 x 1 sX - Y with X != 1 is its own one minor
        assert square_gcd(pencil([[3]], [[5]])) == P("3s - 5")
        assert square_gcd(pencil([[0]], [[0]])) == ZERO
        assert kernel_calls == [1, 1]

    def test_identity_x(self, kernel_calls):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 4)
            y = random_matrix(rng, n, n, -5, 5).to_rows()
            m = pencil(IntMatrix.identity(n).to_rows(), y)
            assert square_gcd(m) == leibniz_det(m) == bareiss_det(m)
        assert kernel_calls == []

    def test_unimodular_x(self, kernel_calls):
        rng = random.Random(43)
        evaluated = 0
        for _ in range(30):
            n = rng.randint(1, 4)
            x = unimodular(rng, n)
            y = random_matrix(rng, n, n, -5, 5).to_rows()
            m = pencil(x, y)
            assert square_gcd(m) == leibniz_det(m) == bareiss_det(m)
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
            assert square_gcd(m) == bareiss_det(m)
            h = IntMatrix.from_rows(y)
            assert square_gcd(si_minus(h)) == char_poly(h) == bareiss_det(si_minus(h))
            evaluated += x != IntMatrix.identity(n).to_rows()
        assert len(kernel_calls) == evaluated >= 8  # X != I only

    def test_singular_x_with_zero_determinant(self, kernel_calls):
        rng = random.Random(53)
        for _ in range(10):
            n = rng.randint(2, 4)
            x = random_matrix(rng, n, n, -4, 4).to_rows()
            y = random_matrix(rng, n, n, -4, 4).to_rows()
            x[1], y[1] = list(x[0]), list(y[0])  # equal rows: det(sX - Y) = 0
            assert square_gcd(pencil(x, y)) == ZERO
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
            if not expected:
                continue
            assert square_gcd(m) == expected
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
            assert square_gcd(m) == leibniz_det(m)
        assert len(kernel_calls) == 5

    def test_non_pencils_take_the_evaluation_kernel(self, kernel_calls):
        # every entry is a unit; the first pivot leaves [s - s^-3]
        m = LambdaMatrix.from_rows([[P("s^2"), P("1")], [P("s^-1"), P("s")]])
        assert square_gcd(m) == leibniz_det(m) == bareiss_det(m) == P("s^3 - s^-1")
        assert kernel_calls == [1]

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
            assert square_gcd(m) == bareiss_det(m)

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
    return [bareiss([[r[j] for j in cols] for r in rows], LAURENT)[1]
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
    """Makes any Laurent determinant fail: char_poly, or the evaluation
    kernel on a square matrix, which is its one determinant."""
    def refuse(*args):
        raise AssertionError("the evaluation kernel took a Laurent determinant")

    def wide_only(rows, m, *args):
        if len(rows) == m:
            refuse()
        return kernel(rows, m, *args)

    kernel = exactla._maximal_minors
    monkeypatch.setattr(exactla, "_maximal_minors", wide_only)
    monkeypatch.setattr(exactla, "char_poly", refuse)


class TestMaximalMinors:
    """The evaluation kernel behind maximal_minor_gcd for n < m, against
    one Laurent determinant per column set."""

    @pytest.mark.parametrize("n", range(1, 6))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_against_enumeration(self, n, data):
        m = data.draw(wide_matrices(n))
        assert minors_at_node(m) == enumerated_minors(m)
        gcd = enumerated_gcd(m)
        assert maximal_minor_gcd(m) == gcd
        rows = m.to_rows()
        if any(rows.count(r) > 1 for r in rows):
            assert gcd == ZERO

    def test_repeated_row_gives_zero(self):
        row = [P("s - 1"), P("s^-1"), P("2s + 3"), ZERO]
        m = LambdaMatrix.from_rows([row, [P("1"), P("s"), P("s^2"), P("s^-2")], row])
        assert minors_at_node(m) == [ZERO] * 4 == enumerated_minors(m)
        assert maximal_minor_gcd(m) == ZERO

    def test_pivot_columns_change_between_points(self):
        # at s = 0 the first column vanishes, so the pivots move right
        m = LambdaMatrix.from_rows([[P("s"), P("1"), ZERO, P("s^2 + 1")],
                                    [ZERO, P("s"), P("1"), P("-s")]])
        assert minors_at_node(m) == enumerated_minors(m)
        assert maximal_minor_gcd(m) == enumerated_gcd(m) == ONE

    def test_no_rows_has_one_minor(self, monkeypatch):
        refuse_laurent_determinants(monkeypatch)
        for m in (1, 3):
            assert minors_at_node(LambdaMatrix(0, m, ())) == [ONE]
            assert maximal_minor_gcd(LambdaMatrix(0, m, ())) == ONE

    def test_zero_row_gives_zero(self, monkeypatch):
        refuse_laurent_determinants(monkeypatch)
        m = LambdaMatrix.from_rows([[P("s - 1"), ONE, P("s")], [ZERO, ZERO, ZERO]])
        assert minors_at_node(m) == [ZERO] * 3
        assert maximal_minor_gcd(m) == ZERO

    def test_plans_are_kept_across_calls(self):
        # the plan of a pivot set depends only on it and m, and swapping rows
        # moves no pivot, so the second gcd builds no plan of its own
        rng = random.Random(83)
        rows = [[LaurentPoly(0, (rng.choice((-1, 1)) * rng.randint(2, 5), rng.randint(2, 5)))
                 for _ in range(6)] for _ in range(3)]
        first, second = LambdaMatrix.from_rows(rows), LambdaMatrix.from_rows(rows[::-1])
        maximal_minor_gcd(first)
        built = exactla._minor_plan.cache_info().misses
        assert maximal_minor_gcd(second) == enumerated_gcd(second)
        assert exactla._minor_plan.cache_info().misses == built

    def test_no_laurent_determinant_or_elimination(self, monkeypatch):
        rng = random.Random(79)
        cases = []
        for _ in range(10):
            n = rng.randint(1, 4)
            m = LambdaMatrix.from_rows(random_rows(rng, n, n + rng.randint(1, 3),
                                                   random_laurent, LAURENT))
            cases.append((m, enumerated_gcd(m)))
        refuse_laurent_determinants(monkeypatch)
        for m, gcd in cases:
            assert maximal_minor_gcd(m) == gcd


def count_passes_and_laplace(monkeypatch) -> dict[str, int]:
    """Counts the kernel's CRT passes and its _square_minors calls from
    here on."""
    seen = {"passes": 0, "laplace": 0}
    residues, square_minors = exactla._crt_residues, exactla._square_minors

    def counted_residues(*args):
        for item in residues(*args):
            seen["passes"] += 1
            yield item

    def counted_square_minors(f, q):
        seen["laplace"] += 1
        return square_minors(f, q)

    monkeypatch.setattr(exactla, "_crt_residues", counted_residues)
    monkeypatch.setattr(exactla, "_square_minors", counted_square_minors)
    return seen


def vanishing_entry(rng) -> LaurentPoly:
    """A small entry, often one that vanishes at s = 1 or 2 (s - 1,
    s^2 - 3s + 2, 2s - 4), times a small factor."""
    kind = rng.random()
    if kind < 0.15:
        return ZERO
    small = LaurentPoly(0, [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))])
    if kind < 0.6:
        return mul(small, P(rng.choice(("s - 1", "s^2 - 3s + 2", "2s - 4"))))
    return small


class TestNodeGroups:
    """The kernel at its one node s = 2^b: one elimination and one Laplace
    pass per CRT modulus, minors at the edge of the bound, and a window
    that cuts the rows' own from below."""

    # no entry is a unit, so the rows reach the kernel as they are
    GENERIC = [[P("2s + 3"), P("3s - 2"), P("2"), P("s + 3")],
               [P("3s + 2"), P("2s^2 + 3"), P("3s"), P("2s - 5")]]

    def test_one_elimination_and_laplace_pass_per_modulus(self, monkeypatch, crt_moduli):
        # the first column vanishes at s = 1 in the second matrix, and the
        # third needs more than one pack
        seen = count_passes_and_laplace(monkeypatch)
        eliminations = []
        rref = exactla._rref_mod

        def counted(a, q):
            eliminations.append(q)
            return rref(a, q)

        monkeypatch.setattr(exactla, "_rref_mod", counted)
        vanishing = [[P("s - 1")] + self.GENERIC[0][1:], [P("2s - 2")] + self.GENERIC[1][1:]]
        large = [[mul(e, 2**300) for e in row] for row in self.GENERIC]
        for rows in (self.GENERIC, vanishing, large):
            m = LambdaMatrix.from_rows(rows)
            crt_moduli.clear()
            eliminations.clear()
            seen.update(passes=0, laplace=0)
            assert minors_at_node(m) == enumerated_minors(m)
            assert eliminations == crt_moduli
            assert seen["laplace"] == seen["passes"] == len(crt_moduli)
        assert len(crt_moduli) > 1

    def test_minors_at_the_hadamard_bound_with_both_signs(self):
        # [[c, c], [c, -c]] has det -2c^2 and [[c, c], [-c, c]] det 2c^2:
        # bound - 1 for the bound 2c^2 + 1, the widest digit the node allows,
        # also shifted into the middle of a window of three digits
        c = 3**70
        for sign in (1, -1):
            m = lambda_constants([[c, c], [sign * c, -sign * c]])
            assert exactla._normalised(m.to_rows())[2] == 2 * c * c + 1
            assert minors_at_node(m) == [LaurentPoly(0, (-2 * sign * c * c,))]
            shifted = LambdaMatrix.from_rows([[LaurentPoly(-3, (c,)), LaurentPoly(-2, (c,))],
                                              [LaurentPoly(5, (sign * c,)),
                                               LaurentPoly(6, (-sign * c,))]])
            assert minors_at_node(shifted) == enumerated_minors(shifted) == [
                LaurentPoly(3, (-2 * sign * c * c,))]
            # and two digits of c^2 with a zero digit between them
            spread = LambdaMatrix.from_rows([[LaurentPoly(-3, (c,)), LaurentPoly(-2, (c,))],
                                             [LaurentPoly(5, (sign * c,)),
                                              LaurentPoly(4, (-sign * c,))]])
            assert minors_at_node(spread) == enumerated_minors(spread) == [
                LaurentPoly(1, (-sign * c * c, 0, -sign * c * c))]
        # a wide matrix with both signs on each side of zero minors
        m = LambdaMatrix.from_rows([[LaurentPoly(0, (c,)), LaurentPoly(0, (c,)),
                                     LaurentPoly(1, (c,)), LaurentPoly(1, (c,))],
                                    [LaurentPoly(0, (c,)), LaurentPoly(0, (-c,)),
                                     LaurentPoly(1, (-c,)), LaurentPoly(1, (c,))]])
        k = 2 * c * c
        assert minors_at_node(m) == enumerated_minors(m) == [
            LaurentPoly(0, (-k,)), LaurentPoly(1, (-k,)), ZERO, ZERO,
            LaurentPoly(1, (k,)), LaurentPoly(2, (k,))]

    def test_a_window_cut_from_below(self):
        # row 1 plus s^-5 times row 0 keeps every minor and lowers the rows'
        # own window by 5: the original's window then starts above it, and
        # the kernel scales by X^(S - low) with S - low = -5
        first = LambdaMatrix.from_rows(self.GENERIC)
        top, bottom = self.GENERIC
        second = LambdaMatrix.from_rows([top, [add(b, mul(P("s^-5"), a))
                                               for a, b in zip(top, bottom)]])
        lows, _, bound, points = exactla._normalised(first.to_rows())
        second_lows, polys, _, _ = exactla._normalised(second.to_rows())
        assert sum(second_lows) - sum(lows) == -5
        expected = enumerated_minors(first)
        assert enumerated_minors(second) == expected
        b = bound.bit_length() + 1
        assert exactla._maximal_minors(exactla._at_node(polys, b), 4, second_lows,
                                       (b, sum(lows), points, bound)) == expected
        assert minors_at_node(second) == expected

    def test_seeded_sweep_with_vanishing_entries(self):
        rng = random.Random(26)
        for _ in range(150):
            n, extra = rng.randint(1, 4), rng.randint(1, 3)
            m = LambdaMatrix.from_rows(
                [[vanishing_entry(rng) for _ in range(n + extra)] for _ in range(n)])
            if n > 1 and rng.random() < 0.3:  # a row that agrees with row 0 at s = 2
                rows = m.to_rows()
                rows[-1] = [add(a, mul(P("s - 2"), vanishing_entry(rng))) for a in rows[0]]
                m = LambdaMatrix.from_rows(rows)
            assert minors_at_node(m) == enumerated_minors(m)

    def test_gcd_once_per_distinct_nonzero_minor(self, monkeypatch):
        # column 1 repeats column 0: of the 6 minors, one is zero and the
        # others take 3 values, two of them twice
        a, b, c = [P("2s + 3"), P("3s + 2")], [P("3s - 2"), P("2s^2 + 3")], [P("2"), P("3s")]
        cols = [a, a, b, c]
        m = LambdaMatrix.from_rows([[col[i] for col in cols] for i in range(2)])
        minors = enumerated_minors(m)
        distinct = set(filter(None, minors))
        assert (minors.count(ZERO), len(distinct)) == (1, 3)
        expected = enumerated_gcd(m)
        calls = []
        gcd = laurent.gcd

        def counted(p, q):
            calls.append(q)
            return gcd(p, q)

        monkeypatch.setattr(laurent, "gcd", counted)
        assert maximal_minor_gcd(m) == expected
        assert sorted(calls, key=str) == sorted(distinct, key=str)


# The product of the first pack of CRT primes.
Q1 = math.prod(_prime(k) for k in range(laurent._CRT_PACK))


def count_decodings(monkeypatch) -> list[int]:
    """The values at s = 2^b that the kernel decodes into minors, from here
    on."""
    seen = []
    digits = exactla._digits

    def counted(v, b, points):
        seen.append(v)
        return digits(v, b, points)

    monkeypatch.setattr(exactla, "_digits", counted)
    return seen


def columns_to_matrix(cols: list[list[LaurentPoly]]) -> LambdaMatrix:
    return LambdaMatrix.from_rows([[col[i] for col in cols] for i in range(len(cols[0]))])


class TestDistinctMinors:
    """Minors keyed by their values at s = 2^b, lifted over every CRT
    modulus: each distinct nonzero minor is decoded once, the value 0 is
    the zero minor, and minors that agree modulo one pack but not all stay
    apart."""

    def test_minors_that_agree_modulo_the_first_pack(self, crt_moduli):
        m = LambdaMatrix.from_rows([[LaurentPoly(0, (2,)), ZERO, ZERO],
                                    [ZERO, P("s + 5"), add(P("s + 5"), LaurentPoly(0, (Q1,)))]])
        minors = minors_at_node(m)
        assert minors == enumerated_minors(m)
        assert minors[0] != minors[1] and minors[2] == ZERO
        assert len(crt_moduli) >= 2 and crt_moduli[0] == Q1

    def test_a_minor_that_vanishes_modulo_the_first_pack(self, crt_moduli):
        # the minors 2 Q1 s, 0 and -Q1 s: two keys vanish modulo Q1 alone
        m = LambdaMatrix.from_rows([[LaurentPoly(0, (2,)), ZERO, ONE],
                                    [ZERO, LaurentPoly(1, (Q1,)), ZERO]])
        assert minors_at_node(m) == enumerated_minors(m) == [
            LaurentPoly(1, (2 * Q1,)), ZERO, LaurentPoly(1, (-Q1,))]
        assert len(crt_moduli) >= 2 and crt_moduli[0] == Q1

    def test_seeded_sweep_with_repeated_negated_and_zero_columns(self):
        rng = random.Random(30)
        for _ in range(80):
            n = rng.randint(1, 4)
            cols = [[random_laurent(rng) for _ in range(n)] for _ in range(rng.randint(1, 2))]
            while len(cols) < n + rng.randint(1, 4):
                col = rng.choice(cols)
                kind = rng.choice(("new", "repeat", "negate", "zero", "past-one-pack"))
                if kind == "new":
                    col = [random_laurent(rng) for _ in range(n)]
                elif kind == "negate":
                    col = [neg(e) for e in col]
                elif kind == "zero":
                    col = [ZERO] * n
                elif kind == "past-one-pack":  # agrees with col modulo Q1
                    col = [add(e, LaurentPoly(0, (Q1 * rng.randint(-2, 2),))) for e in col]
                cols.append(col)
            rng.shuffle(cols)
            m = columns_to_matrix(cols)
            assert minors_at_node(m) == enumerated_minors(m)

    def test_one_decoding_per_distinct_minor(self, monkeypatch):
        # column 0 repeats twice: of the 10 minors, 3 are zero and 4 take
        # distinct values, and each of those is decoded once
        a, b = [P("2s + 3"), P("3s^2 + 2")], [P("3s - 2"), P("2s^2 + 3")]
        c = [P("s^2 + 2"), P("3s")]
        m = columns_to_matrix([a, a, b, a, c])
        expected = enumerated_minors(m)
        distinct = set(filter(None, expected))
        assert (len(expected), expected.count(ZERO), len(distinct)) == (10, 3, 4)
        seen = count_decodings(monkeypatch)
        minors = minors_at_node(m)
        assert minors == expected
        assert minors[1] is minors[4]  # columns (0, 2) and (1, 2)
        assert len(seen) == len(set(seen)) == len(distinct) and 0 not in seen

    def test_a_fallen_back_pack_decodes_each_minor_once(self, monkeypatch, crt_moduli):
        # the first pivot, p0 * 2^b, is no unit modulo the first pack, which
        # falls back to its primes; column 1 repeats column 0, so of the 6
        # minors one is zero and the other 5 take 3 values
        p0 = _prime(0)
        m = LambdaMatrix.from_rows([[LaurentPoly(1, (p0,)), LaurentPoly(1, (p0,)), ONE, P("2")],
                                    [P("3"), P("3"), LaurentPoly(0, (p0,)), P("5s")]])
        expected = enumerated_minors(m)
        assert (expected.count(ZERO), len(set(filter(None, expected)))) == (1, 3)
        seen = count_decodings(monkeypatch)
        assert minors_at_node(m) == expected
        assert len(crt_moduli) > 1 and crt_moduli[:2] == [p0, _prime(1)]
        assert len(seen) == len(set(seen)) == 3


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
            rows[r] = [add(a, mul(f, b)) for a, b in zip(rows[r], rows[i])]
    return LambdaMatrix.from_rows(rows)


def unit_dense(rng: random.Random, n: int) -> LambdaMatrix:
    """An n x m Laurent matrix, n <= m <= n + 3, half of whose entries are
    +-s^k with |k| <= 3 and the rest short polynomials and zeros, its rows
    then mixed by row operations row_r += f row_i, so that fill-in makes
    units and zero rows; sometimes one row is another times a unit, which
    drops the rank."""
    def unit():
        return LaurentPoly(rng.randint(-3, 3), (rng.choice((1, -1)),))

    def short():
        return LaurentPoly(rng.randint(-2, 2), [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])

    m = rng.randint(n, n + 3)
    rows = [[rng.choice((unit, unit, short, lambda: ZERO))() for _ in range(m)] for _ in range(n)]
    for _ in range(rng.randint(0, n)):
        r, i = rng.randrange(n), rng.randrange(n)
        if r != i:
            f = short()
            rows[r] = [add(a, mul(f, b)) for a, b in zip(rows[r], rows[i])]
    if n > 1 and rng.random() < 0.3:
        r, i = rng.sample(range(n), 2)
        u = unit()
        rows[r] = [mul(u, e) for e in rows[i]]
    return LambdaMatrix.from_rows(rows)


def read_back(rows: list[list[int]], cols: int, lows: list[int], b: int) -> LambdaMatrix:
    """The Laurent matrix whose row i is s^low_i R_i, from the values
    R_i(2^b) that the unit pivots leave, each read off its balanced
    digits."""
    return LambdaMatrix(len(rows), cols,
                        [LaurentPoly(low, _digits(v, b, abs(v).bit_length() // b + 2))
                         for row, low in zip(rows, lows) for v in row])


def unit_reduced(m: LambdaMatrix) -> tuple[LambdaMatrix, list[int], tuple[int, int, int, int]]:
    """exactla._unit_reduced(m) with its rows read back: (the reduced
    Laurent matrix, the rows' lows, the window (b, low, D + 1, bound))."""
    rows, cols, lows, window = exactla._unit_reduced(m)
    return read_back(rows, cols, lows, window[0]), lows, window


def schur_complement(m: LambdaMatrix) -> tuple[list[list[LaurentPoly]], int, int]:
    """The unit-pivot rule on the entries themselves, in the tests' own ring
    arithmetic: while an entry +-s^k is left, the one with the least
    (row nonzeros - 1) * (column nonzeros - 1), ties by row and then by
    column, clears its column, every other row losing a u^-1 times the
    pivot row.  Returns (the rows left, K the sum of the pivot exponents,
    the number of pivots that were no unit entry of m)."""
    entries, rows, k, filled = m.to_rows(), m.to_rows(), 0, 0
    at = [[(i, j) for j in range(m.cols)] for i in range(m.rows)]  # positions in m
    while rows:
        row_nz = [sum(map(bool, row)) - 1 for row in rows]
        col_nz = [sum(map(bool, col)) - 1 for col in zip(*rows)]
        pivot = min(((row_nz[i] * col_nz[j], i, j) for i, row in enumerate(rows)
                     for j, e in enumerate(row) if e.coeffs in ((1,), (-1,))), default=None)
        if pivot is None:
            break
        _, i, j = pivot
        top, (r, c) = rows.pop(i), at.pop(i)[j]
        u = top.pop(j)
        k += u.low
        filled += entries[r][c] != u
        inverse = LaurentPoly(-u.low, u.coeffs)
        for row, where in zip(rows, at):
            a = row.pop(j)
            where.pop(j)
            row[:] = [sub(e, mul(mul(a, inverse), t)) for e, t in zip(row, top)]
    return rows, k, filled


def record_kernel_inputs(monkeypatch) -> list[LambdaMatrix]:
    """The matrices _maximal_minors receives from here on, read back from
    their values at the node."""
    seen = []
    kernel = exactla._maximal_minors

    def recorded(rows, m, lows, window):
        seen.append(read_back(rows, m, lows, window[0]))
        return kernel(rows, m, lows, window)

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
        [row + [add(*(mul(row[j], q[j][c]) for j in range(4))) for c in range(2)]
         for row in a])


def bench_shaped_presentation(rng: random.Random, n: int = 8, k: int = 3) -> LambdaMatrix:
    """[A | AQ] with A = sS - S^T for a random n x n Seifert matrix S and a
    random n x k matrix Q with entries in -2..2, the shape of the bench's
    random presentations."""
    s = random_seifert_matrix(n, rng).matrix.to_rows()
    q = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
    a = [[LaurentPoly(0, (-s[j][i], s[i][j])) for j in range(n)] for i in range(n)]
    return LambdaMatrix.from_rows(
        [row + [add(*(mul(row[j], q[j][c]) for j in range(n))) for c in range(k)]
         for row in a])


def kernel_on_both_windows(m: LambdaMatrix) -> tuple[list, list]:
    """The minors of m after its unit pivots, from the kernel on the
    rows and the window _unit_reduced returns, as maximal_minor_gcd calls
    it, and on the reduced matrix read back, at its own node."""
    reduced = unit_reduced(m)[0]
    return exactla._maximal_minors(*exactla._unit_reduced(m)), minors_at_node(reduced)


class TestUnitPivots:
    """The unit-pivot reduction ahead of the evaluation kernel, against the
    enumerated gcd of the unreduced matrix."""

    @pytest.mark.parametrize("n", range(1, 5))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_against_enumeration(self, n, data):
        m = data.draw(unit_rich_matrices(n))
        reduced = unit_reduced(m)[0]
        assert reduced.cols - reduced.rows == m.cols - m.rows
        assert not any(e.coeffs in ((1,), (-1,)) for e in reduced.entries)
        assert maximal_minor_gcd(m) == enumerated_gcd(m)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 6).flatmap(unit_rich_matrices))
    def test_input_window_against_own_nodes(self, m):
        windowed, own = kernel_on_both_windows(m)
        assert windowed == own

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 6).flatmap(unit_rich_matrices))
    def test_window_is_the_inputs_shifted_by_the_pivot_exponents(self, m):
        # K, the sum of the pivot exponents k, read off the pivots +-s^k
        # of the reduction in ring arithmetic, one per pivot
        assume(all(map(any, m.to_rows())))
        left, k, _ = schur_complement(m)
        reduced, _, window = unit_reduced(m)
        assert len(left) == reduced.rows
        lows, _, bound, points = exactla._normalised(m.to_rows())
        assert window == (bound.bit_length() + 1, sum(lows) - k, points, bound)

    def test_reduced_rows_are_the_schur_complement(self):
        # The rows left at the node, each value read off its digits and
        # shifted by its row's low, are the Schur complement of the pivots
        # in ring arithmetic, row for row; each row that is not zero starts
        # at its low.  The kernel then gives that complement's minors.
        # Among the draws, fill-in makes units that are then pivots, and
        # rows that cancel to zero.
        rng = random.Random(38)
        seen = {"fill-in unit": 0, "fill-in zero row": 0, "rows left": 0}
        for _ in range(300):
            m = unit_dense(rng, rng.randint(1, 5))
            rows, cols, lows, window = exactla._unit_reduced(m)
            left, _, filled = schur_complement(m)
            reduced = read_back(rows, cols, lows, window[0])
            assert reduced.to_rows() == left
            assert lows == [min((e.low for e in row if e), default=low)
                            for row, low in zip(left, lows)]
            assert exactla._maximal_minors(rows, cols, lows, window) == enumerated_minors(reduced)
            seen["fill-in unit"] += filled > 0
            seen["fill-in zero row"] += all(map(any, m.to_rows())) and not all(map(any, left))
            seen["rows left"] += len(left) > 1
        assert min(seen.values()) >= 20, seen

    def test_unit_dense_sweep_against_bareiss(self):
        # The gcd and the rank against the fraction-free oracle, also where
        # a row copied under a unit drops the rank.  [[1, c], [-c, 1]] has
        # bound c^2 + 2, and its one Schur-complement entry, 1 + c^2, is
        # bound - 1; for c = 2^k that is above 2^(2k), so it is a balanced
        # digit only at the node's b = bound.bit_length() + 1.
        rng = random.Random(39)
        cases = [unit_dense(rng, rng.randint(1, 5)) for _ in range(300)]
        for k in (1, 8, 40):
            c = 2**k
            edge = lambda_constants([[1, c], [-c, 1]])
            assert exactla._unit_reduced(edge)[0] == [[c * c + 1]]
            assert exactla._normalised(edge.to_rows())[2] == c * c + 2
            cases.append(edge)
        seen = {"deficient": 0, "full": 0}
        for m in cases:
            rank = bareiss(m.to_rows(), LAURENT)[0]
            assert maximal_minor_gcd(m) == enumerated_gcd(m)
            assert rank_over_fractions(m) == rank
            seen["deficient" if rank < m.rows else "full"] += 1
        assert maximal_minor_gcd(edge) == LaurentPoly(0, (c * c + 1,))
        assert min(seen.values()) >= 50, seen

    def test_fill_in_widens_some_draws(self):
        # a draw whose reduced rows span more than the input's rows do, on
        # which the input's window still gives every minor
        def widened(m):
            reduced, _, (_, _, points, _) = unit_reduced(m)
            return reduced.rows > 1 and exactla._normalised(reduced.to_rows())[3] > points

        m = find(st.integers(2, 6).flatmap(unit_rich_matrices), widened,
                 settings=settings(max_examples=2000, database=None, derandomize=True,
                                   phases=[Phase.generate]))
        windowed, own = kernel_on_both_windows(m)
        assert windowed == own

    def test_evaluates_once_in_the_input_window(self, monkeypatch, crt_moduli):
        # A bench-shaped 8 x 11 presentation: the unit pivots leave it 6 x 9
        # with spans summing to 18, but its minors need only the input's
        # D + 1 = 9 digits, scaled as the input's window starts 10 above the
        # reduced rows' lowest exponents.  The input is evaluated once, at
        # s = 2^b for its bound, and the rows its pivots leave are
        # eliminated once per modulus, which the input's window makes fewer.
        m = bench_shaped_presentation(random.Random(1))
        reduced, lows, (b, low, points, bound) = unit_reduced(m)
        own_lows, _, own_bound, own_points = exactla._normalised(reduced.to_rows())
        assert (reduced.rows, reduced.cols, points, own_points) == (6, 9, 9, 19)
        assert low - sum(lows) == 10 and own_lows == lows
        nodes, eliminations = [], []
        at_node, rref = exactla._at_node, exactla._rref_mod

        def counted_at_node(polys, b):
            nodes.append(b)
            return at_node(polys, b)

        def counted_rref(a, q):
            eliminations.append(q)
            return rref(a, q)

        monkeypatch.setattr(exactla, "_at_node", counted_at_node)
        monkeypatch.setattr(exactla, "_rref_mod", counted_rref)
        crt_moduli.clear()  # drawing the Seifert matrix took a determinant
        gcd = maximal_minor_gcd(m)
        assert nodes == [b] == [bound.bit_length() + 1]
        assert eliminations == crt_moduli
        values = bound * exactla._ones(b, points)
        own_b = own_bound.bit_length() + 1
        own_values = own_bound * exactla._ones(own_b, own_points)
        assert laurent._crt_primes(values) < laurent._crt_primes(own_values)
        monkeypatch.undo()
        own = ZERO
        for minor in minors_at_node(reduced):
            own = laurent.gcd(own, minor)
        assert gcd == canonicalize(own)

    def test_fill_in_unit_reduces_to_no_rows(self, monkeypatch):
        # the only unit is the 1 at (0, 0); clearing its column leaves a
        # 1 at (1, 1), which takes the last row
        m = LambdaMatrix.from_rows([[ONE, P("s + 1"), P("2")],
                                    [P("2"), P("2s + 3"), P("3s")]])
        seen = record_kernel_inputs(monkeypatch)
        assert maximal_minor_gcd(m) == ONE == enumerated_gcd(m)
        assert seen == [LambdaMatrix(0, 1, ())]

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


def planted_square(rng: random.Random, n: int, kind: str) -> LambdaMatrix:
    """An n x n Laurent matrix of one of four kinds: entries +-s^k planted
    among small general ones and zeros, then mixed by row operations
    ("units"); a unit lower-triangular matrix with its rows mixed and its
    columns shuffled, whose pivots can take every row ("triangular"); the
    first kind with its last row a multiple of its first, so delta is 0
    ("singular"); or sI - Y ("pencil")."""
    def unit():
        return LaurentPoly(rng.randint(-2, 2), (rng.choice((1, -1)),))

    def general():
        return LaurentPoly(rng.randint(-1, 1), [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))])

    if kind == "pencil":
        return si_minus(random_matrix(rng, n, n, -4, 4))
    if kind == "triangular":
        rows = [[unit() if i == j else general() if j < i else ZERO for j in range(n)]
                for i in range(n)]
    else:
        rows = [[rng.choice((unit, general, lambda: ZERO))() for _ in range(n)]
                for _ in range(n)]
    for _ in range(rng.randint(0, n)):
        r, i = rng.randrange(n), rng.randrange(n)
        if r != i:
            f = general()
            rows[r] = [add(a, mul(f, b)) for a, b in zip(rows[r], rows[i])]
    if kind == "triangular":
        order = rng.sample(range(n), n)
        rows = [[row[j] for j in order] for row in rows]
    if kind == "singular":
        f = general()
        rows[-1] = [mul(f, a) for a in rows[0]] if n > 1 else [ZERO]
    return LambdaMatrix.from_rows(rows) if n else LambdaMatrix(0, 0, ())


class TestSquareMinorGcd:
    """maximal_minor_gcd on square matrices, the unit pivots and the sI - Y
    shortcut included, against the fraction-free determinant."""

    def test_seeded_sweep_against_bareiss(self, kernel_calls):
        rng = random.Random(20)
        seen = {"consumed": 0, "one": 0, "singular": 0, "pencil": 0}
        for _ in range(1000):
            n = rng.randint(0, 5)
            kind = rng.choice(("units", "triangular", "singular", "pencil"))
            if kind == "singular" and not n:
                continue
            m = planted_square(rng, n, kind)
            rank, det = bareiss(m.to_rows(), LAURENT)
            before = len(kernel_calls)
            gcd = maximal_minor_gcd(m)
            assert gcd == canonicalize(det)
            rows = m.to_rows()
            if all(sub(e, LaurentPoly(1, (int(i == j),))).degree <= 0 <= e.low
                   for i, row in enumerate(rows) for j, e in enumerate(row)):
                # sI - Y (the 0 x 0 matrix too): the shortcut, against the kernel
                assert len(kernel_calls) == before
                assert gcd == canonicalize(minors_at_node(m)[0])
                seen["pencil"] += 1
                continue
            assert len(kernel_calls) == before + 1
            seen["one"] += n == 1
            seen["consumed"] += n > 0 and not exactla._unit_reduced(m)[0]
            if not det:  # delta 0: the obstruction takes the rank
                report = evaluate_fibred_obstruction(m)
                assert (report.delta, report.torsion) == (ZERO, "no")
                assert report.reasons[0] == (
                    f"(1) FAILS: rank {rank} < {n} generators, module is not torsion")
                seen["singular"] += 1
        assert min(seen.values()) >= 100, seen


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

    def test_a_value_at_the_node_that_the_first_primes_divide(self):
        # e = (q - 2^183) + 2^53 s for q = p0 p1 p2 has its bound between
        # 2^128 and 2^129, so X = 2^130 and e(X) = q.  Those three primes
        # alone pass twice the bound, but not twice the value bound, whose
        # pack holds more primes
        q = _prime(0) * _prime(1) * _prime(2)
        e = LaurentPoly(0, (q - 2**183, 2**53))
        bound = exactla._normalised([[e]])[2]
        assert bound.bit_length() + 1 == 130 and q > 2 * bound
        assert rank_over_fractions(LambdaMatrix.from_rows([[e]])) == 1
        assert minors_at_node(LambdaMatrix.from_rows([[e, ZERO], [ZERO, ONE]])) == [e]

    def test_input_window_skips_the_node_zero(self):
        # one unit pivot leaves [[2s - 2, 0], [2s^-2, 1 - 2s^-1]], whose rows
        # shifted to s^0 have the minor 2s(s - 1)(s - 2): the rank would drop
        # to 2 at s = 0, 1, 2, but not at s = 2^b, where the minor is read
        # within the input's window
        rows = [[P("-2s^-1"), ZERO, P("-1")], [P("2s"), ZERO, P("s")],
                [ZERO, P("1 - 2s^-1"), P("-s^-1")]]
        assert rank_over_fractions(LambdaMatrix.from_rows(rows)) == 3

    def test_unit_pivots_then_evaluation_against_bareiss(self):
        # wide, tall and square shapes with units +-s^k planted among small
        # entries, a dependent row and zero rows: the unit pivots count one
        # each, and the rest of the rank comes from evaluation, in the
        # input's window where fill-in has widened the rows
        rng = random.Random(41)
        seen = {"wide": 0, "tall": 0, "square": 0, "zero-row": 0, "dependent": 0,
                "all-pivots": 0, "some-left": 0, "narrowed": 0}
        for _ in range(300):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            out = [[LaurentPoly(rng.randint(-2, 2), (rng.choice((1, -1)),))
                    if rng.random() < 0.25 else random_laurent(rng) for _ in range(cols)]
                   for _ in range(rows)]
            if rows > 1 and rng.random() < 0.5:  # a combination of two rows
                f, g = random_laurent(rng), random_laurent(rng)
                out[-1] = [add(mul(f, a), mul(g, b)) for a, b in zip(out[0], out[rows // 2])]
                seen["dependent"] += 1
            if rng.random() < 0.2:
                out[rng.randrange(rows)] = [ZERO] * cols
                seen["zero-row"] += 1
            m = LambdaMatrix.from_rows(out)
            seen["wide" if rows < cols else "tall" if rows > cols else "square"] += 1
            reduced = unit_reduced(m)[0]
            seen["all-pivots" if not any(reduced.entries) else "some-left"] += 1
            # fill-in widened the rows past the input's span, which then
            # bounds the digits
            seen["narrowed"] += (exactla._normalised([r for r in out if any(r)])[3]
                                 < exactla._normalised([r for r in reduced.to_rows() if any(r)])[3])
            assert rank_over_fractions(m) == bareiss(out, LAURENT)[0]
        assert min(seen.values()) >= 30, seen


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
    """Pencils sX - Y as Laurent matrices, sI - Y among them, against the
    fraction-free oracle over Z[s, s^-1] on the Laurent expansion."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(integer_pencils())
    def test_against_laurent_elimination(self, case):
        kind, x, y = case
        m = laurent_pencil(x, y)
        rank, det = bareiss(m.to_rows(), LAURENT)
        assert minors_at_node(m)[0] == det
        assert rank_over_fractions(m) == rank
        assert maximal_minor_gcd(m) == canonicalize(det)
        if x is None:  # the shortcut: char_poly, monic of degree n
            assert canonicalize(char_poly(IntMatrix.from_rows(y))) == canonicalize(det)
            assert rank == len(y)
        if kind == "seifert":
            assert alexander_polynomial(SeifertMatrix(x)) == canonicalize(det)

    def test_sizes_zero_and_one(self):
        for x, y, det, rank in ((None, [], ONE, 0), ([], [], ONE, 0),
                                (None, [[7]], P("s - 7"), 1), ([[3]], [[5]], P("3s - 5"), 1),
                                ([[0]], [[3]], P("-3"), 1), ([[0]], [[0]], ZERO, 0)):
            m = laurent_pencil(x, y)
            assert (minors_at_node(m)[0], rank_over_fractions(m)) == (det, rank)
            assert (rank, det) == bareiss(m.to_rows(), LAURENT)
            assert maximal_minor_gcd(m) == canonicalize(det)

    def test_determinant_is_taken_once(self, monkeypatch, kernel_calls):
        calls = []

        def counted(h):
            calls.append(h.rows)
            return char_poly(h)

        monkeypatch.setattr(exactla, "char_poly", counted)
        h = IntMatrix.from_rows([[1, 0, -1, -1], [0, 1, -1, -1], [1, 1, -1, -1], [0, 0, -1, 0]])
        assert maximal_minor_gcd(si_minus(h)) == P("s^4 - s^3 - s + 1")
        assert calls == [4] and kernel_calls == []

    def test_evaluation_only_when_x_is_not_the_identity(self, kernel_calls):
        # sI - Y is char_poly(Y); a square sX - Y with X != I is one call
        # of the evaluation kernel
        rng = random.Random(127)
        for _ in range(10):
            n = rng.randint(1, 5)
            y = random_matrix(rng, n, n, -5, 5)
            assert maximal_minor_gcd(si_minus(y)) == canonicalize(char_poly(y))
            assert rank_over_fractions(si_minus(y)) == n
        assert kernel_calls == []
        x = unimodular(rng, 3)
        assert x != IntMatrix.identity(3).to_rows()
        m = pencil(x, random_matrix(rng, 3, 3, -5, 5).to_rows())
        assert square_gcd(m) == bareiss_det(m)
        assert len(kernel_calls) == 1

    def test_alexander_polynomial_of_a_singular_seifert_matrix(self, kernel_calls):
        # Gamma = (S - S^T)^-1 S exists whatever det S is: no evaluation
        s = singular_seifert(random.Random(131), 2)
        assert s.det() == 0
        assert alexander_polynomial(SeifertMatrix(s)) == canonicalize(
            bareiss_det(seifert_pencil(s)))
        assert kernel_calls == []

    def test_shape_checks(self, monkeypatch, kernel_calls):
        # only s minus an integer on the diagonal and integers elsewhere
        # read as sI - Y; the input's shape decides, not the reduced one's
        calls = []

        def counted(h):
            calls.append(h.rows)
            return char_poly(h)

        monkeypatch.setattr(exactla, "char_poly", counted)
        pencils = [[["s - 7"]], [["s"]], [["s + 1", "-2"], ["0", "s"]], [["s", "1"], ["1", "s"]]]
        others = [[["2s - 7"]], [["s^-1"]], [["s^2"]], [["s + s^-1"]], [["s", "s"], ["0", "s"]],
                  [["s", "1"]], [["1", "s"], ["s", "1"]], [["1", "0"], ["0", "s - 3"]]]
        for rows in pencils + others:
            m = LambdaMatrix.from_rows([[P(e) for e in row] for row in rows])
            expected = enumerated_gcd(m)
            assert maximal_minor_gcd(m) == expected
        assert calls == [len(rows) for rows in pencils]
        assert len(kernel_calls) == len(others)

    def test_equal_pencils_compare_equal(self):
        a = si_minus(IntMatrix.from_rows([[1, 2], [3, 4]]))
        b = si_minus(IntMatrix.from_rows(((1, 2), (3, 4))))
        assert a == b and hash(a) == hash(b)
        # the shared storage keeps the two matrix types apart
        assert IntMatrix(1, 1, (1,)) != LambdaMatrix(1, 1, (1,))


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


def random_rows(rng, rows, cols, entry, ring):
    """A random rows x cols matrix: dense, of rank below min(rows, cols) (a
    product through a narrower middle), with its leading columns zero, or
    with a zero top-left entry (the first pivot needs a row swap)."""
    zero = ring.zero
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
                    acc = ring.add(acc, ring.mul(b[i][t], c[t][j]))
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
        "Z": (INTEGERS, random_int, lambda rows: brute_det(IntMatrix.from_rows(rows))),
        "Laurent": (LAURENT, random_laurent,
                    lambda rows: leibniz_det(LambdaMatrix.from_rows(rows))),
    }

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_against_leibniz(self, name):
        ring, entry, det = self.RINGS[name]
        rng = random.Random(71)
        shapes = [(r, c) for r in range(5) for c in range(5) if r == c or r < 4]
        for rows, cols in shapes * 20:
            m = random_rows(rng, rows, cols, entry, ring)
            rank, d = bareiss(m, ring)
            assert rank == minor_rank(m, cols, det)
            if rows == cols:
                assert d == det(m)

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_row_swaps_flip_the_sign(self, name):
        ring, _, det = self.RINGS[name]
        zero, one = ring.zero, ring.one
        minus_one, two = ring.sub(zero, one), ring.add(one, one)
        for m, expected in (([[zero, one], [one, zero]], minus_one),
                            ([[zero, one, zero], [zero, zero, one], [one, zero, zero]], one),
                            ([[zero, zero, one], [zero, one, zero], [one, zero, zero]], minus_one),
                            ([[zero, two, one], [one, one, zero], [zero, one, one]], minus_one)):
            assert bareiss(m, ring) == (len(m), expected)
            assert det(m) == expected

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_empty_shapes(self, name):
        ring = self.RINGS[name][0]
        assert bareiss([], ring) == (0, ring.one)
        for k in (1, 3):
            assert bareiss([[] for _ in range(k)], ring) == (0, ring.zero)
        assert IntMatrix(0, 0, ()).det() == 1
        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            assert rank_over_fractions(LambdaMatrix(rows, cols, ())) == 0

    def test_public_callers_use_the_kernel(self):
        rng = random.Random(73)
        for _ in range(20):
            n = rng.randint(0, 4)
            a = random_matrix(rng, n, n, -6, 6)
            assert a.det() == brute_det(a) == bareiss(a.to_rows(), INTEGERS)[1]
            m = LambdaMatrix.from_rows(random_rows(rng, n, n + 1, random_laurent, LAURENT))
            assert rank_over_fractions(m) == minor_rank(
                m.to_rows(), m.cols, lambda rows: leibniz_det(LambdaMatrix.from_rows(rows)))

    def test_inexact_oracle_division_over_z_is_internal_error(self):
        with pytest.raises(ValueError):
            divexact_int(7, 2)
        # a wrong unit makes the first division inexact: 1 / 2
        with pytest.raises(InternalError, match="inexact division"):
            bareiss([[1, 1], [1, 2]], INTEGERS._replace(one=2))

    def test_inexact_division_over_laurent_is_internal_error(self):
        # a wrong unit makes the first division inexact: (s^2 - 1) / 2
        with pytest.raises(InternalError, match="inexact division"):
            bareiss([[P("s"), ONE], [ONE, P("s")]], LAURENT._replace(one=P("2")))


@st.composite
def laurent_matrices(draw, square=False, coeff=st.integers(-3, 3)):
    """An n x m Laurent matrix for the evaluation kernel against the
    oracle: dense, of rank below min(n, m) (a product through a narrower
    middle), with a zero row, a pencil sX - Y with singular X (its last
    row a multiple of the first), or with two-term entries of degree up to
    40.  n runs from 0 to 5 (to 3 for the high degrees) and, unless
    square, m from 0 to 6, so the empty matrix and n > m both occur.
    Coefficients are drawn from ``coeff``."""
    kind = draw(st.sampled_from(("dense", "low", "zero-row", "singular-x", "high")))
    n = draw(st.integers(0, 3 if kind == "high" else 5))
    m = n if square or kind == "singular-x" else draw(st.integers(0, 6))

    def entry():
        if kind == "high":
            terms = [LaurentPoly(draw(st.integers(-2, 40)), (draw(coeff),)) for _ in range(2)]
            return add(*terms)
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
        return LambdaMatrix.from_rows([[add(*(mul(b[i][t], c[t][j]) for t in range(k)))
                                        for j in range(m)] for i in range(n)])
    rows = [[entry() for _ in range(m)] for _ in range(n)]
    if kind == "zero-row" and n:
        rows[draw(st.integers(0, n - 1))] = [ZERO] * m
    return LambdaMatrix(n, m, [e for r in rows for e in r])


class TestHighDegree:
    """Matrices whose entries have high degree, and the balanced base-2^b
    digits that their minors are read from."""

    def test_balanced_digits_invert_evaluation(self):
        # random digits, and runs of the widest digits of either sign
        rng = random.Random(5)
        for b in (2, 3, 8, 61, 200):
            half = 1 << (b - 1)
            for length in (1, 2, 3, 10, 64):
                for coeffs in ([rng.randrange(1 - half, half) for _ in range(length)],
                               [half - 1] * length, [1 - half] * length,
                               [(1 - half) * (-1) ** k for k in range(length)]):
                    value = exactla._at_node([[tuple(coeffs)]], b)[0][0]
                    assert value == sum(c * 2 ** (b * k) for k, c in enumerate(coeffs))
                    assert abs(value) <= (half - 1) * exactla._ones(b, length)
                    assert exactla._digits(value, b, length) == coeffs

    def test_sparse_square_without_unit_entries(self):
        # no unit to pivot on, so the determinant is read off 4001 digits
        m = LambdaMatrix.from_rows([[P("2s^2000-1"), P("3s")], [P("5"), P("2s^2000+3")]])
        assert square_gcd(m) == P("4s^4000 + 4s^2000 - 15s - 3") == bareiss(
            m.to_rows(), LAURENT)[1]

    def test_sparse_entries_of_high_degree(self):
        m = LambdaMatrix.from_rows([[P("s^300-1"), P("s")], [ONE, P("s^300+1")]])
        assert square_gcd(m) == P("s^600-s-1") == bareiss(m.to_rows(), LAURENT)[1]
        wide = LambdaMatrix.from_rows([[P("s^200"), P("1"), P("s^-3+2")],
                                       [P("2"), P("s^150-s"), P("s")]])
        rows = wide.to_rows()
        assert minors_at_node(wide) == [
            bareiss([[r[i], r[j]] for r in rows], LAURENT)[1]
            for i, j in itertools.combinations(range(3), 2)]

    def test_a_row_is_its_own_list_of_minors(self):
        row = [P("s^2000-1"), ZERO, P("2s^-3")]
        assert minors_at_node(LambdaMatrix.from_rows([row])) == row
        assert square_gcd(LambdaMatrix.from_rows([row[:1]])) == row[0]


class TestEvaluationAgainstBareiss:
    """Differential pairs: the evaluation kernel's rank and determinant
    against the fraction-free oracle over Z[s, s^-1]."""

    @settings(max_examples=300, deadline=None)
    @given(laurent_matrices())
    def test_rank(self, m):
        rank = bareiss(m.to_rows(), LAURENT)[0]
        assert rank_over_fractions(m) == rank

    @settings(max_examples=200, deadline=None)
    @given(laurent_matrices(square=True))
    def test_determinant(self, m):
        det = bareiss(m.to_rows(), LAURENT)[1]
        assert square_gcd(m) == det

    @settings(max_examples=150, deadline=None)
    @given(laurent_matrices())
    def test_maximal_minors(self, m):
        if m.rows > m.cols:
            return
        rows = m.to_rows()
        assert minors_at_node(m) == [
            bareiss([[r[j] for j in cols] for r in rows], LAURENT)[1]
            for cols in itertools.combinations(range(m.cols), m.rows)]

    @settings(max_examples=100, deadline=None)
    @given(integer_pencils())
    def test_pencils(self, case):
        _, x, y = case
        m = laurent_pencil(x, y)
        rank, det = bareiss(m.to_rows(), LAURENT)
        assert rank_over_fractions(m) == rank
        assert minors_at_node(m) == [det]


# Coefficients up to 2^70, or multiples of the first CRT prime, which make
# pivots that are no unit modulo any pack that holds it.
BIG = 2**70
big_or_planted = st.one_of(st.integers(-BIG, BIG),
                           st.integers(-3, 3).map(lambda k: k * _prime(0)))


@pytest.fixture
def crt_moduli(monkeypatch):
    """The moduli that laurent._crt_residues yields to the exactla kernels,
    in order: pack products, or a fallen-back pack's primes."""
    moduli = []
    residues = exactla._crt_residues

    def recorded(bound, kernel):
        for q, rs in residues(bound, kernel):
            moduli.append(q)
            yield q, rs

    monkeypatch.setattr(exactla, "_crt_residues", recorded)
    return moduli


def lambda_constants(rows) -> LambdaMatrix:
    return LambdaMatrix.from_rows([[LaurentPoly(0, (v,)) for v in r] for r in rows])


class TestPackedModuli:
    """Every pivot kernel runs modulo packs of up to _CRT_PACK CRT primes,
    and a pack that meets a pivot that is no unit falls back to its primes
    one at a time.  Each property runs at the packs of 8 and at packs of
    one prime, the per-prime route, against the fraction-free oracle."""

    @pytest.mark.parametrize("bits", [0, 1, 60, 61, 122, 488, 489, 1000, 3000])
    def test_packs_hold_the_primes_the_lift_draws_in_order(self, bits):
        for bound in (2**bits - 1, 2**bits, 2**bits + 1):
            packs = list(laurent._crt_packs(1, bound))
            primes = laurent._crt_primes(bound)
            assert [q for pack in packs for q in pack] == [_prime(k) for k in range(primes)]
            assert all(len(pack) == laurent._CRT_PACK for pack in packs[:-1])
            assert all(packs)

    @pytest.mark.parametrize("pack", [8, 1])
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(big_or_planted, min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_char_poly(self, pack, rows):
        h = IntMatrix(len(rows), len(rows), [x for r in rows for x in r])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laurent, "_CRT_PACK", pack)
            assert char_poly(h) == bareiss_det(si_minus(h))

    @pytest.mark.parametrize("pack", [8, 1])
    @settings(max_examples=80, deadline=None)
    @given(laurent_matrices(coeff=big_or_planted))
    def test_maximal_minors_and_rank(self, pack, m):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laurent, "_CRT_PACK", pack)
            assert rank_over_fractions(m) == bareiss(m.to_rows(), LAURENT)[0]
            if m.rows <= m.cols:
                assert minors_at_node(m) == enumerated_minors(m)

    @pytest.mark.parametrize("pack", [8, 1])
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 2**32), st.sampled_from(("unit", "any", "planted")))
    def test_inverse_unimodular(self, pack, n, seed, kind):
        rng = random.Random(seed)
        if kind == "unit":
            # lower times upper unitriangular, entries up to 2^35 each
            lower, upper = (IntMatrix.from_rows(
                [[rng.randint(-2**35, 2**35) if side(i, j) else int(i == j) for j in range(n)]
                 for i in range(n)]) for side in (operator.gt, operator.lt))
            m = IntMatrix.from_rows(unimodular(rng, n)) * lower * upper
        elif kind == "planted":
            # [[k, 1], [-1, 0]] beside a unit: a first pivot k that is a
            # multiple of the first prime
            k = rng.randint(-3, 3) * _prime(0)
            rest = unimodular(rng, max(n - 2, 0))
            block = [[k, 1] + [0] * len(rest), [-1, 0] + [0] * len(rest)]
            m = IntMatrix.from_rows(block + [[0, 0] + r for r in rest] if n > 1
                                    else unimodular(rng, n))
        else:
            m = random_matrix(rng, n, n, -BIG, BIG)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laurent, "_CRT_PACK", pack)
            det, inv = m.solve(IntMatrix.identity(n))
            try:
                expected = adjugate_inverse(m)
            except ValueError as exc:
                assert inv is None
                assert str(exc) == f"matrix has determinant {det}, not a unit"
                assert kind == "any"
                return
            assert inv == expected

    def test_planted_non_unit_pivots_fall_back(self, crt_moduli):
        p0, p1 = _prime(0), _prime(1)

        def fell_back(pack):
            return len(pack) > 1 and crt_moduli[:len(pack)] == list(pack)

        # char_poly: the first Hessenberg pivot, h_10, is a multiple of p0
        h = IntMatrix.from_rows([[1, 2, 3, 4], [p0, 5, 6, 7], [2 * p0, 8, 9, 1], [3, 4, 5, 6]])
        bound = math.prod(sum(map(abs, r)) + 1 for r in h.to_rows())
        assert char_poly(h) == bareiss_det(si_minus(h)) == faddeev_leverrier(h)
        assert fell_back(next(laurent._crt_packs(1, bound)))
        # the minors kernel: entries that are multiples of p0, and a
        # leading 3 x 3 minor divisible by p1 alone
        for rows in ([[p0, 1, 2], [3, p0, 5]],
                     [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, p1, 3]]):
            crt_moduli.clear()
            m = lambda_constants(rows)
            assert minors_at_node(m) == enumerated_minors(m)
            assert fell_back(next(laurent._crt_packs(1, exactla._normalised(m.to_rows())[2])))
        # the rank, full and deficient, with a first pivot of p0 and no
        # unit entry to pivot away first
        for rows, rank in (([[p0, 2], [3, 0]], 2), ([[p0, 2], [2 * p0, 4]], 1)):
            crt_moduli.clear()
            assert rank_over_fractions(lambda_constants(rows)) == rank
            assert crt_moduli[0] == p0
        # the inverse: a unit whose first pivot is p0, and a det of 2 * p1
        crt_moduli.clear()
        m = IntMatrix.from_rows([[p0, 1], [-1, 0]])
        assert m.solve(IntMatrix.identity(2)) == (1, IntMatrix.from_rows([[0, -1], [1, p0]]))
        assert crt_moduli[0] == p0
        crt_moduli.clear()
        assert IntMatrix.from_rows([[p1, 0], [0, 2]]).solve(IntMatrix.identity(2)) == (2 * p1, None)
        # the pack fell back: p0 passes, p1 misses its pivot, and the det
        # lifts from both
        assert crt_moduli == [p0, p1]
