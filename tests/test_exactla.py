import itertools
import math
import random

import pytest

from twistalex import exactla
from twistalex.errors import MinorLimitError
from twistalex.exactla import (IntMatrix, LambdaMatrix, _det_lambda, adjugate,
                               char_poly, cokernel_invariants, maximal_minor_gcd,
                               rank_over_fractions, si_minus,
                               smith_normal_form, surjection_onto_cyclic)
from twistalex.laurent import LaurentPoly, ZERO, canonicalize, parse_laurent


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


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(IntMatrix.identity(3)).d == (1, 1, 1)

    def test_trefoil_symmetrized(self):
        # A + A^T for the trefoil Seifert matrix; reduces by hand to diag(1, 3)
        snf = smith_normal_form(IntMatrix.from_rows([[-2, 1], [1, -2]]))
        assert snf.d == (1, 3)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix.zeros(2, 3)).d == (0, 0)

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            snf = smith_normal_form(IntMatrix.zeros(rows, cols))
            assert snf.d == ()
            assert snf.u.rows == rows and snf.v.cols == cols

    def test_reconstruction_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(120):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            a = random_matrix(rng, rows, cols)
            snf = smith_normal_form(a)
            assert snf.u * a * snf.v == snf.diagonal_matrix()
            assert abs(brute_det(snf.u) if rows <= 6 else snf.u.det()) == 1
            assert abs(brute_det(snf.v) if cols <= 6 else snf.v.det()) == 1
            d = snf.d
            assert all(x >= 0 for x in d)
            nonzero = [x for x in d if x]
            assert list(d[:len(nonzero)]) == nonzero, "zeros must come last"
            for x, y in zip(nonzero, nonzero[1:]):
                assert y % x == 0

    def test_deterministic(self):
        a = IntMatrix.from_rows([[6, 4, 2], [4, 8, 0], [2, 0, 10]])
        assert smith_normal_form(a) == smith_normal_form(a)


class TestCokernel:
    def test_trefoil_block(self):
        inv = cokernel_invariants(IntMatrix.from_rows([[-2, 1], [1, -2]]))
        assert inv.torsion == (3,) and inv.free_rank == 0
        assert inv.order == 3
        assert inv.group_text() == "Z/3"

    def test_identity_gives_trivial_group(self):
        for n in (1, 2, 5):
            inv = cokernel_invariants(IntMatrix.identity(n))
            assert inv.is_trivial and inv.order == 1
            assert inv.group_text() == "0"

    def test_divisor_chaining(self):
        inv = cokernel_invariants(IntMatrix.from_rows([[3, 0], [0, 5]]))
        assert inv.torsion == (15,)

    def test_free_rank(self):
        inv = cokernel_invariants(IntMatrix.zeros(2, 3))
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
            assert cokernel_invariants(a).order == abs(d)
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
        ck = -am.trace() // k
        cs.append(ck)
        mk = am + IntMatrix.identity(n) * ck
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


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Counts the fraction-free fallback behind LambdaMatrix.det."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return _det_lambda(rows)

    monkeypatch.setattr(exactla, "_det_lambda", counted)
    return calls


class TestCharPoly:
    def test_matches_lambda_determinant(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(0, 6)
            h = random_matrix(rng, n, n, -4, 4)
            assert char_poly(h) == _det_lambda(si_minus(h).to_rows()) == faddeev_leverrier(h)

    def test_huge_entries_need_several_primes(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(1, 5)
            h = random_matrix(rng, n, n, -2**72, 2**72)
            assert char_poly(h) == _det_lambda(si_minus(h).to_rows()) == faddeev_leverrier(h)

    def test_constant_term_is_det(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(1, 5)
            h = random_matrix(rng, n, n, -4, 4)
            assert char_poly(h).coefficient(0) == (-1) ** n * brute_det(h)


class TestPencilDeterminant:
    def test_sizes_zero_and_one(self, bareiss_calls):
        assert char_poly(IntMatrix(0, 0, ())) == LaurentPoly.const(1)
        assert LambdaMatrix(0, 0, ()).det() == LaurentPoly.const(1)
        assert char_poly(IntMatrix.from_rows([[7]])) == P("s - 7")
        assert pencil([[3]], [[5]]).det() == P("3s - 5")
        assert pencil([[0]], [[0]]).det() == ZERO
        assert bareiss_calls == []

    def test_identity_x(self, bareiss_calls):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 4)
            y = random_matrix(rng, n, n, -5, 5).to_rows()
            m = pencil(IntMatrix.identity(n).to_rows(), y)
            assert m.det() == leibniz_det(m) == _det_lambda(m.to_rows())
        assert bareiss_calls == []

    def test_unimodular_x(self, bareiss_calls):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(1, 4)
            x = unimodular(rng, n)
            y = random_matrix(rng, n, n, -5, 5).to_rows()
            m = pencil(x, y)
            assert m.det() == leibniz_det(m) == _det_lambda(m.to_rows())
        assert bareiss_calls == []

    def test_huge_entries(self, bareiss_calls):
        rng = random.Random(47)
        for _ in range(10):
            n = rng.randint(2, 6)
            x = unimodular(rng, n)
            y = random_matrix(rng, n, n, -2**75, 2**75).to_rows()
            m = pencil(x, y)
            assert m.det() == _det_lambda(m.to_rows())
        assert bareiss_calls == []

    def test_singular_x_with_zero_determinant(self, bareiss_calls):
        rng = random.Random(53)
        for _ in range(10):
            n = rng.randint(2, 4)
            x = random_matrix(rng, n, n, -4, 4).to_rows()
            y = random_matrix(rng, n, n, -4, 4).to_rows()
            x[1], y[1] = list(x[0]), list(y[0])  # equal rows: det(sX - Y) = 0
            assert pencil(x, y).det() == ZERO
        assert len(bareiss_calls) == 10

    def test_singular_x_with_nonzero_determinant(self, bareiss_calls):
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
        assert len(bareiss_calls) == 10

    def test_x_singular_modulo_first_prime_falls_back(self, bareiss_calls):
        p = exactla._prime(0)
        rng = random.Random(61)
        for _ in range(5):
            n = rng.randint(2, 4)
            u = IntMatrix.from_rows(unimodular(rng, n))
            x = (u * IntMatrix.from_rows(
                [[p if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]))
            assert abs(x.det()) == p
            m = pencil(x.to_rows(), random_matrix(rng, n, n, -4, 4).to_rows())
            assert m.det() == leibniz_det(m)
        assert len(bareiss_calls) == 5

    def test_non_pencils_keep_elimination(self, bareiss_calls):
        m = LambdaMatrix.from_rows([[P("s^2"), P("1")], [P("s^-1"), P("s")]])
        assert m.det() == leibniz_det(m) == P("s^3 - s^-1")
        assert len(bareiss_calls) == 1

    def test_prime_sequence(self):
        sieve = [n for n in range(2, 2000) if all(n % q for q in range(2, int(n**0.5) + 1))]
        assert [n for n in range(2000) if exactla._is_prime(n)] == sieve
        # strong pseudoprimes to several small bases, and Carmichael numbers
        for n in (561, 41041, 3215031751, 3825123056546413051):
            assert not exactla._is_prime(n)
        primes = [exactla._prime(k) for k in range(4)]
        assert primes[0] == 2**61 - 1
        assert primes == sorted(set(primes), reverse=True)
        assert all(exactla._is_prime(q) for q in primes)


class TestLambdaMatrix:
    def test_minor_gcd_of_row(self):
        m = LambdaMatrix.from_rows([[P("s - 1"), P("s^2 - 1")]])
        assert maximal_minor_gcd(m).delta == P("s - 1")

    def test_trefoil_presentation_delta(self):
        h = IntMatrix.from_rows([[1, 0, -1, -1], [0, 1, -1, -1],
                                 [1, 1, -1, -1], [0, 0, -1, 0]])
        ideal = maximal_minor_gcd(si_minus(h))
        assert ideal.delta == P("s^4 - s^3 - s + 1")
        assert len(ideal.minors) == 1

    def test_two_by_three_minors(self):
        m = LambdaMatrix.from_rows([
            [P("s - 1"), ZERO, ZERO],
            [ZERO, P("s - 1"), ZERO],
        ])
        ideal = maximal_minor_gcd(m)
        assert ideal.delta == P("s^2 - 2s + 1")
        assert sorted(map(str, ideal.minors)) == ["0", "0", "s^2 - 2s + 1"]

    def test_more_generators_than_relations(self):
        m = LambdaMatrix.from_rows([[P("s")], [P("1")]])
        ideal = maximal_minor_gcd(m)
        assert ideal.delta == ZERO and ideal.minors == ()

    def test_square_gcd_is_canonical_determinant(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 3)
            ents = [LaurentPoly(rng.randint(-1, 1),
                                [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))])
                    for _ in range(n * n)]
            m = LambdaMatrix(n, n, ents)
            assert maximal_minor_gcd(m).delta == canonicalize(m.det())

    def test_minor_cap(self):
        m = LambdaMatrix.from_rows([[P("s"), P("1"), P("s"), P("1")],
                                    [P("1"), P("s"), P("1"), P("s")]])
        with pytest.raises(MinorLimitError):
            maximal_minor_gcd(m, max_minors=5)
        maximal_minor_gcd(m, max_minors=6)  # exactly C(4, 2)


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


class TestAdjugate:
    def test_cofactor_identity(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(1, 3)
            h = random_matrix(rng, n, n, -3, 3)
            p = si_minus(h)
            prod = adjugate(p) * p
            det = p.det()
            for i in range(n):
                for j in range(n):
                    assert prod.at(i, j) == (det if i == j else ZERO)
