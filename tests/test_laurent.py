import cmath
import itertools
import math
import operator
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twistalex import laurent
from twistalex.errors import ParseError, SizeLimitError, number_text
from twistalex.laurent import (LaurentPoly, ZERO, _binpow, canonicalize,
                               cyclotomic_resultants, gcd, is_monic,
                               parse_laurent, resultant_with_cyclotomic,
                               to_text)
from twistalex.seifert import alexander_polynomial, random_seifert_matrix

from bareiss_oracle import INTEGERS, bareiss, divexact, divides
from laurent_ring import add, mul, neg, sub


def P(text):
    return parse_laurent(text)


def evaluate(p: LaurentPoly, z: complex) -> complex:
    """p at a nonzero number, for the numeric cross-checks."""
    return sum(c * z ** e for e, c in p.terms())


polys = st.builds(LaurentPoly, st.integers(-5, 5),
                  st.lists(st.integers(-9, 9), max_size=7))
nonzero_polys = polys.filter(bool)


class TestRingOps:
    """The tests' own ring arithmetic (laurent_ring), which the oracles
    compute with: LaurentPoly itself has no ring operators."""

    def test_difference_of_squares(self):
        assert mul(P("s - 1"), P("s + 1")) == P("s^2 - 1")

    def test_additive_identity(self):
        for text in ("s^4 - s^3 - s + 1", "0", "2s^-1", "-7"):
            assert add(P(text), ZERO) == add(ZERO, P(text)) == P(text)

    def test_exponent_shift(self):
        # (s^-1 + 1) * s = 1 + s, multiplication shifts exponents exactly
        assert mul(P("s^-1 + 1"), P("s")) == P("1 + s")

    def test_zero_is_unique(self):
        assert sub(P("s - 1"), P("s - 1")) == ZERO
        assert sub(P("s - 1"), P("s - 1")).low == 0

    @given(polys, polys, polys)
    def test_ring_laws(self, p, q, r):
        assert add(p, q) == add(q, p)
        assert mul(p, q) == mul(q, p)
        assert mul(add(p, q), r) == add(mul(p, r), mul(q, r))
        assert add(p, neg(p)) == ZERO
        for c in (0, 1, -3):
            assert mul(p, c) == mul(p, LaurentPoly(0, (c,)))

    @given(st.integers(-5, 5), st.lists(st.integers(-9, 9), max_size=7),
           st.integers(0, 3), st.integers(0, 3))
    def test_padded_run_is_trimmed(self, low, run, before, after):
        p = LaurentPoly(low - before, [0] * before + run + [0] * after)
        assert p == LaurentPoly.from_dict({low + i: c for i, c in enumerate(run) if c})
        assert type(p.coeffs) is tuple
        if not any(run):
            assert (p.low, p.coeffs) == (0, ())

    @given(polys, polys)
    def test_results_trimmed(self, p, q):
        for result in (add(p, q), mul(p, q), sub(p, q)):
            if result.coeffs:
                assert result.coeffs[0] != 0 and result.coeffs[-1] != 0


class TestValueType:
    """No pipeline adds, negates, multiplies or powers a LaurentPoly, so it
    has no ring operators, coercions or constants."""

    def test_no_ring_operators(self):
        for op in (lambda: P("s") + P("1"), lambda: P("s") - 1, lambda: -P("s"),
                   lambda: P("s") * 2, lambda: P("s") ** 2):
            with pytest.raises(TypeError):
                op()

    def test_no_ring_constants_or_coercions(self):
        for name in ("ONE", "S", "_coerce"):
            assert not hasattr(laurent, name)
        for name in ("zero", "const", "monomial"):
            assert not hasattr(LaurentPoly, name)
        assert ZERO == LaurentPoly() and (ZERO.low, ZERO.coeffs) == (0, ())


class TestCanonicalize:
    def test_unit_stripping(self):
        p = LaurentPoly(-2, (-1, 1, 0, 1, -1))  # -s^-2 * (s^4 - s^3 - s + 1)
        assert canonicalize(p) == P("s^4 - s^3 - s + 1")

    def test_zero(self):
        assert canonicalize(ZERO) == ZERO

    def test_power_factor(self):
        assert canonicalize(P("s^3 - s^2")) == P("s - 1")

    @given(polys, st.sampled_from((1, -1)), st.integers(-3, 3))
    def test_idempotent_and_unit_invariant(self, p, u, n):
        c = canonicalize(p)
        assert canonicalize(c) == c
        assert canonicalize(mul(LaurentPoly(p.low + n, p.coeffs), u)) == c


class TestGcd:
    def test_divisor_pair(self):
        assert gcd(P("s - 1"), P("s^2 - 1")) == P("s - 1")

    def test_content_times_primitive(self):
        g = gcd(P("2s - 2"), P("4s - 4"))
        assert g == P("2s - 2")
        assert divides(g, P("2s - 2")) and divides(g, P("4s - 4"))

    def test_gcd_with_zero(self):
        assert gcd(P("s^3 - s^2"), ZERO) == P("s - 1")
        assert gcd(ZERO, ZERO) == ZERO

    @given(polys, polys)
    def test_divides_both(self, p, q):
        g = gcd(p, q)
        assert divides(g, p) and divides(g, q)
        if g:
            assert mul(divexact(p, g), g) == p
            assert mul(divexact(q, g), g) == q

    @given(nonzero_polys, polys, polys)
    @settings(deadline=None)
    def test_distributes_over_common_factor(self, p, q, r):
        lhs = gcd(mul(p, q), mul(p, r))
        rhs = canonicalize(mul(canonicalize(p), gcd(q, r)))
        assert lhs == rhs

    @given(polys, polys)
    def test_maximality(self, p, q):
        # any common divisor divides the gcd; spot-check with small divisors
        g = gcd(p, q)
        for cand in (P("s - 1"), P("s + 1"), P("2")):
            if divides(cand, p) and divides(cand, q):
                assert divides(cand, g)


class TestIsMonic:
    def test_trefoil_delta(self):
        assert is_monic(P("s^4 - s^3 - s + 1"))

    def test_nonunit_leading(self):
        assert not is_monic(P("2s + 1"))

    def test_zero(self):
        assert not is_monic(ZERO)

    @given(nonzero_polys, nonzero_polys)
    def test_multiplicative(self, p, q):
        assert is_monic(mul(p, q)) == (is_monic(p) and is_monic(q))


def sylvester(a: list[int], b: list[int]) -> int:
    """Res(a, b) for ascending coefficient lists of degrees m, n >= 1, as
    the Bareiss determinant of the (m + n)-square Sylvester matrix: no CRT,
    so it shares no bound with the routes it checks."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return bareiss(rows, INTEGERS)[1]


def sylvester_resultant(p: LaurentPoly, d: int) -> int:
    """|Res(p^, t^d - 1)| from the Sylvester determinant: the elimination
    resultant_with_cyclotomic replaced, kept as its oracle."""
    f = list(p.coeffs)
    if len(f) == 1:
        return abs(f[0]) ** d
    return abs(sylvester(f, [-1] + [0] * (d - 1) + [1]))


@pytest.fixture
def resultant_moduli(monkeypatch):
    """The moduli, packs of CRT primes or single primes, at which
    resultant_with_cyclotomic finishes a Euclidean resultant."""
    used = []

    def recorded(a, b, q):
        res = euclid(a, b, q)  # a pack that raises _NonUnitPivot is not recorded
        used.append(q)
        return res

    euclid = laurent._resultant_mod
    monkeypatch.setattr(laurent, "_resultant_mod", recorded)
    return used


def crt_primes(moduli: list[int]) -> list[int]:
    """The CRT primes whose products the moduli are, in order."""
    primes = []
    for q in moduli:
        for k in itertools.count():
            if q == 1:
                break
            if q % laurent._prime(k) == 0:
                primes.append(laurent._prime(k))
                q //= laurent._prime(k)
    return primes


class TestCrtLift:
    def test_residues_need_not_be_reduced(self):
        # a kernel may return residues below 0 or at q and past it
        rng = random.Random(173)
        pack = math.prod(laurent._prime(k) for k in range(3))
        values = [rng.randint(-2**150, 2**150) for _ in range(20)] + [0, 1, -1]
        for moduli in ([pack], [pack, laurent._prime(3)]):
            for shift in (-2, 0, 1):
                pairs = [(q, [v % q + rng.randint(min(shift, 0), max(shift, 0)) * q
                              for v in values]) for q in moduli]
                assert laurent._crt_lift(pairs) == values


class TestResultantAgainstSylvester:
    def test_random(self):
        rng = random.Random(89)
        for _ in range(150):
            coeffs = [rng.randint(-30, 30) for _ in range(rng.randint(1, 8))]
            p = LaurentPoly(rng.randint(-4, 4), coeffs)
            if not p:
                continue
            d = rng.randint(1, 14)
            assert resultant_with_cyclotomic(p, d) == sylvester_resultant(p, d)

    def test_degree_one_cover(self):
        # d = 1: |Res(p, t - 1)| = |p(1)|
        for text in ("t^2 - 3t + 1", "2t^3 - t + 5", "t - 1", "7"):
            p = P(text)
            assert resultant_with_cyclotomic(p, 1) == sylvester_resultant(p, 1) == abs(evaluate(p, 1))

    def test_constant(self):
        for c in (1, -1, 3, -5, 2**40):
            for d in (1, 2, 7):
                p = LaurentPoly(0, (c,))
                assert resultant_with_cyclotomic(p, d) == sylvester_resultant(p, d) == abs(c) ** d

    def test_common_root_with_t_d_minus_1(self):
        rng = random.Random(97)
        for _ in range(30):
            d = rng.randint(1, 12)
            k = rng.choice([m for m in range(1, d + 1) if d % m == 0])
            cyclotomic_factor = LaurentPoly(0, [-1] + [0] * (k - 1) + [1])  # t^k - 1 divides t^d - 1
            other = LaurentPoly(0, [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            p = mul(cyclotomic_factor, other)
            assert resultant_with_cyclotomic(p, d) == sylvester_resultant(p, d) == 0

    def test_negative_low_exponent(self):
        rng = random.Random(101)
        for _ in range(30):
            coeffs = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(4)] + [rng.randint(1, 9)]
            d = rng.randint(2, 9)
            shifted = LaurentPoly(rng.randint(-6, -1), coeffs)
            assert (resultant_with_cyclotomic(shifted, d)
                    == resultant_with_cyclotomic(LaurentPoly(0, coeffs), d)
                    == sylvester_resultant(shifted, d))

    def test_leading_coefficient_divisible_by_first_prime(self, resultant_moduli):
        q = laurent._prime(0)
        rng = random.Random(103)
        for _ in range(10):
            p = LaurentPoly(0, [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [q])
            d = rng.randint(1, 9)
            assert resultant_with_cyclotomic(p, d) == sylvester_resultant(p, d)
        primes = crt_primes(resultant_moduli)
        assert primes and q not in primes
        assert laurent._prime(1) in primes

    def test_huge_coefficients_need_many_primes(self, resultant_moduli):
        rng = random.Random(107)
        for _ in range(10):
            coeffs = [rng.randint(2**70 - 2**20, 2**70) * rng.choice((-1, 1))
                      for _ in range(rng.randint(2, 5))]
            d = rng.randint(2, 9)
            p = LaurentPoly(0, coeffs)
            del resultant_moduli[:]
            assert resultant_with_cyclotomic(p, d) == sylvester_resultant(p, d)
            # over 70 bits a root of unity, 61 a prime
            assert len(crt_primes(resultant_moduli)) > d

    def test_euclid_mod_p_keeps_the_sign(self):
        # the CRT lift needs the signed resultant at every prime
        rng = random.Random(113)
        for q in (10007, laurent._prime(0)):
            for _ in range(60):
                a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)]
                b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)]
                got = laurent._resultant_mod([c % q for c in a], [c % q for c in b], q)
                assert got == sylvester(a, b) % q

    def test_non_unit_remainder_falls_back_to_single_primes(self, resultant_moduli):
        # t^3 mod (t^2 + beta t + beta^2 - p1) = p1 t + ...: the first remainder's
        # leading coefficient is 0 modulo p1 and a unit modulo p0
        p0, p1 = laurent._prime(0), laurent._prime(1)
        q = p0 * p1
        for beta in (0, 1, 5, 2**40 + 7):
            a, b = [0, 0, 0, 1], [beta * beta - p1, beta, 1]
            with pytest.raises(laurent._NonUnitPivot):
                laurent._resultant_mod(a, [c % q for c in b], q)
            for p in (p0, p1):
                assert laurent._resultant_mod(a, [c % p for c in b], p) == sylvester(a, b) % p
        # t^3 + c t^2 + (p1 - 1) t + e mod t^2 - 1 = p1 t + c + e: the route at
        # d = 2 meets that pivot in its first pack and reruns it prime by prime
        for c, e in ((0, 1), (3, -7), (2**50, 5)):
            p = LaurentPoly(0, (e, p1 - 1, c, 1))
            del resultant_moduli[:]
            assert resultant_with_cyclotomic(p, 2) == sylvester_resultant(p, 2)
            assert p1 in resultant_moduli and crt_primes(resultant_moduli) == resultant_moduli

    def test_last_constant_is_never_inverted(self, resultant_moduli):
        # the last remainder c is raised to a power, not inverted: where it
        # vanishes modulo one prime of the pack, so does its power, and the
        # pack needs no fallback
        p0, p1 = laurent._prime(0), laurent._prime(1)
        # f = t^2 + k p1 t - 1 leaves c = f(1) = k p1 after t - 1 at d = 1;
        # f = t - (1 + p1) leaves c = (1 + p1)^d - 1 = (t^d - 1) mod f itself
        for p, d in ((LaurentPoly(0, (-1, 3 * p1, 1)), 1), (LaurentPoly(0, (-1 - p1, 1)), 5)):
            del resultant_moduli[:]
            value = resultant_with_cyclotomic(p, d)
            assert value == sylvester_resultant(p, d) and value % p1 == 0 and value % p0
            assert len(resultant_moduli) == 1 and resultant_moduli[0] % (p0 * p1) == 0

    def test_bound_covers_products_over_roots_of_unity(self):
        # the result never exceeds ||p||_1^d, so the prime count always suffices
        rng = random.Random(109)
        for _ in range(40):
            p = LaurentPoly(0, [rng.choice((-1, 1)) * rng.randint(0, 3) for _ in range(6)] + [1])
            d = rng.randint(1, 10)
            value = resultant_with_cyclotomic(p, d)
            assert value == sylvester_resultant(p, d)
            assert value <= sum(map(abs, p.coeffs)) ** d


def resultant_bound(p: LaurentPoly, d: int) -> int:
    """B_d, the bound both resultant routes lift under."""
    return next(itertools.islice(laurent._resultant_bounds(list(p.coeffs)), d - 1, None))


class TestResultantBound:
    """|Res(p^, t^d - 1)| <= B_d <= ||p||_1^d, B_d = min(||p||_1^d, 2^n M^d)
    with M the rounded-up Mahler bound after Graeffe steps."""

    @staticmethod
    def check(p: LaurentPoly, d: int) -> int:
        value = sylvester_resultant(p, d)
        assert value <= resultant_bound(p, d) <= sum(map(abs, p.coeffs)) ** d
        return value

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=13), st.integers(1, 60))
    @example([3, -7, 1], 60)
    @example([2**70, 1, 2**70], 1)
    def test_covers_the_resultant(self, coeffs, d):
        p = LaurentPoly(0, coeffs)
        assume(p)
        self.check(p, d)

    def test_cyclotomic_factors(self):
        # M(c * Phi_3 * Phi_4 * Phi_5) = |c|, and R_d = 0 whenever 3, 4 or 5 divides d
        cyclotomic = mul(mul(P("t^2 + t + 1"), P("t^2 + 1")), P("t^4 + t^3 + t^2 + t + 1"))
        for c in (1, -1, 2, 97):
            p = mul(cyclotomic, c)
            for d in range(1, 41):
                value = self.check(p, d)
                assert (value == 0) == any(d % k == 0 for k in (3, 4, 5))
        # M = 5 exactly; three Graeffe steps bound it within 10%
        one = 2**laurent._MAHLER_FRACTION_BITS
        assert 5 * one <= laurent._mahler_bound(list(mul(cyclotomic, 5).coeffs)) < 5.5 * one

    def test_leading_coefficient_on_first_prime(self):
        q = laurent._prime(0)
        for coeffs in ((5, -3, q), (1, 0, -7, 2 * q), (q, q)):
            p = LaurentPoly(0, coeffs)
            for d in (1, 2, 7, 30):
                self.check(p, d)

    def test_units(self):
        for p in (LaurentPoly(0, (1,)), LaurentPoly(0, (-1,)), LaurentPoly(5, (-1,))):
            assert list(itertools.islice(laurent._resultant_bounds(list(p.coeffs)), 60)) == [1] * 60

    def test_near_tight_family(self):
        # |Res(t + a, t^d - 1)| = a^d + 1 at odd d, against B_d of about 2 a^d
        for a in (1, 2, 3, 10, 2**20, 2**70):
            p = LaurentPoly(0, (a, 1))
            for d in range(1, 61, 2):
                assert self.check(p, d) == a**d + 1
            if a >= 2**20:  # rounding costs under a part in 2^30 of 2 a^d
                assert resultant_bound(p, 59) * 2**30 < 2 * a**59 * (2**30 + 1)


def eager_bounds(f: list[int], dmax: int) -> list[int]:
    """B_1..B_dmax with the Mahler bound taken up front: the reference that
    the lazy _resultant_bounds must equal."""
    norm, m = sum(map(abs, f)), laurent._mahler_bound(f)
    l1, mahler, out = 1, 1 << (len(f) - 1), []
    for _ in range(dmax):
        l1 *= norm
        mahler = -(-mahler * m >> laurent._MAHLER_FRACTION_BITS)
        out.append(min(l1, mahler))
    return out


class TestLazyMahlerBound:
    """_resultant_bounds computes the Mahler bound only at the first d where
    ||f||_1^d passes 2^n |lc|^d, and every B_d is the eager one."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=16),
           st.sampled_from((1, -1, 2, 7, 2**40)))
    @example([-1, -1] + [0] * 8 + [1], 1)  # t^10 - t - 1: ||f||_1 wins to d = 10
    @example([1, -3, 1], 1)
    def test_against_the_eager_bounds(self, coeffs, lc):
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = (coeffs[-1] or 1) * lc
        lazy = list(itertools.islice(laurent._resultant_bounds(coeffs), 80))
        assert lazy == eager_bounds(coeffs, 80)

    def test_the_winner_changes_along_d(self):
        rng = random.Random(181)
        both = 0
        for _ in range(60):
            n = rng.randint(4, 24)
            f = [rng.choice((-1, 1))] + [rng.randint(-1, 1) for _ in range(n - 1)] + [1]
            lazy = list(itertools.islice(laurent._resultant_bounds(f), 120))
            assert lazy == eager_bounds(f, 120)
            norm = sum(map(abs, f))
            wins = [bound == norm ** d for d, bound in enumerate(lazy, 1)]
            both += wins[0] and not wins[-1]
        assert both >= 20  # ||f||_1 wins at d = 1 and Mahler at d = 120

    def test_no_mahler_bound_while_the_norm_wins(self, monkeypatch):
        calls = []
        mahler_bound = laurent._mahler_bound

        def counting(f):
            calls.append(len(f))
            return mahler_bound(f)

        monkeypatch.setattr(laurent, "_mahler_bound", counting)
        p = P("t^10000 - t - 1")
        assert resultant_with_cyclotomic(p, 2) == 1
        assert calls == []
        # t^10 - t - 1: 3^6 <= 2^10 < 3^7, so the bound is taken at d = 7
        bounds = laurent._resultant_bounds([-1, -1] + [0] * 8 + [1])
        assert list(itertools.islice(bounds, 6)) == [3**d for d in range(1, 7)]
        assert calls == []
        next(bounds)
        assert calls == [11]


def per_degree(p: LaurentPoly, dmax: int) -> dict[int, int]:
    """The sweep as one resultant_with_cyclotomic call per d: the oracle of
    cyclotomic_resultants."""
    return {d: resultant_with_cyclotomic(p, d) for d in range(2, dmax + 1)}


class TestCyclotomicResultants:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(-4, 4), st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=9),
           st.booleans(), st.integers(1, 40))
    def test_against_per_degree(self, low, coeffs, lc_on_first_prime, dmax):
        if lc_on_first_prime:
            coeffs[-1] = (coeffs[-1] or 1) * (2**61 - 1)
        p = LaurentPoly(low, coeffs)
        if not p:
            with pytest.raises(ValueError, match="zero polynomial"):
                per_degree(p, max(dmax, 2))
            with pytest.raises(ValueError, match="zero polynomial"):
                cyclotomic_resultants(p, max(dmax, 2))
        else:
            assert cyclotomic_resultants(p, dmax) == per_degree(p, dmax)

    def test_leading_coefficient_on_first_prime(self):
        q = laurent._prime(0)
        for text in ("t^2 - 3t + 1", "2t^3 - t + 5", "t - 1"):
            p = mul(P(text), q)
            assert cyclotomic_resultants(p, 25) == per_degree(p, 25)

    @pytest.fixture
    def moduli(self, monkeypatch):
        """The moduli the sweep draws, in order: the products of its packs."""
        drawn = []
        packs = laurent._crt_packs

        def recording(lc, bound):
            for pack in packs(lc, bound):
                drawn.append(math.prod(pack))
                yield pack

        monkeypatch.setattr(laurent, "_crt_packs", recording)
        return drawn

    def test_moduli_skip_primes_of_the_leading_coefficient(self, moduli):
        # the first nine primes divide lc: they span the first modulus and
        # one prime of the second, so the first modulus drawn is primes 9..16
        lc = math.prod(laurent._prime(k) for k in range(9))
        for coeffs in ((5, -3, lc), (1, 0, -7, 2 * lc)):
            p = LaurentPoly(0, coeffs)
            moduli.clear()
            assert cyclotomic_resultants(p, 12) == per_degree(p, 12)
            assert moduli[0] == math.prod(laurent._prime(k) for k in range(9, 17))
            assert all(math.gcd(q, lc) == 1 for q in moduli)

    def test_bound_over_several_moduli(self, moduli):
        # B_25 has about 1800 bits: three full moduli of about 488 bits and
        # a last one cut to fit
        p = LaurentPoly(-2, (2**70 + 3, -5, 2**70 - 1, 7))
        expected = per_degree(p, 25)
        moduli.clear()  # those of the per-degree oracle
        assert cyclotomic_resultants(p, 25) == expected
        assert len(moduli) >= 3
        assert len(set(moduli)) == len(moduli)
        assert all(q.bit_length() > laurent._CRT_PACK * 60 for q in moduli[:-1])

    def test_moduli_cover_the_last_bound_and_no_more(self, moduli):
        rng = random.Random(131)
        for _ in range(20):
            p = LaurentPoly(0, [rng.randint(-2**40, 2**40) for _ in range(rng.randint(2, 7))])
            dmax = rng.randint(2, 60)
            expected = per_degree(p, dmax)
            moduli.clear()  # those of the per-degree oracle
            assert cyclotomic_resultants(p, dmax) == expected
            drawn, k = math.prod(moduli), 0  # no prime divides lc: primes 0..k - 1
            while drawn % laurent._prime(k) == 0:
                k += 1
            assert drawn == math.prod(laurent._prime(j) for j in range(k))
            assert drawn > 2 * resultant_bound(p, dmax) >= drawn // laurent._prime(k - 1)

    def test_moduli_end_at_the_first_prime_past_twice_the_bound(self):
        # packs of _CRT_PACK primes, the last cut at the first prime past 2 * bound
        pack = laurent._CRT_PACK
        for k in range(1, 3 * pack + 2):
            product = math.prod(laurent._prime(j) for j in range(k))
            for bound, primes in (((product - 1) // 2, k), (product - 1, k + 1)):
                expected = [tuple(laurent._prime(j) for j in range(i, min(i + pack, primes)))
                            for i in range(0, primes, pack)]
                assert list(laurent._crt_packs(3, bound)) == expected

    def test_seifert_sweep_draws_one_modulus(self, moduli):
        # an 8 x 8 Seifert matrix: ||delta||_1^40 needs a second modulus, B_40 does not
        delta = alexander_polynomial(random_seifert_matrix(8, random.Random(1)))
        expected = per_degree(delta, 40)
        moduli.clear()  # those of Gamma, char_poly(Gamma) and the per-degree oracle
        assert 2 * sum(map(abs, delta.coeffs)) ** 40 > math.prod(laurent._prime(k) for k in range(8))
        assert cyclotomic_resultants(delta, 40) == expected
        assert len(moduli) == 1

    def test_sweep_up_to_the_cap(self):
        # the largest sweep of t^2 - 3t + 1 under MAX_RESULTANT_BITS
        p = P("t^2 - 3t + 1")
        sweep = cyclotomic_resultants(p, 3528)
        assert list(sweep) == list(range(2, 3529))
        for d in (2, 1000, 3527, 3528):
            assert sweep[d] == resultant_with_cyclotomic(p, d)

    def test_known_values_zero_and_short_sweeps(self):
        # trefoil: H1 of the d-fold branched covers has order 3, 4, 3, 1, 0 (infinite)
        assert cyclotomic_resultants(P("t^2 - t + 1"), 6) == {2: 3, 3: 4, 4: 3, 5: 1, 6: 0}
        with pytest.raises(ValueError, match="resultant of the zero polynomial is undefined"):
            cyclotomic_resultants(ZERO, 2)
        # like the per-degree loop, an empty range computes nothing
        for dmax in (-3, 0, 1):
            assert cyclotomic_resultants(ZERO, dmax) == {} == per_degree(ZERO, dmax)


def palindromic(rng: random.Random, n: int, bits: int) -> list[int]:
    """Ascending coefficients a_k = a_(n-k) of degree n, a_0 != 0, |a_k| <= 2^bits."""
    half = [rng.randint(-2**bits, 2**bits) for _ in range(n // 2 + 1)]
    half[0] = half[0] or 1
    return [half[min(k, n - k)] for k in range(n + 1)]


class TestPalindromicSweep:
    """A palindromic p^ runs Newton's identities to E_(n // 2) and folds the
    rest into the sum: e_(n-k)(lambda^d) = pi^d e_k(lambda^d) with
    pi = (-1)^n, so term n - k is (-1)^(n(d+1)) times term k."""

    def test_against_single_d_and_sylvester(self):
        rng = random.Random(139)
        first = laurent._prime(0)
        for n in range(1, 13):  # odd degrees have the root -1
            for bits, scale in ((3, 1), (62, 1), (8, first)):  # lc a multiple of _prime(0)
                p = LaurentPoly(rng.randint(-3, 3), [c * scale for c in palindromic(rng, n, bits)])
                dmax = rng.randint(2, 60)
                sweep = cyclotomic_resultants(p, dmax)
                assert sweep == per_degree(p, dmax)
                for d in {2, rng.randint(2, dmax)}:
                    assert sweep[d] == sylvester_resultant(p, d)

    def test_other_polynomials_keep_the_full_loop(self):
        # anti-palindromic (roots closed under inversion, product (-1)^(n+1)),
        # palindromic but for the leading coefficient, and palindromic up to sign
        rng = random.Random(149)
        for n in range(1, 13):
            f = palindromic(rng, n, 30)
            anti = [0 if 2 * k == n else c if 2 * k < n else -c for k, c in enumerate(f)]
            for coeffs in (anti, f[:-1] + [2 * f[-1]], [-c for c in f[:-1]] + f[-1:]):
                p = LaurentPoly(0, coeffs)
                assert coeffs != coeffs[::-1]
                dmax = rng.randint(2, 40)
                sweep = cyclotomic_resultants(p, dmax)
                assert sweep == per_degree(p, dmax)
                assert sweep[dmax] == sylvester_resultant(p, dmax)

    def test_power_sums_run_to_half_of_the_degree(self, monkeypatch):
        tops = []

        def recording(w, top, q):
            tops.append(top)
            return power_sums(w, top, q)

        power_sums = laurent._power_sums
        monkeypatch.setattr(laurent, "_power_sums", recording)
        knots = [alexander_polynomial(random_seifert_matrix(size, random.Random(size)))
                 for size in (2, 4, 6, 8)]
        cases = [(delta, (len(delta.coeffs) - 1) // 2) for delta in knots]  # every knot's delta
        cases += [(P("t^3 - 2t^2 - 2t + 1"), 1), (P("2t^3 - 3t + 5"), 3),
                  (P("t^2 - 1"), 2), (P("3t^5 + t^4 - t - 3"), 5)]
        for p, half in cases:
            tops.clear()
            cyclotomic_resultants(p, 40)
            assert tops and tops == [half * 40] * len(tops)


def sweep_cases(name: str) -> list[tuple[LaurentPoly, int]]:
    rng = random.Random(167)
    if name == "golden":
        return [(P("t^2 - 3t + 1"), 1200)]
    if name == "degree-8":  # an 8 x 8 Seifert matrix's delta
        return [(P("78t^8 - 638t^7 + 2256t^6 - 4528t^5 + 5665t^4"
                   " - 4528t^3 + 2256t^2 - 638t + 78"), 200)]
    if name == "lc-on-first-prime":
        return [(LaurentPoly(0, (5, -3, 1, 2 * laurent._prime(0))), 40),
                (LaurentPoly(-1, [c * laurent._prime(0) for c in palindromic(rng, 4, 3)]), 40)]
    if name == "odd-palindromic":
        return [(LaurentPoly(0, palindromic(rng, n, 24)), 90) for n in (3, 5, 7)]
    # not palindromic, with a Mahler measure near 2^40 carried by one root
    # or by two, so that B_d is within a few bits of |R_d|, of either sign
    return [(LaurentPoly(0, (-5, 3, -(2**40), 1)), 50),
            (LaurentPoly(0, (7, 2**40 + 1, rng.randint(-9, 9), -1)), 50)]


def finishing_packs(p: LaurentPoly, dmax: int) -> list[int]:
    """For d = 2..dmax, the index of the pack of the sweep's _crt_packs
    whose product with the packs before it first exceeds 2 B_d."""
    bounds = list(itertools.islice(laurent._resultant_bounds(list(p.coeffs)), dmax))
    packs = laurent._crt_packs(p.coeffs[-1], bounds[-1])
    products = list(itertools.accumulate(map(math.prod, packs), operator.mul))
    return [next(k for k, m in enumerate(products) if m > 2 * bound) for bound in bounds[1:]]


class TestSweepAcrossPacks:
    """Sweeps whose bound B_d passes pack boundaries at several d: each pack
    sweeps only the d that the packs before it do not cover, and each d is
    finished at its own modulus."""

    @pytest.mark.parametrize("name", ["golden", "degree-8", "lc-on-first-prime",
                                      "odd-palindromic", "not-palindromic"])
    def test_every_degree_against_single_d(self, name):
        for p, dmax in sweep_cases(name):
            assert len(set(finishing_packs(p, dmax))) >= 4
            assert cyclotomic_resultants(p, dmax) == per_degree(p, dmax)


class TestResultantCap:
    """The CRT bound ||p||_1^d is capped at MAX_RESULTANT_BITS bits, for one
    d and for a sweep (at dmax), and a sweep's work at MAX_SWEEP_WORK,
    before any prime is drawn."""

    @pytest.fixture
    def no_primes(self, monkeypatch):
        def refuse():
            raise AssertionError("a prime was drawn")

        monkeypatch.setattr(laurent, "_primes", refuse)

    def test_cap_fits_the_default_integer_print_limit(self):
        assert len(str(2**laurent.MAX_RESULTANT_BITS)) <= 4300

    def test_over_the_cap_draws_no_prime(self, no_primes):
        cap = laurent.MAX_RESULTANT_BITS
        for p, d in ((P("t^2 - 3t + 1"), 3529), (P("t^2 - 3t + 1"), 10**6),
                     (LaurentPoly(0, (2,)), cap + 1), (P("2t - 1"), 6000),
                     (LaurentPoly(-3, (2**70, 1)), 118)):
            bits = math.ceil(d * math.log2(sum(map(abs, p.coeffs))))
            message = (f"the resultant with t^{d} - 1 is bounded by ||p||_1^{d}, about "
                       f"{bits} bits, above the cap of {cap} bits")
            with pytest.raises(SizeLimitError) as info:
                resultant_with_cyclotomic(p, d)
            assert str(info.value) == message
            with pytest.raises(SizeLimitError) as info:
                cyclotomic_resultants(p, d)
            assert str(info.value) == message

    def test_at_the_cap(self):
        cap = laurent.MAX_RESULTANT_BITS
        two = LaurentPoly(0, (2,))  # ||p||_1^d = 2^d: exactly d bits
        assert resultant_with_cyclotomic(two, cap) == 2**cap
        assert cyclotomic_resultants(two, cap)[cap] == 2**cap
        value = resultant_with_cyclotomic(P("t^2 - 3t + 1"), 3528)
        assert 0 < value < 2**cap and len(str(value)) <= 4300

    def test_unit_sweeps_are_capped_at_dmax(self, no_primes):
        # ||p||_1 = 1 bounds no resultant, but a sweep makes dmax - 1 of them:
        # its norm is floored at 2, so dmax itself is the bit count
        cap = laurent.MAX_RESULTANT_BITS
        for p in (LaurentPoly(0, (1,)), LaurentPoly(0, (-1,)), LaurentPoly(-7, (-1,))):
            assert cyclotomic_resultants(p, cap) == dict.fromkeys(range(2, cap + 1), 1)
            for dmax in (cap + 1, 10**9):
                with pytest.raises(SizeLimitError) as info:
                    cyclotomic_resultants(p, dmax)
                assert str(info.value) == (
                    f"the resultant with t^{dmax} - 1 is bounded by ||p||_1^{dmax}, about "
                    f"{dmax} bits, above the cap of {cap} bits")

    def test_sweep_work_over_the_cap_draws_no_prime(self, no_primes):
        # packs * (n h dmax + dmax h^2), h = n for these non-palindromic p^
        cap = laurent.MAX_SWEEP_WORK
        for text, dmax, work in (("t^2000 - 1", 30, 240_000_000),
                                 ("t^8000 - t - 1", 30, 3_840_000_000),
                                 ("t^400 - t - 1", 32, 10_240_000)):
            with pytest.raises(SizeLimitError) as info:
                cyclotomic_resultants(P(text), dmax)
            degree = P(text).degree
            assert str(info.value) == (
                f"the resultant sweep to d = {dmax} of a polynomial of degree {degree} needs "
                f"{work} units of power-sum and Newton work, above the cap of {cap}")

    def test_sweep_work_just_under_the_cap(self):
        # t^400 - t - 1 to 31 charges 9,920,000 over one pack
        p = P("t^400 - t - 1")
        assert 400 * 400 * 31 * 2 <= laurent.MAX_SWEEP_WORK < 400 * 400 * 32 * 2
        sweep = cyclotomic_resultants(p, 31)
        assert list(sweep) == list(range(2, 32))
        for d in (2, 30, 31):
            assert sweep[d] == resultant_with_cyclotomic(p, d)

    def test_units_have_no_cap(self, no_primes):
        for c in (1, -1):
            assert resultant_with_cyclotomic(LaurentPoly(0, (c,)), 10**9) == 1
            assert cyclotomic_resultants(LaurentPoly(4, (c,)), 50) == dict.fromkeys(range(2, 51), 1)


class TestResultant:
    def test_trefoil_alexander_d2(self):
        assert resultant_with_cyclotomic(P("t^2 - t + 1"), 2) == 3

    def test_shared_root(self):
        for d in (1, 2, 3, 5, 8):
            assert resultant_with_cyclotomic(P("t - 1"), d) == 0

    def test_figure8_alexander_d2(self):
        assert resultant_with_cyclotomic(P("t^2 - 3t + 1"), 2) == 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resultant_with_cyclotomic(ZERO, 2)

    def test_constant(self):
        assert resultant_with_cyclotomic(P("3"), 4) == 81

    def test_matches_float_product_over_roots_of_unity(self):
        rng = random.Random(7)
        for _ in range(60):
            deg = rng.randint(0, 6)
            coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
            if not any(coeffs):
                continue
            p = LaurentPoly(rng.randint(-3, 3), coeffs)
            d = rng.randint(1, 8)
            exact = resultant_with_cyclotomic(p, d)
            prod = 1.0 + 0.0j
            for k in range(d):
                prod *= evaluate(p, cmath.exp(2j * cmath.pi * k / d))
            assert math.isclose(exact, abs(prod), rel_tol=1e-6, abs_tol=1e-6)


class TestText:
    def test_descending_output(self):
        assert to_text(P("1 - s^3 + s^4 - s")) == "s^4 - s^3 - s + 1"
        assert to_text(P("2s^-1")) == "2s^-1"
        assert to_text(ZERO) == "0"
        assert to_text(P("-s + 1")) == "-s + 1"

    def test_variable_letter(self):
        assert to_text(P("t^2-3t+1"), var="t") == "t^2 - 3t + 1"
        assert to_text(P("s^2 - 1"), var="t") == "t^2 - 1"

    def test_parse_compact_and_spaced(self):
        assert P("t^2-3t+1") == LaurentPoly(0, (1, -3, 1))
        assert P(" s^4 - s^3 - s + 1 ") == LaurentPoly(0, (1, -1, 0, -1, 1))
        assert P("s^-2") == LaurentPoly(-2, (1,))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            P("s^")
        with pytest.raises(ParseError):
            P("s + t")
        with pytest.raises(ParseError):
            P("")
        with pytest.raises(ParseError):
            P("3..4")

    @given(polys)
    def test_round_trip(self, p):
        assert parse_laurent(to_text(p)) == p


class TestBinpow:
    def test_product_count_and_value(self):
        for n in range(70):
            calls = []

            def counted(a, b):
                calls.append((a, b))
                return a * b

            assert _binpow(3, n, counted, 1) == 3 ** n
            # one square per bit below the top, one product per extra set bit
            expected = n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0
            assert len(calls) == expected

    def test_polynomial_powers(self):
        p = P("s - 2 + s^-1")
        acc = P("1")
        for n in range(6):
            assert _binpow(p, n, mul, P("1")) == acc
            acc = mul(acc, p)


class TestResultantCapInIntegers:
    def test_the_cap_is_exact_where_a_float_product_rounds(self):
        # (2^64)^128 is 2^8192, at the cap; (2^64 + 1)^128 is above it,
        # though 128 * log2(2^64 + 1) rounds to 8192.0 as a double
        laurent._check_resultant_bound(2**64, 128)
        with pytest.raises(SizeLimitError, match="about 8192 bits, above the cap of 8192 bits"):
            laurent._check_resultant_bound(2**64 + 1, 128)

    def test_a_degree_past_the_float_range_is_refused(self):
        d = 10**400
        with pytest.raises(SizeLimitError, match=r"^the resultant with t\^1000"):
            laurent._check_resultant_bound(3, d)
        with pytest.raises(SizeLimitError, match=r"about 2\^\d+ or more bits"):
            laurent._check_resultant_bound(2**20000, 10**4299)

    def test_unit_norm_passes_at_any_degree(self):
        laurent._check_resultant_bound(1, 10**4000)


class TestNumberText:
    def test_decimal_up_to_the_digit_limit(self):
        assert number_text(12345) == "12345"
        assert number_text(10**4299) == "1" + "0" * 4299
        assert number_text(2**20000) == "2^20000 or more"
        assert number_text(2**20000 - 1) == "2^19999 or more"
