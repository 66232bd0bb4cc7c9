import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.errors import ParseError
from twistalex.laurent import (LaurentPoly, S, ZERO, _binpow, canonicalize,
                               divexact, divides, gcd, is_monic,
                               parse_laurent, resultant_with_cyclotomic,
                               to_text)


def P(text):
    return parse_laurent(text)


polys = st.builds(LaurentPoly, st.integers(-5, 5),
                  st.lists(st.integers(-9, 9), max_size=7))
nonzero_polys = polys.filter(lambda p: not p.is_zero)


class TestRingOps:
    def test_difference_of_squares(self):
        assert P("s - 1") * P("s + 1") == P("s^2 - 1")

    def test_additive_identity(self):
        for text in ("s^4 - s^3 - s + 1", "0", "2s^-1", "-7"):
            assert P(text) + ZERO == P(text)

    def test_exponent_shift(self):
        # (s^-1 + 1) * s = 1 + s, multiplication shifts exponents exactly
        assert P("s^-1 + 1") * S == P("1 + s")

    def test_zero_is_unique(self):
        assert P("s - 1") - P("s - 1") == ZERO
        assert (P("s - 1") - P("s - 1")).low == 0

    @given(polys, polys, polys)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert p + (-p) == ZERO

    @given(polys, polys)
    def test_results_trimmed(self, p, q):
        for result in (p + q, p * q, p - q):
            if result.coeffs:
                assert result.coeffs[0] != 0 and result.coeffs[-1] != 0


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
        assert canonicalize(p.shift(n) * u) == c


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
        if not g.is_zero:
            assert divexact(p, g) * g == p
            assert divexact(q, g) * g == q

    @given(nonzero_polys, polys, polys)
    @settings(deadline=None)
    def test_distributes_over_common_factor(self, p, q, r):
        lhs = gcd(p * q, p * r)
        rhs = canonicalize(canonicalize(p) * gcd(q, r))
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
        assert is_monic(p * q) == (is_monic(p) and is_monic(q))


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
                prod *= p.evaluate(cmath.exp(2j * cmath.pi * k / d))
            assert math.isclose(exact, abs(prod), rel_tol=1e-6, abs_tol=1e-6)


class TestText:
    def test_descending_output(self):
        assert to_text(P("1 - s^3 + s^4 - s")) == "s^4 - s^3 - s + 1"
        assert to_text(P("2s^-1")) == "2s^-1"
        assert to_text(ZERO) == "0"
        assert to_text(P("-s + 1")) == "-s + 1"

    def test_variable_letter(self):
        assert to_text(P("t^2-3t+1"), var="t") == "t^2 - 3t + 1"
        assert to_text(P("s^2 - 1"), var="t", compact=True) == "t^2-1"

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
        assert parse_laurent(to_text(p, compact=True)) == p


class TestBinpow:
    def test_product_count_and_value(self):
        for n in range(70):
            calls = []

            def mul(a, b):
                calls.append((a, b))
                return a * b

            assert _binpow(3, n, mul, 1) == 3 ** n
            # one square per bit below the top, one product per extra set bit
            expected = n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0
            assert len(calls) == expected

    def test_polynomial_powers(self):
        p = P("s - 2 + s^-1")
        acc = P("1")
        for n in range(6):
            assert p ** n == acc
            acc = acc * p

