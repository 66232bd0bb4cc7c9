import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.cli import _order_check
from twistalex import cli, exactla, seifert
from twistalex.errors import InternalError, InvariantError, SizeLimitError
from twistalex.exactla import IntMatrix, smith_normal_form
from twistalex.fixtures import load_fixture
from twistalex.laurent import LaurentPoly, _prime, parse_laurent, resultant_with_cyclotomic
from twistalex.seifert import (SeifertMatrix, alexander_polynomial, branched_cover,
                               branched_cover_homology_from_monodromy, random_seifert_matrix)

import seifert_oracle
from seifert_oracle import branched_presentation, matpow, monodromy_power_presentation


def P(text):
    return parse_laurent(text)


TREFOIL = SeifertMatrix([[-1, 1], [0, -1]])
FIG8 = SeifertMatrix([[1, 1], [0, -1]])
UNKNOT = SeifertMatrix(IntMatrix(0, 0, ()))


class TestSeifertMatrix:
    def test_fixture_payloads(self):
        assert load_fixture("trefoil-seifert").matrix == TREFOIL.matrix
        assert load_fixture("figure8-seifert").matrix == FIG8.matrix

    def test_rejects_degenerate(self):
        with pytest.raises(InvariantError):
            SeifertMatrix([[1, 0], [0, 1]])
        with pytest.raises(InvariantError):
            SeifertMatrix([[1, 2], [0, 1]])
        with pytest.raises(InvariantError):
            SeifertMatrix([[1, 2, 3], [0, 1, 2]])

    def test_non_unit_det_is_not_taken_twice(self, monkeypatch):
        # det(S - S^T) is lifted with Gamma by the one solve, so naming it
        # costs no char_poly, even where a CRT prime divides it
        calls = []

        def counted(h):
            calls.append(h.rows)
            return char_poly(h)

        char_poly = exactla.char_poly
        monkeypatch.setattr(exactla, "char_poly", counted)
        monkeypatch.setattr(seifert, "char_poly", counted)
        p = _prime(0)
        for rows, det in (([[1, 2], [0, 1]], 4), ([[0, p], [0, 0]], p * p)):
            calls.clear()
            with pytest.raises(InvariantError) as info:
                SeifertMatrix(rows)
            assert str(info.value) == f"det(S - S^T) = {det}; a knot Seifert matrix needs a unit"
            assert calls == []

    def test_non_unit_det_past_the_char_poly_cap_is_named(self, monkeypatch):
        # a det too large for char_poly is no reason to exit 65: with no
        # char_poly work left, every det is still named exactly, by
        # SeifertMatrix and by IntMatrix.det alike: p^2 vanishes modulo the
        # first prime of its pack and not the rest, and an odd-sized
        # S - S^T has det 0
        monkeypatch.setattr(exactla, "MAX_CHAR_POLY_WORK", 0)
        p = _prime(0)
        for rows, det in (([[1, 2], [0, 1]], 4), ([[0, p], [0, 0]], p * p),
                          ([[0, 2, 1], [0, 0, 3], [0, 0, 0]], 0)):
            with pytest.raises(InvariantError) as info:
                SeifertMatrix(rows)
            assert str(info.value) == f"det(S - S^T) = {det}; a knot Seifert matrix needs a unit"
        assert IntMatrix.from_rows([[0, p], [-p, 0]]).det() == p * p

    def test_gamma_entries_past_the_hadamard_bound_of_s_minus_st(self):
        # S - S^T = [[0, 1], [-1, 0]] has Hadamard bound 2: Gamma's entries
        # lift only under the bound's factor for S's column sums
        n = 2**200
        s = SeifertMatrix([[n, 1], [0, n]])
        assert s.gamma == IntMatrix.from_rows([[0, -n], [n, 1]])


class TestAlexanderPolynomial:
    def test_trefoil(self):
        assert alexander_polynomial(TREFOIL) == P("t^2 - t + 1")

    def test_figure_eight(self):
        assert alexander_polynomial(FIG8) == P("t^2 - 3t + 1")

    def test_unknot_convention(self):
        assert alexander_polynomial(UNKNOT) == P("1")

    def test_symmetry_up_to_units(self):
        # det(tS - S^T) and t^2g det(t^-1 S - S^T) agree after canonicalization
        from bareiss_oracle import minors_at_node
        from twistalex.exactla import LambdaMatrix
        from twistalex.laurent import canonicalize
        rng = random.Random(1)
        for _ in range(15):
            s = random_seifert_matrix(rng.choice((2, 4)), rng)
            m = s.matrix
            n = m.rows
            ents = [LaurentPoly.from_dict({-1: m.row(i)[j], 0: -m.row(j)[i]})
                    for i in range(n) for j in range(n)]
            det = minors_at_node(LambdaMatrix(n, n, ents))[0]
            reversed_det = LaurentPoly(det.low + n, det.coeffs)
            assert canonicalize(reversed_det) == alexander_polynomial(s)


class TestBranchedPresentation:
    def test_trefoil_double(self):
        assert branched_presentation(TREFOIL, 2) == IntMatrix.from_rows(
            [[-2, 1], [1, -2]])

    def test_figure8_double(self):
        assert branched_presentation(FIG8, 2) == IntMatrix.from_rows(
            [[2, 1], [1, -2]])

    def test_block_placement_d3(self):
        m = branched_presentation(FIG8, 3)
        assert (m.rows, m.cols) == (4, 4)
        s = FIG8.matrix
        for i in range(2):
            for j in range(2):
                sym = s.row(i)[j] + s.row(j)[i]
                assert m.row(i)[j] == sym  # diagonal block
                assert m.row(i + 2)[j + 2] == sym
                assert m.row(i)[j + 2] == -s.row(j)[i]  # superdiagonal: -S^T
                assert m.row(i + 2)[j] == -s.row(i)[j]  # subdiagonal: -S

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            branched_presentation(TREFOIL, 1)

    def test_row_cap(self, monkeypatch):
        assert seifert.MAX_PRESENTATION_ROWS == 1000
        assert branched_presentation(TREFOIL, 400).rows == 798
        # fails before any allocation, naming n, d and the cap
        with pytest.raises(SizeLimitError, match=r"1000000-fold .* 2x2 .* cap of 1000"):
            branched_presentation(TREFOIL, 10**6)
        monkeypatch.setattr(seifert, "MAX_PRESENTATION_ROWS", 6)
        assert branched_presentation(TREFOIL, 4).rows == 6
        with pytest.raises(SizeLimitError, match="8 rows, above the cap of 6"):
            branched_presentation(TREFOIL, 5)
        assert branched_presentation(UNKNOT, 10**6).rows == 0


class TestBranchedHomology:
    def test_trefoil_double(self):
        inv = branched_cover(TREFOIL, 2).homology
        assert inv.torsion == (3,) and inv.order == 3

    def test_figure8_double(self):
        inv = branched_cover(FIG8, 2).homology
        assert inv.torsion == (5,) and inv.order == 5

    def test_unknot(self):
        for d in (2, 3, 5):
            assert branched_cover(UNKNOT, d).homology.is_trivial

    def test_matches_monodromy_pipeline_on_trefoil(self):
        h = load_fixture("trefoil-monodromy").endo
        assert (branched_cover(TREFOIL, 2).homology.torsion
                == branched_cover_homology_from_monodromy(h, 2).torsion)


class TestResultantOrderCheck:
    def test_trefoil_double(self):
        assert _order_check(TREFOIL, 2) == (3, 3)

    def test_figure8_triple(self):
        order, resultant = _order_check(FIG8, 3)
        assert order == resultant > 0

    def test_trivial_alexander(self):
        for d in range(2, 11):
            assert _order_check(UNKNOT, d) == (1, 1)

    def test_infinite_homology_encoded_as_zero(self):
        # trefoil 6-fold branched cover has infinite H1; resultant vanishes
        assert _order_check(TREFOIL, 6) == (0, 0)

    def test_random_agreement(self):
        rng = random.Random(2)
        for _ in range(20):
            s = random_seifert_matrix(rng.choice((2, 4)), rng)
            for d in range(2, 7):
                order, resultant = _order_check(s, d)
                assert order == resultant


class TestMonodromyPower:
    def test_figure8_h_matrix(self):
        mp = monodromy_power_presentation(FIG8, 2)
        assert mp.h == IntMatrix.from_rows([[2, -1], [-1, 1]])

    def test_figure8_n2_det(self):
        assert monodromy_power_presentation(FIG8, 2).det_power_minus_identity == -5

    def test_figure8_det_identity_through_n12(self):
        h = monodromy_power_presentation(FIG8, 2).h
        for n in range(2, 13):
            hn = matpow(h, n)
            a_n, c_n = hn.row(0)[0], hn.row(1)[1]
            det = monodromy_power_presentation(FIG8, n).det_power_minus_identity
            assert det == 2 - a_n - c_n
            assert det <= -5

    def test_finite_order_gives_zero(self):
        # H for the trefoil matrix has order 6, so H^6 - I is singular
        assert monodromy_power_presentation(TREFOIL, 6).det_power_minus_identity == 0

    def test_rejects_non_unimodular(self):
        s = SeifertMatrix([[2, 1], [0, 1]])  # det(S - S^T) = 1 but det(S) = 2
        with pytest.raises(InvariantError):
            monodromy_power_presentation(s, 2)


class TestCharacterJump:
    def test_trefoil_d2_r3(self):
        jump = branched_cover(TREFOIL, 2, 3).jump
        assert jump is not None
        assert jump.order == 3
        assert jump.jump[1] == 1

    def test_none_for_trivial_homology(self):
        assert branched_cover(UNKNOT, 2, 2).jump is None
        assert branched_cover(TREFOIL, 2, 2).jump is None  # Z/3 has no Z/2 quotient

    def test_figure8_d2_r5(self):
        jump = branched_cover(FIG8, 2, 5).jump
        assert jump is not None and jump.order == 5

    def test_character_kills_relations_and_jumps(self):
        rng = random.Random(3)
        found = 0
        while found < 30:
            s = random_seifert_matrix(rng.choice((2, 4)), rng)
            d = rng.choice((2, 3))
            hom = branched_cover(s, d).homology
            if hom.order in (None, 1):
                continue
            for r in sorted({p for t in hom.torsion for p in _prime_factors(t)}):
                jump = branched_cover(s, d, r).jump
                assert jump is not None
                pres = branched_presentation(s, d)
                flat = [x for row in jump.character for x in row]
                for j in range(pres.cols):
                    assert sum(flat[i] * pres.row(i)[j] for i in range(pres.rows)) % r == 0
                assert jump.order >= 2
                i, j = jump.jump
                left = jump.character[j - 1][i - 1]
                right = jump.character[j][i - 1] if j <= d - 2 else 0
                assert (left - right) % r != 0
                found += 1


class TestBranchedCover:
    def test_matches_the_separate_pipelines(self):
        # H1 against the block presentation and the resultant, whatever r
        rng = random.Random(6)
        for _ in range(15):
            s = random_seifert_matrix(rng.choice((2, 4)), rng)
            d = rng.randint(2, 5)
            hom = smith_normal_form(branched_presentation(s, d)).cokernel()
            assert _order_check(s, d) == (hom.order or 0,) * 2
            for r in (None, 2, 3, 5, 6):
                cover = branched_cover(s, d, r)
                assert cover.homology == hom
                assert r is not None or cover.jump is None

    def test_homology_and_jump_take_no_resultant(self):
        # S = [[a, 1], [0, a]] has Delta = a^2 t^2 - (2a^2 - 1) t + a^2, whose
        # roots have product 1 and sum x = (2a^2 - 1) / a^2, so H1 of the
        # d-fold cover has order a^(2d) (2 - V_d), V_d = x V_(d-1) - V_(d-2).
        # At a = 2^60, d = 80 that is 9493 bits, but ||Delta||_1^80 has
        # about 9760, above the resultant cap: only the check may raise.
        a, d = 2**60, 80
        s = SeifertMatrix([[a, 1], [0, a]])
        x = Fraction(2 * a * a - 1, a * a)
        v = [Fraction(2), x]
        for _ in range(d - 1):
            v.append(x * v[-1] - v[-2])
        order = a ** (2 * d) * (2 - v[d])
        assert order.denominator == 1 and order.numerator.bit_length() == 9493
        cover = branched_cover(s, d, 3)
        assert cover.homology.order == order
        assert cover.jump is not None and cover.jump.order == 3
        with pytest.raises(SizeLimitError, match="about 9760 bits, above the cap"):
            _order_check(s, d)

    def test_rejects_small_d_and_r(self):
        with pytest.raises(ValueError, match="branched presentation needs d >= 2"):
            branched_cover(TREFOIL, 1, 1)
        with pytest.raises(ValueError, match="a character onto Z/r needs r >= 2"):
            branched_cover(TREFOIL, 2, 1)


# Rows of the largest block presentation the oracle eliminates: its Smith
# form grows entries over Z, so larger ones would slow the suite down.
ORACLE_ROWS = 80


def against_block_oracle(s: SeifertMatrix, d: int, r: int) -> bool:
    """branched_cover(s, d, r) against smith_normal_form of the block
    presentation P: equal invariants, whose order is R_d, a surjection onto Z_r
    exactly when the oracle finds one, and then a character that kills
    every column of P mod r and is onto.  Returns whether one exists."""
    pres = branched_presentation(s, d)
    oracle = smith_normal_form(pres, r)
    hom = oracle.cokernel()
    order = hom.order if hom.order is not None else 0
    assert resultant_with_cyclotomic(alexander_polynomial(s), d) == order
    cover = branched_cover(s, d, r)
    assert cover.homology == hom
    assert (cover.jump is None) == (oracle.character() is None)
    if cover.jump is None:
        return False
    assert len(cover.jump.character) == d - 1
    chi = [x for row in cover.jump.character for x in row]
    assert all(0 <= x < r for x in chi) and math.gcd(r, *chi) == 1
    for j in range(pres.cols):
        assert sum(chi[i] * pres.row(i)[j] for i in range(pres.rows)) % r == 0
    return True


def _small_prime_factors(n: int, below: int = 1000) -> list[int]:
    return [p for p in range(2, below) if n % p == 0 and all(p % q for q in range(2, p))]


class TestBranchedCoverAgainstBlockOracle:
    """Seifert's n x n presentation, with the character pushed to the
    sheets, against the Smith form of the block presentation."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from((0, 2, 4, 6, 8)), st.integers(0, 2**32), st.data())
    def test_against_block_oracle(self, size, seed, data):
        s = random_seifert_matrix(size, random.Random(seed))
        d = data.draw(st.integers(2, min(30, 1 + ORACLE_ROWS // size) if size else 30))
        top = max(branched_cover(s, d).homology.torsion, default=1)
        # half the time r divides the largest invariant factor (prime or
        # composite, so Z_r is a quotient), else r is small and may not be
        onto = [p ** k for p in _small_prime_factors(top) for k in (1, 2) if top % p ** k == 0]
        onto += [top] if top > 1 else []
        small = [2, 3, 4, 5, 6, 9, 12, 25]
        r = data.draw(st.sampled_from(onto if onto and data.draw(st.booleans()) else small))
        against_block_oracle(s, d, r)

    def test_seeded_sweep_reaches_every_case(self):
        # every size up to 8 and d up to 30 (within ORACLE_ROWS), r prime
        # and composite, with and without a surjection
        rng = random.Random(97)
        seen = set()
        for size in (0, 2, 4, 6, 8):
            for d in sorted({2, 3, min(30, 1 + ORACLE_ROWS // size) if size else 30}):
                s = random_seifert_matrix(size, rng)
                top = max(branched_cover(s, d).homology.torsion, default=1)
                primes = _small_prime_factors(top)
                for r in {2, 3, 4, 6, *primes[:2], *(p * p for p in primes[:1])}:
                    onto = against_block_oracle(s, d, r)
                    seen.add((all(r % p for p in range(2, math.isqrt(r) + 1)), onto))
                if top > 1:
                    assert against_block_oracle(s, d, top)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_certificate_refuses_a_wrong_character(self):
        # x = (1, 0) is not killed by M = Gamma^2 - (Gamma - I)^2 mod 3
        # for the trefoil, so its push fails the check
        m = TREFOIL.matrix
        gamma = (m - m.transpose()).solve(m)[1]
        with pytest.raises(InternalError, match="fails its check mod 3"):
            seifert._push_character(m, gamma, (1, 0), 2, 3)
        x = smith_normal_form((matpow(gamma, 2) - matpow(gamma - IntMatrix.identity(2), 2))
                              .transpose(), 3).character()
        assert (seifert._push_character(m, gamma, x, 2, 3),) == (
            branched_cover(TREFOIL, 2, 3).jump.character)

    def test_cap_and_argument_order(self):
        with pytest.raises(SizeLimitError, match=r"the 1000000-fold branched presentation of "
                                                 r"a 2x2 Seifert matrix has 1999998 rows"):
            branched_cover(TREFOIL, 10**6, 1)
        with pytest.raises(ValueError, match="branched presentation needs d >= 2"):
            branched_cover(TREFOIL, 1)
        assert branched_cover(UNKNOT, 10**6, 5).homology.is_trivial


def _powers_oracle(s: SeifertMatrix, d: int) -> IntMatrix:
    """Seifert's M = Gamma^d - (Gamma - I)^d by the tests' own two binary powers."""
    return matpow(s.gamma, d) - matpow(s.gamma - IntMatrix.identity(s.size), d)


def _block_sum(*blocks) -> SeifertMatrix:
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    return SeifertMatrix(rows)


# S = [[0, 1], [0, 0]] has det S = 0, so Gamma is singular and
# char_poly(Gamma) has no constant term
SINGULAR = [[0, 1], [0, 0]]
SINGULAR_GUARD = SeifertMatrix([[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])


class TestBranchedCoverAgainstPowers:
    """The cover matrix r(Gamma), with r = (t^d - (t - 1)^d) mod char_poly(Gamma),
    against the two powers it replaces, and branched_cover against the Smith
    form of the oracle's matrix, character and jump included."""

    @staticmethod
    def check(s: SeifertMatrix, d: int, r: int) -> None:
        oracle = _powers_oracle(s, d)
        assert seifert._cover_matrix(s.gamma, s.gamma_char_poly, [-1, 1], d) == oracle
        smith = smith_normal_form(oracle.transpose(), r)
        x = smith.character()
        jump = None if x is None else seifert._character_jump(
            seifert._push_character(s.matrix, s.gamma, x, d, r), s.size, d, r)
        assert branched_cover(s, d, r) == seifert.BranchedCover(smith.cokernel(), jump)

    def test_seeded_matrices_every_degree(self):
        rng = random.Random(41)
        for size in (0, 2, 4, 6, 8):
            s = random_seifert_matrix(size, rng)
            top = min(60, 1 + seifert.MAX_PRESENTATION_ROWS // size) if size else 60
            for d in range(2, top + 1):
                self.check(s, d, (2, 3, 4, 5)[d % 4])

    def test_at_the_row_cap(self):
        self.check(random_seifert_matrix(8, random.Random(7)), 126, 2)
        self.check(TREFOIL, 501, 2)
        self.check(FIG8, 501, 5)

    def test_singular_gamma(self):
        assert SINGULAR_GUARD.gamma_char_poly.coefficient(0) == 0
        covers = [SINGULAR_GUARD, _block_sum(SINGULAR, SINGULAR),
                  _block_sum(SINGULAR, TREFOIL.matrix.to_rows()),
                  _block_sum(FIG8.matrix.to_rows(), SINGULAR, TREFOIL.matrix.to_rows())]
        for s in covers:
            for d in range(2, 41):
                self.check(s, d, (2, 3, 4, 5)[d % 4])


class TestCoverMatrixCost:
    def test_products_bounded_whatever_d(self, monkeypatch):
        # 2 ceil(sqrt(8)) - 2 = 4 products for an 8 x 8 Gamma, where the
        # oracle's two binary powers at d = 126 take 22; at d = 2, r = 2t - 1
        # takes none
        s = random_seifert_matrix(8, random.Random(7))
        calls = []

        def counting(product):
            def counted(a, b):
                calls.append((a.rows, b.cols))
                return product(a, b)
            return counted

        monkeypatch.setattr(IntMatrix, "__mul__", counting(IntMatrix.__mul__))
        monkeypatch.setattr(seifert_oracle, "matmul", counting(seifert_oracle.matmul))
        for d in (2, 3, 11, 60, 126):
            calls.clear()
            branched_cover(s, d, 2)
            assert len(calls) <= 4 and (d > 2 or calls == [])
        calls.clear()
        _powers_oracle(s, 126)
        assert len(calls) == 22

    def test_one_char_poly_per_seifert_matrix(self, capsys, monkeypatch, tmp_path):
        calls = []

        def counted(h):
            calls.append(h.rows)
            return char_poly(h)

        char_poly = seifert.char_poly
        monkeypatch.setattr(seifert, "char_poly", counted)
        m = random_seifert_matrix(8, random.Random(7)).matrix
        path = tmp_path / "seifert8.txt"
        path.write_text("\n".join([str(m.rows)] + [" ".join(map(str, r)) for r in m.to_rows()]))
        assert cli.main(["seifert", "--file", str(path), "--d", "11", "--sweep", "40"]) == 0
        assert "H1 = " in capsys.readouterr().out
        assert calls == [8]
        s = SeifertMatrix(m)
        assert calls == [8]  # taken on first use, not at construction
        branched_cover(s, 3)
        alexander_polynomial(s)
        branched_cover(s, 4, 2)
        assert calls == [8, 8]


def _prime_factors(n: int) -> set[int]:
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


class TestRandomSeifertMatrices:
    def test_generator_produces_valid_matrices(self):
        rng = random.Random(4)
        for _ in range(40):
            s = random_seifert_matrix(rng.choice((2, 4, 6)), rng)
            d = (s.matrix - s.matrix.transpose()).det()
            assert d in (1, -1)
