import random

import pytest

from twistalex import exactla, obstruction
from twistalex.cover import twisted_invariants
from twistalex.exactla import LambdaMatrix, rank_over_fractions
from twistalex.fixtures import load_fixture
from twistalex.grouphom import FiniteHom, cyclic
from twistalex.laurent import ZERO, parse_laurent
from twistalex.obstruction import (CONSISTENT, INCONCLUSIVE, NOT_FIBRED,
                                   evaluate_fibred_obstruction, fibred_verdict)

from bareiss_oracle import si_minus


def P(text):
    return parse_laurent(text)


def trefoil_presentation():
    h = load_fixture("trefoil-monodromy").endo
    alpha = FiniteHom(2, cyclic(3), [1, 1])
    return si_minus(twisted_invariants(h, 2, alpha).h_matrix)


class TestEvaluate:
    def test_trefoil_is_consistent(self):
        report = evaluate_fibred_obstruction(trefoil_presentation())
        assert report.verdict == CONSISTENT
        assert (report.torsion, report.principal, report.monic) == ("yes", "yes", "yes")
        assert report.delta == P("s^4 - s^3 - s + 1")
        assert report.exit_code == 0

    def test_non_monic_certificate(self):
        report = evaluate_fibred_obstruction(LambdaMatrix.from_rows([[P("2s - 2")]]))
        assert report.verdict == NOT_FIBRED
        assert report.monic == "no"
        assert report.torsion == "yes" and report.principal == "yes"
        assert any("(3)" in r and "FAILS" in r for r in report.reasons)
        assert report.exit_code == 2

    def test_free_module_certificate(self):
        report = evaluate_fibred_obstruction(LambdaMatrix.from_rows([[ZERO, ZERO]]))
        assert report.verdict == NOT_FIBRED
        assert report.torsion == "no"
        assert report.monic == "undefined"
        assert any("(1)" in r and "FAILS" in r for r in report.reasons)

    def test_nonsquare_is_inconclusive_at_best(self):
        # torsion and monic hold but principality stays unknown
        report = evaluate_fibred_obstruction(
            LambdaMatrix.from_rows([[P("s - 1"), P("s")]]))
        assert report.torsion == "yes" and report.monic == "yes"
        assert report.principal == "unknown"
        assert report.verdict == INCONCLUSIVE
        assert report.exit_code == 3

    def test_minor_cap_gives_inconclusive(self, monkeypatch):
        rows = [[P("s"), ZERO, ZERO, ZERO], [ZERO, P("s"), ZERO, ZERO]]
        monkeypatch.setattr(exactla, "MAX_MINORS", 1)
        report = evaluate_fibred_obstruction(LambdaMatrix.from_rows(rows))
        assert report.verdict == INCONCLUSIVE
        assert report.monic == "undefined"
        assert any("minors" in r for r in report.reasons)

    def test_verdict_is_monotone(self):
        # degrading any single conclusion moves the verdict off "consistent"
        cases = [
            LambdaMatrix.from_rows([[P("2s - 2")]]),        # monic degraded
            LambdaMatrix.from_rows([[P("s - 1"), P("s")]]),  # principal degraded
            LambdaMatrix.from_rows([[ZERO, ZERO]]),          # torsion degraded
        ]
        for m in cases:
            assert evaluate_fibred_obstruction(m).verdict != CONSISTENT


class TestRankShortcut:
    """The rank comes from the minors when one is nonzero; it is taken
    only for a zero gcd, n > m, or a fired minor cap.  Reasons, verdicts
    and exit codes are those of always taking it."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append((p.rows, p.cols))
            return rank_over_fractions(p)

        monkeypatch.setattr(obstruction, "rank_over_fractions", counted)
        return calls

    CASES = {
        "square-singular": (
            [["s-1", "s-1"], ["s-1", "s-1"]], None, NOT_FIBRED, 2,
            ("(1) FAILS: rank 1 < 2 generators, module is not torsion",
             "(2) principal: presentation matrix is square",
             "(3) undefined: delta = 0")),
        "non-square-zero-minors": (
            [["s", "1", "s+1"], ["2s", "2", "2s+2"]], None, NOT_FIBRED, 2,
            ("(1) FAILS: rank 1 < 2 generators, module is not torsion",
             "(2) undetermined: non-square presentation, principality not decided",
             "(3) undefined: delta = 0")),
        "more-generators-than-relations": (
            [["s-1", "0"], ["0", "s-1"], ["1", "1"]], None, NOT_FIBRED, 2,
            ("(1) FAILS: rank 2 < 3 generators, module is not torsion",
             "(2) undetermined: non-square presentation, principality not decided",
             "(3) undefined: delta = 0")),
        "square-minor-cap-zero": (
            [["s-1", "1"], ["0", "s+1"]], 0, INCONCLUSIVE, 3,
            ("(1) torsion: presentation has full rank 2",
             "(2) principal: presentation matrix is square",
             "(3) undetermined: would enumerate 1 minors, above the cap of 0")),
        "rank-deficient-minor-cap-zero": (
            [["s", "1", "s+1"], ["2s", "2", "2s+2"]], 0, NOT_FIBRED, 2,
            ("(1) FAILS: rank 1 < 2 generators, module is not torsion",
             "(2) undetermined: non-square presentation, principality not decided",
             "(3) undetermined: would enumerate 3 minors, above the cap of 0")),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_zero_gcd_cases_still_eliminate(self, name, eliminations, monkeypatch):
        rows, cap, verdict, exit_code, reasons = self.CASES[name]
        p = LambdaMatrix.from_rows([[P(e) for e in r] for r in rows])
        if cap is not None:
            monkeypatch.setattr(exactla, "MAX_MINORS", cap)
        report = evaluate_fibred_obstruction(p)
        assert report.verdict == verdict
        assert report.reasons == reasons
        assert report.exit_code == exit_code
        assert eliminations == [(p.rows, p.cols)]

    def test_nonzero_gcd_skips_elimination(self, eliminations):
        for m in (trefoil_presentation(),
                  LambdaMatrix.from_rows([[P("s - 1"), P("s")]]),
                  LambdaMatrix.from_rows([[P("2s - 2")]])):
            report = evaluate_fibred_obstruction(m)
            assert report.torsion == "yes"
            assert report.reasons[0] == f"(1) torsion: presentation has full rank {m.rows}"
        assert eliminations == []


class TestFibredInputsAreConsistent:
    def test_every_monodromy_report_is_consistent(self):
        # genuine fibred data satisfies all three conclusions
        from word_oracle import compatible, random_automorphism
        rng = random.Random(12)
        checked = 0
        while checked < 25:
            rank = rng.choice((2, 3))
            f = random_automorphism(rank, rng.randint(1, 6), rng)
            d = rng.randint(1, 3)
            r = rng.randint(1, 4)
            chi = [rng.randrange(r) for _ in range(rank)]
            import math
            if math.gcd(r, *chi) != 1:
                continue
            alpha = FiniteHom(rank, cyclic(r), chi)
            if not compatible(f, alpha, d):
                continue
            inv = twisted_invariants(f, d, alpha)
            report = evaluate_fibred_obstruction(si_minus(inv.h_matrix))
            assert report.verdict == CONSISTENT
            assert report.delta == inv.delta
            # the monodromy route's verdict, full rank read off det(sI - H)
            n = inv.h_matrix.rows
            assert fibred_verdict(n, n, n, inv.delta) == report
            checked += 1
