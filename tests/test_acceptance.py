"""Acceptance suite: each test is one exit criterion, checked at its stated
tolerance (everything here is exact integer arithmetic) and runtime bound.
A summary line per criterion is printed at the end of the pytest run."""

import itertools
import math
import random
import time

from conftest import record_acceptance

from twistalex.cli import _order_check, main
from twistalex.cover import twisted_invariants
from twistalex.exactla import (IntMatrix, LambdaMatrix, char_poly,
                               rank_over_fractions)
from twistalex.fixtures import load_fixture
from twistalex.grouphom import (FiniteHom, cyclic, generated_subgroup_order,
                                verify_homomorphism)
from twistalex.laurent import ZERO, canonicalize, is_monic, parse_laurent
from twistalex.obstruction import NOT_FIBRED, evaluate_fibred_obstruction
from twistalex.seifert import (branched_cover, branched_cover_homology_from_monodromy,
                               random_seifert_matrix)

from bareiss_oracle import si_minus
from seifert_oracle import branched_presentation, matpow, monodromy_power_presentation
from word_oracle import compatible, power, random_automorphism


def P(text):
    return parse_laurent(text)


def _run(number, detail, limit_seconds, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < limit_seconds, (
            f"criterion {number} took {elapsed:.2f}s, over the {limit_seconds}s budget")
    except BaseException:
        record_acceptance(number, False, detail, time.perf_counter() - start)
        raise
    record_acceptance(number, True, detail, elapsed)


def test_criterion_1_trefoil_twisted_invariant(capsys):
    def body():
        fx = load_fixture("trefoil-monodromy")
        alpha = FiniteHom(2, cyclic(3), [1, 1])
        inv = twisted_invariants(fx.endo, 2, alpha)
        assert inv.delta == P("s^4 - s^3 - s + 1")
        h = inv.h_matrix
        assert (h.rows, h.cols) == (4, 4)
        assert h.det() == 1
        assert canonicalize(char_poly(h)) == inv.delta
        # and through the command-line surface
        code = main(["monodromy", "--fixture", "trefoil-monodromy",
                     "--d", "2", "--alpha", "Z/3:x=1,y=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "delta = s^4 - s^3 - s + 1" in out

    _run(1, "trefoil delta = s^4 - s^3 - s + 1, det(H) = 1, charpoly(H) = delta",
         1.0, body)


def test_criterion_2_trefoil_branched_homology():
    def body():
        fx = load_fixture("trefoil-monodromy")
        from_monodromy = branched_cover_homology_from_monodromy(fx.endo, 2)
        from_seifert = branched_cover(load_fixture("trefoil-seifert"), 2).homology
        assert from_monodromy.torsion == (3,) and from_monodromy.free_rank == 0
        assert from_seifert.torsion == (3,) and from_seifert.free_rank == 0

    _run(2, "both pipelines give H1 = Z/3 for the trefoil double cover", 1.0, body)


def test_criterion_3_fibred_property_suite():
    report = {"cases": 0}

    def compatible_alphas(fd, rank):
        t = fd.abelianization_matrix()
        out = []
        for r in range(1, 5):
            eye = IntMatrix.identity(rank)
            m = t - eye
            for chi in itertools.product(range(r), repeat=rank):
                if math.gcd(r, *chi) != 1:
                    continue
                if any(sum(chi[i] * m.row(i)[j] for i in range(rank)) % r
                       for j in range(rank)):
                    continue
                alpha = FiniteHom(rank, cyclic(r), list(chi))
                assert compatible(fd, alpha)
                out.append(alpha)
        return out

    def body():
        rng = random.Random(20020626)
        for _ in range(200):
            rank = rng.choice((2, 3))
            f = random_automorphism(rank, rng.randint(1, 8), rng)
            for d in (1, 2, 3):
                fd = power(f, d)
                for alpha in compatible_alphas(fd, rank):
                    inv = twisted_invariants(f, d, alpha)
                    assert is_monic(inv.delta), f"non-monic delta {inv.delta}"
                    assert inv.h_matrix.det() in (1, -1)
                    assert inv.h_matrix.is_square
                    assert (rank_over_fractions(si_minus(inv.h_matrix))
                            == inv.h_matrix.rows)
                    report["cases"] += 1
        assert report["cases"] >= 600  # every pair contributes at least r = 1

    _run(3, "200 Nielsen automorphisms x d in {1,2,3} x compatible cyclic alpha:"
            " delta monic, det(H) = +-1, square, torsion", 60.0, body)


def test_criterion_4_figure8_monodromy_power():
    def body():
        f8 = load_fixture("figure8-seifert")
        mp2 = monodromy_power_presentation(f8, 2)
        assert mp2.h == IntMatrix.from_rows([[2, -1], [-1, 1]])
        assert mp2.det_power_minus_identity == -5
        for n in range(2, 13):
            hn = matpow(mp2.h, n)
            det = monodromy_power_presentation(f8, n).det_power_minus_identity
            assert det == 2 - hn.row(0)[0] - hn.row(1)[1]
            assert det <= -5

    _run(4, "figure-eight H = [[2,-1],[-1,1]], det(H^n - I) = 2 - a_n - c_n <= -5"
            " for n = 2..12", 1.0, body)


def test_criterion_5_resultant_consistency():
    def body():
        fixtures = [load_fixture("trefoil-seifert"), load_fixture("figure8-seifert")]
        rng = random.Random(1978)
        matrices = fixtures + [random_seifert_matrix(rng.choice((2, 4)), rng)
                               for _ in range(20)]
        for s in matrices:
            for d in range(2, 7):
                order, resultant = _order_check(s, d)
                assert order == resultant, (
                    f"disagreement at d={d}: snf {order} vs {resultant}")

    _run(5, "SNF order equals |Res(Delta, t^d - 1)| for 22 Seifert matrices,"
            " d = 2..6 (0 <-> infinite)", 30.0, body)


def test_criterion_6_a5_representation():
    def body():
        fx = load_fixture("paper-s5")
        assert len(fx.presentation.relators) == 14
        assert verify_homomorphism(fx.hom, fx.presentation) == ()
        assert generated_subgroup_order(fx.hom) == 60

    _run(6, "all 14 relators killed by the A5 assignment; image order 60", 1.0, body)


def test_criterion_7_character_jump():
    def body():
        rng = random.Random(41)
        instances = 0
        while instances < 50:
            s = random_seifert_matrix(rng.choice((2, 4)), rng)
            d = rng.choice((2, 3))
            hom = branched_cover(s, d).homology
            if hom.order is None or hom.order == 1:
                continue
            pres = branched_presentation(s, d)
            for r in sorted(_prime_factors(hom.order)):
                jump = branched_cover(s, d, r).jump
                assert jump is not None, f"no character onto Z/{r} found"
                flat = [x for row in jump.character for x in row]
                for j in range(pres.cols):
                    assert sum(flat[i] * pres.row(i)[j]
                               for i in range(pres.rows)) % r == 0
                assert jump.order >= 2
            instances += 1

    _run(7, "50 branched covers with finite nontrivial H1: character kills"
            " relations, jump order >= 2 for every prime r", 30.0, body)


def test_criterion_8_negative_controls(capsys, tmp_path):
    def body():
        non_monic = LambdaMatrix.from_rows([[P("2s - 2")]])
        report = evaluate_fibred_obstruction(non_monic)
        assert report.verdict == NOT_FIBRED
        assert report.monic == "no"
        assert any("(3)" in line and "FAILS" in line for line in report.reasons)

        free = LambdaMatrix.from_rows([[ZERO, ZERO]])
        report = evaluate_fibred_obstruction(free)
        assert report.verdict == NOT_FIBRED
        assert report.torsion == "no"
        assert any("(1)" in line and "FAILS" in line for line in report.reasons)

        for text in ("1 1\n2s-2\n", "1 2\n0 0\n"):
            path = tmp_path / "pres.txt"
            path.write_text(text)
            code = main(["report", "--presentation", str(path)])
            capsys.readouterr()
            assert code == 2

    _run(8, "non-monic and non-torsion presentations yield NOT-fibred"
            " certificates naming the failed conclusion; exit code 2", 5.0, body)


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
