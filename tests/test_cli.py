import json
import random

import pytest

from twistalex import (cli, cover, exactla, fixtures, formats, grouphom, laurent,
                       obstruction, seifert)
from twistalex.cli import main, parse_inputs
from twistalex.errors import ParseError, UnknownFixtureError
from twistalex.fixtures import load_fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMonodromyCommand:
    def test_trefoil_fixture(self, capsys):
        code, out, _ = run(capsys, "monodromy", "--fixture", "trefoil-monodromy",
                           "--d", "2", "--alpha", "Z/3:x=1,y=1")
        assert code == 0
        assert "delta = s^4 - s^3 - s + 1" in out
        assert "verdict = consistent-with-fibred" in out
        assert "group order = 3" in out
        assert "H1 rank = 4" in out

    def test_json_mirrors_human_output(self, capsys):
        args = ("monodromy", "--fixture", "trefoil-monodromy",
                "--d", "2", "--alpha", "Z/3:x=1,y=1")
        _, human, _ = run(capsys, *args)
        _, raw, _ = run(capsys, *args, "--json")
        payload = json.loads(raw)
        fields = dict(line.split(" = ", 1) for line in human.strip().splitlines()
                      if " = " in line and not line.startswith("H ="))
        assert payload["delta"] == fields["delta"]
        assert payload["group_order"] == int(fields["group order"])
        assert payload["h1_rank"] == int(fields["H1 rank"])
        assert payload["verdict"] == fields["verdict"]
        assert str(payload["h"]) == next(
            line.split(" = ", 1)[1] for line in human.splitlines() if line.startswith("H ="))

    def test_monodromy_from_files(self, capsys, tmp_path):
        mono = tmp_path / "mono.txt"
        mono.write_text(fixtures.TREFOIL_MONODROMY)
        hom = tmp_path / "alpha.txt"
        hom.write_text("target: Z/3\nx = 1\ny = 1\n")
        code, out, _ = run(capsys, "monodromy", "--file", str(mono),
                           "--d", "2", "--alpha", str(hom))
        assert code == 0 and "delta = s^4 - s^3 - s + 1" in out

    def test_deterministic_output(self, capsys):
        args = ("monodromy", "--fixture", "trefoil-monodromy",
                "--d", "2", "--alpha", "Z/3:x=1,y=1")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_incompatible_alpha_is_usage_error(self, capsys):
        code, _, err = run(capsys, "monodromy", "--fixture", "trefoil-monodromy",
                           "--d", "1", "--alpha", "Z/3:x=1,y=1")
        assert code == 64
        assert "error" in err

    def test_word_growth_cap_exits_65(self, capsys, tmp_path):
        mono = tmp_path / "squares.txt"
        mono.write_text("generators: x\nx -> x x\n")
        code, _, err = run(capsys, "monodromy", "--file", str(mono),
                           "--d", "30000", "--alpha", "Z/1:x=0")
        assert code == 65
        assert "size limit" in err

    def test_long_input_word_exits_65_naming_it(self, capsys, tmp_path):
        mono = tmp_path / "long.txt"
        mono.write_text("generators: x y\nx -> x^10000001\ny -> y\n")
        code, out, err = run(capsys, "monodromy", "--file", str(mono),
                             "--d", "1", "--alpha", "Z/1:x=0,y=0")
        assert (code, out) == (65, "")
        assert err == ("twist: size limit: the input word 'x^10000001' (line 2) "
                       "has more than 10000000 letters\n")

    def test_doubling_map_is_exact_at_d_40(self, capsys, tmp_path):
        mono = tmp_path / "squares.txt"
        mono.write_text("generators: x\nx -> x x\n")
        code, raw, _ = run(capsys, "monodromy", "--file", str(mono),
                           "--d", "40", "--alpha", "Z/1:x=0", "--json")
        payload = json.loads(raw)
        assert code == 0
        assert payload["h"] == [[2**40]]
        assert payload["delta"] == f"s - {2**40}"

    def test_rank_one_cover_charges_its_translation_table(self, capsys, tmp_path):
        # One loop over Z/100000: a step is cheap, but the |G|^2 table of
        # left translations would hold 10^10 entries; it is refused first.
        mono = tmp_path / "identity.txt"
        mono.write_text("generators: x\nx -> x\n")
        code, out, err = run(capsys, "monodromy", "--file", str(mono),
                             "--d", "1", "--alpha", "Z/100000:x=1")
        assert (code, out) == (65, "")
        assert err == ("twist: size limit: lifting f^1 needs at least 10000000000 units "
                       f"of chain work, above the cap of {cover.MAX_LIFT_WORK}\n")

    def test_figure_eight_d16(self, capsys, tmp_path):
        mono = tmp_path / "figure8.txt"
        mono.write_text("generators: x y\nx -> x y\ny -> y x y\n")
        code, raw, _ = run(capsys, "monodromy", "--file", str(mono),
                           "--d", "16", "--alpha", "Z/21:x=0,y=1", "--json")
        payload = json.loads(raw)
        assert code == 0 and payload["h1_rank"] == 22
        assert payload["monic"] == "yes" and payload["verdict"] == "consistent-with-fibred"


    def test_char_poly_cap_exits_65_on_an_a6_cover(self, capsys, monkeypatch, tmp_path):
        # The figure-eight map over A6 lifts to a dense 361-square H in a
        # fraction of a second; its char_poly would need about 50 primes of
        # 10 s or more each.  The work cap stops it within the first prime.
        text = "generators: x y\nx -> x y\ny -> y x y\n"
        figure8, _ = formats.parse_monodromy(text)
        a6 = grouphom.alternating(6)
        elements = a6.elements()
        rng = random.Random(1)
        period = None
        while period is None:
            alpha = grouphom.FiniteHom(2, a6, rng.sample(elements, 2))
            if grouphom.generated_subgroup_order(alpha) != a6.order:
                continue
            beta = alpha
            for d in range(1, 13):
                beta = beta.precompose(figure8)
                if beta.images == alpha.images:
                    period = d
                    break
        mono = tmp_path / "figure8.txt"
        mono.write_text(text)
        hom = tmp_path / "a6.txt"
        hom.write_text("target: A6\nx = {}\ny = {}\n".format(*alpha.images))
        primes = []

        def counted(h, p, budget):
            primes.append(p)
            return char_poly_mod(h, p, budget)

        char_poly_mod = exactla._char_poly_mod
        monkeypatch.setattr(exactla, "_char_poly_mod", counted)
        code, out, err = run(capsys, "monodromy", "--file", str(mono), "--d", str(period),
                             "--alpha", str(hom))
        assert (code, out) == (65, "")
        assert err == ("twist: size limit: the characteristic polynomial of a 361-square "
                       f"matrix passes the work cap of {exactla.MAX_CHAR_POLY_WORK} "
                       "(Hessenberg row operations over all CRT primes)\n")
        assert len(primes) == 1

    def test_one_pencil_determinant_per_job(self, capsys, monkeypatch, tmp_path):
        calls = []

        def counted(h):
            calls.append(h.rows)
            return char_poly(h)

        char_poly = exactla.char_poly
        for module in (exactla, cover, obstruction, cli):  # every binding the pipeline reaches
            if getattr(module, "char_poly", None) is char_poly:
                monkeypatch.setattr(module, "char_poly", counted)
        code, raw, _ = run(capsys, "monodromy", "--fixture", "trefoil-monodromy",
                           "--d", "2", "--alpha", "Z/3:x=1,y=1", "--json")
        assert code == 0 and json.loads(raw)["verdict"] == "consistent-with-fibred"
        assert calls == [4]
        mono = tmp_path / "figure8.txt"
        mono.write_text("generators: x y\nx -> x y\ny -> y x y\n")
        code, raw, _ = run(capsys, "monodromy", "--file", str(mono),
                           "--d", "16", "--alpha", "Z/21:x=0,y=1", "--json")
        assert code == 0 and json.loads(raw)["monic"] == "yes"
        assert calls == [4, 22]

    def test_minor_cap_zero_keeps_its_output(self, capsys, monkeypatch):
        # the cap still fires on the one square minor, and the rank of
        # sI - H is full with no work by the evaluation kernel
        def refuse(*args):
            raise AssertionError("evaluation kernel on sI - H")

        reports = []

        def recorded(p):
            reports.append(evaluate(p))
            return reports[-1]

        evaluate = cli.evaluate_fibred_obstruction
        monkeypatch.setattr(cli, "evaluate_fibred_obstruction", recorded)
        monkeypatch.setattr(exactla, "_maximal_minors", refuse)
        monkeypatch.setattr(exactla, "_evaluation_rank", refuse)
        monkeypatch.setattr(exactla, "MAX_MINORS", 0)
        code, raw, _ = run(capsys, "monodromy", "--fixture", "trefoil-monodromy",
                           "--d", "2", "--alpha", "Z/3:x=1,y=1", "--json")
        assert code == 0
        assert raw == (
            '{"delta": "s^4 - s^3 - s + 1", "group_order": 3, "h": [[1, 0, -1, -1], '
            '[0, 1, -1, -1], [1, 1, -1, -1], [0, 0, -1, 0]], "h1_rank": 4, '
            '"monic": "undefined", "principal": "yes", "torsion": "yes", '
            '"verdict": "inconclusive"}\n')
        assert reports[0].reasons == (
            "(1) torsion: presentation has full rank 4",
            "(2) principal: presentation matrix is square",
            "(3) undetermined: would enumerate 1 minors, above the cap of 0")


class TestSeifertCommand:
    def test_figure8_fixture(self, capsys):
        code, out, _ = run(capsys, "seifert", "--fixture", "figure8-seifert", "--d", "2")
        assert code == 0
        assert "H1 = Z/5; resultant = 5; agree = true" in out
        assert "alexander = t^2 - 3t + 1" in out

    def test_character_jump_flag(self, capsys):
        code, out, _ = run(capsys, "seifert", "--fixture", "figure8-seifert",
                           "--d", "2", "--r", "5")
        assert code == 0 and "order = 5" in out

    def test_no_surjection_message(self, capsys):
        code, out, _ = run(capsys, "seifert", "--fixture", "figure8-seifert",
                           "--d", "2", "--r", "3")
        assert code == 0 and "no surjection onto Z/3" in out

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "seifert", "--fixture", "trefoil-seifert",
                           "--sweep", "6")
        assert code == 0
        assert "R_2 = 3" in out and "R_6 = 0" in out

    def test_json_mirror(self, capsys):
        args = ("seifert", "--fixture", "figure8-seifert", "--d", "2")
        _, human, _ = run(capsys, *args)
        _, raw, _ = run(capsys, *args, "--json")
        payload = json.loads(raw)
        assert payload["h1"] == "Z/5"
        assert payload["resultant"] == 5
        assert payload["agree"] is True
        assert f"H1 = {payload['h1']}; resultant = {payload['resultant']}; agree = true" in human

    def test_seifert_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(fixtures.TREFOIL_SEIFERT)
        code, out, _ = run(capsys, "seifert", "--file", str(path), "--d", "2")
        assert code == 0 and "H1 = Z/3; resultant = 3; agree = true" in out

    def test_unknot_file(self, capsys, tmp_path):
        path = tmp_path / "unknot.txt"
        path.write_text("0\n")
        code, out, _ = run(capsys, "seifert", "--file", str(path), "--d", "2")
        assert code == 0
        assert "alexander = 1" in out
        assert "H1 = 0; resultant = 1; agree = false" not in out


    def test_r_without_d_is_usage_error(self, capsys):
        code, out, err = run(capsys, "seifert", "--fixture", "figure8-seifert",
                             "--sweep", "3", "--r", "5")
        assert code == 64 and out == ""
        assert "--r needs --d" in err

    def test_one_smith_elimination_per_job(self, capsys, monkeypatch):
        calls = []

        def counted(a, r=None):
            calls.append((a.rows, r))
            return smith(a, r)

        smith = exactla.smith_normal_form
        for module in (exactla, seifert):  # every binding the pipeline reaches
            monkeypatch.setattr(module, "smith_normal_form", counted)
        code, raw, _ = run(capsys, "seifert", "--fixture", "figure8-seifert",
                           "--d", "3", "--r", "2", "--json")
        payload = json.loads(raw)
        assert code == 0 and payload["h1_order"] == 16 and payload["character_jump"]
        assert calls == [(2, 2)]

        for argv, message in ((("--d", "2", "--r", "1"), "needs d >= 2 and r >= 2"),
                              (("--d", "1", "--r", "2"), "branched presentation needs d >= 2"),
                              (("--d", "1"), "branched presentation needs d >= 2")):
            code, out, err = run(capsys, "seifert", "--fixture", "figure8-seifert",
                                 *argv, "--json")
            assert (code, out, err) == (64, "", f"twist: error: {message}\n")

    def test_resultant_is_read_from_the_sweep(self, capsys, monkeypatch):
        # with 2 <= d <= SWEEP the sweep holds R_d, so no single-d resultant
        # is taken, and the output is that of the two separate runs
        expected = {}
        for argv in (("--d", "3", "--r", "2"), ("--sweep", "6")):
            code, raw, _ = run(capsys, "seifert", "--fixture", "figure8-seifert", *argv, "--json")
            expected.update(json.loads(raw))

        def refuse(*args):
            raise AssertionError("R_d taken apart from the sweep")

        for module in (laurent, cli):  # every binding the pipeline reaches
            monkeypatch.setattr(module, "resultant_with_cyclotomic", refuse)
        code, raw, _ = run(capsys, "seifert", "--fixture", "figure8-seifert",
                           "--d", "3", "--r", "2", "--sweep", "6", "--json")
        assert code == 0 and json.loads(raw) == expected
        # a sweep over its cap does not hide bad cover arguments
        for argv, message in ((("--d", "2", "--r", "1"), "needs d >= 2 and r >= 2"),
                              (("--d", "1"), "branched presentation needs d >= 2")):
            code, out, err = run(capsys, "seifert", "--fixture", "figure8-seifert",
                                 *argv, "--sweep", "100000")
            assert (code, out, err) == (64, "", f"twist: error: {message}\n")

    def test_no_smith_elimination_of_the_block_presentation(self, capsys, monkeypatch, tmp_path):
        # an 8x8 Seifert matrix at d = 11 has an 80-row block presentation;
        # only Seifert's 8x8 presentation may reach Smith elimination
        calls = []

        def counted(a, r=None):
            calls.append(a.rows)
            return smith(a, r)

        smith = exactla.smith_normal_form
        for module in (exactla, seifert):
            monkeypatch.setattr(module, "smith_normal_form", counted)
        path = tmp_path / "s8.txt"
        rows = seifert.random_seifert_matrix(8, random.Random(7)).matrix.to_rows()
        path.write_text("8\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        for r, surjects in (("43", True), ("2", False)):
            code, raw, _ = run(capsys, "seifert", "--file", str(path), "--d", "11",
                               "--r", r, "--json")
            payload = json.loads(raw)
            assert code == 0
            assert payload["h1"] == "Z/80489846420252834134789 + Z/80489846420252834134789"
            assert (payload["character_jump"] is not None) == surjects
            if surjects:
                assert len(payload["character_jump"]["character"]) == 10
        assert calls and max(calls) <= 8

    def test_one_gamma_per_job(self, capsys, monkeypatch):
        # Gamma = (S - S^T)^-1 S is taken once and gives both Delta, as
        # char_poly(Gamma) in 1 - t, and the cover; no Laurent determinant.
        # Its one solve of [A | I] also shows det A = +-1: reduced modulo one
        # CRT prime, as the entries are small, and by no other elimination.
        m = load_fixture("figure8-seifert").matrix
        gamma = (m - m.transpose()).inverse_unimodular() * m
        inverses, polys, eliminations = [], [], []

        def counted_inverse(m):
            inverses.append(m.rows)
            return inverse(m)

        def counted_char_poly(h):
            polys.append(h)
            return char_poly(h)

        def counted_rref(a, p):
            eliminations.append((len(a), len(a[0])))
            return rref(a, p)

        def refuse(*args):
            raise AssertionError("evaluation kernel in a Seifert job")

        inverse, char_poly = exactla.IntMatrix.inverse_unimodular, exactla.char_poly
        rref = exactla._rref_mod
        monkeypatch.setattr(exactla.IntMatrix, "inverse_unimodular", counted_inverse)
        monkeypatch.setattr(exactla, "_rref_mod", counted_rref)
        for module in (exactla, seifert):  # every binding the pipeline reaches
            if getattr(module, "char_poly", None) is char_poly:
                monkeypatch.setattr(module, "char_poly", counted_char_poly)
        monkeypatch.setattr(exactla, "_maximal_minors", refuse)
        code, raw, _ = run(capsys, "seifert", "--fixture", "figure8-seifert",
                           "--d", "3", "--r", "2", "--sweep", "5", "--json")
        payload = json.loads(raw)
        assert code == 0 and payload["alexander"] == "t^2 - 3t + 1"
        assert payload["h1_order"] == payload["resultant"] == 16
        assert inverses == [2] and polys == [gamma]
        assert eliminations == [(2, 4)]

    def test_one_alexander_polynomial_per_job(self, capsys, monkeypatch):
        calls = []

        def counted(s):
            calls.append(s.size)
            return alexander(s)

        alexander = seifert.alexander_polynomial
        for module in (cli, seifert):  # every binding the pipeline reaches
            monkeypatch.setattr(module, "alexander_polynomial", counted)
        code, raw, _ = run(capsys, "seifert", "--fixture", "figure8-seifert",
                           "--d", "3", "--r", "2", "--sweep", "4", "--json")
        payload = json.loads(raw)
        assert code == 0 and payload["alexander"] == "t^2 - 3t + 1"
        assert payload["resultant"] == 16 and payload["sweep"]["3"] == 16
        assert calls == [2]


class TestResultantCommand:
    def test_poly_sweep_default_30(self, capsys):
        code, out, _ = run(capsys, "resultant", "--poly", "t^2-3t+1")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("R_")]
        assert len(lines) == 29
        assert "R_2 = 5" in out

    def test_single_degree(self, capsys):
        code, out, _ = run(capsys, "resultant", "--poly", "t^2-t+1", "--d", "2")
        assert code == 0 and "R_2 = 3" in out

    def test_sweeps_take_no_per_degree_resultant(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a sweep takes no per-degree resultant")

        monkeypatch.setattr(laurent, "_resultant_mod", forbidden)
        monkeypatch.setattr(laurent, "_binpow", forbidden)
        code, raw, _ = run(capsys, "resultant", "--poly", "t^2-3t+1", "--sweep", "6", "--json")
        assert code == 0
        assert json.loads(raw)["resultant"] == {"2": 5, "3": 16, "4": 45, "5": 121, "6": 320}
        code, raw, _ = run(capsys, "seifert", "--fixture", "figure8-seifert",
                           "--sweep", "4", "--json")
        assert code == 0 and json.loads(raw)["sweep"] == {"2": 5, "3": 16, "4": 45}


    def test_huge_bound_exits_65(self, capsys, monkeypatch):
        # The CRT bound ||p||_1^d = 5^d passes 2^8192 at d = 3529; at
        # d = 10400 the answer, once computed, did not print (exit 64).
        def refuse():
            raise AssertionError("a prime was drawn")

        monkeypatch.setattr(laurent, "_primes", refuse)
        for argv in (("--d", "10400"), ("--d", "3529"), ("--sweep", "100000")):
            code, out, err = run(capsys, "resultant", "--poly", "t^2-3t+1", *argv)
            d = argv[1]
            assert (code, out) == (65, "")
            assert err.startswith(f"twist: size limit: the resultant with t^{d} - 1 is bounded "
                                  f"by ||p||_1^{d}, about ")
            assert err.endswith("bits, above the cap of 8192 bits\n")
        code, out, err = run(capsys, "seifert", "--fixture", "figure8-seifert",
                             "--sweep", "3529")
        assert (code, out) == (65, "") and "cap of 8192 bits" in err

    def test_unit_sweep_exits_65(self, capsys, tmp_path):
        # ||p||_1 = 1 bounds each resultant by 1, but the sweep itself is capped
        for poly in ("1", "t^3"):
            code, out, err = run(capsys, "resultant", "--poly", poly, "--sweep", "8192")
            assert code == 0 and len([l for l in out.splitlines() if l.startswith("R_")]) == 8191
            for n in ("8193", "1000000000"):
                code, out, err = run(capsys, "resultant", "--poly", poly, "--sweep", n)
                assert (code, out) == (65, "")
                assert err == (f"twist: size limit: the resultant with t^{n} - 1 is bounded by "
                               f"||p||_1^{n}, about {n} bits, above the cap of 8192 bits\n")
        path = tmp_path / "unknot.txt"
        path.write_text("0\n")
        code, out, err = run(capsys, "seifert", "--file", str(path), "--sweep", "8193")
        assert (code, out) == (65, "") and "cap of 8192 bits" in err

    def test_largest_admitted_degree_prints(self, capsys):
        code, raw, _ = run(capsys, "resultant", "--poly", "t^2-3t+1", "--d", "3528", "--json")
        assert code == 0
        value = json.loads(raw)["resultant"]["3528"]
        assert 0 < value <= 5**3528 < 2**8192


class TestHomcheckCommand:
    def test_s5_fixture_exact_line(self, capsys):
        code, out, _ = run(capsys, "homcheck", "--fixture", "paper-s5")
        assert code == 0
        assert out.strip() == "relations: 14/14 ok; image order = 60 (surjective)"

    def test_files(self, capsys, tmp_path):
        pres = tmp_path / "p.txt"
        pres.write_text(fixtures.S5_PRESENTATION)
        hom = tmp_path / "h.txt"
        hom.write_text(fixtures.S5_HOM)
        code, out, _ = run(capsys, "homcheck", "--presentation", str(pres),
                           "--hom", str(hom))
        assert code == 0 and "relations: 14/14 ok" in out

    def test_json_mirror(self, capsys):
        _, raw, _ = run(capsys, "homcheck", "--fixture", "paper-s5", "--json")
        payload = json.loads(raw)
        assert payload == {"relators_total": 14, "relators_ok": 14,
                           "failed_relators": [], "image_order": 60,
                           "surjective": True}


class TestReportCommand:
    def test_not_fibred_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1\n2s-2\n")
        code, out, _ = run(capsys, "report", "--presentation", str(path))
        assert code == 2
        assert "verdict = NOT-fibred-certificate" in out
        assert "not monic" in out

    def test_zero_matrix_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n0 0\n")
        code, out, _ = run(capsys, "report", "--presentation", str(path))
        assert code == 2 and "(1) FAILS" in out

    def test_consistent_exit_0(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1\ns-1\n")
        code, out, _ = run(capsys, "report", "--presentation", str(path))
        assert code == 0 and "verdict = consistent-with-fibred" in out

    def test_high_degree_square_presentations(self, capsys, tmp_path):
        # a single row is its own minor; a 2 x 2 one is interpolated on
        # D + 1 = 601 nodes
        for text, delta in (("1 1\ns^2000-1\n", "s^2000 - 1"),
                            ("2 2\ns^300-1 s\n1 s^300+1\n", "s^600 - s - 1")):
            path = tmp_path / "m.txt"
            path.write_text(text)
            code, out, _ = run(capsys, "report", "--presentation", str(path))
            assert code == 0 and f"delta = {delta}" in out.splitlines()

    def test_inconclusive_exit_3(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\ns-1 s\n")
        code, out, _ = run(capsys, "report", "--presentation", str(path))
        assert code == 3 and "verdict = inconclusive" in out

    def test_no_generators_keeps_its_output(self, capsys, tmp_path):
        # 0 x 3: one maximal minor, the empty determinant 1, and full rank 0
        path = tmp_path / "m.txt"
        path.write_text("0 3\n")
        code, out, _ = run(capsys, "report", "--presentation", str(path))
        assert code == 3
        assert out.splitlines() == [
            "torsion = yes", "principal = unknown", "monic = yes", "delta = 1",
            "verdict = inconclusive",
            "  (1) torsion: presentation has full rank 0",
            "  (2) undetermined: non-square presentation, principality not decided",
            "  (3) monic: delta = 1"]

    def test_zero_row_takes_the_rank_route(self, capsys, tmp_path):
        # every minor vanishes (coefficient bound 0), so the rank decides
        path = tmp_path / "m.txt"
        path.write_text("2 3\ns-1 1 s\n0 0 0\n")
        code, out, _ = run(capsys, "report", "--presentation", str(path), "--json")
        assert code == 2
        assert json.loads(out) == {
            "delta": "0", "monic": "undefined", "principal": "unknown", "torsion": "no",
            "verdict": "NOT-fibred-certificate",
            "reasons": ["(1) FAILS: rank 1 < 2 generators, module is not torsion",
                        "(2) undetermined: non-square presentation, principality not decided",
                        "(3) undefined: delta = 0"]}

    def test_minor_cap_of_one_gives_inconclusive(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.txt"
        path.write_text("2 4\ns 0 0 0\n0 s 0 0\n")
        monkeypatch.setattr(exactla, "MAX_MINORS", 1)
        code, out, _ = run(capsys, "report", "--presentation", str(path))
        assert code == 3
        assert "minors" in out


    def test_minor_cap_zero_on_square_input(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.txt"
        path.write_text("2 2\ns-1 1\n0 s+1\n")
        monkeypatch.setattr(exactla, "MAX_MINORS", 0)
        code, out, _ = run(capsys, "report", "--presentation", str(path), "--json")
        assert code == 3
        assert json.loads(out) == {
            "delta": "0", "monic": "undefined", "principal": "yes", "torsion": "yes",
            "verdict": "inconclusive",
            "reasons": ["(1) torsion: presentation has full rank 2",
                        "(2) principal: presentation matrix is square",
                        "(3) undetermined: would enumerate 1 minors, above the cap of 0"]}


class TestUsageErrors:
    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "seifert", "--fixture", "nonsense", "--d", "2")
        assert code == 64

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "seifert", "--d", "2")
        assert code == 64

    @pytest.mark.parametrize("kind, body", [("monodromy", "a -> a\n"),
                                            ("presentation", "relator: a a^-1\n")],
                             ids=["monodromy", "presentation"])
    def test_duplicate_generator_names(self, capsys, tmp_path, kind, body):
        path = tmp_path / f"{kind}.txt"
        path.write_text("generators: a a\n" + body)
        hom = tmp_path / "hom.txt"
        hom.write_text("target: Z/3\na = 1\n")
        if kind == "monodromy":
            argv = ["monodromy", "--file", str(path), "--d", "1", "--alpha", "Z/3:a=1"]
        else:
            argv = ["homcheck", "--presentation", str(path), "--hom", str(hom)]
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err == "twist: error: duplicate generator names (line 1)\n"

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1\nx -1\n")
        code, _, err = run(capsys, "seifert", "--file", str(path), "--d", "2")
        assert code == 64 and "line 3" in err

    def test_invariant_violation_is_distinct(self, capsys, tmp_path):
        path = tmp_path / "degenerate.txt"
        path.write_text("2\n1 0\n0 1\n")
        code, _, err = run(capsys, "seifert", "--file", str(path), "--d", "2")
        assert code == 64 and "det(S - S^T)" in err

    def test_resultant_over_the_cap_exits_65(self, capsys, tmp_path):
        # H1 of this cover is small enough, but `twist seifert --d` prints
        # the resultant, whose bound ||Delta||_1^80 is over the cap
        path = tmp_path / "big.txt"
        path.write_text(f"2\n{2**60} 1\n0 {2**60}\n")
        code, out, err = run(capsys, "seifert", "--file", str(path), "--d", "80")
        assert (code, out) == (65, "")
        assert err == ("twist: size limit: the resultant with t^80 - 1 is bounded by "
                       "||p||_1^80, about 9760 bits, above the cap of 8192 bits\n")

    def test_huge_branched_cover_exits_65(self, capsys):
        code, out, err = run(capsys, "seifert", "--fixture", "trefoil-seifert",
                             "--d", "1000000")
        assert code == 65 and out == ""
        assert err == ("twist: size limit: the 1000000-fold branched presentation of a "
                       "2x2 Seifert matrix has 1999998 rows, above the cap of 1000\n")

    def test_closure_bound_exits_65(self, capsys, tmp_path):
        hom = tmp_path / "big.txt"
        hom.write_text("target: S10\na = (1 2)\n")
        pres = tmp_path / "p.txt"
        pres.write_text("generators: a\nrelator: a a^-1\n")
        code, _, err = run(capsys, "homcheck", "--presentation", str(pres),
                           "--hom", str(hom))
        assert code == 65


    def test_internal_fault_exits_70(self, capsys, monkeypatch):
        # With the compatibility check bypassed, an alpha whose kernel the
        # map does not preserve lifts kernel words to open paths, which the
        # lift's own check reports as a broken invariant.
        chain = cover._alpha_chain  # its last member is alpha: the check passes
        monkeypatch.setattr(cover, "_alpha_chain",
                            lambda f, alpha, d: chain(f, alpha, d)[:-1] + [alpha])
        code, out, err = run(capsys, "monodromy", "--fixture", "trefoil-monodromy",
                             "--d", "1", "--alpha", "Z/3:x=1,y=0")
        assert code == 70 and out == ""
        assert err.startswith("twist: internal error: ") and "did not close up" in err

    def test_unexpected_exception_exits_70(self, capsys, tmp_path, monkeypatch):
        # an exception no handler names is a fault in the program
        def broken(p):
            raise IndexError("list index out of range")

        monkeypatch.setattr(exactla, "_maximal_minors", broken)
        path = tmp_path / "m.txt"
        path.write_text("2 3\ns-1 1 s\n1 s 0\n")
        code, out, err = run(capsys, "report", "--presentation", str(path))
        assert code == 70 and out == ""
        assert err.startswith("twist: internal error: IndexError: list index out of range\n")
        assert "Traceback" in err


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "1")
        assert code == 0
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, raw, _ = run(capsys, "selftest", "--json")
        payload = json.loads(raw)
        assert code == 0 and payload["ok"] == payload["total"]


class TestParseInputs:
    def test_fixture_kind_mismatch(self):
        with pytest.raises(Exception):
            parse_inputs("seifert", fixture="trefoil-monodromy")

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixtureError):
            parse_inputs("seifert", fixture="nope")

    def test_lambda_matrix_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\ns-1 0\n0 s^2-1\n")
        m = parse_inputs("lambda-matrix", path=str(path))
        assert m.rows == 2 and m.cols == 2

    def test_word_parse_error_has_location(self):
        with pytest.raises(ParseError) as exc:
            formats.parse_monodromy("generators: x\nx -> x z\n")
        assert "line 2" in str(exc.value)
