import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from twistalex import (cli, cover, exactla, fixtures, formats, grouphom, laurent,
                       obstruction, seifert)
from twistalex.cli import main
from twistalex.errors import InvariantError, ParseError, TwistError
from twistalex.fixtures import load_fixture

from table_mutations import generator_row_off_in_its_last_block, last_row_is_the_one_before


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
        # det(H) = 2^40 is no unit: the verdict is a certificate, and exits 2
        assert code == 2
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
        elements = [p for p in map(grouphom.Perm, itertools.permutations(range(6))) if p.is_even]
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
                       "(reduction and Hessenberg row operations over all CRT primes)\n")
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
        # the minor cap belongs to maximal_minor_gcd, which the monodromy
        # route never reaches: delta and the full rank come from char_poly
        args = ("monodromy", "--fixture", "trefoil-monodromy",
                "--d", "2", "--alpha", "Z/3:x=1,y=1", "--json")
        expected = run(capsys, *args)
        monkeypatch.setattr(exactla, "MAX_MINORS", 0)
        assert run(capsys, *args) == expected
        assert expected[0] == 0
        assert json.loads(expected[1])["verdict"] == "consistent-with-fibred"

    def test_monodromy_takes_one_char_poly_and_no_minors(self, capsys, monkeypatch):
        calls = []

        def counted(h):
            calls.append(h.rows)
            return char_poly(h)

        def refuse(*args):
            raise AssertionError("the monodromy route took a minor gcd or a rank")

        char_poly = exactla.char_poly
        for module in (exactla, cover, obstruction, cli):  # every binding the pipeline reaches
            for name, stand_in in (("char_poly", counted), ("maximal_minor_gcd", refuse),
                                   ("rank_over_fractions", refuse)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, stand_in)
        code, raw, _ = run(capsys, "monodromy", "--fixture", "trefoil-monodromy",
                           "--d", "2", "--alpha", "Z/3:x=1,y=1", "--json")
        assert code == 0 and json.loads(raw)["delta"] == "s^4 - s^3 - s + 1"
        assert calls == [4]

    def test_delta_is_formatted_once_per_job(self, capsys, monkeypatch, tmp_path):
        # the verdict's reasons and the --json payload share one to_text of delta
        calls = []

        def counted(p, var="s"):
            calls.append(p)
            return to_text(p, var)

        to_text = laurent.to_text
        for module in (laurent, obstruction, cli):  # every binding; str(p) reads laurent's
            if getattr(module, "to_text", None) is to_text:
                monkeypatch.setattr(module, "to_text", counted)
        code, raw, _ = run(capsys, "monodromy", "--fixture", "trefoil-monodromy",
                           "--d", "2", "--alpha", "Z/3:x=1,y=1", "--json")
        assert code == 0 and json.loads(raw)["delta"] == "s^4 - s^3 - s + 1"
        assert len(calls) == 1
        for text, reason in (("1 1\ns^2-s+1\n", "(3) monic: delta = s^2 - s + 1"),
                             ("1 1\n2s-2\n", "(3) FAILS: delta = 2s - 2 is not monic")):
            path = tmp_path / "m.txt"
            path.write_text(text)
            calls.clear()
            _, raw, _ = run(capsys, "report", "--presentation", str(path), "--json")
            assert len(calls) == 1
            assert json.loads(raw)["reasons"][2] == reason


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

        for argv, message in ((("--d", "2", "--r", "1"), "a character onto Z/r needs r >= 2"),
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
        for argv, message in ((("--d", "2", "--r", "1"), "a character onto Z/r needs r >= 2"),
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
        # Its one solve of [A | S] also shows det A = +-1: reduced modulo one
        # CRT prime, as the entries are small, and by no other elimination.
        m = load_fixture("figure8-seifert").matrix
        gamma = (m - m.transpose()).solve(m)[1]
        solves, polys, eliminations = [], [], []

        def counted_solve(a, b):
            solves.append(a.rows)
            return solve(a, b)

        def counted_char_poly(h):
            polys.append(h)
            return char_poly(h)

        def counted_rref(a, p):
            eliminations.append((len(a), len(a[0])))
            return rref(a, p)

        def refuse(*args):
            raise AssertionError("evaluation kernel in a Seifert job")

        solve, char_poly = exactla.IntMatrix.solve, exactla.char_poly
        rref = exactla._rref_mod
        monkeypatch.setattr(exactla.IntMatrix, "solve", counted_solve)
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
        assert solves == [2] and polys == [gamma]
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
        def refuse(*args):
            raise AssertionError("a resultant modulus was drawn")

        primes = laurent._primes
        monkeypatch.setattr(laurent, "_primes", refuse)
        for argv in (("--d", "10400"), ("--d", "3529"), ("--sweep", "100000")):
            code, out, err = run(capsys, "resultant", "--poly", "t^2-3t+1", *argv)
            d = argv[1]
            assert (code, out) == (65, "")
            assert err.startswith(f"twist: size limit: the resultant with t^{d} - 1 is bounded "
                                  f"by ||p||_1^{d}, about ")
            assert err.endswith("bits, above the cap of 8192 bits\n")
        # seifert takes char_poly(Gamma), whose packs draw primes, before
        # the sweep; every resultant modulus is cut to _resultant_bounds
        monkeypatch.setattr(laurent, "_primes", primes)
        monkeypatch.setattr(laurent, "_resultant_bounds", refuse)
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

    def test_a_leading_minus_needs_the_equals_form(self, capsys):
        # argparse reads "-t+1" as an option, so --poly takes it as --poly=-t+1
        code, out, err = run(capsys, "resultant", "--poly", "-t+1", "--sweep", "4")
        assert (code, out) == (64, "")
        assert err.endswith("twist resultant: error: argument --poly: expected one argument\n")
        code, out, _ = run(capsys, "resultant", "--poly=-t+1", "--sweep", "4")
        assert (code, out) == (0, "polynomial = -t + 1\nR_2 = 0\nR_3 = 0\nR_4 = 0\n")

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
        # a single row is its own minor; the 2 x 2 loses its unit 1 and
        # leaves a 1 x 1 one
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
    @pytest.mark.parametrize("text", ["-1 -2\n1 1\n", "0 -3\n", "-2 -1\ns 1\n"],
                             ids=["both-negative", "negative-columns", "negative-rows"])
    def test_negative_matrix_shape(self, capsys, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        code, out, err = run(capsys, "report", "--presentation", str(path))
        rows, cols = text.split("\n")[0].split()
        assert (code, out) == (64, "")
        assert err == f"twist: error: negative matrix shape {rows} x {cols} (line 1)\n"

    @pytest.mark.parametrize("text", ["-1\n", "-2\n1 2\n"], ids=["no-rows", "one-row"])
    def test_negative_seifert_size(self, capsys, tmp_path, text):
        # refused on its own line, not by the row count it cannot match
        path = tmp_path / "s.txt"
        path.write_text(text)
        code, out, err = run(capsys, "seifert", "--file", str(path), "--d", "2")
        size = text.split("\n")[0]
        assert (code, out) == (64, "")
        assert err == f"twist: error: negative matrix size {size} (line 1)\n"

    def test_dangling_sign(self, capsys, tmp_path):
        # named at the sign, not as an empty term after it
        path = tmp_path / "m.txt"
        path.write_text("1 2\ns^-3 s+\n")
        code, out, err = run(capsys, "report", "--presentation", str(path))
        assert (code, out) == (64, "")
        assert err == "twist: error: dangling '+' with no term after it (line 2, column 2)\n"

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

    @pytest.mark.parametrize("corruption", [generator_row_off_in_its_last_block,
                                            last_row_is_the_one_before],
                             ids=["generator-row", "basis-head"])
    def test_a_corrupt_translation_table_exits_70(self, capsys, monkeypatch, corruption):
        args = ("monodromy", "--fixture", "trefoil-monodromy", "--d", "6",
                "--alpha", "Z/7:x=1,y=1")
        assert run(capsys, *args)[0] == 0
        monkeypatch.setattr(cover, "_translations", corruption(cover._translations))
        code, out, err = run(capsys, *args)
        assert code == 70 and out == ""
        assert err.startswith("twist: internal error: ") and "did not close up" in err

    def test_unexpected_exception_exits_70(self, capsys, tmp_path, monkeypatch):
        # an exception no handler names is a fault in the program
        def broken(*args):
            raise IndexError("list index out of range")

        monkeypatch.setattr(exactla, "_maximal_minors", broken)
        path = tmp_path / "m.txt"
        path.write_text("2 3\ns-1 1 s\n1 s 0\n")
        code, out, err = run(capsys, "report", "--presentation", str(path))
        assert code == 70 and out == ""
        assert err.startswith("twist: internal error: IndexError: list index out of range\n")
        assert "Traceback" in err


    def test_word_parse_error_has_location(self):
        with pytest.raises(ParseError) as exc:
            formats.parse_monodromy("generators: x\nx -> x z\n")
        assert "line 2" in str(exc.value)

class TestSelftest:
    def test_an_unknown_fixture_is_bad_input(self, capsys, monkeypatch):
        # argparse's choices refuse an unknown --fixture first; selftest loads
        # its fixtures by name, so it reaches the refusal once one is gone
        available = ", ".join(fixtures.FIXTURE_NAMES)
        with pytest.raises(InvariantError) as info:
            load_fixture("no-such")
        assert isinstance(info.value, TwistError)
        assert str(info.value) == f"unknown fixture 'no-such'; available: {available}"
        monkeypatch.delitem(fixtures.FIXTURES, "paper-s5")
        code, out, err = run(capsys, "selftest")
        assert (code, out) == (64, "")
        assert err == f"twist: error: unknown fixture 'paper-s5'; available: {available}\n"

    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "1")
        assert code == 0
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, raw, _ = run(capsys, "selftest", "--json")
        payload = json.loads(raw)
        assert code == 0 and payload["ok"] == payload["total"]


# the options that complete an invocation of each subcommand that takes a fixture
COMPLETIONS = {
    "monodromy": ["--d", "2", "--alpha", "Z/3:x=1,y=1"],
    "seifert": ["--d", "3", "--r", "2", "--sweep", "6"],
    "homcheck": [],
}


def fixture_choices() -> dict[str, list[str]]:
    """Each subcommand's --fixture choices, as its parser declares them."""
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return {command: list(a.choices) for command, p in commands.choices.items()
            for a in p._actions if a.dest == "fixture"}


class TestLambdaMatrixFile:
    def test_repeated_tokens_share_one_value(self):
        m = formats.parse_lambda_matrix("2 3\ns+1 2 s+1\n2 s^-1 s+1\n")
        assert m == exactla.LambdaMatrix.from_rows(
            [[laurent.parse_laurent(tok) for tok in row.split()]
             for row in ("s+1 2 s+1", "2 s^-1 s+1")])
        first, two, third, again, _, last = m.entries
        assert first is third is last and two is again

    def test_a_bad_token_raises_at_its_first_line(self):
        with pytest.raises(ParseError, match=r"\(line 3, column 2\)"):
            formats.parse_lambda_matrix("2 2\ns 1\n1 s+\ns+ s\n")


class TestInputSources:
    def test_each_subcommand_takes_the_fixtures_of_its_kind(self):
        assert fixture_choices() == {
            "monodromy": ["trefoil-monodromy"],
            "seifert": ["trefoil-seifert", "figure8-seifert"],
            "homcheck": ["paper-s5"],
        }

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("command, name", [
        (command, name) for command, names in fixture_choices().items() for name in names])
    def test_fixture_and_file_agree(self, capsys, tmp_path, command, name, flags):
        kind, text = fixtures.FIXTURES[name]
        if kind == "homcheck":
            (tmp_path / "pres.txt").write_text(text[0])
            (tmp_path / "hom.txt").write_text(text[1])
            source = ["--presentation", str(tmp_path / "pres.txt"),
                      "--hom", str(tmp_path / "hom.txt")]
        else:
            (tmp_path / "input.txt").write_text(text)
            source = ["--file", str(tmp_path / "input.txt")]
        rest = COMPLETIONS[command] + flags
        by_fixture = run(capsys, command, "--fixture", name, *rest)
        assert by_fixture[0] == 0 and by_fixture[1]
        assert run(capsys, command, *source, *rest) == by_fixture

    @pytest.mark.parametrize("name", ["trefoil-seifert", "figure8-seifert", "random-4x4"])
    def test_seifert_sweep_is_the_resultant_sweep(self, capsys, tmp_path, name):
        # a Seifert matrix's R_d are read by `twist seifert` alone; `twist
        # resultant` of its Alexander polynomial prints the same numbers
        if name in fixtures.FIXTURES:
            source = ["--fixture", name]
        else:
            rows = seifert.random_seifert_matrix(4, random.Random(5)).matrix.to_rows()
            path = tmp_path / "s4.txt"
            path.write_text("4\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
            source = ["--file", str(path)]
        code, raw, _ = run(capsys, "seifert", *source, "--sweep", "30", "--json")
        by_seifert = json.loads(raw)
        assert code == 0
        code, raw, _ = run(capsys, "resultant", "--poly", by_seifert["alexander"],
                           "--sweep", "30", "--json")
        by_resultant = json.loads(raw)
        assert code == 0
        assert by_seifert["sweep"] == by_resultant["resultant"]
        assert by_seifert["alexander"] == by_resultant["polynomial"]
        assert sorted(map(int, by_seifert["sweep"])) == list(range(2, 31))

    @pytest.mark.parametrize("name", ["trefoil-monodromy", "paper-s5", "nope"])
    def test_a_fixture_of_another_kind_is_a_choice_error(self, capsys, name):
        code, out, err = run(capsys, "seifert", "--fixture", name, "--d", "2")
        assert code == 64 and out == ""
        assert f"twist seifert: error: argument --fixture: invalid choice: {name!r}" in err


TREFOIL_ALPHA = ("monodromy", "--fixture", "trefoil-monodromy", "--d", "2", "--alpha")


class TestRefusals:
    """Each invocation exits 64 with a message naming its cause, and none
    is answered from part of what was given."""

    @pytest.mark.parametrize("alpha, message", [
        ("Z/3:x=2,x=1,y=1", "duplicate value for 'x' in assignment 'x=1'"),
        ("Z/3:x=1,y=1,z=1", "unexpected generator(s): z"),
        ("Z/3:x=1", "missing value for generator(s): y"),
        ("Z/3:x=1,y=one", "expected an integer for cyclic target, got 'one' in assignment 'y=one'"),
        ("Z/3:x=1,y", "expected 'generator = value' in assignment 'y'"),
        ("Z/3:x=1,2y=1", "malformed generator name '2y' in assignment '2y=1'"),
        ("A5:x=(123),y=(345)", "inline homomorphisms support cyclic targets only"),
    ], ids=["duplicate", "unknown", "missing", "value", "no-equals", "name", "non-cyclic"])
    def test_inline_alpha(self, capsys, alpha, message):
        assert run(capsys, *TREFOIL_ALPHA, alpha) == (64, "", f"twist: error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["resultant", "--poly", "t^2-3t+1", "--sweep", "0"],
        ["resultant", "--poly", "t^2-3t+1", "--sweep", "-5"],
        ["resultant", "--poly", "t^2-3t+1", "--sweep", "1"],
        ["seifert", "--fixture", "trefoil-seifert", "--sweep", "1"],
        ["seifert", "--fixture", "trefoil-seifert", "--d", "3", "--sweep", "0"],
    ], ids=["resultant-0", "resultant-negative", "resultant-1", "seifert-1", "seifert-d-0"])
    def test_empty_sweep(self, capsys, argv):
        # d = 2..SWEEP is empty, so no R_d line would print
        assert run(capsys, *argv) == (64, "", "twist: error: sweep must be an integer >= 2\n")

    def test_shortest_sweep_prints_one_line(self, capsys):
        for argv, key in ((["resultant", "--poly", "t^2-3t+1"], "resultant"),
                          (["seifert", "--fixture", "trefoil-seifert"], "sweep")):
            code, raw, _ = run(capsys, *argv, "--sweep", "2", "--json")
            assert code == 0 and json.loads(raw)[key] == {"2": 5 if key == "resultant" else 3}

    def test_inline_alpha_without_its_colon_names_a_file(self, capsys, tmp_path, monkeypatch):
        # a value that is not a target and a colon is a homomorphism file path
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *TREFOIL_ALPHA, "Z/3x=1,y=1")
        assert code == 64 and out == ""
        assert "No such file or directory: 'Z/3x=1,y=1'" in err
        with pytest.raises(ParseError, match="malformed inline homomorphism 'Z/3x=1,y=1'"):
            formats.parse_inline_alpha("Z/3x=1,y=1", ["x", "y"])

    @pytest.mark.parametrize("body, message", [
        ("x = 2\nx = 1\ny = 1\n", "duplicate value for 'x' (line 3)"),
        ("x = 1\ny = 1\nz = 1\n", "unexpected generator(s): z"),
        ("x = 1\n", "missing value for generator(s): y"),
        ("x = 1\ny = one\n", "expected an integer for cyclic target, got 'one' (line 3)"),
        ("x = 1\ny\n", "expected 'generator = value' line (line 3)"),
    ], ids=["duplicate", "unknown", "missing", "value", "no-equals"])
    def test_hom_file_refuses_as_inline_does(self, capsys, tmp_path, body, message):
        path = tmp_path / "alpha.txt"
        path.write_text("target: Z/3\n" + body)
        assert run(capsys, *TREFOIL_ALPHA, str(path)) == (64, "", f"twist: error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["resultant", "--poly", "t-2", "--file", "missing.txt"],
         "unrecognized arguments: --file missing.txt"),
        (["resultant", "--fixture", "trefoil-seifert", "--poly", "t-2"],
         "unrecognized arguments: --fixture trefoil-seifert"),
        (["resultant", "--fixture", "trefoil-seifert"],
         "the following arguments are required: --poly"),
        (["resultant", "--poly", "t-2", "--d", "5", "--sweep", "4"],
         "argument --sweep: not allowed with argument --d"),
        (["resultant", "--poly", "t-2", "--d", "5", "--sweep", "30"],
         "argument --sweep: not allowed with argument --d"),
        (["resultant", "--poly", "t-2", "--d", "5", "--sweep"],
         "argument --sweep: not allowed with argument --d"),
        (["resultant", "--d", "5"],
         "the following arguments are required: --poly"),
        (["seifert", "--fixture", "trefoil-seifert", "--file", "s.txt", "--d", "2"],
         "argument --file: not allowed with argument --fixture"),
        (["monodromy", "--d", "2", "--alpha", "Z/3:x=1,y=1"],
         "one of the arguments --fixture --file is required"),
        (["homcheck", "--fixture", "paper-s5", "--presentation", "p.txt", "--hom", "h.txt"],
         "argument --presentation: not allowed with argument --fixture"),
    ], ids=["poly-file", "fixture-poly", "resultant-fixture", "d-sweep", "d-sweep-30",
            "d-bare-sweep", "resultant-no-source", "fixture-file", "monodromy-no-source",
            "homcheck-both"])
    def test_source_and_degree_conflicts(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err.endswith(f"twist {argv[0]}: error: {message}\n")

    @pytest.mark.parametrize("argv, extra", [
        (["resultant", "--poly", "t-2", "--file", "F"], "--file F"),
        (["seifert", "--fixture", "trefoil-seifert", "--d", "2", "--bogus", "1"], "--bogus 1"),
        (["report", "--presentation", "p.txt", "stray"], "stray"),
    ], ids=["resultant", "seifert", "report-positional"])
    def test_unrecognized_arguments_name_the_subcommand(self, capsys, argv, extra):
        # the subcommand's own parser refuses what it does not take, so the
        # usage line is the subcommand's, not the top level's
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == ""
        assert err.startswith(f"usage: twist {argv[0]} [-h]")
        assert err.endswith(f"twist {argv[0]}: error: unrecognized arguments: {extra}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--fixture", "paper-s5", "--hom", "h.txt"],
         "--hom goes with --presentation, not with --fixture"),
        (["--presentation", "p.txt"], "--presentation needs --hom"),
    ], ids=["fixture-hom", "presentation-alone"])
    def test_homcheck_hom_goes_with_presentation(self, capsys, argv, message):
        assert run(capsys, "homcheck", *argv) == (64, "", f"twist: error: {message}\n")


# -- every refusal the command line can reach ----------------------------------

TREFOIL_MONO = "generators: x y\nx -> y^-1\ny -> x y\n"
NINES_400 = "9" * 400
NINES_4299 = "9" * 4299
NINES_4300 = "9" * 4300
Z_1E4000 = "Z/1" + "0" * 4000
# d log2(3) for d = 10^400 - 1, with log2(3) taken as a double, rounded up
BITS_400 = math.ceil(Fraction(math.log2(3)) * int(NINES_400))


def _mono(body):
    return (["monodromy", "--file", "{m}", "--d", "2", "--alpha", "Z/3:x=1,y=1"],
            {"m": body})


def _seifert(body):
    return ["seifert", "--file", "{s}", "--d", "2"], {"s": body}


def _report(body):
    return ["report", "--presentation", "{m}"], {"m": body}


def _alpha(body):
    return ["monodromy", "--fixture", "trefoil-monodromy", "--d", "2", "--alpha", "{h}"], {"h": body}


def _homcheck(pres, hom):
    return ["homcheck", "--presentation", "{p}", "--hom", "{h}"], {"p": pres, "h": hom}


def _cli(*argv):
    return list(argv), {}


REFUSALS = [
    # word exponents, the generators line and the monodromy lines
    ("word-malformed-exponent", _mono("generators: x y\nx -> x^a\ny -> y\n"), 64,
     "malformed exponent in 'x^a' (line 2)"),
    ("word-zero-exponent", _mono("generators: x y\nx -> x^0\ny -> y\n"), 64,
     "zero exponent in 'x^0' (line 2)"),
    ("no-generators-line", _mono("x -> y\n"), 64,
     "monodromy file must start with a 'generators:' line (line 1)"),
    ("empty-monodromy", _mono("# nothing\n"), 64,
     "monodromy file must start with a 'generators:' line (line 1)"),
    ("malformed-generator-names", _mono("generators: x 2y\n"), 64,
     "malformed generator names (line 1)"),
    ("no-arrow", _mono("generators: x y\nx y\n"), 64,
     "expected 'generator -> image' line (line 2)"),
    ("image-of-unknown", _mono("generators: x y\nz -> x\n"), 64,
     "unknown generator 'z' (line 2)"),
    ("duplicate-image", _mono("generators: x y\nx -> x\nx -> y\ny -> y\n"), 64,
     "duplicate image for 'x' (line 3)"),
    ("missing-image", _mono("generators: x y\nx -> y\n"), 64,
     "missing image for generator(s): y"),
    # Seifert matrix files
    ("empty-seifert", _seifert(""), 64, "empty Seifert matrix file (line 1)"),
    ("seifert-size-line", _seifert("two\n1 0\n"), 64,
     "first line must be the matrix size (line 1)"),
    ("seifert-row", _seifert("2\n-1 x\n0 -1\n"), 64, "malformed integer row (line 2)"),
    ("seifert-row-length", _seifert("2\n-1 1 0\n0 -1\n"), 64,
     "expected 2 entries in row (line 2)"),
    ("seifert-row-count", _seifert("2\n-1 1\n"), 64, "expected 2 rows, got 1"),
    # Laurent matrix files and polynomial text
    ("empty-matrix", _report(""), 64, "empty matrix file (line 1)"),
    ("matrix-shape-line", _report("2\ns 1\n"), 64, "first line must be 'rows cols' (line 1)"),
    ("matrix-entry-count", _report("1 2\ns\n"), 64, "expected 2 entries, got 1"),
    ("malformed-term", _report("1 1\ns+*\n"), 64,
     "malformed polynomial term at '*' (line 2, column 2)"),
    ("superscript-exponent", _report("1 1\ns^²+1\n"), 64, "malformed exponent (line 2, column 3)"),
    ("superscript-exponent-poly", _cli("resultant", "--poly", "s^²"), 64, "malformed exponent"),
    ("superscript-term", _cli("resultant", "--poly", "t+²"), 64,
     "malformed polynomial term at '²'"),
    ("numeral-too-long", _report("1 1\ns+" + "7" * 5000 + "\n"), 64,
     "numeral of 5000 characters is too long (line 2, column 3)"),
    ("exponent-too-long", _cli("resultant", "--poly", "t^" + "7" * 5000), 64,
     "numeral of 5000 characters is too long"),
    # homomorphism targets and files
    ("malformed-cyclic-target", _alpha("target: Z/x\nx = 1\ny = 1\n"), 64,
     "malformed cyclic target 'Z/x' (line 1)"),
    ("unknown-target", _alpha("target: D5\nx = 1\ny = 1\n"), 64,
     "unknown target group 'D5' (line 1)"),
    ("malformed-cyclic-target-too-long", _alpha("target: Z/1" + "0" * 5000 + "x\nx = 1\ny = 1\n"),
     64, "malformed cyclic target 'Z/1" + "0" * 34 + "...' (line 1)"),
    ("unknown-target-too-long", _alpha("target: D" + "0" * 5000 + "\nx = 1\ny = 1\n"), 64,
     "unknown target group 'D" + "0" * 36 + "...' (line 1)"),
    ("no-target-line", _alpha("x = 1\ny = 1\n"), 64,
     "homomorphism file must start with a 'target:' line (line 1)"),
    ("zero-cyclic-order", _alpha("target: Z/0\nx = 1\ny = 1\n"), 64,
     "cyclic order must be >= 1 (line 1)"),
    ("negative-cyclic-order", _alpha("target: Z/-3\nx = 1\ny = 1\n"), 64,
     "cyclic order must be >= 1 (line 1)"),
    ("zero-cyclic-order-inline", _cli(*TREFOIL_ALPHA, "Z/0:x=1,y=1"), 64,
     "cyclic order must be >= 1"),
    ("permutation-degree-too-long", _alpha("target: S" + "7" * 5000 + "\nx = ()\ny = ()\n"),
     64, "permutation degree of 5000 digits is too long (line 1)"),
    ("cyclic-order-too-long", _alpha("target: Z/1" + "0" * 5000 + "\nx = 1\ny = 1\n"), 64,
     "cyclic order of 5001 digits is too long (line 1)"),
    ("cyclic-order-too-long-inline", _cli(*TREFOIL_ALPHA, "Z/1" + "0" * 5000 + ":x=1,y=1"), 64,
     "cyclic order of 5001 digits is too long"),
    ("no-relator-line", _homcheck("generators: a\na a\n", "target: Z/3\na = 1\n"), 64,
     "expected 'relator: <word>' line (line 2)"),
    # cycle notation
    ("cycle-without-paren", _alpha("target: S3\nx = 1 2\ny = ()\n"), 64,
     "expected '(' in cycle notation, got '1' (line 2, column 1)"),
    ("unclosed-cycle", _alpha("target: S3\nx = (1 2\ny = ()\n"), 64,
     "unclosed cycle (line 2, column 1)"),
    ("cycle-point-out-of-range", _alpha("target: S3\nx = (1 4)\ny = ()\n"), 64,
     "cycle point out of range 1..3 (line 2, column 1)"),
    ("repeated-cycle-point", _alpha("target: S3\nx = (1 2)(2 3)\ny = ()\n"), 64,
     "repeated point in cycle notation (line 2, column 6)"),
    ("letter-cycle-point", _alpha("target: S3\nx = (1 a)\ny = ()\n"), 64,
     "malformed cycle point (line 2, column 1)"),
    ("slash-cycle-point", _alpha("target: S3\nx = (12/3)\ny = ()\n"), 64,
     "malformed cycle point (line 2, column 1)"),
    ("superscript-cycle-point", _alpha("target: S3\nx = (1²)\ny = ()\n"), 64,
     "malformed cycle point (line 2, column 1)"),
    # arguments the computations check
    ("seifert-without-degree", _cli("seifert", "--fixture", "trefoil-seifert"), 64,
     "give --d and/or --sweep"),
    ("monodromy-d-0", _cli("monodromy", "--fixture", "trefoil-monodromy", "--d", "0",
                           "--alpha", "Z/3:x=1,y=1"), 64, "d must be a positive integer"),
    ("monodromy-not-onto", _cli(*TREFOIL_ALPHA, "Z/6:x=0,y=2"), 64,
     "images generate a proper subgroup of Z/6; cover would be disconnected"),
    ("monodromy-no-lift", _cli("monodromy", "--fixture", "trefoil-monodromy", "--d", "1",
                               "--alpha", "Z/3:x=1,y=1"), 64,
     "endomorphism does not satisfy alpha(f(x)) = alpha(x); it has no lift"),
    ("resultant-zero-at-d", _cli("resultant", "--poly", "0", "--d", "3"), 64,
     "resultant of the zero polynomial is undefined"),
    ("resultant-d-0", _cli("resultant", "--poly", "t-2", "--d", "0"), 64,
     "d must be a positive integer"),
    ("resultant-zero-sweep", _cli("resultant", "--poly", "0"), 64,
     "resultant of the zero polynomial is undefined"),
    ("seifert-d-1", _cli("seifert", "--fixture", "trefoil-seifert", "--d", "1"), 64,
     "branched presentation needs d >= 2"),
    ("seifert-r-1", _cli("seifert", "--fixture", "trefoil-seifert", "--d", "2", "--r", "1"), 64,
     "a character onto Z/r needs r >= 2"),
    # size refusals, whose messages give a number past 4300 digits by its bit length
    ("resultant-huge-d", _cli("resultant", "--poly", "t-2", "--d", NINES_400), 65,
     f"the resultant with t^{NINES_400} - 1 is bounded by ||p||_1^{NINES_400}, "
     f"about {BITS_400} bits, above the cap of 8192 bits"),
    ("seifert-huge-sweep", _cli("seifert", "--fixture", "trefoil-seifert", "--sweep", NINES_400),
     65, f"the resultant with t^{NINES_400} - 1 is bounded by ||p||_1^{NINES_400}, "
         f"about {BITS_400} bits, above the cap of 8192 bits"),
    ("lift-huge-d", _cli("monodromy", "--fixture", "trefoil-monodromy", "--d", NINES_4299,
                         "--alpha", "Z/3:x=1,y=1"), 65,
     f"lifting f^{NINES_4299} needs at least 2^14288 or more units of chain work, "
     "above the cap of 20000000"),
    ("lift-huge-cyclic-order", _cli(*TREFOIL_ALPHA, Z_1E4000 + ":x=1,y=1"), 65,
     "lifting f^2 needs at least 2^26578 or more units of chain work, "
     "above the cap of 20000000"),
    ("lift-chain-work", (["monodromy", "--file", "{m}", "--d", "30000", "--alpha", "Z/1:x=0"],
                         {"m": "generators: x\nx -> x x\n"}), 65,
     "lifting f^30000: chain work passed the cap of 20000000 with entries of 4882 bits"),
    ("branched-huge-d", _cli("seifert", "--fixture", "trefoil-seifert", "--d", NINES_4300), 65,
     f"the {NINES_4300}-fold branched presentation of a 2x2 Seifert matrix has "
     "2^14285 or more rows, above the cap of 1000"),
    ("lift-s2000", _alpha("target: S2000\nx = (1 2)\ny = (1 2)\n"), 65,
     "target order of S2000 exceeds the closure bound 1000000"),
    ("closure-s10", _homcheck("generators: a\nrelator: a a^-1\n", "target: S10\na = (1 2)\n"),
     65, "target order of S10 exceeds the closure bound 1000000"),
    ("closure-a10", _homcheck("generators: a\nrelator: a a^-1\n", "target: A10\na = ()\n"),
     65, "target order of A10 exceeds the closure bound 1000000"),
    ("closure-s100000", _homcheck("generators: a\nrelator: a a^-1\n",
                                  "target: S100000\na = (1 2)\n"),
     65, "target order of S100000 exceeds the closure bound 1000000"),
    ("closure-s10000000", _homcheck("generators: a\nrelator: a a^-1\n",
                                    "target: S10000000\na = (1 2)\n"),
     65, "target order of S10000000 exceeds the closure bound 1000000"),
    ("closure-huge-cyclic", _homcheck("generators: a\nrelator: a^3\n",
                                      "target: Z/1000001\na = 1\n"),
     65, "target order 1000001 exceeds the closure bound 1000000"),
    ("resultant-sweep-work", _cli("resultant", "--poly", "t^2000-1"), 65,
     "the resultant sweep to d = 30 of a polynomial of degree 2000 needs 240000000 units "
     "of power-sum and Newton work, above the cap of 10000000"),
    ("resultant-sweep-work-8000", _cli("resultant", "--poly", "t^8000-t-1"), 65,
     "the resultant sweep to d = 30 of a polynomial of degree 8000 needs 3840000000 units "
     "of power-sum and Newton work, above the cap of 10000000"),
    ("resultant-sweep-work-over-by-one-d", _cli("resultant", "--poly", "t^400-t-1", "--sweep", "32"),
     65, "the resultant sweep to d = 32 of a polynomial of degree 400 needs 10240000 units "
         "of power-sum and Newton work, above the cap of 10000000"),
    ("exponent-span", _cli("resultant", "--poly", "t^99999999999999999999-1", "--d", "2"), 65,
     "the polynomial's exponents span 99999999999999999999, above the cap of 100000"),
    ("exponent-span-in-file", _report("1 1\ns^-50001+s^50000\n"), 65,
     "the polynomial's exponents span 100001 (line 2), above the cap of 100000"),
]


class TestEveryRefusal:
    """Each input the command line refuses exits 64 (the input is at fault)
    or 65 (it is too large), prints nothing, and names its cause in one
    exact line."""

    @pytest.mark.parametrize("case, code, message", [row[1:] for row in REFUSALS],
                             ids=[row[0] for row in REFUSALS])
    def test_refusal(self, capsys, tmp_path, case, code, message):
        argv, files = case
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text, encoding="utf-8")
        argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
        prefix = "size limit" if code == 65 else "error"
        assert run(capsys, *argv) == (code, "", f"twist: {prefix}: {message}\n")

    def test_the_widest_span_parses(self):
        assert laurent.parse_laurent("s^-50000 + s^50000").degree == 50000

    def test_a_zero_term_does_not_widen_the_span(self):
        assert laurent.parse_laurent("s^200000 - s^200000 + 1") == laurent.LaurentPoly(0, (1,))


class TestInternalFaults:
    def test_a_value_error_in_the_program_exits_70(self, capsys, monkeypatch):
        # a builtin ValueError is a fault in the program, never bad input
        def broken(matrix):
            raise ValueError("characteristic polynomial needs a square matrix")

        monkeypatch.setattr(cover, "char_poly", broken)
        code, out, err = run(capsys, "monodromy", "--fixture", "trefoil-monodromy",
                             "--d", "2", "--alpha", "Z/3:x=1,y=1")
        assert (code, out) == (70, "")
        assert err.startswith("twist: internal error: ValueError: characteristic "
                              "polynomial needs a square matrix\nTraceback")


class TestHomcheckFailures:
    def test_failed_relators_are_listed(self, capsys, tmp_path):
        pres = tmp_path / "p.txt"
        pres.write_text("generators: a b\nrelator: a\nrelator: a b a^-1 b^-1\nrelator: b\n")
        hom = tmp_path / "h.txt"
        hom.write_text("target: Z/3\na = 1\nb = 2\n")
        code, out, _ = run(capsys, "homcheck", "--presentation", str(pres), "--hom", str(hom))
        assert code == 0
        assert out == ("relations: 1/3 ok (failed: 1, 3); image order = 3 (surjective)\n")
