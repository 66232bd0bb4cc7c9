"""The ``twist`` command line: monodromy, seifert, resultant, homcheck,
report and selftest subcommands over the built-in fixtures, input files or,
for resultant, a polynomial's text."""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import re
import sys
import traceback

from . import formats, laurent
from .cover import twisted_invariants
from .errors import InvariantError, SizeLimitError, TwistError
from .fixtures import FIXTURES, load_fixture
from .grouphom import generated_subgroup_order, verify_homomorphism
from .laurent import cyclotomic_resultants, resultant_with_cyclotomic, to_text
from .obstruction import evaluate_fibred_obstruction, fibred_verdict
from .seifert import (SeifertMatrix, alexander_polynomial, branched_cover,
                      branched_cover_homology_from_monodromy, random_seifert_matrix)

EX_USAGE = 64
EX_TOOBIG = 65
EX_SOFTWARE = 70

# an --alpha value is inline when it starts with a target and a colon
_INLINE_ALPHA = re.compile(r"(Z/\d+|[AS]\d+):")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


class _Subcommand(_Parser):
    """A subcommand's parser refuses the arguments it does not take itself,
    so that the usage line names the subcommand; argparse would hand them
    back to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _source(args) -> str:
    """The text of the subcommand's one input: its fixture's or its file's."""
    return FIXTURES[args.fixture][1] if args.fixture is not None else _read(args.file)


def _emit(args, lines, payload: dict) -> None:
    """Print payload as one JSON line under --json, else the text lines,
    which are read (and so, from a generator, built) only then."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _report_payload(report) -> dict:
    return {
        "torsion": report.torsion,
        "principal": report.principal,
        "monic": report.monic,
        "delta": report.delta_text,
        "verdict": report.verdict,
        "reasons": list(report.reasons),
    }


def _cmd_monodromy(args) -> int:
    endo, names = formats.parse_monodromy(_source(args))
    if _INLINE_ALPHA.match(args.alpha):
        alpha = formats.parse_inline_alpha(args.alpha, names)
    else:
        alpha = formats.parse_hom(_read(args.alpha), names)
    inv = twisted_invariants(endo, args.d, alpha)
    n = inv.h_matrix.rows
    # det(sI - H) is monic of degree n, so sI - H has full rank n
    report = fibred_verdict(n, n, n, inv.delta)
    payload = {
        "group_order": alpha.target.order,
        "h1_rank": n,
        "h": inv.h_matrix.to_rows(),
        "delta": report.delta_text,
        "torsion": report.torsion,
        "principal": report.principal,
        "monic": report.monic,
        "verdict": report.verdict,
    }
    labels = ("group order", "H1 rank", "H", "delta", "torsion", "principal", "monic", "verdict")
    _emit(args, (f"{label} = {value}" for label, value in zip(labels, payload.values())),
          payload)
    return report.exit_code


def _bool_text(b: bool) -> str:
    return "true" if b else "false"


def _order_check(s: SeifertMatrix, d: int) -> tuple[int, int]:
    """The order of H1 of the d-fold branched cover of s (0 when infinite)
    and R_d, which must agree."""
    return (branched_cover(s, d).homology.order or 0,
            resultant_with_cyclotomic(alexander_polynomial(s), d))


def _check_sweep(args) -> None:
    """Refuse a --sweep whose range d = 2..SWEEP is empty."""
    if args.sweep is not None and args.sweep < 2:
        raise InvariantError("sweep must be an integer >= 2")


def _cmd_seifert(args) -> int:
    s = formats.parse_seifert(_source(args))
    if args.d is None and args.sweep is None:
        raise InvariantError("give --d and/or --sweep")
    _check_sweep(args)
    if args.r is not None and args.d is None:
        raise InvariantError("--r needs --d: the character lives on the d-fold branched cover")
    alex = alexander_polynomial(s)
    payload: dict = {"alexander": to_text(alex, var="t")}
    lines = [f"alexander = {payload['alexander']}"]
    # the cover's argument checks come before the sweep's cap
    cover = None if args.d is None else branched_cover(s, args.d, args.r)
    sweep = {} if args.sweep is None else cyclotomic_resultants(alex, args.sweep)
    if cover is not None:
        hom, jump = cover.homology, cover.jump
        order = hom.order or 0  # R_d = 0 exactly when H1 is infinite
        # R_d is read from the sweep when d <= SWEEP
        resultant = sweep[args.d] if args.d in sweep else resultant_with_cyclotomic(alex, args.d)
        agree = order == resultant
        payload.update({
            "d": args.d,
            "h1": hom.group_text(),
            "h1_order": order,
            "resultant": resultant,
            "agree": agree,
        })
        lines.append(
            f"H1 = {payload['h1']}; resultant = {resultant}; agree = {_bool_text(agree)}")
        if args.r is not None:
            if jump is None:
                lines.append(f"no surjection onto Z/{args.r}")
                payload["character_jump"] = None
            else:
                lines.append(
                    f"chi = {[list(row) for row in jump.character]}; "
                    f"jump = {jump.jump}; order = {jump.order}")
                payload["character_jump"] = {
                    "character": [list(row) for row in jump.character],
                    "jump": list(jump.jump),
                    "order": jump.order,
                }
    if args.sweep is not None:
        payload["sweep"] = {str(d): rd for d, rd in sweep.items()}
    _emit(args, itertools.chain(lines, (f"R_{d} = {rd}" for d, rd in sweep.items())), payload)
    return 0


def _cmd_resultant(args) -> int:
    _check_sweep(args)
    p = laurent.parse_laurent(args.poly)
    if args.d is not None:
        results = {args.d: resultant_with_cyclotomic(p, args.d)}
    else:
        results = cyclotomic_resultants(p, args.sweep if args.sweep is not None else 30)
    text = to_text(p, var="t")
    payload = {"polynomial": text, "resultant": {str(d): rd for d, rd in results.items()}}
    lines = itertools.chain([f"polynomial = {text}"],
                            (f"R_{d} = {rd}" for d, rd in results.items()))
    _emit(args, lines, payload)
    return 0


def _cmd_homcheck(args) -> int:
    if args.fixture is not None:
        if args.hom is not None:
            raise InvariantError("--hom goes with --presentation, not with --fixture")
        texts = iter(FIXTURES[args.fixture][1])
    elif args.hom is None:
        raise InvariantError("--presentation needs --hom")
    else:
        texts = map(_read, (args.presentation, args.hom))  # each read when parsed
    pres, names = formats.parse_presentation(next(texts))
    hom = formats.parse_hom(next(texts), names)
    failures = verify_homomorphism(hom, pres)
    order = generated_subgroup_order(hom)
    surjective = order == hom.target.order
    total = len(pres.relators)
    ok = total - len(failures)
    status = f"relations: {ok}/{total} ok"
    if failures:
        status += " (failed: " + ", ".join(str(k + 1) for k in failures) + ")"
    status += f"; image order = {order} ({'surjective' if surjective else 'not surjective'})"
    payload = {
        "relators_total": total,
        "relators_ok": ok,
        "failed_relators": [k + 1 for k in failures],
        "image_order": order,
        "surjective": surjective,
    }
    _emit(args, [status], payload)
    return 0


def _cmd_report(args) -> int:
    p = formats.parse_lambda_matrix(_read(args.presentation))
    report = evaluate_fibred_obstruction(p)
    payload = _report_payload(report)
    keys = ("torsion", "principal", "monic", "delta", "verdict")
    lines = itertools.chain((f"{key} = {payload[key]}" for key in keys),
                            (f"  {r}" for r in report.reasons))
    _emit(args, lines, payload)
    return report.exit_code


def _cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    checks: list[tuple[str, bool, str]] = []

    fx = load_fixture("trefoil-monodromy")
    alpha = formats.parse_inline_alpha("Z/3:x=1,y=1", fx.names)
    inv = twisted_invariants(fx.endo, 2, alpha)
    delta_text = to_text(inv.delta)
    checks.append(("trefoil-monodromy delta", delta_text == "s^4 - s^3 - s + 1",
                   f"delta = {delta_text}"))
    det_h = inv.h_matrix.det()
    checks.append(("trefoil-monodromy det(H)", det_h == 1, f"det = {det_h}"))
    mono_h1 = branched_cover_homology_from_monodromy(fx.endo, 2)
    checks.append(("trefoil branched H1 (monodromy)", mono_h1.group_text() == "Z/3",
                   f"H1 = {mono_h1.group_text()}"))

    s = load_fixture("trefoil-seifert")
    seifert_h1 = branched_cover(s, 2).homology
    checks.append(("trefoil branched H1 (seifert)", seifert_h1.group_text() == "Z/3",
                   f"H1 = {seifert_h1.group_text()}"))

    order, resultant = _order_check(load_fixture("figure8-seifert"), 2)
    checks.append(("figure8 d=2 order", (order, resultant) == (5, 5),
                   f"order = {order}, resultant = {resultant}"))

    s5 = load_fixture("paper-s5")
    failures = verify_homomorphism(s5.hom, s5.presentation)
    order = generated_subgroup_order(s5.hom)
    checks.append(("paper-s5 relations", not failures, f"failures = {list(failures)}"))
    checks.append(("paper-s5 image order", order == 60, f"order = {order}"))

    for i in range(3):
        rs = random_seifert_matrix(rng.choice((2, 4)), rng)
        order, resultant = _order_check(rs, rng.randint(2, 5))
        checks.append((f"random seifert agreement #{i + 1}", order == resultant,
                       f"order = {order}, resultant = {resultant}"))

    lines = []
    ok = 0
    for name, passed, detail in checks:
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
        ok += passed
    lines.append(f"selftest: {ok}/{len(checks)} checks ok")
    payload = {
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in checks],
        "ok": ok,
        "total": len(checks),
    }
    _emit(args, lines, payload)
    return 0 if ok == len(checks) else 1


def _source_group(p, kind: str):
    """The subcommand's required input, of which it takes exactly one: a
    built-in fixture of ``kind``, or one of the options the caller adds."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", choices=[n for n, (k, _) in FIXTURES.items() if k == kind],
                       help="built-in fixture name")
    return group


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="twist",
                     description="Twisted Alexander invariants and the fibredness obstruction")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    p = sub.add_parser("monodromy", help="twisted invariants from a fibred monodromy")
    _source_group(p, "monodromy").add_argument("--file", help="input file path")
    p.add_argument("--d", type=int, required=True, help="covering degree")
    p.add_argument("--alpha", required=True,
                   help="surjection: inline Z/r:x=a,y=b or a homomorphism file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("seifert", help="branched-cover data from a Seifert matrix")
    _source_group(p, "seifert").add_argument("--file", help="input file path")
    p.add_argument("--d", type=int, help="covering degree (>= 2)")
    p.add_argument("--r", type=int, help="cyclic character target order")
    p.add_argument("--sweep", type=int, help="print R_d for d = 2..SWEEP")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_seifert)

    p = sub.add_parser("resultant", help="resultants against t^d - 1")
    p.add_argument("--poly", required=True, help="polynomial text, e.g. 't^2-3t+1'")
    degree = p.add_mutually_exclusive_group()
    degree.add_argument("--d", type=int, help="single degree")
    # no default: with neither option the sweep runs to 30
    degree.add_argument("--sweep", type=int, nargs="?", const=30,
                        help="sweep d = 2..SWEEP (default 30)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_resultant)

    p = sub.add_parser("homcheck", help="verify a homomorphism kills a presentation")
    _source_group(p, "homcheck").add_argument("--presentation", help="presentation file")
    p.add_argument("--hom", help="homomorphism file (with --presentation)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_homcheck)

    p = sub.add_parser("report", help="fibredness obstruction verdict for a presentation matrix")
    p.add_argument("--presentation", required=True, help="Laurent matrix file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("selftest", help="reproduce the built-in fixture numbers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EX_USAGE
    # the exception's class alone decides the exit code
    try:
        return args.func(args)
    except SizeLimitError as e:
        print(f"twist: size limit: {e}", file=sys.stderr)
        return EX_TOOBIG
    except (TwistError, OSError) as e:
        print(f"twist: error: {e}", file=sys.stderr)
        return EX_USAGE
    except Exception as e:  # any other exception is a fault in the program
        print(f"twist: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
