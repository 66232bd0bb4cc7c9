"""Output checks for benchmark jobs, by routes independent of the program.

``check(job, rc, payload)`` returns None when the job's JSON payload is
right, else a one-line reason.  It runs outside the timed region.
"""

from __future__ import annotations

import math

import oracle

# The two integer points at which delta(k) = det(kI - H) is checked.
POINTS = (2, -3)


def check(job, rc: int, payload: dict | None) -> str | None:
    if rc != job.expect_rc:
        return f"exit code {rc}, expected {job.expect_rc}"
    if payload is None:
        return "no JSON payload on stdout"
    try:
        return _CHECKS[job.kind](job.spec, payload)
    except (KeyError, TypeError, ValueError, ArithmeticError) as e:
        return f"malformed payload: {type(e).__name__}: {e}"


def _cover(spec, out):
    r, rank = spec["r"], spec["rank"]
    h = out["h"]
    n = (rank - 1) * r + 1
    if out["group_order"] != r or out["h1_rank"] != n or len(h) != n:
        return f"cover of order {out['group_order']} with H1 rank {out['h1_rank']}, expected {r}, {n}"
    if any(len(row) != n for row in h):
        return "H is not square"
    if abs(oracle.det(h)) != 1:
        return "det H is not +-1"
    delta = oracle.parse_poly(out["delta"])
    if not oracle.is_monic(delta) or out["monic"] != "yes":
        return f"delta {out['delta']} is not reported monic"
    for k in POINTS:
        expected = oracle.det([[(k if i == j else 0) - h[i][j] for j in range(n)]
                               for i in range(n)])
        if oracle.evaluate(delta, k) != expected:
            return f"delta({k}) != det({k}I - H)"
    if out["torsion"] != "yes" or out["verdict"] != "consistent-with-fibred":
        return f"verdict {out['verdict']} for a square monic presentation"
    return None


def _seifert(spec, out):
    s, d, r = spec["s"], spec["d"], spec["r"]
    if oracle.parse_poly(out["alexander"]) != spec["delta"]:
        return f"alexander {out['alexander']} is wrong"
    parts = [] if out["h1"] == "0" else out["h1"].split(" + ")
    if "Z" in parts:
        return f"H1 = {out['h1']} is infinite, expected order {spec['order']}"
    factors = [int(part[2:]) for part in parts]
    if math.prod(factors) != spec["order"] or out["resultant"] != spec["order"]:
        return f"H1 = {out['h1']}, resultant {out['resultant']}, expected order {spec['order']}"
    if out["h1_order"] != spec["order"] or out["agree"] is not True:
        return "order check does not agree"
    chi = [x for row in out["character_jump"]["character"] for x in row]
    pres = oracle.branched_presentation(s, d)
    if len(chi) != len(pres) or math.gcd(r, *chi) != 1:
        return "character is not a surjection onto Z/r"
    for j in range(len(pres)):
        if sum(chi[i] * pres[i][j] for i in range(len(pres))) % r:
            return f"character does not kill relation column {j}"
    order = out["character_jump"]["order"]
    if order < 2 or r % order:
        return f"jump order {order} does not divide {r}"
    sweep = out["sweep"]
    if sorted(map(int, sweep)) != list(range(2, len(sweep) + 2)):
        return "sweep degrees are not 2..K"
    for k, value in sweep.items():
        if not oracle.resultant_matches(spec["delta"], int(k), value):
            return f"R_{k} = {value} is wrong"
    return None


def _resultant(spec, out):
    if oracle.parse_poly(out["polynomial"]) != spec["delta"]:
        return f"polynomial {out['polynomial']} is wrong"
    (k, value), = out["resultant"].items()
    if int(k) != spec["d"] or not oracle.resultant_matches(spec["delta"], spec["d"], value):
        return f"R_{k} = {value} is wrong"
    return None


def _report(spec, out):
    if oracle.parse_poly(out["delta"]) != spec["delta"]:
        return f"delta {out['delta']} is not the Alexander polynomial"
    monic = "yes" if spec["monic"] else "no"
    verdict = "inconclusive" if spec["monic"] else "NOT-fibred-certificate"
    if (out["torsion"], out["principal"], out["monic"], out["verdict"]) != (
            "yes", "unknown", monic, verdict):
        return f"report {out['torsion']}/{out['principal']}/{out['monic']}/{out['verdict']}"
    return None


_CHECKS = {"cover": _cover, "seifert": _seifert, "resultant": _resultant, "report": _report}
