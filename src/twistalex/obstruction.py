"""The three-part fibredness verdict for a twisted Alexander presentation:
torsionness, principality evidence, and monicness of the polynomial.

The obstruction is one-directional: a fibred knot always produces a
consistent report, so any failed conclusion certifies non-fibredness,
while a consistent report proves nothing.
"""

from __future__ import annotations

import dataclasses
from typing import Literal

from . import laurent
from .errors import MinorLimitError
from .exactla import LambdaMatrix, maximal_minor_gcd, rank_over_fractions
from .laurent import LaurentPoly

CONSISTENT = "consistent-with-fibred"
NOT_FIBRED = "NOT-fibred-certificate"
INCONCLUSIVE = "inconclusive"

EXIT_CODES = {CONSISTENT: 0, NOT_FIBRED: 2, INCONCLUSIVE: 3}


@dataclasses.dataclass(frozen=True)
class ObstructionReport:
    torsion: Literal["yes", "no"]
    principal: Literal["yes", "unknown"]
    monic: Literal["yes", "no", "undefined"]
    delta: LaurentPoly
    delta_text: str  # laurent.to_text(delta), formatted once for reasons and output
    verdict: Literal["consistent-with-fibred", "NOT-fibred-certificate", "inconclusive"]
    reasons: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


def evaluate_fibred_obstruction(p: LambdaMatrix) -> ObstructionReport:
    """Evaluate the three conclusions on a presentation matrix (rows are
    generators, columns relations).

    Torsionness is decided by the rank over the fraction field, which is
    full as soon as delta, the gcd of the maximal minors, is nonzero
    (n > m and a fired cap both leave delta = 0), so the rank is taken
    only otherwise.
    """
    cap_error: MinorLimitError | None = None
    try:
        delta = maximal_minor_gcd(p)
    except MinorLimitError as e:
        cap_error = e
        delta = laurent.ZERO
    rank = p.rows if delta else rank_over_fractions(p)
    return fibred_verdict(p.rows, p.cols, rank, delta, cap_error)


def fibred_verdict(rows: int, cols: int, rank: int, delta: LaurentPoly,
                   cap_error: MinorLimitError | None = None) -> ObstructionReport:
    """The three conclusions for a presentation with ``rows`` generators,
    ``cols`` relations, rank ``rank`` over the fraction field and delta,
    the gcd of its maximal minors (zero when ``cap_error`` stopped it).

    Principality is only ever asserted for square presentations (the
    sufficient condition the fibred computation produces), never decided
    in general.
    """
    reasons: list[str] = []
    delta_text = laurent.to_text(delta)
    torsion = "yes" if rank == rows else "no"
    if torsion == "yes":
        reasons.append(f"(1) torsion: presentation has full rank {rows}")
    else:
        reasons.append(f"(1) FAILS: rank {rank} < {rows} generators, module is not torsion")

    principal = "yes" if rows == cols else "unknown"
    if principal == "yes":
        reasons.append("(2) principal: presentation matrix is square")
    else:
        reasons.append("(2) undetermined: non-square presentation, principality not decided")

    if cap_error is not None:
        monic = "undefined"
        reasons.append(f"(3) undetermined: {cap_error}")
    elif not delta:
        monic = "undefined"
        reasons.append("(3) undefined: delta = 0")
    elif laurent.is_monic(delta):
        monic = "yes"
        reasons.append(f"(3) monic: delta = {delta_text}")
    else:
        monic = "no"
        reasons.append(f"(3) FAILS: delta = {delta_text} is not monic")

    if torsion == "no" or monic == "no":
        verdict = NOT_FIBRED
    elif torsion == "yes" and principal == "yes" and monic == "yes":
        verdict = CONSISTENT
    else:
        verdict = INCONCLUSIVE

    return ObstructionReport(
        torsion=torsion,
        principal=principal,
        monic=monic,
        delta=delta,
        delta_text=delta_text,
        verdict=verdict,
        reasons=tuple(reasons),
    )

