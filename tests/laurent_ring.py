"""Ring arithmetic in Z[s, s^-1] for the tests and their oracles.

twistalex reads, stores and reduces Laurent polynomials but never adds,
negates or multiplies them, so LaurentPoly has no ring operators.  These
work on the (low, coeffs) runs of its values and share no code with the
routes they check."""

from __future__ import annotations

from twistalex.laurent import LaurentPoly


def add(*terms: LaurentPoly) -> LaurentPoly:
    """The sum of the terms; zero for none."""
    terms = [p for p in terms if p]
    if not terms:
        return LaurentPoly()
    low = min(p.low for p in terms)
    out = [0] * (max(p.degree for p in terms) - low + 1)
    for p in terms:
        for i, c in enumerate(p.coeffs, p.low - low):
            out[i] += c
    return LaurentPoly(low, out)


def neg(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(p.low, [-c for c in p.coeffs])


def sub(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    return add(p, neg(q))


def mul(p: LaurentPoly, q: LaurentPoly | int) -> LaurentPoly:
    """p q; an int q is the constant polynomial."""
    if isinstance(q, int):
        q = LaurentPoly(0, (q,))
    out = [0] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return LaurentPoly(p.low + q.low, out)
