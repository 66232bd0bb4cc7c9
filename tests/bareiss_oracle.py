"""Fraction-free elimination over any exact domain, and exact division in
Z[s, s^-1]: the route by which Laurent determinants and ranks were once
computed, kept as the test oracle of the evaluation kernel.  Also the
Laurent expansion of a pencil sX - Y, for the oracle and the kernel alike,
and the kernel's entry for a Laurent matrix taken as it is."""

from __future__ import annotations

import operator
from typing import NamedTuple

from twistalex.errors import InternalError
from twistalex import exactla
from twistalex.exactla import IntMatrix, LambdaMatrix, _maximal_minors
from twistalex.laurent import ZERO, LaurentPoly

import laurent_ring


def pencil(x, y) -> LambdaMatrix:
    """sX - Y from integer row lists."""
    return LambdaMatrix.from_rows(
        [[LaurentPoly(0, (-b, a)) for a, b in zip(xr, yr)] for xr, yr in zip(x, y)])


def si_minus(h: IntMatrix) -> LambdaMatrix:
    """sI - H with Laurent entries, the shape that maximal_minor_gcd reads
    as char_poly(H)."""
    return pencil(IntMatrix.identity(h.rows).to_rows(), h.to_rows())


def minors_at_node(m: LambdaMatrix) -> list[LaurentPoly]:
    """Every maximal minor of m by the evaluation kernel alone: m's rows at
    the node of m's own window, with none of the unit pivots that
    maximal_minor_gcd takes first.  The kernel is bound at import, so a
    test that stands in for exactla._maximal_minors does not see these
    calls."""
    lows, polys, bound, points = exactla._normalised(m.to_rows())
    b = bound.bit_length() + 1
    return _maximal_minors(exactla._at_node(polys, b), m.cols, lows,
                           (b, sum(lows), points, bound))


def try_div(f: list[int], g: list[int]) -> list[int] | None:
    """Quotient of f by g in Z[x] when the division is exact, else None."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    lg = g[-1]
    while len(f) >= len(g):
        c, r = divmod(f[-1], lg)
        if r:
            return None
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] -= c * b
        while f and not f[-1]:
            f.pop()
    return q if not f else None


def divides(g: LaurentPoly, p: LaurentPoly) -> bool:
    """True iff g divides p in Z[s, s^-1]."""
    if not g:
        return not p
    if not p:
        return True
    return try_div(list(p.coeffs), list(g.coeffs)) is not None


def divexact(p: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient p / g; raises ValueError if g does not divide p."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return ZERO
    q = try_div(list(p.coeffs), list(g.coeffs))
    if q is None:
        raise ValueError(f"{g} does not divide {p} in Z[s, s^-1]")
    return LaurentPoly(p.low - g.low, q)


def divexact_int(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ValueError(f"{b} does not divide {a}")
    return q


class Ring(NamedTuple):
    """An exact domain: its zero, unit, sum, difference, product and exact
    quotient ``div(a, b)``, which raises ValueError when b does not divide a."""

    zero: object
    one: object
    add: object
    sub: object
    mul: object
    div: object


INTEGERS = Ring(0, 1, operator.add, operator.sub, operator.mul, divexact_int)
LAURENT = Ring(ZERO, LaurentPoly(0, (1,)), laurent_ring.add, laurent_ring.sub,
               laurent_ring.mul, divexact)


def bareiss(rows: list[list], ring: Ring) -> tuple[int, object]:
    """(rank, det) of a matrix over an exact domain, by fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968).

    Pivots are taken down each column in row order; a column with no pivot
    left is skipped.  det is the signed last pivot when the matrix is
    square and of full rank, and zero otherwise (1 for the empty matrix).
    An inexact division raises InternalError.
    """
    a = [list(r) for r in rows]
    n = len(a)
    m = len(a[0]) if a else 0
    zero, one, _, sub, mul, div = ring
    rank, sign, prev = 0, 1, one
    try:
        for k in range(m):
            if rank == n:
                break
            piv = next((i for i in range(rank, n) if a[i][k]), None)
            if piv is None:
                continue
            if piv != rank:
                a[rank], a[piv] = a[piv], a[rank]
                sign = -sign
            top = a[rank]
            p = top[k]
            for row in a[rank + 1:]:
                x = row[k]
                for j in range(k + 1, m):
                    row[j] = div(sub(mul(row[j], p), mul(x, top[j])), prev)
            prev = p
            rank += 1
    except ValueError as exc:
        raise InternalError(f"inexact division in fraction-free elimination: {exc}") from exc
    if rank < n or n != m:
        return rank, zero
    return rank, prev if sign > 0 else sub(zero, prev)
