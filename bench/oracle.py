"""Independent arithmetic for generating and checking benchmark jobs.

Nothing here imports twistalex: every expected value is computed by a
different route from the one the program takes (evaluation and
interpolation instead of Laurent elimination, circulant determinants and
Euclidean resultants over F_p instead of Sylvester matrices, a plain
Bareiss determinant instead of the Faddeev-LeVerrier characteristic
polynomial).  Polynomials are ascending integer coefficient lists.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Two 61-bit primes for the modular resultant checks.
PRIMES = (2305843009213693951, 2305843009213693921)


def det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - f * row_k[j]) // prev
        prev = piv
    return sign * prev if n else 1


def trim(c: list[int]) -> list[int]:
    """Drop zero coefficients at both ends (a shift by a unit s^k)."""
    lo = next((i for i, x in enumerate(c) if x), len(c))
    c = c[lo:]
    while c and c[-1] == 0:
        c.pop()
    return c


def canonical(c: list[int]) -> list[int]:
    """Associate with lowest exponent 0 and positive leading coefficient."""
    c = trim(list(c))
    return [-x for x in c] if c and c[-1] < 0 else c


def is_monic(c: list[int]) -> bool:
    c = trim(list(c))
    return bool(c) and abs(c[0]) == 1 and abs(c[-1]) == 1


def evaluate(c: list[int], x: int) -> int:
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def interpolate(values: list[int]) -> list[int]:
    """The integer polynomial of degree < len(values) with f(k) = values[k]."""
    n = len(values)
    # Newton forward differences, then expand the binomial basis.
    diffs, row = [], list(values)
    for _ in range(n):
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    out = [Fraction(0)] * n
    basis = [Fraction(1)]  # t (t-1) ... (t-k+1) / k!
    for k, dk in enumerate(diffs):
        for i, b in enumerate(basis):
            out[i] += dk * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            nxt[i + 1] += b / (k + 1)
            nxt[i] -= b * k / (k + 1)
        basis = nxt
    if any(x.denominator != 1 for x in out):
        raise ArithmeticError("interpolated polynomial is not integral")
    return [int(x) for x in out]


def alexander(s: list[list[int]]) -> list[int]:
    """Canonical det(tS - S^T), by evaluation at t = 0..size and interpolation."""
    n = len(s)
    values = [det([[t * s[i][j] - s[j][i] for j in range(n)] for i in range(n)])
              for t in range(n + 1)]
    return canonical(interpolate(values))


def cyclic_resultant(c: list[int], d: int) -> int:
    """|Res(c, t^d - 1)| as the determinant of the circulant c(shift)."""
    row = [0] * d
    for k, a in enumerate(c):
        row[k % d] += a
    return abs(det([[row[(j - i) % d] for j in range(d)] for i in range(d)]))


def trim_high(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _resultant_mod(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) over F_p by the Euclidean algorithm (ascending lists)."""
    f = trim_high([x % p for x in f])
    g = trim_high([x % p for x in g])
    if not f or not g:
        return 0
    acc = 1
    while len(g) > 1:
        m, n = len(f) - 1, len(g) - 1
        r = list(f)
        inv = pow(g[-1], p - 2, p)
        while len(r) >= len(g):
            q = r[-1] * inv % p
            k = len(r) - len(g)
            for i, b in enumerate(g):
                r[k + i] = (r[k + i] - q * b) % p
            r = trim_high(r)
        if not r:
            return 0
        # Res(f, g) = (-1)^(mn) lc(g)^(m - deg r) Res(g, r)
        if m * n % 2:
            acc = -acc
        acc = acc * pow(g[-1], m - (len(r) - 1), p) % p
        f, g = g, r
    return acc * pow(g[0], len(f) - 1, p) % p


def resultant_matches(c: list[int], d: int, value: int) -> bool:
    """Whether value = |Res(c, t^d - 1)|, checked modulo two large primes."""
    g = [-1] + [0] * (d - 1) + [1]
    for p in PRIMES:
        r = _resultant_mod(c, g, p)
        if value % p not in (r, -r % p):
            return False
    return True


_TERM = re.compile(r"([+-]?)(\d*)([a-z]?)(?:\^(-?\d+))?")


def parse_poly(text: str) -> list[int]:
    """Ascending coefficients of printed polynomial text such as
    ``s^4 - 3s^3 + 1``, shifted so the lowest exponent is 0."""
    text = text.replace(" ", "")
    terms: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read polynomial {text!r}")
        sign, digits, var, exp = m.groups()
        coeff = int(digits) if digits else 1
        e = (int(exp) if exp else 1) if var else 0
        terms[e] = terms.get(e, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
    if not terms:
        return []
    lo = min(terms)
    return trim([terms.get(e, 0) for e in range(lo, max(terms) + 1)])


def poly_token(c: dict[int, int]) -> str:
    """Compact token (``2s-1``, ``-s^2+3``) for exponent -> coefficient."""
    out = ""
    for e in sorted((e for e, a in c.items() if a), reverse=True):
        a = c[e]
        mag = "" if abs(a) == 1 and e else str(abs(a))
        var = "" if e == 0 else ("s" if e == 1 else f"s^{e}")
        out += ("-" if a < 0 else ("+" if out else "")) + mag + var
    return out or "0"


def coeff_bits(c: list[int]) -> int:
    return max((abs(x).bit_length() for x in c), default=0)


def branched_presentation(s: list[list[int]], d: int) -> list[list[int]]:
    """Block-tridiagonal relation matrix of H1 of the d-fold branched cyclic
    cover: S + S^T on the diagonal, -S^T above it, -S below it."""
    n = len(s)
    size = n * (d - 1)
    out = [[0] * size for _ in range(size)]
    for b in range(d - 1):
        for i in range(n):
            for j in range(n):
                out[b * n + i][b * n + j] = s[i][j] + s[j][i]
                if b + 1 < d - 1:
                    out[b * n + i][(b + 1) * n + j] = -s[j][i]
                    out[(b + 1) * n + i][b * n + j] = -s[i][j]
    return out


def prime_factors(n: int, bound: int = 10_000) -> list[int]:
    """Prime factors of n below bound, ascending."""
    out, p = [], 2
    while p < bound and p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if 1 < n < bound:
        out.append(n)
    return out
