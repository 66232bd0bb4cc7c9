"""Exact arithmetic in the Laurent polynomial ring Z[s, s^-1].

Values are immutable; all coefficients are arbitrary-precision integers.
A polynomial is stored as its lowest exponent together with the dense
coefficient run from that exponent upward, trimmed at both ends, so every
value has exactly one representation (zero is ``low=0, coeffs=()``).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from typing import Iterator

from .errors import ParseError, SizeLimitError


def _binpow(base, n: int, mul, one):
    """``base`` to the power n >= 0 under the associative product ``mul``,
    by square-and-multiply; ``one`` is the answer for n = 0.

    Squares only while higher bits of n remain, so no product beyond the
    answer's own factors is ever formed.
    """
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return one if result is None else result
        base = mul(base, base)


@dataclasses.dataclass(frozen=True, init=False)
class LaurentPoly:
    """An element of Z[s, s^-1].

    ``coeffs[i]`` is the coefficient of ``s**(low + i)``.

    >>> LaurentPoly(-1, (1, 1)) * LaurentPoly(1, (1,))
    LaurentPoly('s + 1')
    """

    low: int
    coeffs: tuple[int, ...]

    def __init__(self, low: int = 0, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            low += 1
        if not coeffs:
            low = 0
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls(0, (c,))

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls(exp, (coeff,))

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "LaurentPoly":
        if not d:
            return cls.zero()
        low = min(d)
        high = max(d)
        return cls(low, [d.get(e, 0) for e in range(low, high + 1)])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Highest exponent; -1 stands in for the zero polynomial."""
        return self.low + len(self.coeffs) - 1 if self.coeffs else -1

    def coefficient(self, exp: int) -> int:
        i = exp - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs, ascending, zeros skipped."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.low + i, c

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by s^n."""
        return LaurentPoly(self.low + n, self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        low = min(self.low, other.low)
        high = max(self.degree, other.degree)
        out = [0] * (high - low + 1)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.low - low + i] += c
        return LaurentPoly(low, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return LaurentPoly(self.low + other.low, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of general polynomials are not in the ring")
        return _binpow(self, n, LaurentPoly.__mul__, ONE)

    def evaluate(self, z: complex) -> complex:
        """Evaluate at a nonzero complex number (numeric cross-checks only)."""
        return sum(c * z ** e for e, c in self.terms())

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({to_text(self)!r})"


def _coerce(x) -> "LaurentPoly":
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    return NotImplemented


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)
S = LaurentPoly.monomial(1)


def canonicalize(p: LaurentPoly) -> LaurentPoly:
    """Unique associate of p: lowest exponent 0 and positive leading coefficient.

    Strips the unit ambiguity +-s^n, so canonicalize(u * s**n * p) equals
    canonicalize(p) for u in {1, -1} and any integer n.

    >>> canonicalize(LaurentPoly(2, (-1, 1)))
    LaurentPoly('s - 1')
    """
    if p.is_zero:
        return ZERO
    coeffs = p.coeffs
    if coeffs[-1] < 0:
        coeffs = tuple(-c for c in coeffs)
    return LaurentPoly(0, coeffs)


def is_monic(p: LaurentPoly) -> bool:
    """True iff p is nonzero and both extreme coefficients are units (+-1)."""
    return bool(p.coeffs) and abs(p.coeffs[0]) == 1 and abs(p.coeffs[-1]) == 1


# -- gcd ----------------------------------------------------------------------
#
# Helpers below work on plain coefficient lists in ascending order with no
# leading-zero guarantees beyond what callers maintain.


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _content(f: list[int]) -> int:
    return math.gcd(*f) if f else 0


def _primitive(f: list[int]) -> list[int]:
    c = _content(f)
    if c in (0, 1):
        return list(f)
    return [a // c for a in f]


def _prem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of f by g: lc(g)^(deg f - deg g + 1) * f mod g."""
    f = list(f)
    lg = g[-1]
    steps = len(f) - len(g) + 1
    while len(f) >= len(g):
        c = f[-1]
        k = len(f) - len(g)
        f = [a * lg for a in f]
        for i, b in enumerate(g):
            f[k + i] -= c * b
        _trim(f)
        steps -= 1
        if not f:
            break
    if f and steps > 0:
        f = [a * lg ** steps for a in f]
    return f


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Greatest common divisor in Z[s, s^-1], in canonical form.

    Split into integer content and primitive part; the primitive parts run
    through a pseudo-remainder sequence kept primitive at each step, so no
    rational arithmetic ever occurs.

    >>> gcd(LaurentPoly(0, (-2, 2)), LaurentPoly(0, (-4, 4)))
    LaurentPoly('2s - 2')
    """
    if p.is_zero:
        return canonicalize(q)
    if q.is_zero:
        return canonicalize(p)
    c = math.gcd(_content(list(p.coeffs)), _content(list(q.coeffs)))
    a = _primitive(list(p.coeffs))
    b = _primitive(list(q.coeffs))
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, _primitive(r)
    if a[-1] < 0:
        a = [-x for x in a]
    return LaurentPoly(0, [c * x for x in a])


# -- modular arithmetic ---------------------------------------------------------
#
# Exact integers too large to compute directly (determinants, resultants) are
# found modulo a fixed sequence of word-sized primes and lifted by the Chinese
# remainder theorem.  _crt_lift is the one CRT loop: it stops as soon as the
# modulus exceeds twice a bound on the answer, so symmetric residues are the
# answer itself.

# Miller-Rabin with these bases is deterministic for every n < 3.3 * 10^24.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMES: list[int] = []  # the CRT primes, descending from 2^61 - 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(k: int) -> int:
    """The k-th prime (from 0) below 2^61, counting down from 2^61 - 1."""
    while len(_PRIMES) <= k:
        q = _PRIMES[-1] - 2 if _PRIMES else 2**61 - 1
        while not _is_prime(q):
            q -= 2
        _PRIMES.append(q)
    return _PRIMES[k]


def _primes() -> Iterator[int]:
    """_prime(0), _prime(1), ... without end."""
    k = 0
    while True:
        yield _prime(k)
        k += 1


def _crt_primes(bound: int) -> int:
    """How many primes _crt_lift draws for ``bound`` from _prime(0), ...,
    found by running it on empty residues."""
    drawn = []

    def residues():
        for k in itertools.count():
            drawn.append(k)
            yield _prime(k), []

    _crt_lift(bound, 0, residues())
    return len(drawn)


def _crt_lift(bound: int, length: int, residues, inverses: list[int] | None = None) -> list[int]:
    """The ``length`` integers v_i, all |v_i| <= bound, from ``residues``:
    an endless iterator of (prime, [v_i mod prime]) pairs over distinct
    primes.

    Draws pairs until the product of their primes exceeds 2 * bound, then
    returns the symmetric residues.  Each pair needs the inverse, modulo its
    prime, of the product of the primes before it; ``inverses`` keeps these
    for calls whose residues come modulo the same primes in the same order.
    """
    if inverses is None:
        inverses = []
    values = [0] * length
    modulus = 1
    for k in itertools.count():
        if modulus > 2 * bound:
            break
        p, rs = next(residues)
        if k == len(inverses):
            inverses.append(pow(modulus, -1, p))
        inv = inverses[k]
        values = [v + modulus * ((r - v) * inv % p) for v, r in zip(values, rs)]
        modulus *= p
    half = modulus // 2
    return [v - modulus if v > half else v for v in values]


# -- resultants ---------------------------------------------------------------

# Cap on the bit length of the CRT bound ||p||_1^d of a resultant with
# t^d - 1.  Every admitted result has at most 2467 decimal digits, so it
# prints under Python's default 4300-digit limit; the whole sweep of
# t^2 - 3t + 1 up to the cap (d = 3528, 17 moduli of 8 primes) takes
# about 1 s on a 2-vCPU x86-64 host with Python 3.11.
MAX_RESULTANT_BITS = 8192


def _check_resultant_bound(norm: int, d: int) -> None:
    """Raise SizeLimitError when norm^d has more than MAX_RESULTANT_BITS bits."""
    bits = d * math.log2(norm)
    if bits > MAX_RESULTANT_BITS:
        raise SizeLimitError(
            f"the resultant with t^{d} - 1 is bounded by ||p||_1^{d}, about "
            f"{math.ceil(bits)} bits, above the cap of {MAX_RESULTANT_BITS} bits")


def _polymod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f over Z/p, ascending coefficients, trimmed; f[-1] is a unit."""
    a = list(a)
    n = len(f) - 1
    inv = pow(f[-1], -1, p)
    low = f[:n]
    for k in range(len(a) - 1, n - 1, -1):
        q = a[k] * inv % p
        if q:  # a -= q t^(k-n) f, which clears a[k]
            a[k - n : k] = [x - q * y for x, y in zip(a[k - n : k], low)]
    return _trim([x % p for x in a[:n]])


def _mulmod(x: list[int], y: list[int], f: list[int], p: int) -> list[int]:
    """x * y mod f over Z/p."""
    prod = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            prod[i : i + len(y)] = [c + xi * yj for c, yj in zip(prod[i : i + len(y)], y)]
    return _polymod(prod, f, p)


def _resultant_mod(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) mod p by the Euclidean algorithm over Z/p; a and b are
    trimmed ascending coefficient lists of degree >= 0 with units on top.

    Res(a, b) = (-1)^(deg a deg b) Res(b, a), and with a = qb + c,
    Res(b, a) = lc(b)^(deg a - deg c) Res(b, c).
    """
    res = 1
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        c = _polymod(a, b, p)
        if not c:
            return 0
        if m * n % 2:
            res = -res
        res = res * pow(b[-1], m - (len(c) - 1), p) % p
        a, b = b, c
    return res * pow(b[0], len(a) - 1, p) % p


def resultant_with_cyclotomic(p: LaurentPoly, d: int) -> int:
    """|Res(p^, t^d - 1)| over Z, where p^ is the polynomial-part associate of p.

    Equals the absolute value of the product of p over all d-th roots of
    unity.  Modulo each CRT prime that does not divide the leading
    coefficient, t^d is reduced modulo p^ by square-and-multiply and the
    resultant is finished by the Euclidean algorithm; the product over roots
    of unity is at most ||p||_1^d in absolute value.  A bound of more than
    MAX_RESULTANT_BITS bits raises SizeLimitError before any prime is drawn.
    """
    if p.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    if d < 1:
        raise ValueError("d must be a positive integer")
    f = list(p.coeffs)  # associate with lowest exponent 0
    norm = sum(map(abs, f))
    _check_resultant_bound(norm, d)
    if len(f) == 1:
        return abs(f[0]) ** d

    def residues():
        for q in _primes():
            if f[-1] % q == 0:
                continue
            fq = [c % q for c in f]
            h = _binpow(_polymod([0, 1], fq, q), d,
                        lambda x, y: _mulmod(x, y, fq, q), None) or [0]  # t^d mod f
            g = _trim([(h[0] - 1) % q] + h[1:])  # (t^d - 1) mod f
            # Res(f, t^d - 1) = lc(f)^(d - deg g) Res(f, g)
            res = pow(fq[-1], d - len(g) + 1, q) * _resultant_mod(fq, g, q) if g else 0
            yield q, [res % q]

    return abs(_crt_lift(norm ** d, 1, residues())[0])


# CRT primes multiplied into the one modulus of each pass of
# cyclotomic_resultants: 8 primes of 61 bits make a modulus of about 2^488.
_SWEEP_PACK = 8


def _sweep_moduli(lc: int) -> Iterator[int]:
    """Products of _SWEEP_PACK consecutive CRT primes, skipping those that
    divide lc, without end."""
    usable = (q for q in _primes() if lc % q)
    while True:
        yield math.prod(itertools.islice(usable, _SWEEP_PACK))


def cyclotomic_resultants(p: LaurentPoly, dmax: int) -> dict[int, int]:
    """{d: resultant_with_cyclotomic(p, d)} for d = 2..dmax, in one pass.

    Let lc be the leading coefficient of p^, of degree n, and lambda_i its
    roots.  The scaled power sums S_m = lc^m sum_i lambda_i^m are integers
    with S_0 = n and S_m = -(sum_(k < m, k <= n) w_k S_(m-k) + m w_m if
    m <= n), where w_k = a_(n-k) lc^(k-1) are small integer weights: each
    step multiplies a weight by a residue, never two residues.  For each d,
    P_i = S_(id) are the scaled power sums of the lambda_i^d, and Newton's
    identities on them give E_k = lc^(kd) e_k(lambda^d); then
    Res(p^, t^d - 1) = +-sum_k (-1)^k E_k lc^(d(1 - k)).

    Each pass runs modulo a product of _SWEEP_PACK CRT primes that do not
    divide lc.  It divides only by lc, which no factor divides, and by
    k <= n, which every 61-bit factor exceeds, so both are units modulo
    that product.  Each d draws moduli
    until its own bound ||p||_1^d is covered, as resultant_with_cyclotomic
    does, and the bound at dmax is capped as there, with ||p||_1 taken as at
    least 2: a unit p has bound 1, but a sweep still prints dmax - 1 lines.
    """
    if dmax < 2:
        return {}
    if p.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    f = list(p.coeffs)
    n = len(f) - 1
    lc = f[-1]
    norm = sum(map(abs, f))
    _check_resultant_bound(max(norm, 2), dmax)
    if not n:
        return {d: abs(lc) ** d for d in range(2, dmax + 1)}
    w = [a * lc ** (n - 1 - j) for j, a in enumerate(f[:n])]  # w[j] = w_(n-j)

    def sweep_mod(q: int, dmin: int) -> dict[int, int]:
        s = [n]  # s[m] = S_m mod q
        for m in range(1, n * dmax + 1):
            # S_m = -(sum_(k < m, k <= n) w_k S_(m-k) + m w_m if m <= n)
            if m <= n:
                acc = sum(map(operator.mul, w[n - m + 1:], s[1:m])) + m * w[n - m]
            else:
                acc = sum(map(operator.mul, w, s[m - n:m]))
            s.append(-acc % q)
        inverses = [pow(k, -1, q) for k in range(1, n + 1)]
        lc_d = pow(lc, dmin, q)
        inv_lc = pow(lc, -1, q)
        inv_lc_d = pow(inv_lc, dmin, q)
        out = {}
        for d in range(dmin, dmax + 1):
            # k E_k = sum_(i <= k) (-1)^(i-1) E_(k-i) P_i
            signed = [-s[i * d] if i % 2 == 0 else s[i * d] for i in range(1, n + 1)]
            e = [1]  # E_k = lc^(kd) e_k(lambda^d)
            for k in range(1, n + 1):
                e.append(sum(map(operator.mul, reversed(e), signed)) * inverses[k - 1] % q)
            total = 0  # sum_(k >= 1) (-1)^k E_k lc^(-d(k-1)), by Horner
            for k in range(n, 0, -1):
                total = (total * inv_lc_d + (-e[k] if k % 2 else e[k])) % q
            out[d] = (total + lc_d) % q
            lc_d = lc_d * lc % q
            inv_lc_d = inv_lc_d * inv_lc % q
        return out

    moduli = _sweep_moduli(lc)
    swept: list[tuple[int, dict[int, int]]] = []  # (modulus, {d: residue}), shared by every d
    inverses: list[int] = []  # every d lifts over the moduli of swept, in order

    def residues(d: int):
        # d rises from call to call, so a modulus first drawn for this d
        # holds the residues of every later d as well.
        for k in itertools.count():
            if k == len(swept):
                q = next(moduli)
                swept.append((q, sweep_mod(q, d)))
            q, rs = swept[k]
            yield q, [rs[d]]

    return {d: abs(_crt_lift(norm ** d, 1, residues(d), inverses)[0])
            for d in range(2, dmax + 1)}


# -- text form ----------------------------------------------------------------


def to_text(p: LaurentPoly, var: str = "s") -> str:
    """Render with descending exponents, e.g. ``s^4 - s^3 - s + 1``."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for exp, c in sorted(p.terms(), reverse=True):
        mag = abs(c)
        if exp == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else str(mag)) + var + ("" if exp == 1 else f"^{exp}")
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def parse_laurent(text: str, line: int | None = None) -> LaurentPoly:
    """Parse polynomial text such as ``s^4 - s^3 + 2s^-1`` or ``t^2-3t+1``.

    Whitespace-insensitive (all whitespace is discarded before parsing, so
    reported columns refer to the compacted text); any one variable letter
    is allowed, the same throughout.
    """
    text = "".join(text.split())
    terms: dict[int, int] = {}
    seen_var = None
    i = 0
    n = len(text)
    any_term = False

    while i < n:
        col = i + 1
        sign = 1
        if text[i] in "+-":
            if text[i] == "-":
                sign = -1
            i += 1
        elif any_term:
            raise ParseError(f"expected '+' or '-' before {text[i]!r}", line, col)
        start = i
        while i < n and text[i].isdigit():
            i += 1
        coeff = int(text[start:i]) if i > start else None
        exp = 0
        if i < n and text[i].isalpha():
            letter = text[i]
            if seen_var is None:
                seen_var = letter
            elif letter != seen_var:
                raise ParseError(f"unexpected variable {letter!r} (expected {seen_var!r})", line, i + 1)
            i += 1
            exp = 1
            if i < n and text[i] == "^":
                i += 1
                estart = i
                if i < n and text[i] == "-":
                    i += 1
                while i < n and text[i].isdigit():
                    i += 1
                if i == estart or text[estart:i] == "-":
                    raise ParseError("malformed exponent", line, estart + 1)
                exp = int(text[estart:i])
        elif coeff is None:
            raise ParseError(f"malformed polynomial term at {text[start:start+8]!r}", line, col)
        terms[exp] = terms.get(exp, 0) + sign * (1 if coeff is None else coeff)
        any_term = True
    if not any_term:
        raise ParseError("empty polynomial", line, 1)
    return LaurentPoly.from_dict(terms)
