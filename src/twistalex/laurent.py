"""Laurent polynomials in Z[s, s^-1]: values, gcd, resultants, text form.

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

from .errors import InvariantError, ParseError, SizeLimitError, number_text


def _binpow(base, n: int, mul, one):
    """``base`` to the power n >= 0 under the associative product ``mul``,
    by square-and-multiply; ``one`` is the answer for n = 0.

    Squares only while higher bits of n remain, so no product beyond the
    answer's own factors is ever formed.  Its users: t^d modulo Delta over
    Z/q (resultant_with_cyclotomic), t^d and b(t)^d modulo char_poly(A)
    over Z (seifert._cover_matrix), and permutation powers (grouphom).
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

    >>> p = parse_laurent("s - 1 + 2s^-2")
    >>> p.low, p.coeffs
    (-2, (2, 0, -1, 1))
    >>> p == LaurentPoly(-3, (0, 2, 0, -1, 1, 0))
    True
    """

    low: int
    coeffs: tuple[int, ...]

    def __init__(self, low: int = 0, coeffs=()):
        coeffs = tuple(coeffs)
        if coeffs and not (coeffs[0] and coeffs[-1]):  # trim only a zero end
            end = len(coeffs)
            while end and not coeffs[end - 1]:
                end -= 1
            start = 0
            while start < end and not coeffs[start]:
                start += 1
            coeffs = coeffs[start:end]
            low += start
        if not coeffs:
            low = 0
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "LaurentPoly":
        if not d:
            return cls()
        low = min(d)
        high = max(d)
        return cls(low, [d.get(e, 0) for e in range(low, high + 1)])

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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({to_text(self)!r})"


ZERO = LaurentPoly()


def canonicalize(p: LaurentPoly) -> LaurentPoly:
    """Unique associate of p: lowest exponent 0 and positive leading coefficient.

    Strips the unit ambiguity +-s^n, so canonicalize(u * s**n * p) equals
    canonicalize(p) for u in {1, -1} and any integer n.

    >>> canonicalize(LaurentPoly(2, (-1, 1)))
    LaurentPoly('s - 1')
    """
    if not p:
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
    if not p:
        return canonicalize(q)
    if not q:
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
# remainder theorem.  A Python operation on a residue of a few hundred bits
# costs far less than one per 61-bit prime in it, so the kernels run modulo
# packs: products of up to _CRT_PACK consecutive primes.  _crt_packs is the
# one place that decides how many primes a bound needs: its packs end at the
# first prime whose product with those before it exceeds twice the bound, so
# symmetric residues modulo their product are the answer itself.
# _crt_residues runs a kernel modulo each pack, and _crt_lift lifts whatever
# residues it is given.

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


def _crt_lift(residues) -> list[int]:
    """The integers v_i whose residues come in ``residues``: a nonempty
    iterable of (q, [v_i mod q]) pairs over pairwise coprime moduli q,
    single CRT primes or products of them, as _crt_residues yields them.

    The residues need not be reduced modulo q.  Returns the symmetric
    residues modulo the product of all the moduli, which are the v_i
    themselves once that product exceeds twice every |v_i|.
    """
    pairs = iter(residues)
    modulus, rs = next(pairs)
    values = [r % modulus for r in rs]
    for q, rs in pairs:
        inv = pow(modulus, -1, q)
        values = [v + modulus * ((r - v) * inv % q) for v, r in zip(values, rs)]
        modulus *= q
    half = modulus // 2
    return [v - modulus if v > half else v for v in values]


# CRT primes multiplied into one modulus: 8 primes of 61 bits make a
# modulus of about 2^488.
_CRT_PACK = 8


def _crt_packs(lc: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Runs of _CRT_PACK consecutive CRT primes, skipping those that divide
    lc, until the product of all the primes drawn exceeds 2 * bound.

    The last pack ends at the first prime that passes that product, so it
    holds only the primes the bound still needs.  Every CRT route takes its
    moduli from here, and none draws a prime past the last pack.
    """
    usable = (q for q in _primes() if lc % q)
    drawn = 1
    while drawn <= 2 * bound:
        pack = []
        for q in itertools.islice(usable, _CRT_PACK):
            pack.append(q)
            drawn *= q
            if drawn > 2 * bound:
                break
        yield tuple(pack)


def _crt_primes(bound: int) -> int:
    """How many primes the packs of _crt_packs(1, bound) hold."""
    return sum(map(len, _crt_packs(1, bound)))


class _NonUnitPivot(ArithmeticError):
    """A pivot that is no unit modulo a pack: it vanishes modulo some of the
    pack's primes and not others.  Modulo one prime every nonzero pivot is
    a unit, so a lone prime never raises it."""


def _crt_residues(bound: int, kernel, lc: int = 1) -> Iterator[tuple[int, list[int]]]:
    """(q, kernel(q)) pairs for _crt_lift, q the product of each pack of
    _crt_packs(lc, bound) in turn, so no prime of q divides lc and the
    product of all the moduli exceeds 2 * bound.

    ``kernel(q)`` returns its residues modulo q.  An elimination kernel
    takes, in each column, the first candidate that is nonzero modulo q;
    while every such pivot is a unit, each prime of q would have taken the
    same pivot, so the residues modulo q reduce to the prime's own.  A
    kernel that meets a pivot that is no unit raises _NonUnitPivot, and its
    pack is then run one prime at a time.
    """
    for pack in _crt_packs(lc, bound):
        q = math.prod(pack)
        try:
            rs = kernel(q)
        except _NonUnitPivot:
            yield from ((p, kernel(p)) for p in pack)
        else:
            yield q, rs


def _inverse_pivot(x: int, q: int) -> int:
    """x^-1 modulo q for a pivot x != 0 mod q; _NonUnitPivot if it has none."""
    try:
        return pow(x, -1, q)
    except ValueError:
        raise _NonUnitPivot from None


# -- resultants ---------------------------------------------------------------

# Cap on the bit length of ||p||_1^d for a resultant with t^d - 1.  Every
# admitted result has at most 2467 decimal digits, so it prints under
# Python's default 4300-digit limit; the whole sweep of t^2 - 3t + 1 up to
# the cap (d = 3528, 11 packs) takes about 0.27 s in process on a 2-vCPU
# x86-64 host with Python 3.11, and R_3528 alone about 6 ms.  The CRT itself
# lifts under the smaller bound of _resultant_bounds; the cap stays on
# ||p||_1^d, so it refuses the same inputs with the same message.
MAX_RESULTANT_BITS = 8192

# Cap on the work of a sweep d = 2..dmax (cyclotomic_resultants) for a p^
# of degree n, charged before any prime is drawn: packs * (n h dmax +
# dmax h^2), with h = n // 2 for a palindromic p^ and h = n otherwise.  The
# first term counts the power sums S_1..S_(h dmax), the second Newton's
# identities.  packs is what B_dmax would need if every prime were just
# over 2^60; _crt_packs(lc, B_dmax) holds that many packs or one fewer.
# The sweep of t^2 - 3t + 1 to 3528 charges about 1.2e5, the sweep to 40 of
# an 8 x 8 Seifert matrix's delta about 2e3.  The sweep of t^400 - t - 1 to
# 31, just under the cap at 9.9e6, takes about 0.3 s in process on a 2-vCPU
# x86-64 host with Python 3.11, and the default sweep to 30 of t^2000 - 1
# (2.4e8) about 6 s.
MAX_SWEEP_WORK = 10**7


def _check_resultant_bound(norm: int, d: int) -> None:
    """Raise SizeLimitError when norm^d > 2^MAX_RESULTANT_BITS, decided in
    integers: by the bit length of norm, or, for the few d that it leaves
    open, by norm^d itself.  The message gives d log2(norm), rounded up."""
    width = norm.bit_length()
    if (width - 1) * d <= MAX_RESULTANT_BITS and (
            width * d <= MAX_RESULTANT_BITS or norm ** d <= 1 << MAX_RESULTANT_BITS):
        return
    num, den = math.log2(norm).as_integer_ratio()
    raise SizeLimitError(
        f"the resultant with t^{number_text(d)} - 1 is bounded by ||p||_1^{number_text(d)}, "
        f"about {number_text(-(-d * num // den))} bits, above the cap of "
        f"{MAX_RESULTANT_BITS} bits")


# Graeffe root-squaring steps behind the Mahler-measure bound, and the
# fraction bits of that bound's fixed-point value.
_GRAEFFE_STEPS = 3
_MAHLER_FRACTION_BITS = 32


def _mahler_bound(f: list[int]) -> int:
    """An integer m with m / 2^_MAHLER_FRACTION_BITS >= M(f), the Mahler
    measure |lc| prod_i max(1, |lambda_i|) of f (ascending, f[0] != 0).

    Graeffe's g_(k+1)(t^2) = +-g_k(t) g_k(-t), g_0 = f, squares every root,
    so M(g_k) = M(f)^(2^k); Landau's inequality M(g) <= ||g||_2 then gives
    M(f) <= (||g_k||_2^2)^(1 / 2^(k+1)).  That root is k + 1 integer square
    roots of the scaled sum of squares, each rounded up, so m is never
    below it.
    """
    g = f
    for _ in range(_GRAEFFE_STEPS):
        # g(t) g(-t) = sum (-1)^j g_i g_j t^(i+j): odd terms cancel, and
        # (-1)^j = (-1)^i on the even ones
        h = [0] * len(g)
        for i, a in enumerate(g):
            a = -a if i % 2 else a
            for j in range(i % 2, len(g), 2):
                h[(i + j) // 2] += a * g[j]
        g = h
    x = sum(c * c for c in g) << (2 * _MAHLER_FRACTION_BITS << _GRAEFFE_STEPS)
    for _ in range(_GRAEFFE_STEPS + 1):
        r = math.isqrt(x)
        x = r + (r * r < x)  # rounded up
    return x


def _resultant_bounds(f: list[int]) -> Iterator[int]:
    """B_1, B_2, ... without end: B_d = min(||f||_1^d, 2^n M^d) bounds
    |Res(f, t^d - 1)| for f of degree n (ascending, f[0] != 0), with M the
    fixed-point Mahler bound of _mahler_bound.

    |Res(f, t^d - 1)| = |lc|^d prod_i |lambda_i^d - 1|, and each factor is
    at most 2 max(1, |lambda_i|)^d, so the product is at most 2^n M(f)^d.
    Each B_d takes one multiplication per term from B_(d-1): the Mahler
    term is rounded up at every step, so it never drops below 2^n M^d.
    B_d never decreases in d, since M >= |lc| >= 1.

    The Mahler term is at least 2^n |lc|^d, so B_d = ||f||_1^d as long as
    ||f||_1^d <= 2^n |lc|^d; that ratio never decreases in d.  M, whose
    Graeffe steps take O(n^2) products, is computed only at the first d
    past that point, and its rounded steps are replayed from d = 1, so
    every B_d is the same as if M had been taken up front.
    """
    norm, lc = sum(map(abs, f)), abs(f[-1])
    l1, floor, d = norm, lc << (len(f) - 1), 1  # at d: ||f||_1^d, 2^n |lc|^d
    while l1 <= floor:
        yield l1
        l1, floor, d = l1 * norm, floor * lc, d + 1
    m = _mahler_bound(f)
    mahler = 1 << (len(f) - 1)
    for k in itertools.count(1):
        mahler = -(-mahler * m >> _MAHLER_FRACTION_BITS)
        if k >= d:
            yield min(l1, mahler)
            l1 *= norm


def _polymod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f over Z/p, ascending coefficients, trimmed; _NonUnitPivot if
    f[-1] is no unit modulo p."""
    a = list(a)
    n = len(f) - 1
    inv = _inverse_pivot(f[-1], p)
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
    trimmed ascending coefficient lists of degree >= 0, a with a unit on
    top.  p is a CRT prime or a pack of them: a remainder whose leading
    coefficient is no unit modulo p raises _NonUnitPivot when it divides.

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
    unity.  Modulo each pack q of CRT primes that do not divide the
    leading coefficient (_crt_residues), t^d is reduced modulo p^ by
    square-and-multiply and the resultant is finished by the Euclidean
    algorithm.  That is sound modulo a pack: every division is by a
    leading coefficient, taken through _inverse_pivot, so it is a unit
    modulo q and hence nonzero modulo every prime of q; a coefficient that
    is 0 modulo q is trimmed at every prime as well, so each prime sees the
    same degrees and the same steps.  A remainder whose leading
    coefficient is no unit raises _NonUnitPivot, and the pack is run one
    prime at a time.  Only the last remainder, a constant c, is used
    without being inverted: it is raised to the degree, at least 1, of the
    divisor before it (p^ itself when c is (t^d - 1) mod p^).  If c
    vanishes modulo a prime of q, that prime alone would have stopped at a
    zero remainder with resultant 0, and that power of c is 0 modulo it
    too.  The moduli cover B_d = min(||p||_1^d, 2^n M^d) of
    _resultant_bounds, n the degree of p^ and M a certified bound on its
    Mahler measure.  A ||p||_1^d of more than MAX_RESULTANT_BITS bits
    raises SizeLimitError before any prime is drawn.
    """
    if not p:
        raise InvariantError("resultant of the zero polynomial is undefined")
    if d < 1:
        raise InvariantError("d must be a positive integer")
    f = list(p.coeffs)  # associate with lowest exponent 0
    norm = sum(map(abs, f))
    _check_resultant_bound(norm, d)
    if len(f) == 1:
        return abs(f[0]) ** d

    def kernel(q: int) -> list[int]:
        fq = [c % q for c in f]
        h = _binpow(_polymod([0, 1], fq, q), d,
                    lambda x, y: _mulmod(x, y, fq, q), None) or [0]  # t^d mod f
        g = _trim([(h[0] - 1) % q] + h[1:])  # (t^d - 1) mod f
        # Res(f, t^d - 1) = lc(f)^(d - deg g) Res(f, g)
        res = pow(fq[-1], d - len(g) + 1, q) * _resultant_mod(fq, g, q) if g else 0
        return [res % q]

    bound = next(itertools.islice(_resultant_bounds(f), d - 1, None))
    return abs(_crt_lift(_crt_residues(bound, kernel, f[-1]))[0])


def _power_sums(w: list[int], top: int, q: int) -> list[int]:
    """S_0, ..., S_top modulo q, the scaled power sums of
    cyclotomic_resultants for a p^ of degree n = len(w), from its weights
    w[j] = w_(n-j)."""
    n = len(w)
    s = [n]  # s[m] = S_m mod q
    for m in range(1, top + 1):
        # S_m = -(sum_(k < m, k <= n) w_k S_(m-k) + m w_m if m <= n)
        if m <= n:
            acc = sum(map(operator.mul, w[n - m + 1:], s[1:m])) + m * w[n - m]
        else:
            acc = sum(map(operator.mul, w, s[m - n:m]))
        s.append(-acc % q)
    return s


def cyclotomic_resultants(p: LaurentPoly, dmax: int) -> dict[int, int]:
    """{d: resultant_with_cyclotomic(p, d)} for d = 2..dmax, in one pass.

    Let lc be the leading coefficient of p^, of degree n, and lambda_i its
    roots.  The scaled power sums S_m = lc^m sum_i lambda_i^m are integers
    with S_0 = n and S_m = -(sum_(k < m, k <= n) w_k S_(m-k) + m w_m if
    m <= n), where w_k = a_(n-k) lc^(k-1) are small integer weights: each
    step multiplies a weight by a residue, never two residues.  For each d,
    P_i = S_(id) are the scaled power sums of the lambda_i^d, and Newton's
    identities on them give E_k = lc^(kd) e_k(lambda^d); then
    Res(p^, t^d - 1) = +-lc^d sum_k (-1)^k E_k lc^(-dk).

    A palindromic p^ (a_k = a_(n-k)), as every knot's Alexander polynomial
    is, has its roots closed under lambda -> 1/lambda, and their product is
    pi = prod_i lambda_i = (-1)^n a_0 / a_n = (-1)^n.  So e_(n-k)(lambda^d) =
    pi^d e_k(lambda^d), and term n - k of the sum is (-1)^(n(d+1)) times
    term k.  Newton's identities then run only to h = floor(n/2), from
    P_1..P_h, so the power sums only to S_(h dmax), and the sum takes each
    pair (k, n - k) with 2k < n once, weighted 1 + (-1)^(n(d+1)).  Odd n is
    no exception: a palindromic p^ of odd degree has the root -1, and at
    even d its pairs cancel, as R_d = 0 requires.  Any other p^ runs to
    h = n, each term weighted 1.

    The sweep walks the packs of _crt_packs(lc, B_dmax) once, with B_d the
    bound of _resultant_bounds that resultant_with_cyclotomic lifts under.
    Each pass runs modulo a pack's product q.  It divides only by lc, which
    no prime of q divides, and by k <= n, which every 61-bit prime exceeds,
    so both are units modulo q.  B_d never decreases in d, so the d whose
    B_d the earlier packs do not cover yet are those from some dmin on:
    the pass sweeps only those, and one Garner step adds q to their lift.
    A d is finished at the first pack whose product M_d with those before
    it exceeds 2 B_d, and |R_d| = min(v_d, M_d - v_d) for its residue
    0 <= v_d < M_d.  ||p||_1^dmax is capped as in resultant_with_cyclotomic,
    with ||p||_1 taken as at least 2: a unit p has bound 1, but a sweep
    still prints dmax - 1 lines.  The sweep's work is capped at
    MAX_SWEEP_WORK before any prime is drawn.
    """
    if dmax < 2:
        return {}
    if not p:
        raise InvariantError("resultant of the zero polynomial is undefined")
    f = list(p.coeffs)
    n = len(f) - 1
    lc = f[-1]
    norm = sum(map(abs, f))
    _check_resultant_bound(max(norm, 2), dmax)
    if not n:
        return {d: abs(lc) ** d for d in range(2, dmax + 1)}
    w = [a * lc ** (n - 1 - j) for j, a in enumerate(f[:n])]  # w[j] = w_(n-j)
    half = n // 2 if f == f[::-1] else n  # Newton's identities run to E_half

    def sweep_mod(q: int, dmin: int) -> list[int]:
        s = _power_sums(w, half * dmax, q)
        inverses = [pow(k, -1, q) for k in range(1, half + 1)]
        lc_d = pow(lc, dmin, q)
        inv_lc = pow(lc, -1, q)
        inv_lc_d = pow(inv_lc, dmin, q)
        out = []
        for d in range(dmin, dmax + 1):
            # k E_k = sum_(i <= k) (-1)^(i-1) E_(k-i) P_i
            signed = [-s[i * d] if i % 2 == 0 else s[i * d] for i in range(1, half + 1)]
            e = [1]  # E_k = lc^(kd) e_k(lambda^d)
            for k in range(1, half + 1):
                e.append(sum(map(operator.mul, reversed(e), signed)) * inverses[k - 1] % q)
            # sum_k (-1)^k E_k lc^(-dk) by Horner, term n - k folded into term k
            pair = 1 if half == n else 1 + (-1) ** (n * (d + 1))
            total = 0
            for k in range(half, -1, -1):
                term = -e[k] if k % 2 else e[k]
                total = (total * inv_lc_d + (pair * term if 2 * k < n else term)) % q
            out.append(lc_d * total % q)
            lc_d = lc_d * lc % q
            inv_lc_d = inv_lc_d * inv_lc % q
        return out

    bounds = [0, *itertools.islice(_resultant_bounds(f), dmax)]  # bounds[d] = B_d
    packs = -(-(2 * bounds[dmax]).bit_length() // (60 * _CRT_PACK))
    work = packs * (n * half * dmax + dmax * half * half)
    if work > MAX_SWEEP_WORK:
        raise SizeLimitError(
            f"the resultant sweep to d = {dmax} of a polynomial of degree {n} needs "
            f"{work} units of power-sum and Newton work, above the cap of {MAX_SWEEP_WORK}")
    values = [0] * (dmax + 1)  # values[d] = v_d, lifted over the packs so far
    modulus, dmin, out = 1, 2, {}
    for pack in _crt_packs(lc, bounds[dmax]):
        q = math.prod(pack)
        inv = pow(modulus, -1, q)
        for d, r in enumerate(sweep_mod(q, dmin), dmin):
            values[d] += modulus * ((r - values[d]) * inv % q)
        modulus *= q
        while dmin <= dmax and modulus > 2 * bounds[dmin]:  # d = dmin is finished
            out[dmin] = min(values[dmin], modulus - values[dmin])
            dmin += 1
    return out


# -- text form ----------------------------------------------------------------


def to_text(p: LaurentPoly, var: str = "s") -> str:
    """Render with descending exponents, e.g. ``s^4 - s^3 - s + 1``."""
    if not p:
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


# Cap on the exponent span (highest exponent minus lowest) of a parsed
# polynomial, refused before its dense coefficient run is built: a run of
# 10^5 coefficients takes under 1 MB, and `twist report` on a 1 x 1
# presentation of that span takes about 0.2 s (2-vCPU x86-64 host, Python
# 3.11).  The widest polynomial that the tests, CI and bench pools parse
# spans 2000; t^(10^20) - 1 would need a run of 10^20.
MAX_POLY_SPAN = 10**5


def _numeral(text: str, start: int, end: int, line: int | None) -> int:
    """The integer that text[start:end], an optional '-' and decimal
    digits, spells; a ParseError past the digits that int() converts."""
    try:
        return int(text[start:end])
    except ValueError:
        raise ParseError(f"numeral of {end - start} characters is too long",
                         line, start + 1) from None


def parse_laurent(text: str, line: int | None = None) -> LaurentPoly:
    """Parse polynomial text such as ``s^4 - s^3 + 2s^-1`` or ``t^2-3t+1``.

    Whitespace-insensitive (all whitespace is discarded before parsing, so
    reported columns refer to the compacted text); any one variable letter
    is allowed, the same throughout.  Numerals are runs of decimal digits,
    in any script.  A polynomial whose exponents span more than
    MAX_POLY_SPAN raises SizeLimitError.
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
            if i == n:
                raise ParseError(f"dangling {text[i - 1]!r} with no term after it", line, col)
        elif any_term:
            raise ParseError(f"expected '+' or '-' before {text[i]!r}", line, col)
        start = i
        while i < n and text[i].isdecimal():
            i += 1
        coeff = _numeral(text, start, i, line) if i > start else None
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
                while i < n and text[i].isdecimal():
                    i += 1
                if i == estart or text[estart:i] == "-":
                    raise ParseError("malformed exponent", line, estart + 1)
                exp = _numeral(text, estart, i, line)
        elif coeff is None:
            raise ParseError(f"malformed polynomial term at {text[start:start+8]!r}", line, col)
        terms[exp] = terms.get(exp, 0) + sign * (1 if coeff is None else coeff)
        any_term = True
    if not any_term:
        raise ParseError("empty polynomial", line, 1)
    terms = {e: c for e, c in terms.items() if c}
    span = max(terms) - min(terms) if terms else 0
    if span > MAX_POLY_SPAN:
        where = "" if line is None else f" (line {line})"
        raise SizeLimitError(f"the polynomial's exponents span {number_text(span)}{where}, "
                             f"above the cap of {MAX_POLY_SPAN}")
    return LaurentPoly.from_dict(terms)
