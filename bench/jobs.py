"""Seeded job pools for the four benchmark workloads.

Every input is made here from the workload seed, by this package's own
code: the program under test only ever sees the files written to the run
directory.  Each pool is a fixed ladder of job shapes (map, power, cover
order, matrix size); the seed picks the content of each shape (which
automorphism, which surjection, which matrix), so pools of different
seeds do comparable work.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import random

import oracle

GENS = "xyz"

# The program's two built-in Seifert fixtures, by fixture name.
FIXTURES = {
    "trefoil-seifert": [[-1, 1], [0, -1]],
    "figure8-seifert": [[1, 1], [0, -1]],
}

FIGURE8_MAP = [[0, 1], [1, 0, 1]]  # x -> x y, y -> y x y
TREFOIL_MAP = [[(1, -1)], [(0, 1), (1, 1)]]  # x -> y^-1, y -> x y


@dataclasses.dataclass
class Job:
    """One ``twist`` invocation and what its output is checked against."""

    label: str
    argv: list[str]
    expect_rc: int
    kind: str
    spec: dict


class Writer:
    """Writes input files into the run directory, numbering them."""

    def __init__(self, directory: str):
        self.directory = directory
        self.texts: list[str] = []

    def write(self, stem: str, text: str) -> str:
        path = os.path.join(self.directory, f"{len(self.texts) + 1:03d}-{stem}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.texts.append(text)
        return path


# -- free-group maps and cyclic covers -----------------------------------------


def abelianization(images) -> list[list[int]]:
    """A[i][j] = exponent sum of generator i in the image of generator j."""
    n = len(images)
    a = [[0] * n for _ in range(n)]
    for j, img in enumerate(images):
        for g, e in _blocks(img):
            a[g][j] += e
    return a


def _blocks(img):
    return [(x, 1) if isinstance(x, int) else x for x in img]


def _matmul(a, b, mod=None):
    n = len(a)
    out = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[x % mod for x in row] for row in out] if mod else out


def _matpow(a, d, mod=None):
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(d):
        out = _matmul(out, a, mod)
    return out


def stretch(a) -> float:
    """Growth rate of a primitive nonnegative matrix: the ratio of the
    total letters of f^13 and f^12 images."""
    v = [1] * len(a)
    for _ in range(12):
        v = [sum(a[i][k] * v[k] for k in range(len(a))) for i in range(len(a))]
    w = [sum(a[i][k] * v[k] for k in range(len(a))) for i in range(len(a))]
    return sum(w) / sum(v)


def positive_automorphism(rank: int, rng: random.Random, lo: float, hi: float):
    """A positive automorphism (composite of moves x_i -> x_i x_j or x_j x_i
    and a relabelling) whose growth rate lies in [lo, hi] and whose images
    have at most 3 * rank letters in all, so that maps of one shape do
    comparable work."""
    while True:
        images = [[i] for i in range(rank)]
        for _ in range(rng.randint(rank, 3 * rank)):
            i, j = rng.sample(range(rank), 2)
            images[i] = images[i] + images[j] if rng.random() < 0.5 else images[j] + images[i]
        if rng.random() < 0.5:
            perm = rng.sample(range(rank), rank)
            images = [images[p] for p in perm]
        if sum(map(len, images)) <= 3 * rank and lo <= stretch(abelianization(images)) <= hi:
            return images


def format_map(images) -> str:
    names = GENS[: len(images)]
    lines = ["generators: " + " ".join(names)]
    for name, img in zip(names, images):
        letters = " ".join(GENS[g] + ("" if e == 1 else f"^{e}") for g, e in _blocks(img))
        lines.append(f"{name} -> {letters}")
    return "\n".join(lines) + "\n"


def compatible_alphas(a, d: int, r: int) -> list[tuple[int, ...]]:
    """Surjections F -> Z/r, as generator values, with alpha(f^d(x)) = alpha(x)."""
    n = len(a)
    m = _matpow(a, d, r)
    for i in range(n):
        m[i][i] -= 1
    return [v for v in itertools.product(range(r), repeat=n)
            if math.gcd(r, *v) == 1
            and all(sum(v[i] * m[i][j] for i in range(n)) % r == 0 for j in range(n))]


def lift_cost(images, d: int, alpha, r: int) -> int:
    """Letter steps the word-substitution lift spends on (f^d, alpha).

    The cover's spanning tree is grown breadth-first as in the program;
    each Schreier word is substituted letter by letter, and every step
    re-reads the accumulated image (letters of f^d(x_g) from the growth
    matrix, exact for positive maps).
    """
    n = len(alpha)
    growth = _matpow(abelianization(images), d)
    letters = [sum(growth[i][j] for i in range(n)) for j in range(n)]
    tree = {0: []}
    order = [0]
    tree_edges = set()
    for v in order:
        for g in range(n):
            w = (v + alpha[g]) % r
            if w not in tree:
                tree[w] = tree[v] + [(g, 1)]
                order.append(w)
                tree_edges.add((v, g))
    total = 0
    for v in range(r):
        for g in range(n):
            if (v, g) in tree_edges:
                continue
            stack: list[tuple[int, int]] = []
            word = tree[v] + [(g, 1)] + [(x, -e) for x, e in reversed(tree[(v + alpha[g]) % r])]
            for x, e in word:
                if stack and stack[-1] == (x, -e):
                    stack.pop()
                else:
                    stack.append((x, e))
            acc = 0
            for x, _ in stack:
                acc += letters[x]
                total += acc
    return total


def alpha_costs(images, d, r) -> dict:
    """Compatible surjections up to units of Z/r, with their lift costs.

    Surjections that differ by a unit give isomorphic covers and the same
    cost; each class is keyed by its smallest member.
    """
    units = [u for u in range(1, r) if math.gcd(u, r) == 1]
    classes = {min(tuple(u * x % r for x in v) for u in units)
               for v in compatible_alphas(abelianization(images), d, r)}
    return {c: lift_cost(images, d, c, r) for c in sorted(classes)}


def median_cost(costs: dict) -> int:
    return sorted(costs.values())[len(costs) // 2]


def pick_alpha(costs: dict, target: int, r: int, rng):
    """A surjection whose class costs within a tenth of target, drawn with
    one of its unit multiples; None if no class does."""
    near = [c for c, cost in costs.items() if 0.9 * target <= cost <= 1.1 * target]
    if not near:
        return None
    u = rng.choice([u for u in range(1, r) if math.gcd(u, r) == 1])
    return tuple(u * x % r for x in rng.choice(near))


def _cover_job(w: Writer, label, images, d, r, alpha) -> Job:
    path = w.write(label, format_map(images))
    inline = f"Z/{r}:" + ",".join(f"{GENS[i]}={v}" for i, v in enumerate(alpha))
    return Job(label=label,
               argv=["monodromy", "--file", path, "--d", str(d), "--alpha", inline],
               expect_rc=0, kind="cover",
               spec={"r": r, "rank": len(images)})


def _valid_orders(images, d, lo, hi):
    a = abelianization(images)
    m = _matpow(a, d)
    for i in range(len(a)):
        m[i][i] -= 1
    det = abs(oracle.det(m))
    return [r for r in range(lo, hi + 1) if det and det % r == 0]


# Shapes of the cover-deep pool: (rank, power d, lowest and highest cover
# order, growth band), in three size classes: small (d = 4, 5), middle
# (d = 6, where the pool's median job sits) and large (d = 7, where the
# 90th percentile sits).  Rank 2 at growth <= 3 with d <= 7 and rank 3 at
# d <= 5 stay clear of the exponential cliff beyond (see README.md).
RANK2 = (2.2, 3.0)
RANK3 = (1.8, 2.6)
DEEP_SHAPES = [(3, 4, 5, 8, RANK3), (3, 5, 4, 6, RANK3)] * 2 \
    + [(2, 6, 20, 20, RANK2)] * 7 + [(2, 7, 20, 30, RANK2)] * 3
FIGURE8_SHAPES = [(4, 15), (5, 11), (6, 20), (7, 29)]


def cover_deep(rng: random.Random, w: Writer) -> list[Job]:
    jobs, reference = [], {}
    for d, r in FIGURE8_SHAPES:
        costs = alpha_costs(FIGURE8_MAP, d, r)
        reference[d, r] = median_cost(costs)
        alpha = pick_alpha(costs, reference[d, r], r, rng)
        jobs.append(_cover_job(w, f"fig8-d{d}-r{r}", FIGURE8_MAP, d, r, alpha))
    for rank, d, lo, hi, (glo, ghi) in DEEP_SHAPES:
        alpha = None
        while alpha is None:
            images = positive_automorphism(rank, rng, glo, ghi)
            orders = _valid_orders(images, d, lo, hi)
            r = max(orders, default=0)
            costs = alpha_costs(images, d, r) if r else {}
            if costs:
                # Rank-2 shapes cost what the figure-eight map costs at the
                # same (d, r); rank-3 ones what is typical for their map.
                target = reference.get((d, r)) if rank == 2 else median_cost(costs)
                if target:
                    alpha = pick_alpha(costs, target, r, rng)
        jobs.append(_cover_job(w, f"rank{rank}-d{d}-r{r}", images, d, r, alpha))
    return jobs


WIDE_ORDERS = [24, 30, 36, 42, 48]


def cover_wide(rng: random.Random, w: Writer) -> list[Job]:
    jobs = []
    for r in WIDE_ORDERS:
        d = rng.choice((6, 12))
        while True:
            alpha = (rng.randrange(r), rng.randrange(r))
            if math.gcd(r, *alpha) == 1:
                break
        jobs.append(_cover_job(w, f"trefoil-d{d}-r{r}", TREFOIL_MAP, d, r, alpha))
    return jobs


# -- Seifert matrices ----------------------------------------------------------


def seifert_matrix(size: int, rng: random.Random, blocks=None) -> list[list[int]]:
    """A Seifert matrix with det(S - S^T) = 1.

    Without ``blocks`` the start is the standard symplectic form plus
    symmetric noise in [-1, 1]; with ``blocks`` it is the block sum of the
    given 2x2 matrices.  Either way a few random elementary congruences
    P S P^T scramble it; they keep S - S^T unimodular and the Alexander
    polynomial fixed.
    """
    s = [[0] * size for _ in range(size)]
    if blocks:
        for k, b in enumerate(blocks):
            for i in range(2):
                for j in range(2):
                    s[2 * k + i][2 * k + j] = b[i][j]
    else:
        for i in range(size):
            for j in range(i, size):
                s[i][j] = s[j][i] = rng.randint(-1, 1)
        for k in range(0, size, 2):
            s[k][k + 1] += 1
    for _ in range(size):
        i, j = rng.sample(range(size), 2)
        q = rng.choice((-1, 1))
        trial = [list(row) for row in s]
        for c in range(size):  # row i += q row j
            trial[i][c] += q * trial[j][c]
        for row in trial:  # column i += q column j
            row[i] += q * row[j]
        if max(abs(x) for row in trial for x in row) <= 3:
            s = trial
    return s


def format_seifert(s) -> str:
    return "\n".join([str(len(s))] + [" ".join(map(str, row)) for row in s]) + "\n"


SWEEP = 40
# (matrix size, covering degree d) of the seifert-branched pool; the
# presentation has size * (d - 1) rows, at most 80 here.  Small jobs, then
# a middle group of twelve (where the median sits) and a top group of nine
# plus the d = 200 resultant (where the 90th percentile sits): SNF times
# vary by a third between random matrices of one shape, so each quantile
# is read inside a group of jobs of one shape.
SEIFERT_SHAPES = [(4, 11), (4, 11), (6, 6)] + [(8, 8)] * 12 + [(8, 11)] * 9
FIXTURE_DEGREES = {"trefoil-seifert": 10, "figure8-seifert": 11}
RESULTANT_DEGREES = [100, 200]
CATALOGUE_SEED = 20011


def _seifert_spec(s, d, rng) -> dict | None:
    """What a ``twist seifert`` job on (S, d) is checked against, with R a
    prime factor of the branched cover's order; None if the order is 0, 1
    or has no small prime factor."""
    delta = oracle.alexander(s)
    order = oracle.cyclic_resultant(delta, d)
    primes = oracle.prime_factors(order)
    if order < 2 or not primes:
        return None
    return {"s": s, "d": d, "r": rng.choice(primes), "delta": delta, "order": order}


def _seifert_job(label, source, spec) -> Job:
    argv = ["seifert", *source, "--d", str(spec["d"]), "--r", str(spec["r"]),
            "--sweep", str(SWEEP)]
    return Job(label=label, argv=argv, expect_rc=0, kind="seifert", spec=spec)


def seifert_branched(rng: random.Random, w: Writer) -> list[Job]:
    """The Seifert matrices are a fixed catalogue (CATALOGUE_SEED), one per
    slot; the seed picks each job's R and the order of the pass.  SNF time
    differs by a third between random matrices of one shape, and by a
    fifth between bases of one matrix, so seeded matrices would make pools
    of different seeds do different work."""
    jobs = []
    for name, d in FIXTURE_DEGREES.items():
        spec = _seifert_spec(FIXTURES[name], d, rng)
        jobs.append(_seifert_job(name, ["--fixture", name], spec))
    catalogue = random.Random(CATALOGUE_SEED)
    for size, d in SEIFERT_SHAPES:
        spec = None
        while spec is None:
            s = seifert_matrix(size, catalogue)
            spec = _seifert_spec(s, d, rng)
        label = f"seifert{size}-d{d}"
        jobs.append(_seifert_job(label, ["--file", w.write(label, format_seifert(s))], spec))
    for d in RESULTANT_DEGREES:
        delta = oracle.alexander(seifert_matrix(8, catalogue))
        text = oracle.poly_token(dict(enumerate(delta))).replace("s", "t")
        jobs.append(Job(label=f"resultant-d{d}",
                        argv=["resultant", "--poly", text, "--d", str(d)],
                        expect_rc=0, kind="resultant",
                        spec={"delta": delta, "d": d}))
    return jobs


# -- non-square presentations for the obstruction --------------------------------

# (generators n, extra relation columns k); n is even because a knot's
# Seifert matrix is.  Each shape comes once as a fibred block sum (monic
# delta, verdict inconclusive, exit 3) and once from a random Seifert
# matrix (usually not monic, exit 2).  The median sits in the ten 6 x 10
# jobs and the 90th percentile in the ten 8 x 11 jobs.
MINOR_SHAPES = [(4, 2), (4, 4), (6, 2), (6, 3)] + [(6, 4)] * 5 + [(8, 3)] * 5 + [(8, 4)]


def obstruction_minors(rng: random.Random, w: Writer) -> list[Job]:
    jobs = []
    for n, k in MINOR_SHAPES:
        for fibred in (True, False):
            blocks = ([FIXTURES[rng.choice(sorted(FIXTURES))] for _ in range(n // 2)]
                      if fibred else None)
            s = seifert_matrix(n, rng, blocks)
            q = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            rows = []
            for i in range(n):  # row i of [A | A Q], A = tS - S^T
                row = [{1: s[i][j], 0: -s[j][i]} for j in range(n)]
                for c in range(k):
                    row.append({1: sum(s[i][j] * q[j][c] for j in range(n)),
                                0: -sum(s[j][i] * q[j][c] for j in range(n))})
                rows.append(" ".join(oracle.poly_token(e) for e in row))
            label = f"{'fibred' if fibred else 'random'}{n}x{n + k}"
            path = w.write(label, f"{n} {n + k}\n" + "\n".join(rows) + "\n")
            delta = oracle.alexander(s)
            monic = oracle.is_monic(delta)
            jobs.append(Job(label=label, argv=["report", "--presentation", path],
                            expect_rc=3 if monic else 2, kind="report",
                            spec={"delta": delta, "monic": monic}))
    return jobs


WORKLOADS = {
    "cover-deep": cover_deep,
    "cover-wide": cover_wide,
    "seifert-branched": seifert_branched,
    "obstruction-minors": obstruction_minors,
}
