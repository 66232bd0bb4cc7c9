"""End-to-end and per-layer benchmark of the ``twist`` pipelines.

Usage, from the repository root:

    python3 bench/run.py --workload cover-deep --seed 1 --seconds 20 --trace 0

One process runs one workload as a single closed-loop client: each job
calls ``twistalex.cli.main([..., "--json"])`` in process on input files
generated from the seed, and the next job starts when the previous one
returns.  The run makes whole passes over the workload's job pool (at
least REPEATS, then more while they fit in --seconds), so every run
measures the same mix of jobs, and reports times at a reference speed
(REF_S).  Every job's output is checked afterwards (checks.py) by routes
independent of the program.

With --trace 0 the end-to-end metrics are printed; with --trace 1 each job
runs once plain and once with every layer's public functions wrapped
(tracer.py), and the per-layer metrics are printed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and for what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import checks
import jobs
import oracle
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "twistalex"
SETUPS = 3  # setup_s is the median of this many full set-ups
# Every job runs at least this many times; its time is the median of them.
REPEATS = 2
# Other tenants of a shared host change its speed by a third or more from
# one minute to the next.  A fixed reference loop is therefore timed before
# every timed call, and all times are reported at the reference speed:
# wall seconds * REF_S / (median reference-loop time of the run).  REF_S is
# the reference loop's typical time on the 2-vCPU x86-64 host (Python 3.11)
# where the bounds were set, so reported times read close to wall times there.
REF_S = 0.005


def setup(workload: str, seed: int, workdir: str):
    """Import the program afresh, write the job inputs, run one job untimed.

    Returns (the cli module, job pool, input digest).
    """
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    writer = jobs.Writer(workdir)
    pool = jobs.WORKLOADS[workload](random.Random(seed), writer)
    digest = hashlib.sha256()
    for text in writer.texts:
        digest.update(text.encode())
    for job in pool:
        digest.update(" ".join(os.path.basename(a) for a in job.argv).encode())
    run_job(cli, pool[0], [])
    return cli, pool, digest.hexdigest()


REF_MATRIX = [[((i * 31 + j * 17) * 2654435761 >> 7) % 19 - 9 for j in range(22)]
              for i in range(22)]
REF_WORD = tuple((i % 3, 1 + i % 2) for i in range(9000))


def reference_loop():
    """Fixed pure-Python work in the program's two styles, about 5 ms:
    fraction-free elimination on big integers, and free reduction of a
    long block word into a tuple."""
    for _ in range(4):
        oracle.det(REF_MATRIX)
    stack: list[list[int]] = []
    for g, e in REF_WORD:
        if stack and stack[-1][0] == g:
            stack[-1][1] += e
        else:
            stack.append([g, e])
    return tuple(map(tuple, stack))


def reference_time() -> float:
    """Seconds the reference loop takes now: the fastest of three runs."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def timed(fn, speed: list[float]):
    """(fn(), wall seconds); first appends reference_time() to speed."""
    speed.append(reference_time())
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_job(cli, job, speed):
    """(exit code or None if it raised, stdout, wall seconds)."""
    out, err, crash = io.StringIO(), io.StringIO(), []

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(job.argv + ["--json"])
            except Exception:  # a crash is a failed job, not a benchmark error
                crash.append(traceback.format_exc())
                return None

    rc, wall = timed(call, speed)
    if crash:
        print(f"{job.label} raised:\n{crash[0]}", file=sys.stderr)
    return rc, out.getvalue(), wall


def payload_of(text: str):
    """The JSON object on the last line of a job's stdout, or None."""
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def check_runs(pool, runs) -> list[str | None]:
    """A verdict (None when correct) for every (job index, exit code, stdout).

    Each distinct output is checked once, and every run of one job must
    print the same bytes as its first run.
    """
    cache: dict[tuple, str | None] = {}
    first: dict[int, tuple] = {}
    verdicts = []
    for run in runs:
        idx = run[0]
        if run not in cache:
            cache[run] = checks.check(pool[idx], run[1], payload_of(run[2]))
        verdict = cache[run]
        if verdict is None and first.setdefault(idx, run) != run:
            verdict = "output differs between runs of one job"
        verdicts.append(verdict)
    return verdicts


def coeff_bits(text: str) -> int:
    """Largest coefficient, in bits, of the polynomials a job printed."""
    payload = payload_of(text) or {}
    polys = [payload.get(k) for k in ("delta", "alexander", "polynomial")]
    return max((oracle.coeff_bits(oracle.parse_poly(p)) for p in polys if p), default=0)


def passes(order, seconds, least, body):
    """Call body(index) over whole passes of the pool: at least ``least``
    passes, then more while one as long as the last would still end
    within ``seconds``."""
    start = time.perf_counter()
    done, last = 0, 0.0
    while done < least or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        for idx in order:
            body(idx)
        done, last = done + 1, time.perf_counter() - begin


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "cli.py")):
        print(f"bench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def measure(args, workdir) -> int:
    # One core for the whole run, so the reference loop and the jobs share it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed: list[float] = []  # reference-loop times, one before each timed call
    setup_wall = []
    for _ in range(SETUPS):
        (cli, pool, digest), wall = timed(
            lambda: setup(args.workload, args.seed, workdir), speed)
        setup_wall.append(wall)
    order = list(range(len(pool)))
    random.Random(args.seed).shuffle(order)

    runs: list[tuple[int, int | None, str]] = []
    walls: list[float] = []

    if not args.trace:
        per_job: list[list[float]] = [[] for _ in pool]

        def body(idx):
            rc, text, wall = run_job(cli, pool[idx], speed)
            runs.append((idx, rc, text))
            walls.append(wall)
            per_job[idx].append(wall)

        passes(order, args.seconds, REPEATS, body)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        factor = REF_S / statistics.median(speed)
        typical = [statistics.median(t) * factor for t in per_job]
        q = statistics.quantiles(typical, n=10, method="inclusive")
        metrics = {
            "setup_s": metric(statistics.median(setup_wall) * factor, "s"),
            "jobs_per_s": metric(len(typical) / sum(typical), "1/s"),
            "job_s_p50": metric(statistics.median(typical), "s"),
            "job_s_p90": metric(q[8], "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        t = tracer.Tracer(PACKAGE)
        plain, bits = [], [0]

        def body(idx):
            rc, text, wall = run_job(cli, pool[idx], speed)
            runs.append((idx, rc, text))
            plain.append(wall)
            t.install()
            try:
                rc, text, wall = run_job(cli, pool[idx], speed)
            finally:
                t.uninstall()
            runs.append((idx, rc, text))
            walls.append(wall)
            bits[0] = max(bits[0], coeff_bits(text))

        passes(order, args.seconds, 1, body)
        n = len(walls)
        factor = REF_S / statistics.median(speed)
        metrics = {}
        absent = set()
        for name, (unit, total, needs) in tracer.per_layer_metrics(t, bits[0]).items():
            absent.update(q for q in needs if not t.known(q))
            value = total if tracer.is_max(name) else total / n
            metrics[name] = metric(value * factor if unit == "s" else value, unit)
        metrics["trace.overhead_s"] = metric((sum(walls) - sum(plain)) / n * factor, "s")
        if absent:
            print("absent (reported as 0): " + ", ".join(sorted(absent)), file=sys.stderr)

    verdicts = check_runs(pool, runs)
    for (idx, _, _), verdict in zip(runs, verdicts):
        if verdict:
            print(f"FAIL {pool[idx].label}: {verdict}", file=sys.stderr)
    if args.trace:  # a plain and a traced run per timed job
        verdicts = [a or b for a, b in zip(verdicts[0::2], verdicts[1::2])]
    attempted = len(walls)
    failed = sum(v is not None for v in verdicts)
    print(f"workload {args.workload} seed {args.seed}: {len(pool)} jobs in the pool, "
          f"{attempted} timed, inputs sha256 {digest}")
    print(f"fail_ratio = {failed / attempted:.4f} ({failed}/{attempted})")
    print(f"wall clock: {sum(walls):.3f} s in jobs, set-up median {statistics.median(setup_wall):.4f} s; "
          f"times below are scaled by {factor:.4f} to the reference speed")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
