"""Run one symquery benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 25 --trace 0

Run it from the repository root: the program under test is imported from
./src, and result files go to ./.perfbench.  One client sends one request
at a time (a closed loop).  With --trace 0 the run sends whole passes over
the seeded deck until --seconds are used and prints the end-to-end metrics
declared in BENCHMARK.json; with --trace 1 it sends one untraced and one
traced pass and prints the per-layer metrics.  Every answer is checked
against the benchmark's own reference after the timed phase.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

ROOT = os.getcwd()
# A shared host's speed drifts by tens of percent within minutes (measured on
# a 2-core shared VM).  In-process request latencies are therefore scaled to a
# host on which host_kernel_s() takes REF_KERNEL_S; raw times are printed and
# saved next to them.
REF_KERNEL_S = 0.0008
# Process start and imports drift apart from the kernel, so set-up times and
# CLI requests (each a fresh process) are scaled by a baseline child process
# instead: a bare interpreter that imports what every set-up imports.  They
# read as seconds on a host where the baseline takes REF_BASELINE_S.
REF_BASELINE_S = 0.14
BASELINE_CODE = "import fractions, random, numpy; print('ready', flush=True)"
SETUP_PER_PASS = 2  # set-up samples taken after each pass, inside the --seconds budget
MIN_PASSES = 4  # a request's latency is its median over at least this many passes
TAIL_BEYOND = 10
# counts that must repeat exactly across traced runs on one seed, besides .calls
REPEATABLE_COUNTS = ("algos.inputs_checked", "algos.subroutine_sims", "qsim.outcomes_emitted",
                     "polydeg.witness_bits_max", "symfun.inputs_enumerated")


@dataclass
class Pass:
    latencies: list[float]
    normalized: list[float]
    answers: list


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small deck, for check_repeat.py")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "symquery", "__init__.py")):
        print("perfbench: no src/symquery here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import setup

    client, deck = setup(ROOT, args.workload, args.seed, args.tiny)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    declared = _declared_metrics()
    if args.trace:
        result = traced_run(client, deck, args, declared["per_layer"])
    else:
        result = timed_run(client, deck, args, declared["end_to_end"])
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, **result}, fh, indent=1, default=str)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")}


def _emit(declared: dict, values: dict) -> dict:
    missing = set(declared) - set(values)
    if missing:
        raise RuntimeError(f"declared metrics not measured: {sorted(missing)}")
    for name, unit in declared.items():
        print(f"  {name:<40} {values[name]!r:>24} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def host_kernel_s() -> float:
    """Best of three timings of a fixed pure-Python kernel of int and
    Fraction arithmetic: how fast the shared host runs right now."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total, x = 0, Fraction(1, 3)
        for i in range(1, 120):
            x = x * Fraction(i + 1, i) - Fraction(1, i + 6)
            total += i * i
        best = min(best, perf_counter() - start)
    return best


def baseline_s() -> float:
    """Time of one baseline child from spawn to ready."""
    return _seconds_to_ready([sys.executable, "-c", BASELINE_CODE])


def send_pass(client, deck) -> Pass:
    """One closed-loop pass over the deck from a fresh session.  A reference
    runs between requests: the host kernel, or for CLI requests, each a fresh
    process, the baseline child.  Each request's latency is also reported
    scaled by the reference's nominal time over the mean of the reference
    times around it."""
    probe, nominal = (baseline_s, REF_BASELINE_S) if client.workload == "cli-session" else (host_kernel_s, REF_KERNEL_S)
    client.reset()
    latencies, answers, reference = [], [], [probe()]
    for req in deck:
        t0 = perf_counter()
        answers.append(client.send(req))
        latencies.append(perf_counter() - t0)
        reference.append(probe())
    normalized = [t * 2 * nominal / (a + b) for t, a, b in zip(latencies, reference, reference[1:])]
    return Pass(latencies, normalized, answers)


def timed_run(client, deck, args, declared: dict) -> dict:
    passes, setups, elapsed = [], [], 0.0
    cli = client.workload == "cli-session"
    # whole passes only, so every run sends the same request mix; past the
    # minimum, start a pass only if it should end within --seconds
    while len(passes) < MIN_PASSES or elapsed + elapsed / len(passes) <= args.seconds:
        start = perf_counter()
        passes.append(send_pass(client, deck))
        if cli and len(passes) == 1:
            # read before any set-up child is waited for: every child so far ran a CLI command
            peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setups += setup_samples(args, SETUP_PER_PASS)
        elapsed += perf_counter() - start
    if not cli:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checked = check_answers(client, deck, [p.answers for p in passes])
    n = len(deck) * len(passes)
    # The tail's quantile is fixed by the fewest samples a run can have, so
    # that every run reads the same percentile with at least TAIL_BEYOND
    # samples beyond it.
    tail_q = 1.0 - TAIL_BEYOND / (len(deck) * MIN_PASSES)
    values, raw = {}, {}
    for out, samples in ((values, [p.normalized for p in passes]), (raw, [p.latencies for p in passes])):
        # For the rate and the median a request's latency is its median over
        # the run's passes, which drops bursts of noise; the tail is taken
        # over every (request, pass) sample, so slow outliers stay in it.
        medians = [statistics.median(s[i] for s in samples) for i in range(len(deck))]
        out.update({
            "verdicts_per_s": len(deck) / sum(medians),
            "latency_s_p50": statistics.median(medians),
            "latency_s_tail": quantile(sorted(x for s in samples for x in s), tail_q),
        })
    values["setup_s"] = statistics.median(seconds * REF_BASELINE_S / baseline for seconds, baseline in setups)
    raw["setup_s"] = statistics.median(seconds for seconds, _ in setups)
    values["peak_rss_mb"] = peak_rss_kb / 1024.0
    values["ok_ratio"] = 1.0 - checked["failed"] / n
    beyond = n - 1 - int(tail_q * (n - 1))

    _header(args, checked)
    print(f"  passes {len(passes)} of {len(deck)} requests and {len(setups)} set-up samples in {elapsed:.3f} s")
    print(f"  tail is p{100 * tail_q:.1f} of {n} samples, {beyond} beyond it")
    print(f"  raw (unscaled) times {raw}")
    print(f"  fail_ratio {checked['failed'] / n!r} ({checked['failed']} of {n})")
    metrics = _emit(declared, values)
    return {**checked, "attempted": n, "metrics": metrics, "raw_times": raw, "passes": len(passes),
            "timed_s": elapsed, "tail": {"percentile": 100 * tail_q, "samples": n, "beyond": beyond},
            "setup_samples": setups, "fail_ratio": checked["failed"] / n,
            "pass_latencies": [p.latencies for p in passes], "pass_normalized": [p.normalized for p in passes]}


def quantile(ordered: list[float], q: float) -> float:
    """The q-quantile of sorted samples, interpolated between neighbours."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def setup_samples(args, count: int) -> list[tuple[float, float]]:
    """count set-up times in seconds, each paired with the mean time of the
    baseline children run just before and after it."""
    setup_cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    baselines, samples = [baseline_s()], []
    for _ in range(count):
        seconds = _seconds_to_ready(setup_cmd)
        baselines.append(baseline_s())
        samples.append((seconds, (baselines[-2] + baselines[-1]) / 2))
    return samples


def _seconds_to_ready(cmd: list[str]) -> float:
    """Wall time from spawning a fresh interpreter to its 'ready' line; for
    the set-up child that is interpreter start, imports, deck generation and
    warm-up, everything before its first possible timed request."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    seconds = perf_counter() - start
    proc.communicate()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode} without getting ready")
    return seconds


# ---------------------------------------------------------------------------
# Checks, digest, environment
# ---------------------------------------------------------------------------


def check_answers(client, deck, passes: list[list]) -> dict:
    """Check the first pass against the reference and every later pass
    against the first; list each failing request once with its count."""
    from answers import Checker

    if client.sq is None:
        client.load_program()
    checker = Checker(client.sq)
    first = passes[0]
    problems = [checker.problems(req, answer) for req, answer in zip(deck, first)]
    failing: Counter = Counter()
    for answers in passes:
        for req, answer, reference_answer, found in zip(deck, answers, first, problems):
            if answer != reference_answer:
                found = [("wrong", "answer differs from the first pass")]
            if found:
                failing[(req.label(), *found[0])] += 1
    verdicts = [[req.label(), checker.verdict(req, answer)] for req, answer in zip(deck, first)]
    digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True, default=str).encode()).hexdigest()[:16]
    return {
        "correct": not any(category == "wrong" for _, category, _ in failing),
        "failed": sum(failing.values()),
        "failures": [{"request": label, "category": category, "why": why, "count": count}
                     for (label, category, why), count in failing.items()],
        "digest": digest,
        "check_stats": dict(checker.stats),
        "environment": environment(),
    }


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {var: os.environ.get(var, "unset") for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"commit": _commit(), "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "host_kernel_ms": 1000 * host_kernel_s()}


def _commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git clone."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _header(args, checked: dict) -> None:
    env = checked["environment"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"commit={env['commit'][:12]} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} blas={env['blas']} threads={env['blas_threads']} "
          f"host_kernel_ms={env['host_kernel_ms']:.3f}")
    print(f"  digest {checked['digest']}  checks {checked['check_stats']}")
    for f in checked["failures"]:
        print(f"  FAIL x{f['count']} [{f['category']}] {f['request']}: {f['why']}")


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def replay_main(client, argv: tuple) -> tuple:
    """Run cli.main in process on argv, as a fresh process would."""
    client.reset()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = client.sq["cli"].main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the subprocess pass records the same crash
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def traced_run(client, deck, args, declared: dict) -> dict:
    from spans import Tracer

    cli = client.workload == "cli-session"
    if client.sq is None:
        client.load_program()
    untraced = send_pass(client, deck)
    tracer = Tracer(client.sq)
    extra = {}
    if cli:
        # subprocess walls come from the untraced pass; cli.main runs in
        # process twice, untraced for start-up and traced for the layers
        replays = []
        for req in deck:
            t0 = perf_counter()
            replay_main(client, req.args[0])
            replays.append(perf_counter() - t0)
        untraced_s = sum(replays)
        extra["cli.startup_s"] = statistics.median(w - r for w, r in zip(untraced.latencies, replays))
        extra["cli.output_bytes"] = sum(len(a[1].encode()) + len(a[2].encode()) for a in untraced.answers)
    else:
        untraced_s = sum(untraced.latencies)
    tracer.install()
    hits = misses = 0
    try:
        client.reset()
        answers, traced_s = [], 0.0
        for i, req in enumerate(deck):
            span = tracer.begin_request(i)
            answers.append(replay_main(client, req.args[0]) if cli else client.send(req))
            tracer.end_request(span)
            traced_s += tracer.spans[span][2] - tracer.spans[span][1]
            if cli:  # each replay starts with emptied caches, as a fresh process would
                hits, misses = map(sum, zip((hits, misses), tracer.outcome_cache_stats()))
    finally:
        tracer.uninstall()
    if not cli:
        hits, misses = tracer.outcome_cache_stats()
    calls, busy = tracer.self_times()
    counts = tracer.counts

    values = dict(extra)
    for metric in declared:
        name, _, kind = metric.rpartition(".")
        if kind in ("calls", "busy_s"):
            values[metric] = (calls if kind == "calls" else busy)[name]
    lp_calls = calls["polydeg.lp_feasible.eps0"] + calls["polydeg.lp_feasible.epspos"]
    values.update({
        "polydeg.lp_feasible.calls": lp_calls,
        "polydeg.lp_feasible.feasible_ratio": counts["lp_feasible.feasible"] / lp_calls if lp_calls else 0.0,
        "polydeg.solves_per_degree": lp_calls / calls["polydeg.degree"] if calls["polydeg.degree"] else 0.0,
        "polydeg.witness_bits_max": counts["witness_bits_max"],
        "qsim.outcomes_emitted": counts["qsim.outcomes_emitted"],
        "algos.inputs_checked": counts["algos.inputs_checked"],
        "algos.subroutine_sims": misses,
        "algos.outcome_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "symfun.inputs_enumerated": counts["symfun.inputs_enumerated"],
        "trace.overhead_ratio": untraced_s / traced_s,
    })
    values.setdefault("cli.startup_s", 0.0)
    values.setdefault("cli.output_bytes", 0)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    tracer.write(os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-seed{args.seed}.json"))

    checked = check_answers(client, deck, [untraced.answers] if cli else [untraced.answers, answers])
    _header(args, checked)
    print(f"  traced pass {traced_s:.3f} s against untraced {untraced_s:.3f} s; "
          f"{len(tracer.spans)} spans written to .perfbench/")
    metrics = _emit(declared, values)
    exact_counts = {name: values[name] for name in declared
                    if name.endswith(".calls") or name in REPEATABLE_COUNTS}
    attempted = len(deck) * (1 if cli else 2)
    return {**checked, "attempted": attempted, "metrics": metrics, "exact_counts": exact_counts}


if __name__ == "__main__":
    sys.exit(main())
