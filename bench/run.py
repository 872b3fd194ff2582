"""Benchmark of stratseg: one closed-loop client, four seeded workloads.

    python3 bench/run.py --workload seg-large --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from the `src/` directory next to
this one. The last line of standard output is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` operations alternate between traced
and untraced, and the metrics are the per-layer ones. See README.md here.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("seg-large", "seg-leaves", "gda-train", "cli-gda-eval")
# Set-ups per untraced run; setup_s is their median. The run's own set-up is
# one of them, the others run in fresh interpreters after the timed phase.
SETUP_REPEATS = 3
IMPORT_PROFILES = 3
# One BLAS thread, at most nproc: the client is a single process, and extra
# BLAS threads only add scheduling noise. Children inherit the environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time spent in operations")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Loop:
    """Closed loop of operations: the next starts when the previous ends.

    Only `op` is timed. Each output is checked between operations, once per
    distinct output, and a failed check or an exception counts as failed.
    """

    def __init__(self, workload):
        self.wl = workload
        self.verdicts = {}  # output key -> (Verdict, digests)
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.qualities = []

    def run_op(self):
        """One timed operation; returns (seconds, ok, output or None)."""
        t0 = time.perf_counter()
        try:
            out = self.wl.op()
        except Exception as exc:  # a failing operation is a result, not a crash
            dt = time.perf_counter() - t0
            self._record(False, None, f"{type(exc).__name__}: {exc}")
            return dt, False, None
        dt = time.perf_counter() - t0
        key, digests = self.wl.fingerprint(out)
        if key not in self.verdicts:
            self.verdicts[key] = (self.wl.check(out), digests)
        verdict = self.verdicts[key][0]
        self._record(verdict.ok, verdict.quality, verdict.reason)
        return dt, verdict.ok, out

    def _record(self, ok, quality, reason):
        self.attempted += 1
        if quality is not None:
            self.qualities.append(quality)
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(reason)

    def digests(self):
        return [d for _, d in self.verdicts.values()]


def latency_metrics(loop, durations, oks):
    good = [d for d, ok in zip(durations, oks) if ok] or durations
    busy = sum(durations)
    return {
        "op_p50_s": (statistics.median(good), "s"),
        "op_p90_s": (p90(good), "s"),
        "ops_per_s": ((loop.attempted - loop.failed) / busy, "1/s"),
        "ok_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "quality": (statistics.median(loop.qualities) if loop.qualities else 0.0, "ratio"),
    }


def untraced_run(wl, seconds, setup_samples_fn):
    loop = Loop(wl)
    durations, oks = [], []
    while sum(durations) < seconds or not durations:
        dt, ok, _ = loop.run_op()
        durations.append(dt)
        oks.append(ok)
    metrics = latency_metrics(loop, durations, oks)
    metrics["peak_rss_mb"] = (wl.peak_rss_mb(), "MiB")
    setup = setup_samples_fn()
    metrics["setup_s"] = (statistics.median(setup), "s")
    notes = [
        f"p50/p90 over {len(durations)} operations",
        f"fail_ratio {loop.failed / loop.attempted:.4g} ({loop.failed}/{loop.attempted})",
        "setup samples (s): " + ", ".join(f"{s:.3f}" for s in setup),
    ]
    return loop, metrics, notes


def traced_run(wl, seconds):
    import workloads

    tracer = spans.Tracer()
    loop = Loop(wl)
    traced, plain, per_op = [], [], []
    absent = set()
    while sum(traced) + sum(plain) < seconds or not traced or not plain:
        if len(traced) <= len(plain):
            tracer.reset()
            with spans.installed(tracer, workloads.HOOKS) as missing:
                dt, ok, out = loop.run_op()
            absent |= missing
            traced.append(dt)
            if ok:
                per_op.append(workloads.layer_values(tracer, wl.layer_counts(out)))
        else:
            dt, _, _ = loop.run_op()
            plain.append(dt)
    env = dict(os.environ, PYTHONPATH=SRC)
    profiles = [spans.import_profile(sys.executable, env, ROOT) for _ in range(IMPORT_PROFILES)]
    metrics = {}
    for name, (unit, _) in workloads.PER_LAYER.items():
        samples = [v[name] for v in per_op + profiles if name in v]
        metrics[name] = (statistics.median(samples) if samples else 0, unit)
    p50 = statistics.median(traced)
    metrics["trace.overhead_s"] = (p50 - statistics.median(plain), "s")
    gone = [n for n, (_, span) in workloads.PER_LAYER.items() if span in absent]
    shares = sorted(
        (metrics[n][0] / p50, n)
        for n, (unit, span) in workloads.PER_LAYER.items()
        if unit == "s" and span not in ("run", "output")
    )
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced operations, alternating",
        f"op_p50_s traced {p50:.4f} s, untraced {statistics.median(plain):.4f} s",
        "absent (attribute missing, reported as 0): " + (", ".join(gone) or "none"),
        "time inside each layer / traced op_p50_s (nested layers overlap): "
        + ", ".join(f"{n} {share:.0%}" for share, n in reversed(shares) if share >= 0.005),
    ]
    return loop, metrics, notes


def child_setup_seconds(args):
    """Set-up time of a fresh interpreter running this script's set-up."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def prepare():
    """Limit BLAS threads and import stratseg from SRC; returns an error
    message instead when the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "stratseg", "__init__.py")):
        return f"no stratseg sources under {SRC}"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import stratseg

    if os.path.dirname(os.path.dirname(os.path.abspath(stratseg.__file__))) != SRC:
        return f"imported stratseg from {stratseg.__file__}, not {SRC}"
    return None


def make_workdir(tag):
    """Scratch directory inside the checkout for one run's files."""
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    return workdir


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass  # another run still uses it


def main(argv=None):
    args = parse_args(argv)
    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads

    workdir = make_workdir(args.workload)
    try:
        wl = workloads.WORKLOADS[args.workload](args.workload, args.seed, workdir, bool(args.trace))
        wl.setup()
        warm = Loop(wl)  # first calls pay one-time costs (LAPACK, page faults)
        warm.run_op()
        if warm.failed:
            print(f"error: warm-up operation failed: {warm.errors[0]}", file=sys.stderr)
            return 1
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            loop, metrics, notes = traced_run(wl, args.seconds)
        else:
            loop, metrics, notes = untraced_run(
                wl,
                args.seconds,
                lambda: [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)],
            )
    finally:
        remove_workdir(workdir)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for note in notes:
        print("  " + note)
    for digests in loop.digests():
        print("  digests: " + " ".join(f"{k}={v}" for k, v in digests.items()))
    for reason in loop.errors:
        print("  failure: " + reason)
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
