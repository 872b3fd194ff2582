"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Each workload runs one untraced and one traced operation through the same
code as `run.py`. The test fails if an operation fails its check, if the
metric names differ from BENCHMARK.json, if a wrapped module attribute is
not restored after tracing, or if a missing attribute breaks a traced run
instead of reading as absent.
"""

import json
import os
import sys

import run

SEED = 2


def declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def attributes(hooks):
    return {(m.__name__, a): getattr(m, a) for m, a, *_ in hooks if hasattr(m, a)}


def check(cond, what, failures):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def main():
    error = run.prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads
    from stratseg import kgda

    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    failures = []
    workdir = run.make_workdir("selftest")
    try:
        for name in run.WORKLOAD_NAMES:
            wl = workloads.WORKLOADS[name](name, SEED, workdir, False)
            wl.setup()
            loop, metrics, _ = run.untraced_run(wl, 0, lambda: [0.0])
            check(loop.attempted == 1 and loop.failed == 0, f"{name}: untraced operation passes its check {loop.errors}", failures)
            units = {n: u for n, (_, u) in metrics.items()}
            check(units == end_to_end, f"{name}: end-to-end metrics match BENCHMARK.json", failures)

            wl.in_process = True  # cli-gda-eval runs its argv in-process when traced
            before = attributes(workloads.HOOKS)
            loop, metrics, notes = run.traced_run(wl, 0)
            after = attributes(workloads.HOOKS)
            check(loop.failed == 0, f"{name}: traced operations pass their checks {loop.errors}", failures)
            check(
                before.keys() == after.keys() and all(before[k] is after[k] for k in before),
                f"{name}: every wrapped attribute is restored",
                failures,
            )
            units = {n: u for n, (_, u) in metrics.items()}
            check(units == per_layer, f"{name}: per-layer metrics match BENCHMARK.json", failures)

        # a later program may delete the _eig entry points: their metrics
        # must read as absent, and the run must still pass
        wl = workloads.WORKLOADS["seg-leaves"]("seg-leaves", SEED, workdir, False)
        wl.setup()
        doomed = [(kgda, a) for a in ("top_pencil_eigenpairs", "refine_pencil_eigenpair", "orthonormal_complement")]
        doomed.append((workloads._eig, "solve_ld"))
        saved = [(m, a, getattr(m, a)) for m, a in doomed]
        for m, a, _ in saved:
            delattr(m, a)
        try:
            loop, metrics, notes = run.traced_run(wl, 0)
        finally:
            for m, a, fn in saved:
                setattr(m, a, fn)
        check(loop.failed == 0 and metrics["eig.s"][0] == 0, "missing attributes: run still passes", failures)
        absent = next(n for n in notes if n.startswith("absent"))
        check("eig.s" in absent and "eig.solve_ld.calls" in absent, "missing attributes: eig metrics reported absent", failures)
    finally:
        run.remove_workdir(workdir)
    print(f"{len(failures)} failures" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
