"""Spans around calls into stratseg's modules, recorded from outside.

Tracing wraps module attributes (for example `threshopt.optimize_leaf`, the
name `threshold_tree` looks up on every leaf) and restores them afterwards,
so nothing under `src/` knows it is being traced. Spans live in memory: one
list per traced operation, reduced to per-layer numbers when it ends.
"""

from __future__ import annotations

import functools
import subprocess
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Records (name, start, end, parent) spans and named counts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.peaks_mb = {}
        self._open = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.peaks_mb.clear()

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name, observe=None, memory=False):
        """`fn` inside a span called `name`.

        `observe(args, result, counts)` adds counts from the call. With
        `memory`, the call's peak traced allocation is recorded under
        `name` in MiB; tracemalloc runs only around such calls.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            started = memory and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            if memory:
                tracemalloc.reset_peak()
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0), peak)
                if started:
                    tracemalloc.stop()
            if observe is not None:
                observe(args, result, self.counts)
            return result

        return traced

    def totals(self):
        """Per span name: summed duration, summed self time and call count.

        Self time is a span's duration minus the durations of its direct
        children; calls here are sequential, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        dur, self_s, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            dur[name] += end - start
            self_s[name] += end - start - child_time[i]
            calls[name] += 1
        return dur, self_s, calls


@contextmanager
def installed(tracer, hooks):
    """Wrap each hooked module attribute for the duration of the block.

    `hooks` holds (module, attribute, span name, observe, memory) tuples.
    Yields the set of span names none of whose attributes exist, so a
    layer deleted from the program reads as absent instead of failing the
    run. Every attribute is put back when the block ends.
    """
    saved = []
    present = set()
    try:
        for module, attr, name, observe, memory in hooks:
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, observe, memory))
            present.add(name)
        yield {h[2] for h in hooks} - present
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def parse_importtime(stderr: str):
    """Forest of (name, self seconds, children) from -X importtime output."""
    pending = defaultdict(list)  # depth -> finished nodes awaiting a parent
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        label = fields[2].rstrip()
        name = label.lstrip()
        depth = (len(label) - len(name) - 1) // 2
        node = (name, int(fields[0]) / 1e6, pending.pop(depth + 1, []))
        pending[depth].append(node)
    return pending.get(0, [])


def import_seconds(forest, root, packages):
    """Self import time of everything the `root` module imports, by owner.

    A module imported, directly or not, by a module of one of `packages`
    belongs to the outermost such package; the rest belongs to `root`. So a
    package's total is about what dropping it would save.
    """
    totals = dict.fromkeys((root, *packages), 0.0)
    stack = [(node, root) for node in forest if node[0] == root]
    while stack:
        (name, self_s, children), owner = stack.pop()
        if owner == root:
            owner = next((p for p in packages if name == p or name.startswith(p + ".")), root)
        totals[owner] += self_s
        stack.extend((child, owner) for child in children)
    return totals


def import_profile(python, env, cwd):
    """Seconds spent importing numpy, scipy and stratseg's own modules in a
    fresh interpreter running `import stratseg`."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import stratseg"],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    totals = import_seconds(parse_importtime(proc.stderr), "stratseg", ("numpy", "scipy"))
    return {
        "import.numpy_s": totals["numpy"],
        "import.scipy_s": totals["scipy"],
        "import.stratseg_self_s": totals["stratseg"],
    }
