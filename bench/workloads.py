"""The benchmark's four workloads: set-up, one operation, and its check.

An operation is one call a user would make. Each workload builds its inputs
from the seed (see `seeded`), times only `op`, and checks every output
outside the timed region. Outputs are fingerprinted by exact digest, so an
output identical to one already checked shares its verdict.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
from typing import NamedTuple

import numpy as np

from stratseg import cli, imgio, kgda, stratify, threshopt

import seeded

try:  # later versions of the program may drop this module
    _eig = importlib.import_module("stratseg._eig")
except ModuleNotFoundError:
    _eig = None

DICE_FLOOR = 0.97
ACCURACY_FLOOR = 0.95
EIGEN_TOL = 1e-8  # residual and B-orthonormality, as the README promises
# J is evaluated elementwise by numpy in both the program and this check;
# vectorised and scalar log can differ in the last bit.
LOCAL_MAX_SLACK = 1e-12


class Verdict(NamedTuple):
    ok: bool
    quality: float
    reason: str = ""


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def rounded_digest(*arrays) -> str:
    """Digest of arrays rounded to 1e-6, robust to last-bit noise."""
    doc = [(np.round(np.asarray(a, dtype=np.float64), 6) + 0.0).tolist() for a in arrays]
    return sha256(json.dumps(doc).encode())


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- segmentation -------------------------------------------------------------

# acceptance phantom of the test suite, scaled 8x: two ellipses over a ramp
_LARGE = (4096, [(1280, 1360, 1040, 840, 125), (2800, 2720, 1040, 880, 125)])
# 16 x 16 disks of radius 20 at pitch 64: every depth-4 leaf holds one disk
_LEAVES = (1024, [(32 + 64 * i, 32 + 64 * j, 20, 20, 125) for i in range(16) for j in range(16)])


def _rect_doc(r):
    return None if r is None else {"x0": r.x0, "y0": r.y0, "w": r.w, "h": r.h}


def report_json(report) -> str:
    """Canonical JSON of a threshold report, as the CLI's `leaves` list."""
    doc = [
        {
            "rect": _rect_doc(e.rect),
            "threshold": e.threshold,
            "continuous_optimum": e.continuous_optimum,
            "objective_value": e.objective_value,
            "w_var": e.w_var,
            "w_ent": e.w_ent,
            "iterations": e.iterations,
            "converged": e.converged,
            "source_rect": _rect_doc(e.source_rect),
        }
        for e in report.entries
    ]
    return json.dumps({"leaves": doc}, indent=2, sort_keys=True) + "\n"


def _entropy_bits(hist: np.ndarray) -> float:
    counts = hist.astype(np.float64)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


class Segmentation:
    """PGM bytes in, PGM mask bytes out: load, stratify, threshold, stitch."""

    def __init__(self, name, seed, workdir, in_process):
        self.seed = seed
        self.size, self.ellipses = _LARGE if name == "seg-large" else _LEAVES

    def setup(self):
        self.pixels, truth = seeded.render_image(
            self.size, self.ellipses, background=80, ramp=40.0, sigma=8.0, seed=self.seed
        )
        self.truth = truth
        self.truth_count = int(truth.sum())
        self.data = seeded.encode_pgm(self.pixels)
        self.header = self.data[: len(self.data) - self.pixels.size]

    def op(self):
        img = imgio.load_pgm(self.data)
        tree = stratify.build_quadtree(img)
        report = threshopt.threshold_tree(img, tree)
        mask = threshopt.segment(img, tree, report)
        return tree, report, imgio.save_pgm(mask)

    def fingerprint(self, out):
        _, report, mask_bytes = out
        digests = {
            "mask_sha256": sha256(mask_bytes),
            "report_sha256": sha256(report_json(report).encode()),
        }
        return tuple(digests.values()), digests

    def check(self, out) -> Verdict:
        _, report, mask_bytes = out
        if not mask_bytes.startswith(self.header) or len(mask_bytes) != len(self.data):
            return Verdict(False, 0.0, "mask is not a P5 image of the input's size")
        mask = np.frombuffer(mask_bytes, dtype=np.uint8, offset=len(self.header))
        fg = mask == 255
        if not np.all(fg | (mask == 0)):
            return Verdict(False, 0.0, "mask holds values other than 0 and 255")
        truth = self.truth.ravel()
        dice = 2.0 * int(np.count_nonzero(fg & truth)) / (int(fg.sum()) + self.truth_count)
        if dice < DICE_FLOOR:
            return Verdict(False, dice, f"Dice {dice:.4f} below {DICE_FLOOR}")
        checked = {}
        for e in report.entries:
            src = e.source_rect or e.rect
            key = (src, e.threshold)
            if key not in checked:
                checked[key] = self._is_local_max(src, e.threshold)
            if not checked[key]:
                return Verdict(False, dice, f"threshold {e.threshold} of {e.rect} is not a local maximum")
        return Verdict(True, dice)

    def _is_local_max(self, r, t) -> bool:
        sub = self.pixels[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w]
        hist = np.bincount(sub.ravel(), minlength=256)
        ts = np.array([max(t - 1, 0), t, min(t + 1, 255)], dtype=np.float64)
        j = threshopt.objective(hist, ts, complexity=_entropy_bits(hist) / 8.0)
        return bool(j[1] >= max(j[0], j[2]) - LOCAL_MAX_SLACK)

    def layer_counts(self, out):
        tree, report, _ = out
        nodes = leaves = 0
        stack = [tree.root]
        while stack:
            node = stack.pop()
            nodes += 1
            leaves += not node.children
            stack.extend(node.children)
        return {
            "stratify.nodes": nodes,
            "stratify.leaves": leaves,
            "threshopt.inherited_leaves": sum(e.source_rect is not None for e in report.entries),
        }

    def peak_rss_mb(self):
        return peak_rss_self_mb()


# --- discriminant analysis ----------------------------------------------------

_Z, _N = 4, 8  # classes and features of every GDA workload


def _rbf(x, y):
    """RBF kernel with the program's default gamma 1/n, computed here."""
    sq = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    return np.exp(-sq / x.shape[1])


class GdaTrain:
    """Arrays in, model out: `train_gda` with an RBF kernel, M=160."""

    M, HELD_OUT = 160, 2000

    def __init__(self, name, seed, workdir, in_process):
        self.seed = seed

    def setup(self):
        (x, y), (self.x_test, self.y_test) = seeded.blobs(
            self.seed, _Z, _N, (self.M, self.HELD_OUT)
        )
        self.data = kgda.LabeledDataset(x, y)
        self.spec = kgda.KernelSpec("rbf")
        self.k = _rbf(x, x)

    def op(self):
        return kgda.train_gda(self.data, self.spec)

    def fingerprint(self, model):
        key = sha256(model.sigmas.tobytes(), model.etas.tobytes(), repr(model.eps).encode())
        return key, {"model_sha256": rounded_digest(model.etas, model.sigmas)}

    def check(self, model) -> Verdict:
        quality = float(np.mean(kgda.classify_nearest_mean(model, self.x_test) == self.y_test))
        if model.n_discriminants != _Z - 1 or not model.achieved_all:
            return Verdict(False, quality, f"{model.n_discriminants} discriminants, want {_Z - 1}")
        resid, orth = eigen_errors(model, self.k, self.data.labels)
        if not (resid <= EIGEN_TOL and orth <= EIGEN_TOL):
            return Verdict(False, quality, f"residual {resid:.2e}, B-orthonormality {orth:.2e}")
        return Verdict(True, quality)

    def layer_counts(self, model):
        return {}

    def peak_rss_mb(self):
        return peak_rss_self_mb()


def eigen_errors(model, k, labels):
    """Worst normwise backward error of the eigenpairs and worst deviation
    of sigma^T B sigma from the identity, with B = U_w + eps I.

    The scatter comes from the public `scatter_matrices`. B is applied in
    factored form, U_w s = D (D^T s) / M with D the class-centred kernel
    columns, because forming U_w in float64 alone loses ~1e-8.
    """
    s = kgda.scatter_matrices(k, labels)
    m = k.shape[0]
    dev = k - s.class_means[np.searchsorted(model.classes, labels)].T
    sig = model.sigmas
    b_sig = dev @ (dev.T @ sig) / m + model.eps * sig
    nb = np.linalg.norm(s.u_b, 2)
    nw = np.linalg.norm(s.u_w, 2) + model.eps
    resid = 0.0
    for j in range(sig.shape[1]):
        r = s.u_b @ sig[:, j] - model.etas[j] * b_sig[:, j]
        denom = (nb + abs(model.etas[j]) * nw) * np.linalg.norm(sig[:, j])
        resid = max(resid, float(np.linalg.norm(r) / denom))
    orth = float(np.abs(sig.T @ b_sig - np.eye(sig.shape[1])).max())
    return resid, orth


class CliGdaEval:
    """`python -m stratseg.cli gda-eval model.json test.csv`, as a user runs
    it: interpreter start, imports, CSV parsing, projection, classification.

    In a traced run the same argv goes to `cli.main` in-process, so that
    spans can be recorded.
    """

    M, N_TEST = 300, 20000

    def __init__(self, name, seed, workdir, in_process):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.child_peaks_mb = []

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        (x, y), (xt, yt) = seeded.blobs(self.seed, _Z, _N, (self.M, self.N_TEST))
        model = kgda.train_gda(kgda.LabeledDataset(x, y), kgda.KernelSpec("rbf"))
        self.model_digest = rounded_digest(model.etas, model.sigmas)
        with open(self._path("model.json"), "w") as fh:
            fh.write(kgda.save_model(model))
        with open(self._path("test.csv"), "w") as fh:
            fh.write(seeded.dataset_csv(xt, yt))
        self.argv = ["gda-eval", "model.json", "test.csv", "--out", "eval.json"]
        src = os.path.dirname(os.path.dirname(os.path.abspath(kgda.__file__)))
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def op(self):
        return self._in_process() if self.in_process else self._subprocess()

    def _subprocess(self):
        with open(self._path("stdout"), "wb") as out, open(self._path("stderr"), "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "stratseg.cli", *self.argv],
                cwd=self.workdir,
                env=self.env,
                stdout=out,
                stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peaks_mb.append(usage.ru_maxrss / 1024.0)
        return proc.returncode, self._read("stderr"), self._read("eval.json")

    def _in_process(self):
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(self.argv)
        finally:
            os.chdir(cwd)
        return code, err.getvalue().encode(), self._read("eval.json")

    def _read(self, name):
        path = self._path(name)
        if not os.path.exists(path):
            return b""
        with open(path, "rb") as fh:
            data = fh.read()
        if name == "eval.json":
            os.remove(path)  # the next operation must write its own
        return data

    def fingerprint(self, out):
        code, err, report = out
        key = sha256(str(code).encode(), b"\0", err, b"\0", report)
        return key, {"eval_sha256": sha256(report), "model_sha256": self.model_digest}

    def check(self, out) -> Verdict:
        code, err, report = out
        if code != 0 or err:
            return Verdict(False, 0.0, f"exit {code}, stderr {err[:200]!r}")
        try:
            doc = json.loads(report)
            accuracy = float(doc["accuracy"])
            n = int(doc["n_samples"])
        except (ValueError, KeyError, TypeError) as exc:
            return Verdict(False, 0.0, f"unreadable eval report: {exc}")
        if n != self.N_TEST or accuracy < ACCURACY_FLOOR:
            return Verdict(False, accuracy, f"accuracy {accuracy:.4f} over {n} samples")
        return Verdict(True, accuracy)

    def layer_counts(self, out):
        return {}

    def peak_rss_mb(self):
        return max(self.child_peaks_mb) if self.child_peaks_mb else peak_rss_self_mb()


WORKLOADS = {
    "seg-large": Segmentation,
    "seg-leaves": Segmentation,
    "gda-train": GdaTrain,
    "cli-gda-eval": CliGdaEval,
}


# --- tracing hooks and per-layer metrics ----------------------------------------


def _histogram_pixels(args, result, counts):
    counts["imgio.region_histogram.pixels"] += args[1].area


def _simplex(args, result, counts):
    counts["threshopt.simplex_iters"] += result.iterations
    counts["threshopt.nonconverged"] += not result.converged


# (module, attribute, span, observe, memory). Attributes are the names the
# calling module looks up, so `stratify.region_histogram` is the histogram
# `build_quadtree` uses and `kgda.top_pencil_eigenpairs` the eigen-solver
# `train_gda` uses. All three `_eig` entry points share the span `eig`.
HOOKS = [
    (imgio, "load_pgm", "imgio.load_pgm", None, False),
    (imgio, "save_pgm", "imgio.save_pgm", None, False),
    (stratify, "region_histogram", "imgio.region_histogram", _histogram_pixels, False),
    (threshopt, "region_histogram", "imgio.region_histogram", _histogram_pixels, False),
    (stratify, "build_quadtree", "stratify.build_quadtree", None, False),
    (threshopt, "threshold_tree", "threshopt.threshold_tree", None, False),
    (threshopt, "optimize_leaf", "threshopt.optimize_leaf", _simplex, False),
    (threshopt, "segment", "threshopt.segment", None, False),
    (kgda, "train_gda", "kgda.train_gda", None, False),
    (kgda, "compute_kernel_matrix", "kgda.compute_kernel_matrix", None, False),
    (kgda, "top_pencil_eigenpairs", "eig", None, False),
    (kgda, "refine_pencil_eigenpair", "eig", None, False),
    (kgda, "orthonormal_complement", "eig", None, False),
    (_eig, "solve_ld", "eig.solve_ld", None, False),
    (cli, "main", "cli.main", None, False),
    (kgda, "load_dataset_csv", "kgda.load_dataset_csv", None, False),
    (kgda, "load_model", "kgda.load_model", None, False),
    (kgda, "project", "kgda.project", None, True),
    (kgda, "classify_nearest_mean", "kgda.classify_nearest_mean", None, False),
]

# Per-layer metrics: name -> (unit, source). The source is the span whose
# hook feeds the metric, "output" for counts read off the operation's result,
# or "run" for numbers measured once per run. For a span, the suffixes `.s`,
# `.self_s`, `.calls` and `.peak_mb` read its totals; other names are counts
# its hook's observer adds.
PER_LAYER = {
    "imgio.load_pgm.s": ("s", "imgio.load_pgm"),
    "imgio.save_pgm.s": ("s", "imgio.save_pgm"),
    "imgio.region_histogram.s": ("s", "imgio.region_histogram"),
    "imgio.region_histogram.calls": ("count", "imgio.region_histogram"),
    "imgio.region_histogram.pixels": ("count", "imgio.region_histogram"),
    "stratify.build_quadtree.s": ("s", "stratify.build_quadtree"),
    "stratify.nodes": ("count", "output"),
    "stratify.leaves": ("count", "output"),
    "threshopt.threshold_tree.self_s": ("s", "threshopt.threshold_tree"),
    "threshopt.optimize_leaf.s": ("s", "threshopt.optimize_leaf"),
    "threshopt.optimize_leaf.calls": ("count", "threshopt.optimize_leaf"),
    "threshopt.inherited_leaves": ("count", "output"),
    "threshopt.simplex_iters": ("count", "threshopt.optimize_leaf"),
    "threshopt.nonconverged": ("count", "threshopt.optimize_leaf"),
    "threshopt.segment.s": ("s", "threshopt.segment"),
    "kgda.compute_kernel_matrix.s": ("s", "kgda.compute_kernel_matrix"),
    "kgda.train_gda.self_s": ("s", "kgda.train_gda"),
    "eig.s": ("s", "eig"),
    "eig.solve_ld.calls": ("count", "eig.solve_ld"),
    "kgda.load_dataset_csv.s": ("s", "kgda.load_dataset_csv"),
    "kgda.load_model.s": ("s", "kgda.load_model"),
    "kgda.project.s": ("s", "kgda.project"),
    "kgda.project.peak_mb": ("MiB", "kgda.project"),
    "kgda.classify_nearest_mean.s": ("s", "kgda.classify_nearest_mean"),
    "cli.main.s": ("s", "cli.main"),
    "import.numpy_s": ("s", "run"),
    "import.scipy_s": ("s", "run"),
    "import.stratseg_self_s": ("s", "run"),
    "trace.overhead_s": ("s", "run"),
}


def layer_values(tracer, output_counts):
    """Per-layer numbers of one traced operation (run-level ones excluded)."""
    dur, self_s, calls = tracer.totals()
    readers = {".self_s": self_s, ".s": dur, ".calls": calls, ".peak_mb": tracer.peaks_mb}
    values = {}
    for name, (_, span) in PER_LAYER.items():
        if span == "run":
            continue
        if span == "output":
            values[name] = output_counts.get(name, 0)
            continue
        suffix = name[len(span) :] if name.startswith(span) else ""
        if suffix in readers:
            values[name] = readers[suffix].get(span, 0)
        else:
            values[name] = tracer.counts.get(name, 0)
    return values
