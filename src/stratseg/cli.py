"""Command-line pipeline over the library.

Subcommands: phantom, segment, eval-seg, gda-train, gda-project, gda-eval.
Every command is a thin composition of library calls; outputs are
deterministic given inputs, flags and seeds. Failures exit nonzero with a
one-line machine-parsable category on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import imgio, kgda, phantom, stratify, threshopt
from .errors import InvalidArgument, IoError, StratsegError


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from None


def _read_text(path: str) -> str:
    data = _read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        byte = f"byte 0x{data[exc.start]:02x} at offset {exc.start}"
        raise IoError(f"{path}: not UTF-8 text ({byte})") from None


def _write(path: str, data) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    try:
        with open(path, mode) as fh:
            fh.write(data)
    except OSError as exc:
        raise IoError(str(exc)) from None


def cmd_phantom(args) -> int:
    spec = phantom.PhantomSpec.from_json(_read_text(args.spec))
    img, mask = phantom.generate_phantom(spec)
    _write(args.image, imgio.save_pgm(img))
    _write(args.mask, imgio.save_pgm(mask))
    print(f"wrote {args.image} and {args.mask} ({spec.width}x{spec.height})")
    return 0


def _segment_params(args) -> tuple:
    return (
        stratify.SplitPolicy(args.max_depth, args.min_side, args.var_threshold),
        threshopt.ObjectiveWeights(args.w_var, args.w_ent, adaptive=not args.no_adaptive),
        threshopt.SimplexParams(args.max_iter, args.diameter_tol),
    )


def cmd_segment(args) -> int:
    img = imgio.load_pgm(_read_bytes(args.image))
    policy, weights, params = _segment_params(args)
    t0 = time.perf_counter()
    tree, report, mask = threshopt.segment_image(img, policy, weights, params)
    elapsed = time.perf_counter() - t0
    _write(args.mask_out, imgio.save_pgm(mask))
    doc = {
        "policy": asdict(policy),
        "weights": asdict(weights),
        "simplex": asdict(params),
        "tree": stratify.node_to_dict(tree),
        "leaves": [asdict(e) for e in report.entries],
    }
    _write(args.report_out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"{len(report.entries)} leaves segmented in {elapsed:.3f}s")
    return 0


def cmd_eval_seg(args) -> int:
    mask = imgio.load_pgm(_read_bytes(args.mask))
    truth = imgio.load_pgm(_read_bytes(args.truth))
    metrics = phantom.seg_metrics(mask, truth)
    text = metrics.to_json()
    if args.out:
        _write(args.out, text)
    print(f"distortion={metrics.distortion:.4f} reliability={metrics.reliability:.4f}")
    return 0


def _kernel_spec(args) -> kgda.KernelSpec:
    return kgda.KernelSpec(args.kernel, args.gamma, args.degree, args.coef)


def cmd_gda_train(args) -> int:
    data = kgda.load_dataset_csv(_read_text(args.csv), header=args.header)
    model = kgda.train_gda(data, _kernel_spec(args), d=args.discriminants)
    _write(args.model_out, kgda.save_model(model))
    etas = " ".join(f"{e:.6g}" for e in model.etas)
    print(f"trained d={model.n_discriminants} (achieved_all={model.achieved_all}) eta: {etas}")
    return 0


def cmd_gda_project(args) -> int:
    model = kgda.load_model(_read_text(args.model))
    feats, labels = kgda.read_csv(_read_text(args.csv), args.header, model.samples.shape[1])
    _write(args.out, kgda.write_csv(kgda.project(model, feats), labels, "g"))
    print(f"projected {len(feats)} samples to {model.n_discriminants} features")
    return 0


def cmd_gda_eval(args) -> int:
    model = kgda.load_model(_read_text(args.model))
    data = kgda.load_dataset_csv(_read_text(args.csv), header=args.header)
    pred = kgda.classify_nearest_mean(model, data.samples)
    correct = int(np.sum(pred == data.labels))
    confusion = {}
    # a set, not np.unique, whose first call in a process adds about 1 MiB of RSS
    for c_true in sorted(set(data.labels.tolist())):
        row = {}
        sel = pred[data.labels == c_true]
        for c_pred in model.classes:
            row[str(int(c_pred))] = int(np.sum(sel == c_pred))
        confusion[str(int(c_true))] = row
    doc = {
        "accuracy": correct / len(data.labels),
        "n_samples": int(len(data.labels)),
        "confusion": confusion,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write(args.out, text)
    print(f"accuracy={doc['accuracy']:.4f} over {doc['n_samples']} samples")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors (a flag value that does not
    parse, an unknown choice, a missing flag or subcommand) raise
    InvalidArgument, so they follow the one-line error contract; the
    subcommand parsers are made from this class too."""

    def error(self, message):
        raise InvalidArgument(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="stratseg",
        description="Quadtree-stratified adaptive thresholding and kernel GDA.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phantom", help="render a synthetic phantom + ground truth")
    sp.add_argument("spec", help="phantom spec (JSON)")
    sp.add_argument("--image", required=True, help="output phantom PGM")
    sp.add_argument("--mask", required=True, help="output ground-truth mask PGM")
    sp.set_defaults(func=cmd_phantom)

    sp = sub.add_parser("segment", help="stratified adaptive threshold segmentation")
    sp.add_argument("image", help="input PGM")
    sp.add_argument("--mask-out", required=True)
    sp.add_argument("--report-out", required=True)
    policy, weights = stratify.SplitPolicy(), threshopt.ObjectiveWeights()
    simplex = threshopt.SimplexParams()
    sp.add_argument("--max-depth", type=int, default=policy.max_depth)
    sp.add_argument("--min-side", type=int, default=policy.min_side)
    sp.add_argument("--var-threshold", type=float, default=policy.var_threshold)
    sp.add_argument("--w-var", type=float, default=weights.w_var)
    sp.add_argument("--w-ent", type=float, default=weights.w_ent)
    sp.add_argument("--no-adaptive", action="store_true")
    sp.add_argument("--max-iter", type=int, default=simplex.max_iter)
    sp.add_argument("--diameter-tol", type=float, default=simplex.diameter_tol)
    sp.set_defaults(func=cmd_segment)

    sp = sub.add_parser("eval-seg", help="distortion/Dice of a mask vs ground truth")
    sp.add_argument("mask")
    sp.add_argument("truth")
    sp.add_argument("--out", help="optional JSON report file")
    sp.set_defaults(func=cmd_eval_seg)

    sp = sub.add_parser("gda-train", help="train a kernel discriminant model")
    sp.add_argument("csv", help="dataset CSV: feature columns then integer label")
    sp.add_argument("--model-out", required=True)
    kernel = kgda.KernelSpec()
    sp.add_argument("--kernel", choices=kgda.KERNEL_KINDS, default=kernel.kind)
    sp.add_argument("--gamma", type=float, default=kernel.gamma)
    sp.add_argument("--degree", type=int, default=kernel.degree)
    sp.add_argument("--coef", type=float, default=kernel.coef)
    sp.add_argument("--discriminants", type=int, default=None)
    sp.add_argument("--header", action="store_true", help="CSV has a header row")
    sp.set_defaults(func=cmd_gda_train)

    sp = sub.add_parser("gda-project", help="project samples into discriminant space")
    sp.add_argument("model")
    sp.add_argument("csv")
    sp.add_argument("--out", required=True)
    sp.add_argument("--header", action="store_true")
    sp.set_defaults(func=cmd_gda_project)

    sp = sub.add_parser("gda-eval", help="nearest-class-mean accuracy on labeled data")
    sp.add_argument("model")
    sp.add_argument("csv")
    sp.add_argument("--out", help="optional JSON report file")
    sp.add_argument("--header", action="store_true")
    sp.set_defaults(func=cmd_gda_eval)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except StratsegError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
