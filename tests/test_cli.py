import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratseg import (
    GrayImage,
    KernelSpec,
    LabeledDataset,
    ObjectiveWeights,
    PhantomSpec,
    ShapeSpec,
    SimplexParams,
    SplitPolicy,
    generate_phantom,
    load_model,
    load_pgm,
    save_dataset_csv,
    save_pgm,
    segment_image,
    train_gda,
)
import stratseg
from stratseg import imgio, stratify
from stratseg.cli import _kernel_spec, _segment_params, build_parser, main
from stratseg.errors import StratsegError


def run(args):
    return main([str(a) for a in args])


def quadrant_pgm(tmp_path):
    px = np.zeros((32, 32), dtype=np.uint8)
    px[:16, 16:] = 85
    px[16:, :16] = 170
    px[16:, 16:] = 255
    path = tmp_path / "quad.pgm"
    path.write_bytes(save_pgm(GrayImage(px)))
    return path, px


def phantom_spec_file(tmp_path):
    spec = PhantomSpec(
        96,
        96,
        background=70,
        shapes=(ShapeSpec("ellipse", 48, 48, 26, 20, 150),),
        ramp_amplitude=20.0,
        noise_sigma=5.0,
        seed=7,
    )
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return path


def blob_csv(tmp_path, name="train.csv", n_per=8, seed=70, header=False):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, c in enumerate([(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)]):
        xs.append(rng.normal(0, 0.5, size=(n_per, 2)) + np.asarray(c))
        ys.extend([label] * n_per)
    data = LabeledDataset(np.vstack(xs), np.array(ys))
    path = tmp_path / name
    path.write_text(save_dataset_csv(data, header=header))
    return path, data


def test_phantom_command_writes_image_and_mask(tmp_path, capsys):
    spec = phantom_spec_file(tmp_path)
    img, mask = tmp_path / "img.pgm", tmp_path / "mask.pgm"
    assert run(["phantom", spec, "--image", img, "--mask", mask]) == 0
    loaded = load_pgm(img.read_bytes())
    assert (loaded.width, loaded.height) == (96, 96)
    truth = load_pgm(mask.read_bytes())
    assert set(np.unique(truth.pixels)) == {0, 255}
    assert "96x96" in capsys.readouterr().out


def test_phantom_command_deterministic(tmp_path):
    spec = phantom_spec_file(tmp_path)
    outs = []
    for tag in ("a", "b"):
        img, mask = tmp_path / f"img{tag}.pgm", tmp_path / f"mask{tag}.pgm"
        run(["phantom", spec, "--image", img, "--mask", mask])
        outs.append((img.read_bytes(), mask.read_bytes()))
    assert outs[0] == outs[1]


def test_segment_command_report_and_mask(tmp_path):
    img_path, px = quadrant_pgm(tmp_path)
    mask_out = tmp_path / "mask.pgm"
    report_out = tmp_path / "report.json"
    code = run(
        ["segment", img_path, "--mask-out", mask_out, "--report-out", report_out,
         "--min-side", 16]
    )
    assert code == 0
    doc = json.loads(report_out.read_text())
    assert doc["policy"]["min_side"] == 16
    assert len(doc["leaves"]) == 4
    for leaf in doc["leaves"]:
        assert 0 <= leaf["threshold"] <= 255
        assert set(leaf) >= {
            "rect", "threshold", "continuous_optimum", "objective_value",
            "w_var", "w_ent", "iterations", "converged",
        }
        for rect in (leaf["rect"], leaf["source_rect"] or leaf["rect"]):
            assert rect.keys() == {"x0", "y0", "w", "h"}
    mask = load_pgm(mask_out.read_bytes())
    assert np.all(mask.pixels[:16, :] == 0)  # 0 and 85 below the threshold
    assert np.all(mask.pixels[16:, :] == 255)


def test_segment_command_deterministic_reruns(tmp_path):
    img_path, _ = quadrant_pgm(tmp_path)
    outs = []
    for tag in ("a", "b"):
        m, r = tmp_path / f"m{tag}.pgm", tmp_path / f"r{tag}.json"
        run(["segment", img_path, "--mask-out", m, "--report-out", r])
        outs.append((m.read_bytes(), r.read_bytes()))
    assert outs[0] == outs[1]


SEGMENT_FLAGS = {
    "defaults": ([], ()),
    "flags": (
        ["--min-side", 4, "--var-threshold", 100, "--w-var", 0.5, "--w-ent", 0.5, "--no-adaptive",
         "--max-iter", 3],
        (SplitPolicy(min_side=4, var_threshold=100), ObjectiveWeights(0.5, 0.5, adaptive=False),
         SimplexParams(max_iter=3)),
    ),
}


@pytest.mark.parametrize("flags, args", SEGMENT_FLAGS.values(), ids=SEGMENT_FLAGS.keys())
def test_segment_command_writes_the_segment_image_mask(tmp_path, flags, args):
    """`segment` writes the mask and the leaves of `segment_image` under the
    flags' parameters; on this noisy phantom the two flag sets give
    different masks."""
    shape = ShapeSpec("ellipse", 48, 48, 26, 20, 150)
    img, _ = generate_phantom(PhantomSpec(96, 96, 70, (shape,), 20.0, noise_sigma=15.0, seed=7))
    img_path, mask_out, report_out = tmp_path / "img.pgm", tmp_path / "mask.pgm", tmp_path / "r.json"
    img_path.write_bytes(save_pgm(img))
    assert run(["segment", img_path, "--mask-out", mask_out, "--report-out", report_out, *flags]) == 0
    _, report, mask = segment_image(img, *args)
    assert mask_out.read_bytes() == save_pgm(mask)
    assert json.loads(report_out.read_text())["leaves"] == [asdict(e) for e in report.entries]


def test_eval_seg_command(tmp_path, capsys):
    a = np.zeros((10, 10), dtype=np.uint8)
    a[:5] = 255
    b = a.copy()
    b[0, :] = 0
    pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
    pa.write_bytes(save_pgm(GrayImage(a)))
    pb.write_bytes(save_pgm(GrayImage(b)))
    out = tmp_path / "metrics.json"
    assert run(["eval-seg", pb, pa, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["distortion"] == pytest.approx(0.1)
    assert doc["reliability"] == pytest.approx(round(2 * 40 / 90, 4))
    assert "distortion=0.1000" in capsys.readouterr().out


def test_gda_pipeline_train_project_eval(tmp_path, capsys):
    csv_path, data = blob_csv(tmp_path)
    model_path = tmp_path / "model.json"
    assert run(
        ["gda-train", csv_path, "--model-out", model_path, "--kernel", "rbf"]
    ) == 0
    model = load_model(model_path.read_text())
    assert model.n_discriminants == 2

    proj_out = tmp_path / "proj.csv"
    assert run(["gda-project", model_path, csv_path, "--out", proj_out]) == 0
    lines = proj_out.read_text().splitlines()
    assert lines[0] == "g0,g1,label"
    assert len(lines) == 1 + len(data.labels)

    eval_out = tmp_path / "eval.json"
    assert run(["gda-eval", model_path, csv_path, "--out", eval_out]) == 0
    doc = json.loads(eval_out.read_text())
    assert doc["accuracy"] >= 0.95
    assert doc["n_samples"] == len(data.labels)
    assert sum(sum(row.values()) for row in doc["confusion"].values()) == len(data.labels)


def test_gda_eval_permuted_labels_near_chance(tmp_path):
    csv_path, data = blob_csv(tmp_path, n_per=34, seed=71)
    model_path = tmp_path / "model.json"
    run(["gda-train", csv_path, "--model-out", model_path, "--kernel", "rbf"])
    rng = np.random.default_rng(72)
    shuffled = LabeledDataset(data.samples, rng.permutation(data.labels))
    perm_path = tmp_path / "perm.csv"
    perm_path.write_text(save_dataset_csv(shuffled))
    eval_out = tmp_path / "eval.json"
    run(["gda-eval", model_path, perm_path, "--out", eval_out])
    acc = json.loads(eval_out.read_text())["accuracy"]
    assert abs(acc - 1.0 / 3.0) <= 0.15


def test_gda_project_features_without_labels(tmp_path):
    csv_path, _ = blob_csv(tmp_path)
    model_path = tmp_path / "model.json"
    run(["gda-train", csv_path, "--model-out", model_path])
    feats = tmp_path / "feats.csv"
    feats.write_text("0.0,0.0\n5.0,0.0\n")
    out = tmp_path / "proj.csv"
    assert run(["gda-project", model_path, feats, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "g0,g1"
    assert len(lines) == 3


def test_gda_train_deterministic_reruns(tmp_path):
    csv_path, _ = blob_csv(tmp_path)
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"model{tag}.json"
        run(["gda-train", csv_path, "--model-out", path, "--kernel", "polynomial"])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_header_flag(tmp_path):
    csv_path, data = blob_csv(tmp_path, header=True)
    model_path = tmp_path / "model.json"
    assert run(
        ["gda-train", csv_path, "--model-out", model_path, "--header"]
    ) == 0
    model = load_model(model_path.read_text())
    assert model.samples.shape == data.samples.shape


def test_cli_missing_file_reports_category(tmp_path, capsys):
    assert run(["segment", tmp_path / "nope.pgm", "--mask-out", tmp_path / "m.pgm",
                "--report-out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IoError:")
    img_path, _ = quadrant_pgm(tmp_path)  # an output into a missing directory
    assert run(["segment", img_path, "--mask-out", tmp_path / "no" / "m.pgm",
                "--report-out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: IoError:")


def test_cli_malformed_image_reports_category(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7 nonsense")
    assert run(["eval-seg", bad, bad]) == 1
    assert "error: MalformedHeader:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [b"P5 1_0 1 +255\n" + bytes(10), b"P2 2 1 255 +1 0_0", b"P5 -2 2 255 " + bytes(4),
     b"P5 2 1 +255\n" + bytes(2), b"P2 2 1 255 1 0_0"],
)
def test_cli_non_decimal_pgm_number_reports_category(tmp_path, capsys, data):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(data)
    assert run(["segment", bad, "--mask-out", tmp_path / "m.pgm",
                "--report-out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: MalformedHeader:")


def test_cli_single_class_dataset_reports_category(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    csv_path.write_text("0.0,1.0,2\n0.5,1.5,2\n1.0,2.0,2\n")
    assert run(["gda-train", csv_path, "--model-out", tmp_path / "m.json"]) == 1
    assert "error: InvalidDataset:" in capsys.readouterr().err


def test_cli_wrong_column_count_on_project(tmp_path, capsys):
    csv_path, _ = blob_csv(tmp_path)
    model_path = tmp_path / "model.json"
    run(["gda-train", csv_path, "--model-out", model_path])
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,3.0,4.0\n")
    assert run(["gda-project", model_path, bad, "--out", tmp_path / "o.csv"]) == 1
    assert "error: DimensionMismatch:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [
        ("ramp_amplitude", "NaN"),
        ("noise_sigma", "NaN"),
        ("noise_sigma", "Infinity"),
        ("cx", "NaN"),
        ("cy", "Infinity"),
        ("rx", "NaN"),
        ("ry", "Infinity"),
    ],
)
def test_cli_non_finite_phantom_spec_reports_category(tmp_path, capsys, field, value):
    doc = json.loads(phantom_spec_file(tmp_path).read_text())
    target = doc if field in doc else doc["shapes"][0]
    target[field] = "@"
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc).replace('"@"', value))
    img = tmp_path / "img.pgm"
    assert run(["phantom", spec, "--image", img, "--mask", tmp_path / "m.pgm"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidSpec:")
    assert not img.exists()


DEEP_JSON = "[" * 200000 + "]" * 200000  # nested past the recursion limit


@pytest.mark.parametrize(
    "text",
    ["[1, 2]", '{"width": 16, "height": 16, "seed": -1, "noise_sigma": 3}',
     '{"width": 8.5, "height": 16}', pytest.param(DEEP_JSON, id="deep nesting"),
     # 727 TiB of float64 image, past any user address space: fails at once
     pytest.param('{"width": 10000000, "height": 10000000}', id="huge"),
     pytest.param('{"width": 4, "height": 4, "ramp_amplitude": "40"}', id="string ramp"),
     pytest.param('{"width": 4, "height": 4, "noise_sigma": true}', id="bool noise"),
     # integers beyond the float64 range, which JSON reads as Python ints
     pytest.param('{"width": 4, "height": 4, "noise_sigma": 1%s}' % ("0" * 400), id="huge noise"),
     pytest.param('{"width": 4, "height": 4, "shapes": [{"kind": "ellipse", "cx": 1, "cy": 1, '
                  '"rx": 1%s, "ry": 1, "intensity": 9}]}' % ("0" * 400), id="huge rx"),
     # a ramp that overflows to +inf meets noise that overflows to -inf
     pytest.param('{"width": 4, "height": 4, "ramp_amplitude": 1e308, "noise_sigma": 1e308, '
                  '"seed": 3}', id="ramp meets noise")],
)
def test_cli_malformed_phantom_spec_reports_category(tmp_path, capsys, text):
    spec = tmp_path / "bad.json"
    spec.write_text(text)
    img = tmp_path / "img.pgm"
    assert run(["phantom", spec, "--image", img, "--mask", tmp_path / "m.pgm"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidSpec:")
    assert not img.exists()


@pytest.mark.parametrize(
    "text",
    [pytest.param('{"width": 4, "height": 4, "ramp_amplitude": 1e308, "shapes": [{"kind": '
                  '"ellipse", "cx": 1e308, "cy": -1e308, "rx": 1e-300, "ry": 1e-300, '
                  '"intensity": 9}]}', id="far tiny ellipse, steep ramp"),
     pytest.param('{"width": 4, "height": 4, "ramp_amplitude": -1e308, "noise_sigma": 1e300}',
                  id="steep falling ramp"),
     pytest.param('{"width": 4, "height": 4, "noise_sigma": 1.7e308}', id="huge noise")],
)
def test_cli_extreme_finite_phantom_spec_renders_quietly(tmp_path, capsys, text):
    """Values that overflow float64 on the way lie far outside [0, 255]
    and clip, so the phantom renders without a warning."""
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    img = tmp_path / "img.pgm"
    assert run(["phantom", spec, "--image", img, "--mask", tmp_path / "m.pgm"]) == 0
    assert capsys.readouterr().err == ""
    assert load_pgm(img.read_bytes()).pixels.shape == (4, 4)


@pytest.mark.parametrize("text", ["0.0,0.0,1\n5.0,0.0\n", "0.0,0.0\n5.0,0.0,1\n"])
def test_cli_mixed_label_rows_on_project(tmp_path, capsys, text):
    csv_path, _ = blob_csv(tmp_path)
    model_path = tmp_path / "model.json"
    run(["gda-train", csv_path, "--model-out", model_path])
    capsys.readouterr()
    mixed = tmp_path / "mixed.csv"
    mixed.write_text(text)
    out = tmp_path / "o.csv"
    assert run(["gda-project", model_path, mixed, "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DimensionMismatch:")
    assert not out.exists()


def test_cli_non_finite_feature_reports_category(tmp_path, capsys):
    csv_path = tmp_path / "nan.csv"
    csv_path.write_text("0.0,1.0,0\n0.5,nan,0\n3.0,2.0,1\n3.5,2.5,1\n")
    assert run(["gda-train", csv_path, "--model-out", tmp_path / "m.json"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidDataset:")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["gda-train", "gda-eval", "gda-project"])
def test_cli_label_beyond_int64_reports_csv_parse(tmp_path, capsys, command):
    csv_path, _ = blob_csv(tmp_path)
    model_path = tmp_path / "model.json"
    run(["gda-train", csv_path, "--model-out", model_path])
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,1\n1.0,2.0,99999999999999999999\n")
    out = tmp_path / "o.out"
    if command == "gda-train":
        args = [command, bad, "--model-out", out]
    else:
        args = [command, model_path, bad, "--out", out]
    assert run(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: CsvParse: row 1: label 99999999999999999999 does not fit in int64"]
    assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding model.json, trained on a 2-feature blob CSV."""
    path = tmp_path_factory.mktemp("fuzz")
    csv_path, _ = blob_csv(path)
    assert run(["gda-train", csv_path, "--model-out", path / "model.json"]) == 0
    return path


_CSV_TOKEN = st.sampled_from(list("0123456789.,-+e_ \r\n") + ["nan", "inf", "x"])
_CSV_CELL = st.one_of(
    st.lists(_CSV_TOKEN, max_size=4).map("".join),
    st.integers(10**19, 10**30).map(str),  # runs of 20 to 31 digits
)
_CSV_TEXT = st.lists(st.lists(_CSV_CELL, max_size=4).map(",".join), max_size=5).map("\n".join)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=_CSV_TEXT, header=st.booleans())
def test_cli_any_csv_text_exits_0_or_one_error_line(fuzz_dir, text, header):
    csv_path, out = fuzz_dir / "in.csv", fuzz_dir / "o.out"
    csv_path.write_bytes(text.encode())
    model = fuzz_dir / "model.json"
    for args in (["gda-train", csv_path, "--model-out", out],
                 ["gda-eval", model, csv_path, "--out", out],
                 ["gda-project", model, csv_path, "--out", out]):
        assert_exit_0_or_one_error_line(args + ["--header"] * header)


def assert_exit_0_or_one_error_line(args):
    """The CLI exits 0 with nothing on stderr, or 1 with one `error:` line;
    any other exception fails the test as it leaves `main`."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a warning would be a second stderr line
        code = run(args)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and len(lines) == 1 and re.match(r"error: [A-Za-z]+: ", lines[0])


_PGM_TOKEN = st.sampled_from(
    ["0", "1", "2", "3", "4", "7", "255", "256", "-1", "+2", "1.5", "x", "\u0663", "9" * 30]
)
_PGM_SEP = st.sampled_from([" ", "\n", "\t", "\r\n", " #c\n", "#"])


@st.composite
def pgm_bytes(draw):
    """A P5 or P2 image up to 12 on a side, maybe cut short; or a 3x2 header
    with any field, separator or sample swapped for a small or malformed
    token; or any bytes."""
    kind = draw(st.sampled_from(["image", "image", "fields", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=48))
    if kind == "image":
        w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        pixels = draw(st.binary(min_size=w * h, max_size=w * h))
        sep = draw(_PGM_SEP.filter(lambda s: s != "#"))
        if draw(st.booleans()):
            data = f"P5{sep}{w} {h}{sep}255\n".encode() + pixels
        else:
            data = f"P2{sep}{w} {h}{sep}255{sep}".encode() + " ".join(map(str, pixels)).encode()
        return data[: len(data) - draw(st.sampled_from([0, 0, 0, 1, 3]))]
    head = draw(st.sampled_from(["P5", "P2", "P2", "P6", ""]))
    for field in ("3", "2", "255"):
        head += draw(_PGM_SEP) + draw(st.one_of(st.just(field), _PGM_TOKEN))
    head += draw(_PGM_SEP)
    if draw(st.booleans()):
        return head.encode() + draw(st.binary(max_size=12))
    samples = st.lists(st.one_of(st.integers(0, 255).map(str), _PGM_TOKEN), max_size=8)
    return (head + " ".join(draw(samples))).encode()


def _numbers(high):
    return st.one_of(st.integers(0, high), st.floats(0, high)).map(str)


# each segment flag with values it accepts, from which one flag may stray
_SEGMENT_FLAGS = {
    "--max-depth": st.integers(0, 12).map(str),
    "--min-side": st.integers(2, 6).map(str),
    "--var-threshold": _numbers(5000),
    "--w-var": _numbers(2),
    "--w-ent": _numbers(2),
    "--max-iter": st.integers(1, 300).map(str),
    "--diameter-tol": st.floats(1e-9, 10).map(str),
}
_FLAG_VALUE = st.one_of(
    st.sampled_from(["0", "1", "2", "12", "13", "-1", "0.5", "1e-300", "nan", "inf", "x", ""]),
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(repr),
)


@st.composite
def segment_flags(draw):
    """`--flag=value` arguments (so that a value such as -1 is not read as a
    flag): each flag absent or accepted, then maybe one of them any value."""
    values = {flag: draw(st.one_of(st.none(), good)) for flag, good in _SEGMENT_FLAGS.items()}
    if draw(st.booleans()):
        values[draw(st.sampled_from(list(values)))] = draw(_FLAG_VALUE)
    args = [f"{flag}={value}" for flag, value in values.items() if value is not None]
    return args + ["--no-adaptive"] * draw(st.booleans())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=pgm_bytes(), flags=segment_flags())
def test_cli_any_pgm_bytes_and_flags_exit_0_or_one_error_line(fuzz_dir, data, flags):
    image = fuzz_dir / "in.pgm"
    image.write_bytes(data)
    args = ["segment", image, "--mask-out", fuzz_dir / "m.pgm", "--report-out", fuzz_dir / "r.json"]
    assert_exit_0_or_one_error_line(args + flags)


def run_fresh(code):
    """Run `code` in a fresh interpreter that imports this stratseg."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stratseg.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_scipy():
    run_fresh("import stratseg, sys; assert 'scipy' not in sys.modules")


def test_cli_import_does_not_load_concurrent_futures():
    # the pixel passes start a plain thread; concurrent.futures would add
    # 6-10 ms to every CLI start
    run_fresh("import stratseg.cli, sys; assert 'concurrent.futures' not in sys.modules")


def test_cli_error_in_the_helper_thread_prints_one_line(tmp_path, capsys, monkeypatch):
    path, _ = quadrant_pgm(tmp_path)
    bin_rows = stratify.bin_rows

    def failing(pixels, *args):
        if threading.current_thread() is not threading.main_thread():
            raise StratsegError("raised in the helper thread")
        return bin_rows(pixels, *args)

    monkeypatch.setattr(imgio, "_HELPER_PIXELS", 0)
    monkeypatch.setattr(stratify, "bin_rows", failing)
    mask = tmp_path / "m.pgm"
    assert run(["segment", path, "--mask-out", mask, "--report-out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert err == "error: StratsegError: raised in the helper thread\n"
    assert not mask.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("segment", "--min-side", 1),
        ("segment", "--max-depth", 99),
        ("segment", "--max-iter", 0),
        ("segment", "--w-var", -1),
        ("segment", "--w-var", "nan"),
        ("gda-train", "--gamma", -1),
        ("gda-train", "--discriminants", 0),
        ("gda-train", "--gamma", "inf"),
        ("gda-train", "--coef", "nan"),
        # values argparse itself rejects
        ("segment", "--max-depth", "abc"),
        ("segment", "--max-depth", "1e3"),
        ("gda-train", "--gamma", "x"),
        ("gda-train", "--kernel", "cubic"),
        (None, None, None),  # no subcommand
        ("segment", "--mask-out", None),  # a required flag left out
    ],
)
def test_cli_out_of_range_flag_reports_category(tmp_path, capsys, flags):
    command, flag, value = flags
    if command == "segment":
        img_path, _ = quadrant_pgm(tmp_path)
        args = ["segment", img_path, "--mask-out", tmp_path / "m.pgm",
                "--report-out", tmp_path / "r.json"]
    elif command == "gda-train":
        csv_path, _ = blob_csv(tmp_path)
        args = ["gda-train", csv_path, "--model-out", tmp_path / "m.json"]
    else:
        args = []
    if value is not None:
        args += [flag, value]
    elif flag is not None:  # drop the flag and its value
        i = args.index(flag)
        args = args[:i] + args[i + 2 :]
    assert run(args) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidArgument:")
    assert captured.out == ""


def test_cli_defaults_are_the_parameter_classes_defaults():
    args = build_parser().parse_args(["segment", "in.pgm", "--mask-out", "m", "--report-out", "r"])
    assert _segment_params(args) == (SplitPolicy(), ObjectiveWeights(), SimplexParams())
    args = build_parser().parse_args(["gda-train", "in.csv", "--model-out", "m"])
    assert _kernel_spec(args) == KernelSpec()
    assert args.discriminants is None


@pytest.mark.parametrize("args", [["--help"], ["segment", "--help"]])
def test_cli_help_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert "usage: stratseg" in captured.out and captured.err == ""


@pytest.mark.parametrize("command", ["gda-eval", "gda-project"])
@pytest.mark.parametrize(
    "text",
    ["{not json", "{}", "flat samples", "fractional degree", "nan sigma", "zero-feature samples",
     "class 1e308", "class 2**70", "fractional classes", "fractional labels", "(M, 1) labels",
     "string sigmas", "string samples", "string labels", "string eps", "bool eps", "bool sigma",
     "string achieved_all", "etas 2-D", "etas too long",
     pytest.param(DEEP_JSON, id="deep nesting")],
)
def test_cli_malformed_model_reports_category(tmp_path, capsys, command, text):
    csv_path, _ = blob_csv(tmp_path)
    model_path = tmp_path / "model.json"
    if text not in ("{not json", "{}", DEEP_JSON):  # well-formed model JSON
        run(["gda-train", csv_path, "--model-out", model_path])
        doc = json.loads(model_path.read_text())
        if text == "flat samples":  # samples not (M, n)
            doc["samples"] = [row[0] for row in doc["samples"]]
        elif text == "fractional degree":
            doc["kernel"].update(kind="polynomial", degree=2.5)
        elif text == "nan sigma":
            doc["sigmas"][0][0] = float("nan")
        elif text == "zero-feature samples":  # the RBF default gamma would be 1/0
            doc["samples"] = [[] for _ in doc["samples"]]
        elif text.startswith("class ") or text == "fractional classes":
            # the first class's label made one beyond int64 or not whole
            first = doc["labels"][0]
            new = {"class 1e308": 1e308, "class 2**70": 2**70}.get(text, first + 0.5)
            doc["labels"] = [new if c == first else c for c in doc["labels"]]
        elif text == "(M, 1) labels":
            doc["labels"] = [[c] for c in doc["labels"]]
        elif text == "string achieved_all":  # bool("no") is True
            doc["achieved_all"] = "no"
        elif text.startswith("string "):  # numbers written as JSON strings
            key = text.split()[1]
            doc[key] = json.loads(json.dumps(doc[key]), parse_float=str, parse_int=str)
        elif text == "bool eps":
            doc["eps"] = True
        elif text == "bool sigma":  # numpy would take it as 1.0
            doc["sigmas"][0][0] = True
        elif text == "etas 2-D":  # (2, d), not (d,)
            doc["etas"] = [doc["etas"], doc["etas"]]
        elif text == "etas too long":
            doc["etas"].append(1.0)
        else:  # not whole numbers
            key = text.split()[1]
            doc[key] = [c + 0.5 for c in doc[key]]
        text = json.dumps(doc)
    model_path.write_text(text)
    args = [command, model_path, csv_path]
    if command == "gda-project":
        args += ["--out", tmp_path / "o.csv"]
    assert run(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidModel:")


@pytest.mark.parametrize("kind", ["csv", "model", "spec"])
def test_cli_non_utf8_text_reports_path_and_offset(tmp_path, capsys, kind):
    csv_path, _ = blob_csv(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1,2,0\n3,\xff4,1\n")
    out = tmp_path / "o.out"
    args = {
        "csv": ["gda-train", bad, "--model-out", out],
        "model": ["gda-eval", bad, csv_path, "--out", out],
        "spec": ["phantom", bad, "--image", out, "--mask", tmp_path / "m.pgm"],
    }[kind]
    assert run(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: IoError: {bad}: not UTF-8 text (byte 0xff at offset 8)"]
    assert not out.exists()


HUGE_ROWS = "1e160,1e160,0\n1e160,-1e160,1\n-1e160,1e160,2\n"


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second stderr line
@pytest.mark.parametrize("command", ["gda-eval", "gda-project"])
def test_cli_overflowing_projection_reports_category(tmp_path, capsys, command):
    csv_path, _ = blob_csv(tmp_path)
    model_path = tmp_path / "model.json"
    run(["gda-train", csv_path, "--model-out", model_path, "--kernel", "polynomial"])
    capsys.readouterr()
    huge = tmp_path / "huge.csv"
    huge.write_text(HUGE_ROWS)
    out = tmp_path / "o.out"
    assert run([command, model_path, huge, "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DegenerateKernel:")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_overflowing_training_kernel_one_line(tmp_path, capsys):
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("1e200,0.0,0\n2e200,1.0,0\n0.0,1e200,1\n1.0,2e200,1\n")
    model_path = tmp_path / "m.json"
    assert run(["gda-train", csv_path, "--model-out", model_path, "--kernel", "linear"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DegenerateKernel:")
    assert not model_path.exists()


NINE_ROWS = "0,0,0\n0.5,0.2,0\n0.1,0.6,0\n4,4,1\n4.4,3.8,1\n3.9,4.3,1\n0,5,2\n0.3,4.6,2\n-0.2,5.2,2\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "scale, flags",
    [
        (1e120, ["--kernel", "linear"]),
        (1e78, ["--kernel", "linear"]),
        (1e25, ["--kernel", "polynomial", "--degree", "3"]),
        (1.0, ["--kernel", "polynomial", "--degree", "1", "--coef", "1e300"]),
    ],
)
def test_cli_huge_finite_training_kernel_one_line(tmp_path, capsys, scale, flags):
    """A finite kernel whose scatter or rank floor overflows float64."""
    rows = [line.split(",") for line in NINE_ROWS.split()]
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("".join(f"{float(a) * scale!r},{float(b) * scale!r},{c}\n" for a, b, c in rows))
    model_path = tmp_path / "m.json"
    assert run(["gda-train", csv_path, "--model-out", model_path, *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DegenerateKernel:")
    assert not model_path.exists()


@pytest.mark.filterwarnings("error")
def test_cli_rbf_far_samples_evaluate_quietly(tmp_path, capsys):
    """An RBF distance that overflows is infinite, so k = 0: a valid answer."""
    csv_path, _ = blob_csv(tmp_path)
    model_path = tmp_path / "model.json"
    run(["gda-train", csv_path, "--model-out", model_path, "--kernel", "rbf"])
    capsys.readouterr()
    huge = tmp_path / "huge.csv"
    huge.write_text(HUGE_ROWS)
    eval_out = tmp_path / "eval.json"
    assert run(["gda-eval", model_path, huge, "--out", eval_out]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(eval_out.read_text())["n_samples"] == 3
