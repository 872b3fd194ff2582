import json

import numpy as np
import pytest
from hypothesis import example, given, settings

from stratseg import GrayImage, PhantomSpec, SegMetrics, ShapeSpec, generate_phantom, seg_metrics
from stratseg.errors import DimensionMismatch, InvalidSpec, NonBinaryInput, StratsegError

from json_documents import json_documents


def binary(arr):
    return GrayImage(np.where(np.asarray(arr, dtype=bool), 255, 0).astype(np.uint8))


def test_plain_background_no_shapes():
    img, mask = generate_phantom(PhantomSpec(10, 8, background=60))
    assert img.pixels.shape == (8, 10)
    assert np.all(img.pixels == 60)
    assert np.all(mask.pixels == 0)


def test_shapes_painted_in_order_and_masked():
    spec = PhantomSpec(
        40,
        40,
        background=20,
        shapes=(
            ShapeSpec("rectangle", 10, 10, 6, 6, 200),
            ShapeSpec("rectangle", 14, 10, 4, 4, 90),  # later shape overwrites
        ),
    )
    img, mask = generate_phantom(spec)
    assert img.pixels[10, 16] == 90
    assert img.pixels[10, 5] == 200
    assert img.pixels[30, 30] == 20
    assert mask.pixels[10, 16] == 255 and mask.pixels[30, 30] == 0


def test_ellipse_rasterization_matches_inequality():
    spec = PhantomSpec(50, 40, shapes=(ShapeSpec("ellipse", 24.0, 19.0, 10.0, 7.0, 255),))
    _, mask = generate_phantom(spec)
    ys, xs = np.mgrid[0:40, 0:50].astype(np.float64)
    inside = ((xs - 24.0) / 10.0) ** 2 + ((ys - 19.0) / 7.0) ** 2 <= 1.0
    assert np.array_equal(mask.pixels == 255, inside)


def test_ramp_adds_amplitude_across_diagonal():
    spec = PhantomSpec(33, 17, background=100, ramp_amplitude=48.0)
    img, _ = generate_phantom(spec)
    assert img.pixels[0, 0] == 100
    assert img.pixels[16, 32] == 148  # far corner gains the full amplitude
    # ramp is monotone along rows and columns
    assert np.all(np.diff(img.pixels.astype(int), axis=0) >= 0)
    assert np.all(np.diff(img.pixels.astype(int), axis=1) >= 0)


def test_noise_is_seed_deterministic():
    spec = PhantomSpec(64, 64, background=128, noise_sigma=10.0, seed=99)
    img1, _ = generate_phantom(spec)
    img2, _ = generate_phantom(spec)
    assert np.array_equal(img1.pixels, img2.pixels)
    other, _ = generate_phantom(PhantomSpec(64, 64, background=128, noise_sigma=10.0, seed=100))
    assert not np.array_equal(img1.pixels, other.pixels)


def test_output_clamped_to_byte_range():
    img, _ = generate_phantom(PhantomSpec(32, 32, background=250, noise_sigma=30.0, seed=1))
    assert img.pixels.dtype == np.uint8
    img2, _ = generate_phantom(PhantomSpec(32, 32, background=2, noise_sigma=30.0, seed=1))
    assert img2.pixels.min() >= 0 and img.pixels.max() <= 255


def test_spec_json_roundtrip():
    spec = PhantomSpec(
        100,
        80,
        background=70,
        shapes=(ShapeSpec("ellipse", 30, 30, 10, 12, 140),),
        ramp_amplitude=25.0,
        noise_sigma=6.0,
        seed=42,
    )
    assert PhantomSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize(
    "mutate",
    [
        lambda: PhantomSpec(0, 10),
        lambda: PhantomSpec(10, 10, background=300),
        lambda: PhantomSpec(10, 10, noise_sigma=-1.0),
        lambda: ShapeSpec("triangle", 0, 0, 1, 1, 10),
        lambda: ShapeSpec("ellipse", 0, 0, 0, 1, 10),
        lambda: ShapeSpec("ellipse", 0, 0, 1, 1, 999),
        lambda: PhantomSpec.from_json("{not json"),
        lambda: PhantomSpec.from_json('{"height": 5}'),
        lambda: PhantomSpec(10, 10, ramp_amplitude=float("nan")),
        lambda: PhantomSpec(10, 10, ramp_amplitude=float("inf")),
        lambda: PhantomSpec(10, 10, noise_sigma=float("nan")),
        lambda: PhantomSpec(10, 10, noise_sigma=float("inf")),
        lambda: ShapeSpec("ellipse", float("nan"), 0, 1, 1, 10),
        lambda: ShapeSpec("ellipse", 0, float("-inf"), 1, 1, 10),
        lambda: ShapeSpec("ellipse", 0, 0, float("nan"), 1, 10),
        lambda: ShapeSpec("rectangle", 0, 0, 1, float("inf"), 10),
        lambda: PhantomSpec.from_json("[1, 2]"),
        lambda: PhantomSpec.from_json('"x"'),
        lambda: PhantomSpec(16, 16, noise_sigma=3.0, seed=-1),
        lambda: PhantomSpec(8.5, 10),
        lambda: PhantomSpec.from_json('{"width": 8.5, "height": 10}'),
        lambda: PhantomSpec.from_json('{"width": 10, "height": 10, "background": 3.5}'),
        lambda: PhantomSpec.from_json('{"width": 10, "height": 10, "seed": 1.5}'),
        lambda: PhantomSpec.from_json('{"width": true, "height": 10}'),
        lambda: PhantomSpec.from_json('{"width": Infinity, "height": 10}'),
        lambda: ShapeSpec("ellipse", 0, 0, 1, 1, 125.5),
        lambda: ShapeSpec("ellipse", 0, 0, 1, 1, True),
        lambda: ShapeSpec("ellipse", "1", 0, 1, 1, 10),
        lambda: ShapeSpec("ellipse", 0, None, 1, 1, 10),
        lambda: ShapeSpec("ellipse", 0, 0, True, 1, 10),
        lambda: ShapeSpec("rectangle", 0, 0, 1, "2", 10),
        lambda: PhantomSpec(10, 10, ramp_amplitude="x"),
        lambda: PhantomSpec(10, 10, ramp_amplitude=True),
        lambda: PhantomSpec(10, 10, noise_sigma="x"),
        lambda: PhantomSpec(10, 10, noise_sigma=[1.0]),
        lambda: PhantomSpec.from_json('{"width": 4, "height": 4, "ramp_amplitude": "40"}'),
        lambda: PhantomSpec.from_json('{"width": 4, "height": 4, "noise_sigma": true}'),
        lambda: PhantomSpec.from_json('{"width": 4, "height": 4, "ramp_amplitude": null}'),
        lambda: PhantomSpec.from_json('{"width": 4, "height": 4, "noise_sigma": [1.0]}'),
        lambda: PhantomSpec(10, 10, ramp_amplitude=-(10**400)),  # ints beyond float64
        lambda: PhantomSpec(10, 10, noise_sigma=10**400),
        lambda: ShapeSpec("ellipse", 10**400, 0, 1, 1, 10),
        lambda: ShapeSpec("ellipse", 0, 0, 1, 10**400, 10),
    ],
)
def test_invalid_specs_rejected(mutate):
    with pytest.raises(InvalidSpec):
        mutate()


def test_misspelt_spec_keys_are_rejected():
    """A key the spec does not have, at the top level or in a shape, is an
    error that names it, rather than a field left at its default."""
    with pytest.raises(InvalidSpec, match="noise_sgima"):
        PhantomSpec.from_json('{"width": 4, "height": 4, "noise_sgima": 5}')
    shape = '{"kind": "ellipse", "cx": 2, "cy": 2, "rx": 1, "ry": 1, "intensty": 9}'
    with pytest.raises(InvalidSpec, match="intensty"):
        PhantomSpec.from_json('{"width": 4, "height": 4, "shapes": [%s]}' % shape)


def test_number_fields_keep_their_values():
    shape = ShapeSpec("ellipse", 3, np.float32(2.5), 1, np.int64(2), 10)
    assert (type(shape.cx), type(shape.cy), type(shape.ry)) == (int, np.float32, np.int64)
    spec = PhantomSpec(10, 10, ramp_amplitude=4, noise_sigma=np.float64(1.5))
    assert type(spec.ramp_amplitude) is int and type(spec.noise_sigma) is np.float64


def test_integer_ramp_keeps_its_json_and_its_image():
    """A spec file's numbers reach the constructor unchanged: an integer ramp
    stays an int, is written back as `40`, and renders the float ramp's image."""
    text = '{"width": 33, "height": 17, "ramp_amplitude": 40, "noise_sigma": 3}'
    spec = PhantomSpec.from_json(text)
    assert type(spec.ramp_amplitude) is int and type(spec.noise_sigma) is int
    assert '"ramp_amplitude": 40,' in spec.to_json()
    assert PhantomSpec.from_json(spec.to_json()) == spec
    floats = PhantomSpec(33, 17, ramp_amplitude=40.0, noise_sigma=3.0)
    assert generate_phantom(spec)[0] == generate_phantom(floats)[0]


def test_whole_float_sizes_are_ints():
    spec = PhantomSpec.from_json('{"width": 8.0, "height": 6, "seed": 2.0}')
    assert spec == PhantomSpec(8, 6, seed=2)
    assert isinstance(spec.width, int) and isinstance(spec.seed, int)
    shape = ShapeSpec("ellipse", 0, 0, 1, 1, 125.0)
    assert shape.intensity == 125 and isinstance(shape.intensity, int)


def test_metrics_perfect_agreement():
    m = binary(np.eye(10))
    res = seg_metrics(m, m)
    assert res.distortion == 0.0 and res.reliability == 1.0


def test_metrics_total_disagreement():
    a = binary(np.ones((10, 10)))
    b = binary(np.zeros((10, 10)))
    res = seg_metrics(a, b)
    assert res.distortion == 1.0 and res.reliability == 0.0


def test_metrics_counted_exactly():
    truth = np.zeros((10, 10), dtype=bool)
    truth[:5] = True  # 50 foreground pixels
    pred = truth.copy()
    pred[0, :10] = False  # miss 10 of them
    res = seg_metrics(binary(pred), binary(truth))
    assert res.distortion == pytest.approx(10 / 100)
    assert res.reliability == pytest.approx(2 * 40 / (40 + 50))


def test_metrics_both_empty_is_perfect():
    e = binary(np.zeros((4, 4)))
    res = seg_metrics(e, e)
    assert res.distortion == 0.0 and res.reliability == 1.0


def test_metrics_input_validation():
    with pytest.raises(DimensionMismatch):
        seg_metrics(binary(np.zeros((3, 3))), binary(np.zeros((4, 4))))
    gray = GrayImage(np.full((3, 3), 7, dtype=np.uint8))
    with pytest.raises(NonBinaryInput):
        seg_metrics(gray, binary(np.zeros((3, 3))))


@pytest.mark.parametrize("level", [1, 128, 254])
@pytest.mark.parametrize("side", ["mask", "truth"])
def test_metrics_find_one_stray_level_past_the_first_band(level, side):
    """The binary check counts levels band by band: one pixel of a level
    other than 0 and 255 in the last row of a 600x1000 image, past the
    first band, is found in the mask and in the truth."""
    clean = np.zeros((1000, 600), dtype=np.uint8)
    clean[:, 300:] = 255
    stray = clean.copy()
    stray[-1, 17] = level
    images = {"mask": GrayImage(clean), "truth": GrayImage(clean), side: GrayImage(stray)}
    with pytest.raises(NonBinaryInput, match=f"^{side} contains values other than 0 and 255$"):
        seg_metrics(images["mask"], images["truth"])


@pytest.mark.parametrize("value", [0, 255])
def test_metrics_take_a_one_level_image(value):
    flat = GrayImage(np.full((1000, 600), value, dtype=np.uint8))
    assert seg_metrics(flat, flat) == SegMetrics(0.0, 1.0)


def test_metrics_json_has_definitions():
    res = seg_metrics(binary(np.eye(5)), binary(np.eye(5)))
    doc = res.to_json()
    assert '"distortion"' in doc and '"reliability"' in doc and "Dice" in doc


_SPEC_TEXT = PhantomSpec(16, 12, 70, (ShapeSpec("ellipse", 8, 6, 4, 3, 150),), 20.0, 5.0, 7).to_json()
_SPEC_KEYS = sorted(set(json.loads(_SPEC_TEXT)) | set(json.loads(_SPEC_TEXT)["shapes"][0]))


@settings(max_examples=200)
@given(text=json_documents(_SPEC_TEXT, _SPEC_KEYS))
@example(text="[" * 200000 + "]" * 200000)
@example(text=_SPEC_TEXT.replace("20.0", str(10**400)))  # ramp_amplitude beyond float64
# finite values whose rendering overflows float64
@example(text=_SPEC_TEXT.replace("20.0", "1e308").replace('"rx": 4', '"rx": 1e-300'))
@example(text=_SPEC_TEXT.replace("20.0", "1e308").replace("5.0", "1e308"))
def test_any_spec_json_parses_or_raises_stratseg_error(text):
    """A spec parses or raises a StratsegError, and a tiny one that parses
    renders or raises one, without a warning (warnings fail the tests)."""
    try:
        spec = PhantomSpec.from_json(text)
        if spec.width * spec.height <= 4096:
            generate_phantom(spec)
    except StratsegError:
        pass
