"""Synthetic phantoms with exact ground truth, plus segmentation metrics.

A phantom composes flat shapes over a flat background, an additive
illumination ramp along the image diagonal (the controlled stand-in for
uneven lighting), and Gaussian noise from numpy's seeded PCG64 generator so
identical specs reproduce bit-identical images on any platform.

Metric definitions (reported prominently because the names alone are
ambiguous): distortion is the fraction of pixels whose binary label
disagrees with ground truth; reliability is the Dice coefficient
2|A∩B| / (|A| + |B|) over foreground pixels.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, NonBinaryInput, real_number, whole_number
from .imgio import LEVELS, GrayImage, bin_rows

__all__ = ["ShapeSpec", "PhantomSpec", "SegMetrics", "generate_phantom", "seg_metrics"]


@dataclass(frozen=True)
class ShapeSpec:
    """One foreground shape: an axis-aligned ellipse or rectangle.

    For ellipses `rx`/`ry` are semi-axes and membership uses
    ((x-cx)/rx)^2 + ((y-cy)/ry)^2 <= 1; for rectangles they are half-extents
    with |x-cx| <= rx and |y-cy| <= ry.
    """

    kind: str
    cx: float
    cy: float
    rx: float
    ry: float
    intensity: int

    def __post_init__(self):
        if self.kind not in ("ellipse", "rectangle"):
            raise InvalidSpec(f"unknown shape kind {self.kind!r}")
        for name in ("cx", "cy", "rx", "ry"):
            real_number(name, getattr(self, name), InvalidSpec)
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise InvalidSpec("shape center must be finite")
        if not (0 < self.rx < math.inf and 0 < self.ry < math.inf):
            raise InvalidSpec("shape extents must be positive and finite")
        object.__setattr__(self, "intensity", whole_number("intensity", self.intensity, InvalidSpec))
        if not (0 <= self.intensity <= LEVELS - 1):
            raise InvalidSpec(f"shape intensity must lie in [0, {LEVELS - 1}]")

    def mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.kind == "ellipse":
            # a term that overflows to inf is far above 1, so the pixel is
            # outside either way (extreme centers over tiny extents)
            with np.errstate(over="ignore"):
                return ((xs - self.cx) / self.rx) ** 2 + ((ys - self.cy) / self.ry) ** 2 <= 1.0
        return (np.abs(xs - self.cx) <= self.rx) & (np.abs(ys - self.cy) <= self.ry)


@dataclass(frozen=True)
class PhantomSpec:
    width: int
    height: int
    background: int = 0
    shapes: tuple = ()
    ramp_amplitude: float = 0.0  # gray levels gained across the image diagonal
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("width", "height", "background", "seed"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), InvalidSpec))
        if self.width < 1 or self.height < 1:
            raise InvalidSpec("phantom dimensions must be positive")
        if not (0 <= self.background <= LEVELS - 1):
            raise InvalidSpec(f"background must lie in [0, {LEVELS - 1}]")
        if self.seed < 0:
            raise InvalidSpec("seed must be nonnegative")
        if not math.isfinite(real_number("ramp_amplitude", self.ramp_amplitude, InvalidSpec)):
            raise InvalidSpec("ramp amplitude must be finite")
        noise = real_number("noise_sigma", self.noise_sigma, InvalidSpec)
        if not (noise >= 0 and math.isfinite(noise)):
            raise InvalidSpec("noise sigma must be nonnegative and finite")
        object.__setattr__(self, "shapes", tuple(self.shapes))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "PhantomSpec":
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise InvalidSpec("phantom spec must be a JSON object")
            shapes = tuple(ShapeSpec(**s) for s in doc.get("shapes", ()))
            # the dataclass gives the defaults and refuses unknown keys
            return PhantomSpec(**{**doc, "shapes": shapes})
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise InvalidSpec(str(exc)) from None


def generate_phantom(spec: PhantomSpec) -> tuple:
    """Render (image, ground-truth mask) deterministically from (spec, seed)."""
    try:
        img = np.full((spec.height, spec.width), float(spec.background))
        truth = np.zeros((spec.height, spec.width), dtype=bool)
        # open grids, allocated after the image: a size that cannot fit fails first
        ys = np.arange(spec.height, dtype=np.float64)[:, None]
        xs = np.arange(spec.width, dtype=np.float64)
        for shape in spec.shapes:
            inside = shape.mask(xs, ys)
            img[inside] = float(shape.intensity)
            truth |= inside
        diag = max(spec.width - 1, 1) + max(spec.height - 1, 1)
        # a ramp or noise value that overflows to +-inf is far outside
        # [0, LEVELS - 1], so it clips to one end either way; only the sum of
        # two infinities of opposite sign has no value
        with np.errstate(over="ignore", invalid="ignore"):
            img += spec.ramp_amplitude * (xs + ys) / diag
            if spec.noise_sigma > 0:
                rng = np.random.Generator(np.random.PCG64(spec.seed))
                img += rng.normal(0.0, spec.noise_sigma, size=img.shape)
        if np.isnan(img).any():
            raise InvalidSpec("the ramp and the noise overflow float64 with opposite signs")
        img = np.clip(np.rint(img), 0, LEVELS - 1).astype(np.uint8)
        mask = np.where(truth, 255, 0).astype(np.uint8)
    except MemoryError:
        raise InvalidSpec(f"a {spec.width}x{spec.height} phantom does not fit in memory") from None
    return GrayImage(img), GrayImage(mask)


@dataclass(frozen=True)
class SegMetrics:
    distortion: float  # fraction of disagreeing pixels
    reliability: float  # Dice coefficient over foreground

    def to_json(self) -> str:
        doc = {
            "distortion": round(self.distortion, 4),
            "reliability": round(self.reliability, 4),
            "definitions": {
                "distortion": "fraction of pixels whose label differs from ground truth",
                "reliability": "Dice coefficient 2|A&B| / (|A|+|B|) over foreground pixels",
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _require_binary(img: GrayImage, name: str):
    counts = bin_rows(img.pixels, np.zeros(img.width, np.intp))[0]
    if counts[1 : LEVELS - 1].any():
        raise NonBinaryInput(f"{name} contains values other than 0 and 255")


def seg_metrics(mask: GrayImage, truth: GrayImage) -> SegMetrics:
    """Distortion and Dice reliability of `mask` against `truth`."""
    if mask.pixels.shape != truth.pixels.shape:
        raise DimensionMismatch(
            f"mask {mask.pixels.shape} vs truth {truth.pixels.shape}"
        )
    _require_binary(mask, "mask")
    _require_binary(truth, "truth")
    a = mask.pixels == 255
    b = truth.pixels == 255
    distortion = float(np.mean(a != b))
    denom = int(a.sum()) + int(b.sum())
    reliability = 1.0 if denom == 0 else 2.0 * int((a & b).sum()) / denom
    return SegMetrics(distortion, reliability)
