"""Seeded inputs for the benchmark, generated without calling stratseg.

The program under test only ever receives what these functions return:
PGM bytes, float arrays or CSV text. Keeping the generators here means a
change to the program cannot change its own benchmark inputs.
"""

from __future__ import annotations

import numpy as np

# Rows rendered per block; bounds the float64 temporaries of image generation
# to a few MiB so that generation never sets the process's peak RSS.
_BLOCK_ROWS = 256


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([stream, seed]))


def render_image(size, ellipses, background, ramp, sigma, seed):
    """Square 8-bit image of flat ellipses over a flat background, plus a
    diagonal illumination ramp and Gaussian noise.

    `ellipses` holds (cx, cy, rx, ry, intensity) tuples. Returns the
    (size, size) uint8 pixels and the boolean ground-truth mask.
    """
    rng = _rng(seed, 0)
    pixels = np.empty((size, size), dtype=np.uint8)
    truth = np.empty((size, size), dtype=bool)
    xs = np.arange(size, dtype=np.float64)[None, :]
    diag = 2.0 * max(size - 1, 1)
    for y0 in range(0, size, _BLOCK_ROWS):
        ys = np.arange(y0, min(size, y0 + _BLOCK_ROWS), dtype=np.float64)[:, None]
        block = np.full((ys.shape[0], size), float(background))
        inside = np.zeros(block.shape, dtype=bool)
        for cx, cy, rx, ry, intensity in ellipses:
            hit = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
            block[hit] = float(intensity)
            inside |= hit
        block += ramp * (xs + ys) / diag
        block += rng.normal(0.0, sigma, size=block.shape)
        pixels[y0 : y0 + ys.shape[0]] = np.clip(np.rint(block), 0, 255)
        truth[y0 : y0 + ys.shape[0]] = inside
    return pixels, truth


def encode_pgm(pixels: np.ndarray) -> bytes:
    """Binary P5 encoding of a uint8 (height, width) array."""
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def blobs(seed: int, z: int, n: int, sizes):
    """Samples from z unit-variance Gaussian blobs in n dimensions.

    Blob centres are drawn once per seed from N(0, 3^2), so every set in
    `sizes` comes from the same classes. The first set is balanced (every
    class present, as training needs); later sets draw labels uniformly.
    Returns a list of (samples, labels) pairs, one per entry of `sizes`.
    """
    rng = _rng(seed, 1)
    centres = rng.normal(0.0, 3.0, size=(z, n))
    out = []
    for i, m in enumerate(sizes):
        labels = np.arange(m) % z if i == 0 else rng.integers(0, z, size=m)
        samples = centres[labels] + rng.normal(0.0, 1.0, size=(m, n))
        out.append((samples, labels.astype(np.int64)))
    return out


def dataset_csv(samples: np.ndarray, labels: np.ndarray) -> str:
    """'f1,...,fn,label' rows with shortest round-trip floats."""
    rows = (
        ",".join(repr(float(v)) for v in row) + f",{int(lab)}"
        for row, lab in zip(samples, labels)
    )
    return "\n".join(rows) + "\n"
