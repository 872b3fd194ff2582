"""Test-only reference: the per-leaf stitch.

`reference_segment` is the former `threshopt.segment`. It walked the leaves
in the tree's leaf order and wrote each leaf's `pixel > threshold` flags
into its slice of the mask, one `np.greater` per leaf, then scaled the mask
to {0, 255} once. The library now compares row bands against per-row
threshold vectors on two threads (`threshopt.segment`); the tests compare
the two byte for byte.
"""

import numpy as np


def reference_segment(img, tree, report) -> np.ndarray:
    mask = np.zeros((img.height, img.width), dtype=np.uint8)
    flags = mask.view(bool)
    for (x0, y0, w, h), entry in zip(tree.rects[tree.leaves].tolist(), report.entries):
        rows, cols = slice(y0, y0 + h), slice(x0, x0 + w)
        np.greater(img.pixels[rows, cols], entry.threshold, out=flags[rows, cols])
    mask *= 255
    return mask
