"""Test-only reference: the recursive quadtree builder.

`reference_build` is the former `stratify.build_quadtree`. It recursed node
by node, gave each node the sum of its tiles' histograms (or binned the
node's own pixels below the tile grid) and computed each node's stats from
that one histogram with the 1-D reductions of `reference_stats`. Nodes are
`ReferenceNode`s that keep their histogram. The library now builds one
level at a time over arrays (`stratify.build_quadtree`), with the stats of
a whole block of rows in one set of array calls; the tests compare the two
bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from stratseg.imgio import Rect, bin_rows
from stratseg.stratify import RegionStats

GRID_DEPTH = 6


def reference_stats(hist) -> RegionStats:
    counts = np.asarray(hist, dtype=np.float64)
    n = counts.sum()
    levels = np.arange(256, dtype=np.float64)
    mean = float((counts * levels).sum() / n)
    variance = float((counts * (levels - mean) ** 2).sum() / n)
    p = counts[counts > 0] / n
    entropy = float(-(p * np.log2(p)).sum())
    return RegionStats(int(n), mean, variance, entropy)


@dataclass(frozen=True)
class ReferenceNode:
    rect: Rect
    depth: int
    stats: RegionStats
    children: tuple
    hist: np.ndarray


def _cuts(n, depth):
    cuts = [0, n]
    for _ in range(depth):
        mids = [a + math.ceil((b - a) / 2) for a, b in zip(cuts, cuts[1:])]
        cuts = sorted(set(cuts + mids))
    return cuts


class _TileGrid:
    def __init__(self, img, depth):
        self.img, self.depth = img, depth
        self.xs, self.ys = _cuts(img.width, depth), _cuts(img.height, depth)
        ntx = len(self.xs) - 1
        col_key = np.repeat(np.arange(ntx) << 8, np.diff(self.xs))
        self.tiles = np.stack(
            [
                bin_rows(img.pixels[y0:y1], col_key, ntx * 256).reshape(ntx, 256)
                for y0, y1 in zip(self.ys, self.ys[1:])
            ]
        )

    def histogram(self, rect, depth):
        if depth > self.depth:
            sub = self.img.pixels[rect.y0 : rect.y0 + rect.h, rect.x0 : rect.x0 + rect.w]
            return np.bincount(sub.ravel(), minlength=256)
        xs, ys = self.xs, self.ys
        tx, ty = xs.index(rect.x0), ys.index(rect.y0)
        tx1, ty1 = xs.index(rect.x0 + rect.w), ys.index(rect.y0 + rect.h)
        return self.tiles[ty:ty1, tx:tx1].sum(axis=(0, 1))


def _child_rects(r):
    w1, h1 = math.ceil(r.w / 2), math.ceil(r.h / 2)
    w2, h2 = r.w - w1, r.h - h1
    return (
        Rect(r.x0, r.y0, w1, h1),
        Rect(r.x0 + w1, r.y0, w2, h1),
        Rect(r.x0, r.y0 + h1, w1, h2),
        Rect(r.x0 + w1, r.y0 + h1, w2, h2),
    )


def _may_split(r, policy):
    w1, h1 = math.ceil(r.w / 2), math.ceil(r.h / 2)
    return min(w1, r.w - w1) >= policy.min_side and min(h1, r.h - h1) >= policy.min_side


def _build(grid, rect, depth, policy):
    hist = grid.histogram(rect, depth)
    stats = reference_stats(hist)
    children = ()
    if (
        stats.variance > policy.var_threshold
        and depth < policy.max_depth
        and _may_split(rect, policy)
    ):
        children = tuple(_build(grid, cr, depth + 1, policy) for cr in _child_rects(rect))
    return ReferenceNode(rect, depth, stats, children, hist)


def reference_build(img, policy) -> ReferenceNode:
    """The root of the recursively built tree."""
    grid = _TileGrid(img, min(policy.max_depth, GRID_DEPTH))
    return _build(grid, Rect(0, 0, img.width, img.height), 0, policy)


def reference_to_dict(node) -> dict:
    """The CLI report's nested form of the tree below `node`."""
    d = {
        "rect": {"x0": node.rect.x0, "y0": node.rect.y0, "w": node.rect.w, "h": node.rect.h},
        "depth": node.depth,
        "stats": {
            "count": node.stats.count,
            "mean": node.stats.mean,
            "variance": node.stats.variance,
            "entropy_bits": node.stats.entropy_bits,
        },
    }
    if node.children:
        d["children"] = [reference_to_dict(c) for c in node.children]
    return d


def reference_sources(root, var_threshold):
    """{rect: histogram} of the nodes whose histograms thresholds are
    optimized on: heterogeneous leaves, a root leaf, and the parents of
    homogeneous leaves."""
    out = {}

    def visit(node, parent):
        if node.children:
            for child in node.children:
                visit(child, node)
        elif node.stats.variance > var_threshold or parent is None:
            out[node.rect] = node.hist
        else:
            out[parent.rect] = parent.hist

    visit(root, None)
    return out
