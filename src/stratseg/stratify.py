"""Quadtree stratification of an image into homogeneity-bounded subdomains.

A node splits into NW/NE/SW/SE quadrants (split point at the ceiling of half
the side) while its intensity variance exceeds the policy threshold, the
depth cap is not reached, and all four children keep at least `min_side`
pixels per side. Leaves tile the image exactly.

Histograms come from one pass over the pixels. Split points are nested (a
ceil-split refines its parent's), so the cuts of every possible node down to
depth d = min(max_depth, 6) form one tile grid of at most 64 x 64 tiles, and
each node at depth <= d is an exact union of tiles. `build_quadtree` bins the
image once into the (rows, cols, 256) int64 tile histograms, in row bands
that never straddle a tile row, and gives each such node the sum of its
tiles; a node deeper than the grid bins its own pixels. Counts are integers,
so every histogram, and every `RegionStats`, equals a direct count. Each node
keeps its histogram in `RegionNode.hist`, which `threshold_tree` reads and
`node_to_dict` leaves out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument
from .imgio import GrayImage, Rect, bin_rows, region_histogram

__all__ = [
    "SplitPolicy",
    "RegionStats",
    "RegionNode",
    "QuadTree",
    "build_quadtree",
    "leaves",
    "region_complexity",
]

_GRID_DEPTH = 6  # tile grid of at most 64 x 64 tiles: 8 MiB of int64 counts


@dataclass(frozen=True)
class SplitPolicy:
    max_depth: int = 4
    min_side: int = 16
    var_threshold: float = 400.0

    def __post_init__(self):
        if not (0 <= self.max_depth <= 12):
            raise InvalidArgument("max_depth must be in [0, 12]")
        if self.min_side < 2:
            raise InvalidArgument("min_side must be >= 2")
        if not self.var_threshold >= 0:
            raise InvalidArgument("var_threshold must be nonnegative")


@dataclass(frozen=True)
class RegionStats:
    """Pixel count, mean, population variance and gray-level entropy (bits)."""

    count: int
    mean: float
    variance: float
    entropy_bits: float


def stats_from_histogram(hist: np.ndarray) -> RegionStats:
    counts = np.asarray(hist, dtype=np.float64)
    n = counts.sum()
    levels = np.arange(256, dtype=np.float64)
    mean = float((counts * levels).sum() / n)
    variance = float((counts * (levels - mean) ** 2).sum() / n)
    p = counts[counts > 0] / n
    entropy = float(-(p * np.log2(p)).sum())
    return RegionStats(int(n), mean, variance, entropy)


@dataclass(frozen=True)
class RegionNode:
    rect: Rect
    depth: int
    stats: RegionStats
    children: tuple = ()  # empty for a leaf, else exactly 4 RegionNodes
    # 256-bin int64 histogram of the rect, as `region_histogram` counts it
    hist: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class QuadTree:
    root: RegionNode
    image_dims: tuple  # (width, height)
    policy: SplitPolicy = field(default_factory=SplitPolicy)


def _child_rects(r: Rect):
    """NW, NE, SW, SE quadrants; NW gets the ceiling half of odd sides."""
    w1 = math.ceil(r.w / 2)
    h1 = math.ceil(r.h / 2)
    w2, h2 = r.w - w1, r.h - h1
    return (
        Rect(r.x0, r.y0, w1, h1),
        Rect(r.x0 + w1, r.y0, w2, h1),
        Rect(r.x0, r.y0 + h1, w1, h2),
        Rect(r.x0 + w1, r.y0 + h1, w2, h2),
    )


def _may_split(r: Rect, policy: SplitPolicy) -> bool:
    w1 = math.ceil(r.w / 2)
    h1 = math.ceil(r.h / 2)
    return min(w1, r.w - w1) >= policy.min_side and min(h1, r.h - h1) >= policy.min_side


def _cuts(n: int, depth: int) -> list:
    """Sorted distinct split positions, ends included, of [0, n) after
    `depth` rounds of the `_child_rects` ceil-halving."""
    cuts = [0, n]
    for _ in range(depth):
        mids = [a + math.ceil((b - a) / 2) for a, b in zip(cuts, cuts[1:])]
        cuts = sorted(set(cuts + mids))
    return cuts


class _TileGrid:
    """Histograms of the tiles cut by `depth` rounds of ceil-halving.

    Every node down to `depth` is a union of tiles, and its histogram is the
    sum of theirs; a deeper node bins its own pixels.
    """

    def __init__(self, img: GrayImage, depth: int):
        self.img, self.depth = img, depth
        self.xs, self.ys = _cuts(img.width, depth), _cuts(img.height, depth)
        ntx = len(self.xs) - 1
        # a pixel's bin is its level plus 256 times its tile column; each
        # tile row is binned on its own, so no band straddles two
        col_key = np.repeat(np.arange(ntx) << 8, np.diff(self.xs))
        self.tiles = np.stack(
            [
                bin_rows(img.pixels[y0:y1], col_key, ntx * 256).reshape(ntx, 256)
                for y0, y1 in zip(self.ys, self.ys[1:])
            ]
        )

    def histogram(self, rect: Rect, depth: int) -> np.ndarray:
        if depth > self.depth:
            return region_histogram(self.img, rect)
        xs, ys = self.xs, self.ys
        tx, ty = xs.index(rect.x0), ys.index(rect.y0)
        tx1, ty1 = xs.index(rect.x0 + rect.w), ys.index(rect.y0 + rect.h)
        return self.tiles[ty:ty1, tx:tx1].sum(axis=(0, 1))


def _build(grid: _TileGrid, rect: Rect, depth: int, policy: SplitPolicy) -> RegionNode:
    hist = grid.histogram(rect, depth)
    stats = stats_from_histogram(hist)
    children = ()
    if (
        stats.variance > policy.var_threshold
        and depth < policy.max_depth
        and _may_split(rect, policy)
    ):
        children = tuple(_build(grid, cr, depth + 1, policy) for cr in _child_rects(rect))
    return RegionNode(rect, depth, stats, children, hist)


def build_quadtree(img: GrayImage, policy: SplitPolicy = SplitPolicy()) -> QuadTree:
    """Recursively subdivide `img` under `policy`.

    An image smaller than `min_side` simply yields a single-leaf tree.
    """
    grid = _TileGrid(img, min(policy.max_depth, _GRID_DEPTH))
    root = _build(grid, Rect(0, 0, img.width, img.height), 0, policy)
    return QuadTree(root, (img.width, img.height), policy)


def leaves(tree: QuadTree) -> list:
    """Leaves in depth-first NW, NE, SW, SE order; they tile the image."""
    return [node for node in iter_nodes(tree) if node.is_leaf]


def iter_nodes(tree: QuadTree):
    """All nodes, depth-first preorder."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def region_complexity(node: RegionNode) -> float:
    """Gray-level entropy of the region scaled into [0, 1] (entropy / 8)."""
    return node.stats.entropy_bits / 8.0


def node_to_dict(node: RegionNode) -> dict:
    """Nested plain-dict form used by the CLI's structured-text report."""
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
        d["children"] = [node_to_dict(c) for c in node.children]
    return d
