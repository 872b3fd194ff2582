"""Quadtree stratification of an image into homogeneity-bounded subdomains.

A node splits into NW/NE/SW/SE quadrants (split point at the ceiling of half
the side) while its intensity variance exceeds the policy threshold, the
depth cap is not reached, and all four children keep at least `min_side`
pixels per side. Leaves tile the image exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument
from .imgio import GrayImage, Rect, region_histogram

__all__ = [
    "SplitPolicy",
    "RegionStats",
    "RegionNode",
    "QuadTree",
    "build_quadtree",
    "leaves",
    "region_complexity",
]


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


def _build(img: GrayImage, rect: Rect, depth: int, policy: SplitPolicy) -> RegionNode:
    stats = stats_from_histogram(region_histogram(img, rect))
    if (
        stats.variance > policy.var_threshold
        and depth < policy.max_depth
        and _may_split(rect, policy)
    ):
        children = tuple(
            _build(img, cr, depth + 1, policy) for cr in _child_rects(rect)
        )
        return RegionNode(rect, depth, stats, children)
    return RegionNode(rect, depth, stats)


def build_quadtree(img: GrayImage, policy: SplitPolicy = SplitPolicy()) -> QuadTree:
    """Recursively subdivide `img` under `policy`.

    An image smaller than `min_side` simply yields a single-leaf tree.
    """
    root = _build(img, Rect(0, 0, img.width, img.height), 0, policy)
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
