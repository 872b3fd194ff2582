"""Quadtree stratification of an image into homogeneity-bounded subdomains.

A node splits into NW/NE/SW/SE quadrants (split point at the ceiling of half
the side) while its intensity variance exceeds the policy threshold, the
depth cap is not reached, and all four children keep at least `min_side`
pixels per side. Leaves tile the image exactly.

`build_quadtree` builds a linear quadtree (Gargantini, CACM 1982) one level
at a time, over arrays. Split points are nested, so all nodes down to depth
d = min(max_depth, 6) are unions of one grid of at most 64 x 64 tiles. The
image is binned once into a summed-area table of the tile histograms, its
tile rows in two halves, on two threads for a large image
(`imgio._in_halves`): a level's histograms are four gathers from it, or
below the grid one keyed binning pass per block of nodes. Counts are
integers, so every histogram equals a direct count. Stats are taken per
block (`_stats`), and a level's split decisions are one mask.

The tree also decides its leaf plan once: which leaves there are, their
depth-first order (sorted base-4 location codes) and the node whose
histogram each leaf's threshold is optimized on (`_sources`). It keeps
only those source histograms; `threshold_tree` and `segment` read the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidArgument, real_number, whole_number
from .imgio import _BAND_PIXELS, LEVELS, GrayImage, Rect, _in_halves, bin_rows

__all__ = [
    "SplitPolicy",
    "RegionStats",
    "RegionNode",
    "QuadTree",
    "build_quadtree",
]

_GRID_DEPTH = 6  # tile grid of at most 64 x 64 tiles: 8 MiB of int64 counts
_BLOCK_NODES = 1024  # nodes per histogram block: 2 MiB of int64 counts
_STAT_FIELDS = ("count", "mean", "variance", "entropy_bits")


@dataclass(frozen=True)
class SplitPolicy:
    max_depth: int = 4
    min_side: int = 16
    var_threshold: float = 400.0

    def __post_init__(self):
        for name in ("max_depth", "min_side"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if not (0 <= self.max_depth <= 12):
            raise InvalidArgument("max_depth must be in [0, 12]")
        if self.min_side < 2:
            raise InvalidArgument("min_side must be >= 2")
        if not real_number("var_threshold", self.var_threshold) >= 0:
            raise InvalidArgument("var_threshold must be nonnegative")


@dataclass(frozen=True)
class RegionStats:
    """Pixel count, mean, population variance and gray-level entropy (bits)."""

    count: int
    mean: float
    variance: float
    entropy_bits: float


def _stats(hists):
    """(count, mean, variance, entropy bits) arrays of the rows of a (k, levels)
    stack of histograms, with the bits of 1-D sums on one row: a row sum of a
    C-contiguous block is pairwise like a 1-D sum, and each row's occupied
    levels are summed packed with rows of as many, as zeros would change the
    pairwise order."""
    counts = np.array(hists, dtype=np.float64, ndmin=2)
    levels = np.arange(counts.shape[1], dtype=np.float64)
    n = counts.sum(axis=1)
    dev = counts * levels  # reused in place: one (k, levels) temporary
    mean = dev.sum(axis=1) / n
    np.square(np.subtract(levels, mean[:, None], out=dev), out=dev)
    dev *= counts
    variance = dev.sum(axis=1) / n
    occupied = counts > 0
    m = occupied.sum(axis=1)
    p = counts[occupied] / np.repeat(n, m)
    terms = p * np.log2(p)  # row after row, each row's occupied levels
    start = np.cumsum(m) - m
    entropy = np.empty(len(n))
    for mi in np.unique(m).tolist():
        rows = np.flatnonzero(m == mi)
        entropy[rows] = -terms[start[rows, None] + np.arange(mi)].sum(axis=1)
    return n, mean, variance, entropy


@dataclass(frozen=True)
class RegionNode:
    rect: Rect
    depth: int
    stats: RegionStats
    children: tuple = ()  # empty for a leaf, else exactly 4 RegionNodes

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True, eq=False)
class QuadTree:
    """A quadtree as arrays over its nodes in level order (the children of
    each split node are four consecutive nodes, NW, NE, SW, SE); `root` is a
    RegionNode view, built on first use, kept only until the benchmark counts
    nodes and leaves from the arrays."""

    image_dims: tuple  # (width, height)
    policy: SplitPolicy
    rects: np.ndarray = field(repr=False)  # (nodes, 4) int64: x0, y0, w, h
    depth: np.ndarray = field(repr=False)
    count: np.ndarray = field(repr=False)  # count to entropy_bits: the RegionStats fields
    mean: np.ndarray = field(repr=False)
    variance: np.ndarray = field(repr=False)
    entropy_bits: np.ndarray = field(repr=False)
    first_child: np.ndarray = field(repr=False)  # index of the NW child; -1 for a leaf
    leaves: np.ndarray = field(repr=False)  # leaf node indices, depth-first NW, NE, SW, SE
    # the nodes threshold_tree reads (see `_sources`), ascending, and their
    # (len(sources), LEVELS) int64 histograms, equal to direct counts
    sources: np.ndarray = field(repr=False)
    source_hists: np.ndarray = field(repr=False)
    leaf_source: np.ndarray = field(repr=False)  # each leaf's row of sources

    def _rows(self):
        """(rect, depth, stats, first child) of each node, in plain lists."""
        stats = zip(*(getattr(self, f).tolist() for f in _STAT_FIELDS))
        return zip(self.rects.tolist(), self.depth.tolist(), stats, self.first_child.tolist())

    @cached_property
    def root(self) -> RegionNode:
        """The tree as RegionNodes, built from the bottom level up."""
        nodes = [None] * len(self.depth)
        for i, (rect, depth, stats, fc) in reversed(list(enumerate(self._rows()))):
            children = () if fc < 0 else tuple(nodes[fc : fc + 4])
            nodes[i] = RegionNode(Rect(*rect), depth, RegionStats(*stats), children)
        return nodes[0]


def _children(rects: np.ndarray) -> np.ndarray:
    """(4k, 4) NW, NE, SW, SE quadrants of each of k rects; NW gets the
    ceiling half of odd sides."""
    x0, y0, w, h = rects.T
    w1, h1 = (w + 1) // 2, (h + 1) // 2
    quads = [(x0, y0, w1, h1), (x0 + w1, y0, w - w1, h1)]
    quads += [(x0, y0 + h1, w1, h - h1), (x0 + w1, y0 + h1, w - w1, h - h1)]
    return np.stack([np.stack(q, axis=1) for q in quads], axis=1).reshape(-1, 4)


def _bin_rects(pixels: np.ndarray, rects: np.ndarray, out: np.ndarray):
    """Write the histograms of k rects into (k, LEVELS) `out`: b rects of one shape
    are the columns of one (h * w, b) array, binned in one pass, each column
    its own group."""
    flat, width = pixels.reshape(-1), pixels.shape[1]
    x0, y0, w, h = rects.T
    for sw, sh in set(zip(w.tolist(), h.tolist())):
        same = np.flatnonzero((w == sw) & (h == sh))
        offsets = (np.arange(sh)[:, None] * width + np.arange(sw)).reshape(-1, 1)
        step = max(1, min(_BLOCK_NODES, _BAND_PIXELS // (sw * sh)))
        for lo in range(0, len(same), step):
            sel = same[lo : lo + step]
            out[sel] = bin_rows(flat[offsets + (y0[sel] * width + x0[sel])], np.arange(len(sel)))


class _TileGrid:
    """Summed-area table of the histograms of the tiles cut by `depth`
    rounds of `_children`; every node down to `depth` is a union of tiles."""

    def __init__(self, img: GrayImage, depth: int):
        self.pixels, self.depth = img.pixels, depth
        tiles = np.array([[0, 0, img.width, img.height]], np.int64)
        for _ in range(depth):
            tiles = _children(tiles)
        # the tiles' near edges and the image's far edges, sorted and distinct
        self.xs = xs = np.unique(np.append(tiles[:, 0], img.width))
        self.ys = ys = np.unique(np.append(tiles[:, 1], img.height))
        ntx = len(xs) - 1
        # each tile row is binned on its own, its pixels grouped by tile
        # column, so no band straddles two
        tile_col = np.repeat(np.arange(ntx), np.diff(xs))
        # sat[j, i] counts the tiles above row cut j and left of column cut i
        self.sat = sat = np.zeros((len(ys), ntx + 1, LEVELS), np.int64)
        # the tile rows in two halves, each keying its bands into its own
        # buffer, allocated here: the two together hold one band of a
        # one-thread pass, which is at most one tile row
        rows = max(1, min(int(np.diff(ys).max()), _BAND_PIXELS // img.width) // 2)
        bufs = np.empty((2, rows * img.width), np.intp)
        cut = (0, (len(ys) - 1) // 2, len(ys) - 1)

        def bin_half(k):
            for j in range(cut[k], cut[k + 1]):
                band = img.pixels[ys[j] : ys[j + 1]]
                sat[j + 1, 1:] = bin_rows(band, tile_col, bufs[k])

        _in_halves(lambda: bin_half(0), lambda: bin_half(1), img.pixels.size)
        np.cumsum(sat, axis=0, out=sat)
        np.cumsum(sat, axis=1, out=sat)

    def histograms(self, rects: np.ndarray, depth: np.ndarray) -> np.ndarray:
        """(k, LEVELS) int64 histograms of k rects at ascending depths: four
        gathers for the rects on the grid, keyed binning below it."""
        out = np.empty((len(rects), LEVELS), np.int64)
        on = np.searchsorted(depth, self.depth, side="right")
        x0, y0, w, h = rects[:on].T
        i0, i1 = np.searchsorted(self.xs, x0), np.searchsorted(self.xs, x0 + w)
        j0, j1 = np.searchsorted(self.ys, y0), np.searchsorted(self.ys, y0 + h)
        out[:on] = self.sat[j1, i1] - self.sat[j0, i1] - self.sat[j1, i0] + self.sat[j0, i0]
        _bin_rects(self.pixels, rects[on:], out[on:])
        return out


def _sources(first_child, variance, var_threshold) -> np.ndarray:
    """For each leaf, the node whose histogram its threshold is optimized on;
    -1 for a split node. Homogeneous leaves (variance at or below the split
    threshold) inherit from their parent: the quadtree gives every subdomain
    a coarser level whose statistics still resolve the foreground/background
    mixture. Heterogeneous leaves (stopped by the depth or size caps), and a
    root leaf, use their own histogram."""
    leaf = first_child < 0
    source = np.where(leaf, np.arange(len(leaf)), -1)
    parent = np.repeat(np.flatnonzero(~leaf), 4)  # of nodes 1, 2, ... (level order)
    inherit = leaf[1:] & (variance[1:] <= var_threshold)
    source[1:][inherit] = parent[inherit]
    return source


def build_quadtree(img: GrayImage, policy: SplitPolicy = SplitPolicy()) -> QuadTree:
    """Subdivide `img` under `policy`, one level at a time.

    An image smaller than `min_side` simply yields a single-leaf tree.
    """
    grid = _TileGrid(img, min(policy.max_depth, _GRID_DEPTH))
    levels, stats, splits = [np.array([[0, 0, img.width, img.height]], np.int64)], [], []
    paths = [np.zeros(1, np.int64)]  # base-4 quadrant path from the root: NW 0 ... SE 3
    for depth in range(policy.max_depth + 1):
        level = levels[-1]
        blocks = [level[lo : lo + _BLOCK_NODES] for lo in range(0, len(level), _BLOCK_NODES)]
        st = np.hstack([_stats(grid.histograms(b, np.full(len(b), depth))) for b in blocks])
        fits = (level[:, 2:].min(axis=1) // 2 >= policy.min_side) & (depth < policy.max_depth)
        split = fits & (st[2] > policy.var_threshold)
        stats.append(st)
        splits.append(split)
        if not split.any():
            break
        levels.append(_children(level[split]))
        paths.append((4 * paths[-1][split, None] + np.arange(4)).reshape(-1))
    split = np.concatenate(splits)
    # level order: the children of the j-th split node are nodes 1 + 4j ...
    first_child = np.full(len(split), -1)
    first_child[split] = 1 + 4 * np.arange(np.count_nonzero(split))
    rects = np.concatenate(levels)
    depth = np.repeat(np.arange(len(levels)), [len(level) for level in levels])
    count, mean, variance, entropy = np.concatenate(stats, axis=1)
    # a leaf's path, padded to the last depth, is where its span of the
    # deepest level's codes starts; no leaf's path is a prefix of another's,
    # so these codes sort the leaves depth first
    leaf = np.flatnonzero(first_child < 0)
    code = np.concatenate(paths)[leaf] << 2 * (len(levels) - 1 - depth[leaf])
    leaf = leaf[np.argsort(code)]
    source = _sources(first_child, variance, policy.var_threshold)
    sources, leaf_source = np.unique(source[leaf], return_inverse=True)  # by depth
    kept = grid.histograms(rects[sources], depth[sources])
    dims, stats = (img.width, img.height), (count.astype(np.int64), mean, variance, entropy)
    return QuadTree(
        dims, policy, rects, depth, *stats, first_child, leaf, sources, kept, leaf_source
    )


def node_to_dict(tree: QuadTree) -> dict:
    """Nested plain-dict form of the tree, used by the CLI's structured-text report."""
    docs = []
    for (x0, y0, w, h), depth, stats, _ in tree._rows():
        rect = {"x0": x0, "y0": y0, "w": w, "h": h}
        docs.append({"rect": rect, "depth": depth, "stats": dict(zip(_STAT_FIELDS, stats))})
    for doc, fc in zip(docs, tree.first_child.tolist()):
        if fc >= 0:
            doc["children"] = docs[fc : fc + 4]
    return docs[0]
