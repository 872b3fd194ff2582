import gc
import json
import threading
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from stratseg import GrayImage, SplitPolicy, build_quadtree, imgio, stratify
from stratseg.errors import InvalidArgument
from stratseg.imgio import Rect
from stratseg.stratify import _stats, node_to_dict

from quadtree_reference import (
    reference_build,
    reference_sources,
    reference_stats,
    reference_to_dict,
)


def quadrant_image():
    """16x16 quadrants with values 0 (NW), 85 (NE), 170 (SW), 255 (SE)."""
    px = np.zeros((16, 16), dtype=np.uint8)
    px[:8, 8:] = 85
    px[8:, :8] = 170
    px[8:, 8:] = 255
    return GrayImage(px)


def random_image(rng, max_side=64):
    w = int(rng.integers(1, max_side))
    h = int(rng.integers(1, max_side))
    style = rng.integers(0, 3)
    if style == 0:
        px = rng.integers(0, 256, size=(h, w))
    elif style == 1:  # blocky: low-res noise upsampled
        small = rng.integers(0, 256, size=(max(h // 7, 1), max(w // 7, 1)))
        px = np.kron(small, np.ones((7, 7)))[:h, :w]
    else:  # smooth gradient plus noise
        ys, xs = np.mgrid[0:h, 0:w]
        px = 128.0 + 100.0 * np.sin(xs / 11.0) + rng.normal(0, 20, size=(h, w))
    return GrayImage(np.clip(px, 0, 255).astype(np.uint8))


def random_policy(rng):
    return SplitPolicy(
        max_depth=int(rng.integers(0, 6)),
        min_side=int(rng.integers(2, 17)),
        var_threshold=float(rng.uniform(10, 2000)),
    )


def test_constant_image_single_leaf():
    img = GrayImage(np.full((64, 64), 77, dtype=np.uint8))
    tree = build_quadtree(img, SplitPolicy(var_threshold=0.0))
    assert tree.first_child[0] == -1
    assert tree.variance[0] == 0.0
    assert tree.mean[0] == 77.0


def test_quadrant_image_splits_once():
    tree = build_quadtree(quadrant_image(), SplitPolicy(min_side=8))
    lv = tree.leaves.tolist()
    assert len(lv) == 4
    # NW, NE, SW, SE order with the expected rectangles and flat stats
    expect = [(0, 0, 0.0), (8, 0, 85.0), (0, 8, 170.0), (8, 8, 255.0)]
    for i, (x0, y0, mean) in zip(lv, expect):
        assert tree.rects[i].tolist() == [x0, y0, 8, 8]
        assert tree.variance[i] == 0.0
        assert tree.mean[i] == mean
        assert tree.depth[i] == 1


def test_root_stats_hand_computed():
    # values {0, 85, 170, 255} in equal proportion:
    # mean 127.5, variance ((127.5)^2 + (42.5)^2) / 2 = 9031.25, entropy 2 bits
    tree = build_quadtree(quadrant_image(), SplitPolicy(min_side=8))
    assert tree.count[0] == 256
    assert tree.mean[0] == pytest.approx(127.5)
    assert tree.variance[0] == pytest.approx(9031.25)
    assert tree.entropy_bits[0] == pytest.approx(2.0)


def test_max_depth_zero_single_leaf():
    tree = build_quadtree(quadrant_image(), SplitPolicy(max_depth=0, min_side=2))
    assert tree.first_child[0] == -1


def test_min_side_blocks_split():
    # splitting 16x16 would give 8-px children; min_side 9 forbids it
    tree = build_quadtree(quadrant_image(), SplitPolicy(min_side=9))
    assert tree.first_child[0] == -1


def test_odd_side_split_point_is_ceiling_half():
    px = np.zeros((5, 5), dtype=np.uint8)
    px[:, 3:] = 255  # heterogeneous, forces a split with min_side=2
    tree = build_quadtree(GrayImage(px), SplitPolicy(min_side=2, var_threshold=100))
    fc = tree.first_child[0]
    nw, ne, sw, se = (Rect(*r) for r in tree.rects[fc : fc + 4].tolist())
    assert (nw.w, nw.h) == (3, 3)
    assert (ne.x0, ne.w) == (3, 2)
    assert (sw.y0, sw.h) == (3, 2)
    assert (se.w, se.h) == (2, 2)


def test_leaves_tile_image_exactly():
    rng = np.random.default_rng(21)
    for _ in range(30):
        img = random_image(rng)
        tree = build_quadtree(img, random_policy(rng))
        cover = np.zeros((img.height, img.width), dtype=np.int32)
        for x0, y0, w, h in tree.rects[tree.leaves].tolist():
            cover[y0 : y0 + h, x0 : x0 + w] += 1
        assert np.all(cover == 1)


@st.composite
def images(draw, max_side=300):
    """Noise, blocky noise or a disk, up to max_side on each side."""
    w, h = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["noise", "blocky", "disk"]))
    if style == "noise":
        return GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
    if style == "blocky":
        small = rng.integers(0, 256, size=(h // 9 + 1, w // 9 + 1), dtype=np.uint8)
        return GrayImage(np.kron(small, np.ones((9, 9), dtype=np.uint8))[:h, :w])
    return disk_image(w, h)


policies = st.builds(
    SplitPolicy,
    max_depth=st.integers(0, 12),
    min_side=st.integers(2, 64),
    var_threshold=st.one_of(st.just(0.0), st.floats(0.0, 5000.0)),
)


@settings(max_examples=40)
@given(img=images(), policy=policies)
def test_leaves_tile_any_image_under_any_policy(img, policy):
    """Leaves cover every pixel exactly once, each leaf counts one pixel
    per pixel of its rect, and so does each histogram the tree keeps."""
    tree = build_quadtree(img, policy)
    cover = np.zeros((img.height, img.width), dtype=np.int32)
    for x0, y0, w, h in tree.rects[tree.leaves].tolist():
        cover[y0 : y0 + h, x0 : x0 + w] += 1
    assert np.all(cover == 1)
    areas = tree.rects[:, 2] * tree.rects[:, 3]
    assert np.array_equal(tree.count[tree.leaves], areas[tree.leaves])
    assert np.array_equal(tree.source_hists.sum(axis=1), areas[tree.sources])
    assert tree.source_hists.min(initial=0) >= 0


def test_node_stats_match_direct_pixel_computation():
    rng = np.random.default_rng(22)
    for _ in range(10):
        img = random_image(rng)
        tree = build_quadtree(img, random_policy(rng))
        for (x0, y0, w, h), stats in zip(tree.rects.tolist(), node_stats(tree)):
            count, mean, variance, entropy_bits = stats
            sub = img.pixels[y0 : y0 + h, x0 : x0 + w].astype(np.float64)
            assert count == sub.size
            assert mean == pytest.approx(sub.mean(), rel=1e-12, abs=1e-12)
            assert variance == pytest.approx(
                np.mean((sub - sub.mean()) ** 2), rel=1e-9, abs=1e-9
            )
            counts = np.bincount(sub.astype(np.int64).ravel(), minlength=256)
            p = counts[counts > 0] / sub.size
            assert entropy_bits == pytest.approx(
                -(p * np.log2(p)).sum(), rel=1e-12, abs=1e-12
            )


def node_stats(tree):
    """The (count, mean, variance, entropy_bits) of every node, in level
    order, read off the arrays."""
    columns = (tree.count, tree.mean, tree.variance, tree.entropy_bits)
    return list(zip(*(c.tolist() for c in columns)))


def disk_image(w, h):
    """A bright disk on a dark background: only nodes on its edge split, so
    a var_threshold=0 tree reaches depth 8 and beyond with few nodes."""
    ys, xs = np.mgrid[0:h, 0:w]
    inside = (xs - 0.4 * w) ** 2 + (ys - 0.55 * h) ** 2 <= (0.3 * min(w, h)) ** 2
    return GrayImage(np.where(inside, 200, 40).astype(np.uint8))


@pytest.mark.parametrize(
    "w,h,policy",
    [
        (1023, 517, SplitPolicy()),
        (1023, 517, SplitPolicy(max_depth=8, min_side=40)),  # stops on min_side
        (1, 300, SplitPolicy(min_side=2, var_threshold=0.0)),
        (300, 1, SplitPolicy(min_side=2, var_threshold=0.0)),
        (1, 1, SplitPolicy(max_depth=0, min_side=2)),
        (3, 2, SplitPolicy(max_depth=12, min_side=2, var_threshold=0.0)),
        (4096, 33, SplitPolicy(max_depth=12, min_side=2, var_threshold=0.0)),
        (640, 480, SplitPolicy(max_depth=6, min_side=2, var_threshold=0.0)),
    ],
)
def test_node_histograms_equal_direct_counts(w, h, policy):
    img = GrayImage(np.random.default_rng(w * 7 + h).integers(0, 256, size=(h, w)))
    tree = build_quadtree(img, policy)
    assert tree.source_hists.dtype == np.int64
    assert_sources_equal_direct_counts(img, tree)


def assert_sources_equal_direct_counts(img, tree):
    """The tree keeps the histograms of exactly the nodes the recursive
    builder's threshold sources were, each equal to a direct count."""
    kept = {}
    for i, hist in zip(tree.sources.tolist(), tree.source_hists):
        x0, y0, w, h = tree.rects[i].tolist()
        sub = img.pixels[y0 : y0 + h, x0 : x0 + w]
        assert np.array_equal(hist, np.bincount(sub.ravel(), minlength=256))
        kept[Rect(x0, y0, w, h)] = hist
    expect = reference_sources(reference_build(img, tree.policy), tree.policy.var_threshold)
    assert kept.keys() == expect.keys()


@pytest.mark.parametrize("max_depth", [8, 12])
def test_node_histograms_below_the_tile_grid_equal_direct_counts(max_depth):
    img = disk_image(600, 520)
    tree = build_quadtree(img, SplitPolicy(max_depth=max_depth, min_side=2, var_threshold=0.0))
    assert tree.depth.max() == 8  # 520 rows: 3-row nodes at depth 8
    assert tree.depth[tree.sources].max() == 8
    assert_sources_equal_direct_counts(img, tree)


def test_build_leaves_no_reference_cycles():
    # a cycle would keep the image and the tile grid alive until the cyclic
    # collector runs, so memory would grow over repeated builds
    img = disk_image(600, 520)
    policy = SplitPolicy(max_depth=8, min_side=2, var_threshold=0.0)
    # numpy's lazy set-up on its first calls in a process leaves cyclic
    # garbage of its own; a warm-up build pays it before the count
    build_quadtree(img, policy)
    gc.collect()
    gc.disable()
    try:
        build_quadtree(img, policy)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("row", [0, 63])
def test_a_failing_tile_row_raises_in_the_caller(monkeypatch, row):
    """The 64 one-row tile rows are binned in two halves; row 0 is in the
    calling thread's half, row 63 in the helper thread's. Either way the
    very exception reaches the caller, and no thread prints a traceback."""
    img = GrayImage(np.random.default_rng(23).integers(0, 256, (64, 40), dtype=np.uint8))
    bin_rows, raised, hooked = stratify.bin_rows, [], []

    def failing(pixels, *args):
        if (pixels.ctypes.data - img.pixels.ctypes.data) // img.width == row:
            raised.append((MemoryError("tile row"), threading.current_thread()))
            raise raised[-1][0]
        return bin_rows(pixels, *args)

    monkeypatch.setattr(imgio, "_HELPER_PIXELS", 0)
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    monkeypatch.setattr(stratify, "bin_rows", failing)
    with pytest.raises(MemoryError) as info:
        build_quadtree(img, SplitPolicy(max_depth=6, min_side=2, var_threshold=0.0))
    (exc, thread), = raised
    assert info.value is exc and not hooked
    assert (thread is threading.main_thread()) == (row == 0)


def test_node_histogram_stays_out_of_report_and_equality():
    img = quadrant_image()
    a = build_quadtree(img, SplitPolicy(min_side=8))
    assert "hist" not in json.dumps(node_to_dict(a))
    assert "hist" not in repr(a.root)
    assert "hist" not in repr(a)
    b = build_quadtree(img, SplitPolicy(min_side=8))
    assert a.root == b.root


def test_relaxing_variance_threshold_gives_prefix_tree():
    """Raising var_threshold can only prune: the coarse tree's internal
    nodes must appear, identically split, in the fine tree."""
    rng = np.random.default_rng(23)
    for _ in range(10):
        img = random_image(rng)
        fine = build_quadtree(img, SplitPolicy(min_side=2, var_threshold=100.0))
        coarse = build_quadtree(img, SplitPolicy(min_side=2, var_threshold=900.0))

        # rects are distinct within a tree, so a rect names its node
        fine_child = dict(zip(map(tuple, fine.rects.tolist()), fine.first_child.tolist()))
        for rect, fc in zip(map(tuple, coarse.rects.tolist()), coarse.first_child.tolist()):
            assert rect in fine_child
            if fc >= 0:
                assert fine_child[rect] >= 0, "coarse split missing from fine tree"
                quads = fine.rects[fine_child[rect] : fine_child[rect] + 4]
                assert np.array_equal(coarse.rects[fc : fc + 4], quads)


def test_split_requires_variance_above_threshold():
    rng = np.random.default_rng(24)
    for _ in range(10):
        img = random_image(rng)
        policy = random_policy(rng)
        tree = build_quadtree(img, policy)
        split = tree.first_child >= 0
        assert np.all(tree.variance[split] > policy.var_threshold)
        assert np.all(tree.depth[split] < policy.max_depth)


def test_region_complexity_bounds_and_known_values():
    """A region's complexity, entropy / 8 as `threshold_tree` takes it, is 0
    for one level, 1 for all 256 levels and 1/8 for two equal levels."""
    two = np.zeros(256, dtype=np.int64)
    two[10] = two[200] = 50
    hists = np.stack([np.eye(256, dtype=np.int64)[40] * 10, np.ones(256, dtype=np.int64), two])
    complexity = _stats(hists)[3] / 8.0
    assert complexity[0] == 0.0
    assert complexity[1:] == pytest.approx([1.0, 1.0 / 8.0])


def test_build_is_deterministic():
    rng = np.random.default_rng(25)
    img = random_image(rng)
    policy = SplitPolicy(min_side=4, var_threshold=200.0)
    t1 = build_quadtree(img, policy)
    t2 = build_quadtree(img, policy)
    for name in ("rects", "depth", "first_child"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name))
    assert node_to_dict(t1) == node_to_dict(t2)


def test_policy_validation():
    with pytest.raises(ValueError):
        SplitPolicy(max_depth=-1)
    with pytest.raises(ValueError):
        SplitPolicy(min_side=1)
    with pytest.raises(ValueError):
        SplitPolicy(var_threshold=-1.0)
    for field in ("max_depth", "min_side"):
        for value in (2.5, True, "3", float("inf")):
            with pytest.raises(InvalidArgument, match=f"{field} must be a whole number"):
                SplitPolicy(**{field: value})
    for value in ("1", True, None, 10**400):
        with pytest.raises(InvalidArgument, match="var_threshold must be a number"):
            SplitPolicy(var_threshold=value)
    assert type(SplitPolicy(var_threshold=400).var_threshold) is int
    policy = SplitPolicy(max_depth=8.0, min_side=np.int64(4))
    assert (policy.max_depth, policy.min_side) == (8, 4)
    assert type(policy.max_depth) is int and type(policy.min_side) is int


def _hex_stats(stats):
    count, mean, variance, entropy_bits = stats
    return (count, mean.hex(), variance.hex(), entropy_bits.hex())


@st.composite
def reference_cases(draw):
    """An image and a policy. The image is noise or blocky noise up to 64
    on a side, a disk up to 600 whose edge nodes split below the tile grid,
    or a single row or column up to 300; the policy has max_depth up to 12
    and min_side from 2, and var_threshold is 0 in half the cases."""
    kind = draw(st.sampled_from(["noise", "blocky", "disk", "line"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = {"noise": 64, "blocky": 64, "disk": 600, "line": 300}[kind]
    w, h = (int(v) for v in rng.integers(1, side + 1, size=2))
    if kind == "disk":
        img = disk_image(w, h)
    elif kind == "blocky":
        small = rng.integers(0, 256, size=(h // 9 + 1, w // 9 + 1), dtype=np.uint8)
        img = GrayImage(np.kron(small, np.ones((9, 9), dtype=np.uint8))[:h, :w])
    else:
        if kind == "line":
            w, h = (w, 1) if rng.integers(2) else (1, h)
        img = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
    policy = SplitPolicy(
        max_depth=int(rng.integers(0, 13)),
        min_side=int(rng.choice([2, 2, 3, 4, 8, 12])),
        var_threshold=float(rng.choice([0.0, rng.uniform(0, 5000)])),
    )
    return img, policy


# each case comes from one drawn seed, so shrinking would only spend minutes
@settings(max_examples=150, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(case=reference_cases())
def test_flat_tree_equals_recursive_reference(case):
    """The level-order build gives the recursive builder's tree: the same
    report JSON byte for byte, the same bits in every stats float, the same
    threshold sources with the same histograms, the same leaf plan, and a
    `root` view with the same nodes."""
    img, policy = case
    tree = build_quadtree(img, policy)
    ref = reference_build(img, policy)
    assert json.dumps(node_to_dict(tree)) == json.dumps(reference_to_dict(ref))

    level_order = [ref]
    for node in level_order:  # the loop reads what it appends
        level_order.extend(node.children)
    assert [_hex_stats(s) for s in node_stats(tree)] == [_hex_stats(n.stats) for n in level_order]
    assert_sources_equal_direct_counts(img, tree)

    # the RegionNode view, which the benchmark's traced run walks
    pairs = [(tree.root, ref)]
    for node, expect in pairs:  # the loop reads what it appends
        assert (node.rect, node.depth) == (expect.rect, expect.depth)
        assert _hex_stats(astuple(node.stats)) == _hex_stats(expect.stats)
        assert len(node.children) == len(expect.children)
        pairs.extend(zip(node.children, expect.children))

    # the plan: leaf rects depth first, and each leaf's source rect is its
    # own for a heterogeneous or root leaf, otherwise its parent's
    def planned(node, parent):
        if not node.children:
            own = node.variance > policy.var_threshold or parent is None
            yield node.rect, node.rect if own else parent.rect
        for child in node.children:
            yield from planned(child, node)

    rects = [Rect(*r) for r in tree.rects.tolist()]
    expect = list(planned(ref, None))
    assert [rects[i] for i in tree.leaves.tolist()] == [leaf for leaf, _ in expect]
    sources = tree.sources[tree.leaf_source].tolist()
    assert [rects[s] for s in sources] == [source for _, source in expect]


@pytest.mark.parametrize("rows", [1, 5])
def test_batched_stats_match_one_row_reductions(rows):
    """Row reductions over a block give the bits of the 1-D reductions at
    every pairwise-summation edge of the occupied-level count."""
    rng = np.random.default_rng(26 + rows)
    occupied = [1, 7, 8, 9, 16, 17, 127, 128, 129, 255, 256]
    hists = np.zeros((len(occupied) * rows, 256), dtype=np.int64)
    for i, m in enumerate(np.repeat(occupied, rows)):
        top = [2, 100, 10**9][i % 3]
        hists[i, rng.choice(256, m, replace=False)] = rng.integers(1, top, m)
    hists = hists[rng.permutation(len(hists))]
    got = np.array(_stats(hists)).T
    for hist, (n, mean, variance, entropy) in zip(hists, got):
        expect = reference_stats(hist)
        assert _hex_stats(expect) == (int(n), mean.hex(), variance.hex(), entropy.hex())
        one = [v.item() for v in _stats(hist)]
        assert (int(one[0]), *(v.hex() for v in one[1:])) == _hex_stats(expect)


def test_leaf_order_is_depth_first():
    img = disk_image(61, 47)
    tree = build_quadtree(img, SplitPolicy(max_depth=5, min_side=2, var_threshold=0.0))
    ref = reference_build(img, tree.policy)

    def leaf_rects(node):
        if not node.children:
            return [node.rect]
        return [r for child in node.children for r in leaf_rects(child)]

    assert [Rect(*tree.rects[i].tolist()) for i in tree.leaves] == leaf_rects(ref)
