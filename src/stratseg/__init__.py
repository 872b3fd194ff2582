"""Quadtree-stratified adaptive threshold segmentation and kernel GDA."""

from .imgio import GrayImage, Rect, load_pgm, save_pgm
from .kgda import (
    GdaModel,
    KernelSpec,
    LabeledDataset,
    ScatterMatrices,
    classify_nearest_mean,
    compute_kernel_matrix,
    load_dataset_csv,
    load_model,
    project,
    save_dataset_csv,
    save_model,
    scatter_matrices,
    train_gda,
)
from .phantom import PhantomSpec, SegMetrics, ShapeSpec, generate_phantom, seg_metrics
from .stratify import QuadTree, RegionNode, SplitPolicy, build_quadtree
from .threshopt import (
    LeafThreshold,
    ObjectiveWeights,
    SimplexParams,
    ThresholdReport,
    objective,
    optimize_leaf,
    oracle_best_threshold,
    segment,
    segment_image,
    threshold_tree,
)

__version__ = "0.1.0"
