"""Patch-based vs. full-image segmentation pipeline toolkit for volumetric
OCT scans: MetaImage I/O, preprocessing, overlapping-patch extraction and
stitching at 2D/2.5D/3D, pluggable segmentation backends, Dice evaluation
with cross-validation planning, and synthetic phantoms for verification."""

from .backends import (
    Backend,
    TrainingConfig,
    external_backend,
    oracle_backend,
    threshold_backend,
    weighted_cross_entropy,
)
from .errors import ConfigError, CoverageError, FormatError, StageError, ValidationError
from .patch_engine import (
    DepthMode,
    PatchBatch,
    PatchGrid,
    close_all,
    close_mask,
    extract,
    labelize,
    plan_grid,
    stitch,
)
from .preprocess import PreprocessConfig, denoise, filter_slices, normalize, resize_volume
from .volume_io import (
    FluidClass,
    LabelVolume,
    OctVolume,
    ProbVolume,
    Vendor,
    read_labels,
    read_prob,
    read_volume,
    vendor_of,
    write_volume,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "ConfigError",
    "CoverageError",
    "DepthMode",
    "FluidClass",
    "FormatError",
    "LabelVolume",
    "OctVolume",
    "PatchBatch",
    "PatchGrid",
    "PreprocessConfig",
    "ProbVolume",
    "StageError",
    "TrainingConfig",
    "ValidationError",
    "Vendor",
    "close_all",
    "close_mask",
    "denoise",
    "external_backend",
    "extract",
    "filter_slices",
    "labelize",
    "normalize",
    "oracle_backend",
    "plan_grid",
    "read_labels",
    "read_prob",
    "read_volume",
    "resize_volume",
    "stitch",
    "threshold_backend",
    "vendor_of",
    "weighted_cross_entropy",
    "write_volume",
]
