"""Overlap metrics between predicted and true label volumes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..volume_io import FLUIDS, FluidClass, LabelVolume

# voxel pairs per chunk in confusion, so its masks stay cache-sized
CHUNK = 1 << 16


@dataclass(frozen=True)
class ConfusionCounts:
    """Voxel tallies for one class against a reference labeling."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )


def _voxels(arr) -> np.ndarray:
    return arr.voxels if isinstance(arr, LabelVolume) else np.asarray(arr)


def confusion(pred, truth, cls: FluidClass) -> ConfusionCounts:
    """Count tp/fp/fn/tn of ``cls`` between two label arrays of matching
    shape, at most ``CHUNK`` voxel pairs at a time, whatever their layouts."""
    p = _voxels(pred)
    t = _voxels(truth)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: prediction {p.shape} vs truth {t.shape}")
    tp = n_pred = n_true = 0
    chunks = np.nditer([p, t], flags=["external_loop", "buffered", "zerosize_ok"], buffersize=CHUNK)
    for p_chunk, t_chunk in chunks:
        pm = p_chunk == int(cls)
        tm = t_chunk == int(cls)
        n_pred += int(np.count_nonzero(pm))
        n_true += int(np.count_nonzero(tm))
        tp += int(np.count_nonzero(np.logical_and(pm, tm, out=pm)))
    fp = n_pred - tp
    fn = n_true - tp
    tn = p.size - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def dice(counts: ConfusionCounts) -> float:
    """Dice overlap 2*TP / (2*TP + FP + FN); 1.0 when the class is absent from
    both prediction and truth (correct all-negative agreement)."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 1.0
    return 2.0 * counts.tp / denom


def dice_volume(pred, truth) -> dict[FluidClass, float]:
    """Per-fluid Dice scores (background excluded)."""
    return {cls: dice(confusion(pred, truth, cls)) for cls in FLUIDS}
