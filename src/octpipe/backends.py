"""Pluggable batch predictors plus the training loss.

A backend maps a :class:`PatchBatch` of N patches to one array of N
per-class probability maps: (N, 4, h, w) for single-slice modes,
(N, 4, planes, h, w) for full-depth patches.  ``batch.data`` may be a
read-only view of the volume: a backend reads it and never writes into it.
Three kinds are
built in: intensity thresholding, a truth-reading oracle, and a directory of
precomputed probability volumes produced by an outside model.  Network
architectures themselves are out of scope; they appear only as descriptor
strings on externally produced predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ValidationError, check_fields
from .patch_engine import DepthMode, PatchBatch, windows
from .volume_io import N_CLASSES, LabelVolume, prob_path, read_prob

PredictFn = Callable[[PatchBatch, DepthMode, str], np.ndarray]

BACKEND_KINDS = ("threshold", "oracle", "external")

BANDS = (0.25, 0.5, 0.75)  # the threshold backend's intensity cut points

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class Backend:
    """A predictor. ``predict(batch, mode, volume_id)`` returns the batch's N
    class-first probability maps as one array, in batch order.  It must not
    write into ``batch.data``, which may be a read-only view of the volume."""

    predict: PredictFn


@dataclass(frozen=True)
class TrainingConfig:
    """Optimizer metadata carried into reports (no trainer lives here); checks name file keys."""

    optimizer: str = "adam"
    decay: float = 0.95
    lr_start: float = 1e-3
    lr_end: float = 1e-4
    epochs: int = field(default=100, metadata={"low": 1})
    shuffle_each_epoch: bool = True
    loss: str = "weighted-cross-entropy"

    def __post_init__(self):
        if not self.lr_start >= self.lr_end > 0:
            raise ValidationError(
                f"need training.lr_start >= training.lr_end > 0, got {self.lr_start} and {self.lr_end}"
            )
        check_fields(self, "training.")

    def summary(self) -> str:
        shuffled = "shuffled" if self.shuffle_each_epoch else "unshuffled"
        return (
            f"{self.optimizer}, decay {self.decay}, lr {self.lr_start:g} to {self.lr_end:g}, "
            f"{self.epochs} epochs ({shuffled}), loss {self.loss}"
        )


def parse_backend_descriptor(text: str) -> tuple[str, str]:
    """Split ``"external:/some/dir"`` style descriptors into (kind, argument)."""
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    if kind not in BACKEND_KINDS:
        raise ValidationError(f"unknown backend {text!r}, expected one of {BACKEND_KINDS}")
    if kind == "external" and not arg:
        raise ValidationError("external backend needs a directory, e.g. external:/path/to/probs")
    if kind != "external" and arg:
        raise ValidationError(f"backend {kind!r} takes no argument, got {text!r}")
    return kind, arg


def one_hot(labels: np.ndarray, axis: int = 0) -> np.ndarray:
    """One-hot encoding of a label array, float32, with the class axis
    inserted at ``axis`` (class-first by default)."""
    labels = np.asarray(labels)
    out = np.zeros(labels.shape[:axis] + (N_CLASSES,) + labels.shape[axis:], dtype=np.float32)
    for cls, plane in enumerate(np.moveaxis(out, axis, 0)):
        np.equal(labels, cls, out=plane)
    return out


def threshold_backend() -> Backend:
    """Classify each voxel of the patch itself by intensity band of ``BANDS``
    = (b1, b2, b3): <=b1 -> 0, <=b2 -> 1, <=b3 -> 2, else 3 (NaN and +inf
    included).  Single-slice modes classify the centre plane of each patch."""

    def predict(batch: PatchBatch, mode: DepthMode, volume_id: str) -> np.ndarray:
        data = batch.data if mode is DepthMode.D3 else batch.data[:, batch.data.shape[1] // 2]
        out = np.empty((len(data), N_CLASSES, *data.shape[1:]), dtype=np.float32)
        for cls, cut in enumerate(BANDS):  # 1.0 where x <= cut, never for NaN
            np.less_equal(data, cut, out=out[:, cls])
        # x <= b1 implies x <= b2 implies x <= b3, so each difference is 0.0 or 1.0;
        # taken top down, each plane still holds its comparison when it is read
        np.subtract(1.0, out[:, 2], out=out[:, 3])
        out[:, 2] -= out[:, 1]
        out[:, 1] -= out[:, 0]
        return out

    return Backend(predict)


def oracle_backend(truth: LabelVolume) -> Backend:
    """Emit the true labels, one-hot, for the requested windows."""

    def predict(batch: PatchBatch, mode: DepthMode, volume_id: str) -> np.ndarray:
        at_z = mode is not DepthMode.D3
        return one_hot(windows(truth.voxels, batch.anchors, batch.data.shape[-2:], at_z), axis=1)

    return Backend(predict)


def external_backend(prob_dir: str | Path, volume_id: str, dims: tuple[int, int, int]) -> Backend:
    """Crop windows out of ``volume_id``'s precomputed ``<volume_id>_prob.mhd``
    in ``prob_dir``, read and validated here, once; its (w, h, d) must be
    ``dims``, the working size of the image it predicts.  The backend serves
    that one volume; asking it for another raises ValidationError.  The
    volume is read-only, so its windows are copied, never taken over, by
    ``stitch``."""
    path = prob_path(prob_dir, volume_id)
    if not path.exists():
        raise FileNotFoundError(f"no probability volume for '{volume_id}' at {path}")
    prob = read_prob(path)
    if prob.dims != dims:
        raise ValidationError(
            f"probability volume for '{volume_id}' is {prob.dims} (w, h, d), "
            f"not the working size {dims}"
        )
    prob.validate()
    prob.probs.flags.writeable = False

    def predict(batch: PatchBatch, mode: DepthMode, asked: str) -> np.ndarray:
        if asked != volume_id:
            raise ValidationError(f"backend for volume '{volume_id}' asked for '{asked}'")
        return windows(prob.probs, batch.anchors, batch.data.shape[-2:], mode is not DepthMode.D3)

    return Backend(predict)


def weighted_cross_entropy(
    probs: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Mean of ``-w[true] * log(p[true])`` over all voxels.

    ``probs`` is class-first (4, ...), ``labels`` matches the trailing shape.
    Probabilities are clamped to [1e-7, 1] before the log.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    if probs.shape[0] != N_CLASSES or probs.shape[1:] != labels.shape:
        raise ValidationError(
            f"probs shape {probs.shape} does not match labels shape {labels.shape}"
        )
    if weights.shape != (N_CLASSES,):
        raise ValidationError(f"need one weight per class, got shape {weights.shape}")
    flat_labels = labels.reshape(-1).astype(np.int64)
    flat_probs = probs.reshape(N_CLASSES, -1)
    p_true = flat_probs[flat_labels, np.arange(flat_labels.size)]
    p_true = np.clip(p_true, PROB_CLAMP, 1.0)
    return float(np.mean(-weights[flat_labels] * np.log(p_true)))
