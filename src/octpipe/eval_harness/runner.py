"""Experiment orchestration: fold iteration, per-volume prediction, scoring.

A run walks one fold's test volumes: read and preprocess to the working
resolution (``preprocess_pair``, after which no native volume is alive;
the ``preprocess`` and ``patchify`` commands load through it too),
predict (whole image for variant F, overlapping patches for variant P),
stitch, arg-max, close, score against the preprocessed truth.  The working
image and the backend are freed once predict returns, the probabilities
once arg-maxed, before closing.
Prediction streams: ``jobs`` worker threads each take one grid-row run of
one slice (one patch in 3D), with a bounded number in flight, cut it as one
batch, a read-only view of the volume, and predict it; ``stitch`` sums each
prediction into the output volume on the calling thread as it arrives, in
canonical anchor order (only the sum that completes a 3D grid is split by
class over up to ``jobs`` threads), so results never depend on the worker
count.  Each volume is scored with one confusion count per fluid.
"""

from __future__ import annotations

import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..backends import (
    Backend,
    external_backend,
    oracle_backend,
    parse_backend_descriptor,
    threshold_backend,
)
from ..errors import StageError, ValidationError
from ..patch_engine import (
    DepthMode,
    PatchGrid,
    close_all,
    extract,
    grid_runs,
    labelize,
    stitch,
)
from ..preprocess import PreprocessConfig, preprocess_volume, resize_volume
from ..volume_io import FLUIDS, LabelVolume, OctVolume, ProbVolume, check_volume_id, read_labels
from ..volume_io import read_volume
from .folds import make_folds
from .metrics import ConfusionCounts, confusion, dice, dice_volume
from .report import ReportEntry

if TYPE_CHECKING:
    from ..config import RunConfig


def load_inventory(data_root: str | Path) -> dict[str, list[str]]:
    """Read ``inventory.json``: a mapping of vendor name to volume id list."""
    path = Path(data_root) / "inventory.json"
    if not path.exists():
        raise FileNotFoundError(f"no inventory.json under {data_root}")
    try:
        raw = json.loads(path.read_text())
    except ValueError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not all(
        isinstance(k, str) and isinstance(v, list) for k, v in raw.items()
    ):
        raise ValidationError(f"{path} must map vendor names to volume id lists")
    return {vendor: [check_volume_id(v, str(path)) for v in ids] for vendor, ids in raw.items()}


def image_path(data_root: str | Path, volume_id: str) -> Path:
    return Path(data_root) / "images" / f"{volume_id}.mhd"


def label_path(data_root: str | Path, volume_id: str) -> Path:
    return Path(data_root) / "labels" / f"{volume_id}.mhd"


def _stage(stage: str, volume_id: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, volume_id, exc) from exc


def preprocess_pair(
    load_image: Callable[[], OctVolume], load_labels: Callable[[], LabelVolume] | None,
    cfg: PreprocessConfig, target: tuple[int, int],
) -> tuple[OctVolume, LabelVolume | None]:
    """Read an image, then its labels (None without ``load_labels``), and
    bring both to the working size.  Labels of another size than the image,
    or of another spacing when both headers give one, raise ValidationError
    naming both.  No native volume outlives its preprocessing: the native
    labels are freed once resized, before the image is preprocessed, and the
    image on return."""
    vol, labels = load_image(), None
    if load_labels is not None:
        labels = load_labels()
        if labels.dims != vol.dims:
            raise ValidationError(
                f"labels of '{vol.volume_id}' are {labels.dims} (w, h, d), its image is {vol.dims}"
            )
        if None not in (labels.spacing, vol.spacing) and labels.spacing != vol.spacing:
            raise ValidationError(
                f"labels of '{vol.volume_id}' have spacing {labels.spacing} (x, y, z), "
                f"its image has {vol.spacing}"
            )
        labels = resize_volume(labels, target)
    return preprocess_volume(vol, cfg, target), labels


def _predictions(
    vol: OctVolume, grid: PatchGrid, backend: Backend, jobs: int
) -> Iterator[tuple[tuple[int, int, int], np.ndarray]]:
    """Yield (anchor, prediction) pairs in canonical order.

    Each run of :func:`grid_runs` at each slice, or in 3d each full-depth
    patch on its own, is one task for ``jobs`` threads, which run while the
    caller consumes earlier tasks.  A task extracts its run as a read-only
    view of the volume and runs ``backend.predict`` on that one batch, so no
    patch is copied and the caller's thread only stitches.  At most
    ``jobs + 1`` tasks are in flight, so memory does not grow with the
    depth, the anchor count or the anchors per slice.
    """
    mode = grid.depth_mode
    if mode is DepthMode.D3:
        tasks = [(0, slice(i, i + 1)) for i in range(len(grid.anchors))]
    else:
        runs = grid_runs(grid)
        tasks = [(z, run) for z in range(vol.dims[2]) for run in runs]

    def predict(z: int, which: slice) -> zip:
        batch = extract(vol, grid, z, which)
        return zip(map(tuple, batch.anchors.tolist()), backend.predict(batch, mode, vol.volume_id))

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        in_flight: deque = deque()
        for task in tasks:
            in_flight.append(pool.submit(predict, *task))
            if len(in_flight) > jobs:
                yield from in_flight.popleft().result()
        while in_flight:
            yield from in_flight.popleft().result()


def predict_volume(vol: OctVolume, backend: Backend, cfg: RunConfig) -> ProbVolume:
    """Predict a whole volume through the patch pipeline and stitch.

    Each plane is tiled with ``cfg.grid``: overlapping patches for variant P,
    one image-sized patch for variant F.  ``stitch`` drives the
    prediction stream directly, summing each batch into the output volume as
    it arrives, so no list of a volume's predictions is ever built; at most
    ``cfg.resolved_jobs + 1`` tasks (grid-row runs of one slice, or single
    patches in 3d) are in flight on ``cfg.resolved_jobs`` threads that
    extract and predict, which also share the sum that completes a 3d grid.
    In 2d and 2.5d a backend gets one batch per run of a grid row, a
    read-only view of the volume.  The result is bit-identical for every
    ``cfg.jobs``.
    """
    grid = cfg.grid(vol.dims[:2])
    with closing(_predictions(vol, grid, backend, cfg.resolved_jobs)) as pairs:
        return stitch(pairs, grid, vol.dims[2], volume_id=vol.volume_id, jobs=cfg.resolved_jobs)


def _backend_for(descriptor: str, volume_id: str, truth: LabelVolume) -> Backend:
    """The backend ``descriptor`` names, built for ``volume_id``; only the
    oracle reads the truth, only the external backend reads a file."""
    kind, arg = parse_backend_descriptor(descriptor)
    if kind == "threshold":
        return threshold_backend()
    if kind == "external":
        return external_backend(arg, volume_id, truth.dims)
    return oracle_backend(truth)


def evaluate_volume(volume_id: str, cfg: RunConfig) -> tuple[dict, dict]:
    """Score one volume with the backend ``cfg.backend`` names: predict ->
    stitch -> arg-max -> per-fluid closing -> score; returns (per-fluid
    dice, per-fluid confusion counts)."""
    vol, truth = _stage(
        "preprocess", volume_id, preprocess_pair,
        partial(_stage, "read_volume", volume_id, read_volume, image_path(cfg.data_root, volume_id)),
        partial(_stage, "read_labels", volume_id, read_labels, label_path(cfg.data_root, volume_id)),
        cfg.preprocess, cfg.working_size,
    )
    # no name holds the backend, so an external one's volume is freed once predict returns
    prob = _stage(
        "predict", volume_id, predict_volume,
        vol, _stage("predict", volume_id, _backend_for, cfg.backend, volume_id, truth), cfg,
    )
    del vol
    pred = _stage("labelize", volume_id, labelize, prob)
    del prob
    if cfg.close_radius > 0:
        pred = _stage("close", volume_id, close_all, pred, cfg.close_radius)
    counts = _stage("score", volume_id, lambda: {cls: confusion(pred, truth, cls) for cls in FLUIDS})
    return {cls: dice(c) for cls, c in counts.items()}, counts


def run_experiment(cfg: RunConfig, fold: int) -> list[ReportEntry]:
    """Evaluate one fold's test volumes; one report row per (vendor, fluid).

    The folds are planned from ``inventory.json`` under ``cfg.data_root``
    with ``cfg.folds_k`` and ``cfg.seed``.  Per-vendor scores aggregate
    across the fold's test volumes by macro average (mean of per-volume
    Dice) or micro pooling (Dice of summed confusion counts) per
    ``cfg.aggregate``.  The model column is ``cfg.backend``, the backend
    every volume ran.
    """
    plan = make_folds(load_inventory(cfg.data_root), cfg.folds_k, cfg.seed)
    if not 0 <= fold < plan.k:
        raise ValidationError(f"fold {fold} outside plan with k={plan.k}")

    entries: list[ReportEntry] = []
    fold_sets = plan.test_sets[fold]
    for vendor in sorted(fold_sets):
        ids = sorted(fold_sets[vendor])
        per_volume: list[dict] = []
        pooled: dict = {cls: ConfusionCounts(0, 0, 0, 0) for cls in FLUIDS}
        for volume_id in ids:
            scores, counts = evaluate_volume(volume_id, cfg)
            per_volume.append(scores)
            for cls in FLUIDS:
                pooled[cls] = pooled[cls] + counts[cls]
        for cls in FLUIDS:
            if cfg.aggregate == "macro":
                value = float(np.mean([scores[cls] for scores in per_volume]))
            else:
                value = dice(pooled[cls])
            entries.append(
                ReportEntry(
                    dimension=cfg.depth_mode.label,
                    model=cfg.backend,
                    variant=cfg.variant,
                    vendor=vendor,
                    fluid=cls.name,
                    dice=value,
                    fold=fold,
                    n_volumes=len(ids),
                )
            )
    return entries
