"""Overlapping-patch grids, 2D/2.5D/3D extraction, streaming stitch, closing.

Patch anchors are (x, y) top-left corners in image coordinates.  Patches travel
as one :class:`PatchBatch`: (N, 3) anchors and (N, planes, h, w) data, cut by
the single window rule in :func:`windows`.  The anchors of one run (one grid
row's stride-spaced part, or its edge-aligned anchor, per :func:`grid_runs`)
are cut as one read-only view of the volume, so extraction copies no
patch.  Per-patch predictions are class-first, and the grid's depth mode
fixes their shape: a 2-D map (4, h, w) at each slice in 2d and 2.5d, one 3-D
block (4, depth, h, w) anchored at z = 0 in 3d.  Stitching streams: it takes
predictions from any iterable, in any order, and sums each into the output
volume, on the calling thread, as soon as every anchor before it in
canonical row-major order has been summed (until then it waits in one
per-slice map), so each voxel receives its predictions in canonical order
whatever the input order or upstream schedule.  Only a 3d grid holds a
prediction that is a window of a larger array (a backend's volume) until
its last anchor arrives, and splits the run that completes it by class over
up to ``jobs`` threads writing disjoint voxels.  A slice range whose
predictions are all in is divided in place by the grid's coverage plane.  A
3d grid of one image-sized patch (variant F) has one prediction, the whole
volume, and stitch takes it over as the result instead of summing it into a
second volume.
Per-voxel passes over a whole volume (the finiteness check, arg-max, closing)
run one slice at a time, so none allocates a temporary the size of the volume.
"""

from __future__ import annotations

import enum
import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import CoverageError, FormatError, ValidationError
from .volume_io import FLUIDS, N_CLASSES, FluidClass, LabelVolume, OctVolume, ProbVolume
from .volume_io import first_voxel, read_payload, write_files

SLAB_RADIUS = 1  # a 2.5d patch carries its B-scan and this many neighbours on each side


class DepthMode(enum.Enum):
    """How much depth context a patch carries: one plane, a slab of
    ``2 * SLAB_RADIUS + 1`` planes, or all planes.  Each value is the mode's
    one spelling in configs, file names and spills."""

    D2 = "2d"
    D25 = "2.5d"
    D3 = "3d"

    @property
    def label(self) -> str:
        return self.value.upper()


@dataclass(frozen=True)
class PatchGrid:
    """Planned anchor lattice for one image plane size."""

    patch_w: int
    patch_h: int
    overlap: float
    stride_x: int
    stride_y: int
    anchors: tuple[tuple[int, int], ...]
    image_dims: tuple[int, int]
    depth_mode: DepthMode = DepthMode.D2

    # kept: planning each run afresh costs microseconds, yet made patch-2.5d evaluates ~15% slower
    @functools.cached_property
    def _cuts(self) -> dict:
        """:func:`extract`'s anchors and run for each ``which``, planned on first use."""
        return {}


def _axis_anchors(length: int, patch: int, stride: int) -> list[int]:
    last = length - patch
    anchors = list(range(0, last + 1, stride))
    if anchors[-1] != last:
        anchors.append(last)
    return anchors


def plan_grid(
    image_dims: tuple[int, int],
    patch: tuple[int, int] | int,
    overlap: float,
    depth_mode: DepthMode = DepthMode.D2,
) -> PatchGrid:
    """Plan a full-coverage anchor lattice.

    The stride is ``round(patch * (1 - overlap))`` per axis.  Anchors sit at
    stride multiples; when the lattice does not already touch the far edge an
    extra edge-aligned anchor (``image - patch``) is appended, so every pixel
    is covered by at least one patch.
    """
    if isinstance(patch, int):
        patch = (patch, patch)
    width, height = (int(v) for v in image_dims)
    patch_w, patch_h = (int(v) for v in patch)
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must lie in [0, 1), got {overlap}")
    if patch_w > width or patch_h > height:
        raise ValueError(
            f"patch {patch_w}x{patch_h} does not fit image {width}x{height}"
        )
    if patch_w < 1 or patch_h < 1:
        raise ValueError(f"patch dimensions must be positive, got {patch}")
    if not isinstance(depth_mode, DepthMode):  # text such as "3d" would otherwise run as 2d
        raise TypeError(f"depth_mode must be a DepthMode, got {depth_mode!r}")
    stride_x = max(1, int(round(patch_w * (1.0 - overlap))))
    stride_y = max(1, int(round(patch_h * (1.0 - overlap))))
    xs = _axis_anchors(width, patch_w, stride_x)
    ys = _axis_anchors(height, patch_h, stride_y)
    anchors = tuple((x, y) for y in ys for x in xs)
    return PatchGrid(
        patch_w=patch_w,
        patch_h=patch_h,
        overlap=float(overlap),
        stride_x=stride_x,
        stride_y=stride_y,
        anchors=anchors,
        image_dims=(width, height),
        depth_mode=depth_mode,
    )


@dataclass(frozen=True)
class PatchBatch:
    """N extracted windows: ``anchors`` (N, 3) as (x, y, z) and ``data``
    (N, planes, h, w), each window indexed [plane, y, x]."""

    anchors: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        if self.anchors.shape != (len(self.data), 3) or self.data.ndim != 4:
            raise ValueError(
                f"need anchors (N, 3) and data (N, planes, h, w), "
                f"got {self.anchors.shape} and {self.data.shape}"
            )

    def __len__(self) -> int:
        return len(self.anchors)


def windows(array: np.ndarray, anchors, size: tuple[int, int], at_z: bool = False) -> np.ndarray:
    """Cut the (h, w) = ``size`` window ``[y:y+h, x:x+w]`` at each (x, y, z)
    row of ``anchors`` out of ``array``, whose last two axes are (y, x).

    With ``at_z`` the axis before them is indexed by each anchor's z and
    dropped; otherwise z is ignored and every leading axis is kept.  Returns
    (N, *leading, h, w).  Anchors that form one run (one y, one z with
    ``at_z``, and x strictly increasing by one constant step; a single
    window is a run) give a read-only view of ``array`` (see
    :func:`_run_view`); any other set gives the windows stacked into one
    copy.  Raises IndexError naming the first window that leaves ``array``.
    """
    anchors = np.asarray(anchors)
    h, w = size
    x, y, z = anchors.T
    bad = (x < 0) | (y < 0) | (x + w > array.shape[-1]) | (y + h > array.shape[-2])
    if at_z:
        bad |= (z < 0) | (z >= array.shape[-3])
    if bad.any():
        raise IndexError(
            f"{w}x{h} window at {tuple(anchors[np.argmax(bad)].tolist())} "
            f"falls outside array of shape {array.shape}"
        )
    run = _run(anchors, at_z)
    if run is not None:
        return _run_view(array[..., z[0], :, :] if at_z else array, run, size)
    cut = [
        (array[..., z, :, :] if at_z else array)[..., y : y + h, x : x + w]
        for x, y, z in anchors.tolist()
    ]
    return np.stack(cut)


def _run(anchors: np.ndarray, at_z: bool) -> tuple[int, int, int, int] | None:
    """(x, y, step, n) of the run the (n, 3) ``anchors`` form, or None."""
    x, y, z = anchors.T
    step = int(x[1] - x[0]) if len(x) > 1 else 1
    run = len(x) and step > 0 and (np.diff(x) == step).all() and (y == y[0]).all()
    if run and (not at_z or (z == z[0]).all()):
        return int(x[0]), int(y[0]), step, len(x)
    return None


def _run_view(plane: np.ndarray, run: tuple[int, int, int, int], size: tuple[int, int]) -> np.ndarray:
    """The (h, w) = ``size`` windows of ``run`` = (x, y, step, n), already
    bounds-checked, in ``plane`` as one read-only (n, *leading, h, w) view: a
    basic slice, whose base is ``plane``'s, for one window, else strided."""
    x, y, step, n = run
    corner = plane[..., y : y + size[0], x : x + size[1]]
    strides = (step * corner.strides[-1], *corner.strides)
    view = corner[None] if n == 1 else as_strided(corner, (n, *corner.shape), strides)
    view.flags.writeable = False
    return view


def grid_runs(grid: PatchGrid) -> list[slice]:
    """Split ``grid.anchors`` into runs, as slices of it: a run starts at
    every anchor that is not the one before it moved ``stride_x`` along x.
    So each grid row is its lattice part, plus the edge-aligned anchor, if
    :func:`plan_grid` appended one, as a run of its own, and :func:`windows`
    cuts every run as a view."""
    anchors = grid.anchors
    starts = [i for i, (x, y) in enumerate(anchors) if not i or anchors[i - 1] != (x - grid.stride_x, y)]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [len(anchors)])]


def extract(vol: OctVolume, grid: PatchGrid, z: int = 0, which: slice = slice(None)) -> PatchBatch:
    """Extract the patches at ``grid.anchors[which]`` (all by default) at
    slice ``z`` (ignored for 3d grids) as one batch.

    2d patches carry the single plane ``z``; 2.5d patches carry the slab
    ``z-SLAB_RADIUS .. z+SLAB_RADIUS`` with edge replication, so the centre plane always
    equals the 2d patch at the same anchor; 3d patches span every plane.
    The data is cut as :func:`windows` cuts it, so the patches of one run
    (such as one of :func:`grid_runs`) are a read-only view of
    ``vol.voxels``, or, for a 2.5d slab that crosses the volume's edge, of
    an edge-replicated copy of only the rows the run spans.  What depends
    only on the grid and ``which`` (the anchor array, the bounds check, the
    rows spanned, whether the anchors form a run) is worked out once per
    grid and ``which``, on its first call.
    """
    voxels = vol.voxels
    depth, height, width = voxels.shape
    if (width, height) != grid.image_dims:
        raise ValueError(
            f"grid was planned for image {grid.image_dims}, volume planes are {(width, height)}"
        )
    mode = grid.depth_mode
    if mode is not DepthMode.D3 and not 0 <= z < depth:
        raise IndexError(f"slice index {z} outside volume depth {depth}")
    key = which.indices(len(grid.anchors))
    if key not in grid._cuts:  # a run whose windows all lie inside the image skips windows' checks
        xy = np.array(grid.anchors[which], dtype=np.intp).reshape(-1, 2)
        inside = len(xy) and xy.min() >= 0 and (xy + (grid.patch_w, grid.patch_h) <= grid.image_dims).all()
        anchors = np.column_stack([xy, np.zeros(len(xy), dtype=np.intp)])
        # only the rows the windows span are cut, and (x, y - top) is each window's corner in them
        top, bottom = (int(xy[:, 1].min()), int(xy[:, 1].max()) + grid.patch_h) if inside else (0, height)
        grid._cuts[key] = anchors, slice(top, bottom), _run(anchors - (0, top, 0), False) if inside else None
    planned, rows, run = grid._cuts[key]
    if mode is DepthMode.D3:
        stack, z = voxels[:, rows], 0
    else:
        radius = SLAB_RADIUS if mode is DepthMode.D25 else 0
        if radius <= z < depth - radius:
            stack = voxels[z - radius : z + radius + 1, rows]
        else:  # edge replication: plane indices are clipped at the volume boundary
            stack = voxels[np.clip(np.arange(z - radius, z + radius + 1), 0, depth - 1), rows]
    anchors = planned.copy()
    anchors[:, 2] = z
    size = (grid.patch_h, grid.patch_w)
    data = _run_view(stack, run, size) if run else windows(stack, anchors - (0, rows.start, 0), size)
    return PatchBatch(anchors, data)


def coverage_plane(grid: PatchGrid) -> np.ndarray:
    """How many of ``grid``'s patches cover each pixel of one plane, as a
    float32 (height, width) array."""
    width, height = grid.image_dims
    plane = np.zeros((height, width), dtype=np.float32)
    for x, y in grid.anchors:
        plane[y : y + grid.patch_h, x : x + grid.patch_w] += 1
    return plane


def stitch(
    patch_probs: Iterable[tuple[tuple[int, int, int], np.ndarray]],
    grid: PatchGrid,
    depth: int,
    volume_id: str = "",
    jobs: int = 1,
) -> ProbVolume:
    """Average per-patch class probabilities into a probability volume of
    ``depth`` slices, each the size of the grid's image.

    ``patch_probs`` is any iterable of (anchor, prediction) pairs, in any
    order, and is consumed once.  ``grid.depth_mode`` fixes every
    prediction's shape: in 2d and 2.5d a (4, patch_h, patch_w) map for the
    anchor's slice z, at every z; in 3d one (4, depth, patch_h, patch_w)
    block per anchor, anchored at z = 0.  Each anchor z needs a prediction
    at every anchor of ``grid``.

    Predictions are summed as they arrive into the float32 array that becomes
    the result.  Each anchor z keeps a count of the ``grid.anchors`` summed
    so far and a map of the predictions that arrived but are not yet summed.
    A run of arrived anchors from the count is summed on the calling thread,
    one plane at a time over all its anchors, so each accumulator plane is
    loaded once per run.  On a one-plane grid (2d, 2.5d) the run is every
    arrived anchor from the count, so an early prediction waits only for the
    anchors before it.  On a 3d grid a window of a larger array (its
    ``base`` is a bigger ndarray, so holding it costs no memory) also waits
    for the rest of the grid, whose completing run ``min(jobs, 4)`` threads
    share, the caller and a pool shut down before stitch returns or raises,
    each summing, then dividing, one contiguous slice of the class axis.
    Every voxel therefore sums its predictions in canonical row-major anchor
    order whatever the input order, upstream schedule or ``jobs``, so the
    result is bit-identical however the predictions are stored.  Once an
    anchor z has all its predictions, its slice range is divided in place by
    :func:`coverage_plane`; that matches dividing by per-voxel counts bit for
    bit, since both operands are exact in float32.

    A 3d grid whose one anchor's patch is the whole image has one block, the
    whole volume, covering each voxel once.  Stitch takes that prediction
    over: a writeable, C-contiguous float32 block becomes the result and is
    changed in place, any other is first copied to float32.  Its -0.0 values
    become +0.0 and nothing is divided, which is bit for bit what summing
    into zeros and dividing by a coverage of 1 gives.  A caller that needs
    its array unchanged passes it read-only.

    Raises :class:`CoverageError` for an anchor outside ``grid``, naming the
    grid's image size, patch size and stride, and for a voxel no patch
    covers, naming it (or, where every voxel is covered, the first anchor
    that never arrived), and :class:`ValidationError` for an anchor z
    outside ``depth``, a 3d anchor z other than 0, a prediction of the
    wrong shape, a repeated anchor, or a non-finite result, naming the
    first bad voxel.
    """
    planes = depth if grid.depth_mode is DepthMode.D3 else 1
    probs, summed, waiting = _accumulate(patch_probs, grid, depth, planes, jobs)
    _check_complete(grid, depth, planes, summed, waiting)
    for z in range(depth):
        finite = np.isfinite(probs[:, z]).all(axis=0)
        if not finite.all():
            raise ValidationError(f"stitched probability at voxel {first_voxel(~finite, z)} is not finite")
    return ProbVolume(probs=probs, volume_id=volume_id)


def _accumulate(patch_probs, grid: PatchGrid, depth: int, planes: int, jobs: int):
    """Sum ``patch_probs``, each ``planes`` deep, into a zeroed float32
    (4, ``depth``, height, width) array and divide each completed slice
    range by the coverage plane, or take over the one block of a
    whole-volume 3d grid; returns (probs, summed, waiting): the result, and
    per anchor z the count of anchors summed and the predictions that
    arrived but are not yet summed, by anchor index.  Runs are summed on the
    calling thread, except that the run completing a 3d grid is split by
    class over ``min(jobs, 4)`` threads, the caller summing the first slice
    and a pool the rest."""
    anchors = grid.anchors
    index = {anchor: i for i, anchor in enumerate(anchors)}
    ph, pw = grid.patch_h, grid.patch_w
    shape = (N_CLASSES, planes, ph, pw)
    # one block covers every voxel once, so it becomes the result (the
    # empty placeholder is the result only for a volume with no slices)
    whole = grid.depth_mode is DepthMode.D3 and anchors == ((0, 0),) and (pw, ph) == grid.image_dims
    width, height = grid.image_dims
    probs = np.zeros((N_CLASSES, 0 if whole else depth, height, width), dtype=np.float32)
    plane = coverage_plane(grid)
    summed: dict[int, int] = {}
    waiting: dict[int, dict[int, np.ndarray]] = {}
    threads = max(1, min(jobs, N_CLASSES))
    cuts = [N_CLASSES * t // threads for t in range(threads + 1)]
    parts = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    # kept: summing each 3d window on this thread as it arrives made exchange-3d evaluates ~2x slower
    def closes_run(i: int, block: np.ndarray) -> bool:
        # a 3d window of a larger array costs nothing to hold, so it waits for its grid
        held = planes > 1 and isinstance(block.base, np.ndarray) and block.base.size > block.size
        return i + 1 == len(anchors) or not held

    def add(run, z: int, classes: slice, last: bool) -> None:
        for p in range(planes):
            for (ax, ay), block in run:
                probs[classes, z + p, ay : ay + ph, ax : ax + pw] += block[classes, p]
        if last:
            probs[classes, z : z + planes] /= plane

    for (x, y, z), pred in patch_probs:
        i = index.get((x, y))
        if i is None:
            w, h = grid.image_dims
            raise CoverageError(
                f"anchor ({x}, {y}) is not part of the grid planned for image {w}x{h}, "
                f"patch {pw}x{ph}, stride {grid.stride_x}x{grid.stride_y}"
            )
        if not 0 <= z < depth:
            raise ValidationError(f"anchor ({x}, {y}, {z}) lies outside depth {depth}")
        if z % planes:
            raise ValidationError(f"anchor ({x}, {y}, {z}): 3d predictions anchor at z = 0")
        pred = np.asarray(pred)
        block = pred[:, None] if pred.ndim == 3 else pred
        if block.shape != shape:
            raise ValidationError(
                f"prediction at ({x}, {y}, {z}) has shape {pred.shape}, expected "
                f"{shape[:1] + shape[2:] if planes == 1 else shape} on a {grid.depth_mode.value} grid"
            )
        arrived, done = waiting.setdefault(z, {}), summed.setdefault(z, 0)
        if i < done or i in arrived:
            raise ValidationError(f"prediction for anchor ({x}, {y}, {z}) arrived twice")
        arrived[i] = block
        if done not in arrived or not (closes_run(i, block) or i + 1 in arrived):
            continue  # the arrived run from ``done`` gained no block that closes it
        end = j = done
        while j in arrived:
            if closes_run(j, arrived[j]):
                end = j + 1
            j += 1
        run = [(anchors[k], arrived.pop(k)) for k in range(done, end)]
        last = end == len(anchors)
        if whole:  # coverage is 1 and x / 1 == x, so no division
            owned = block.dtype == np.float32 and block.flags.writeable and block.flags.c_contiguous
            probs = block if owned else block.astype(np.float32, order="C")
            np.add(probs, 0.0, out=probs)  # -0.0 reads +0.0, as after a sum into zeros
        elif last and planes > 1 and len(parts) > 1:  # every prediction is in, so no predict thread competes
            with ThreadPoolExecutor(len(parts) - 1) as pool:
                helpers = pool.map(lambda part: add(run, z, part, True), parts[1:])
                add(run, z, parts[0], True)
                list(helpers)
        else:
            add(run, z, slice(None), last)
        del run  # hold no summed block while the next one arrives
        summed[z] = end
    return probs, summed, waiting


def _check_complete(grid: PatchGrid, depth: int, planes: int, summed: dict, waiting: dict) -> None:
    """Raise CoverageError naming the first uncovered voxel in (z, y, x) order,
    or else the first missing anchor of the first incomplete anchor z."""
    incomplete = [z for z in sorted(summed) if summed[z] < len(grid.anchors)]
    if not incomplete and len(summed) * planes == depth:
        return
    width, height = grid.image_dims
    for z in range(depth):
        az = z - z % planes  # the anchor z whose predictions cover slice z
        covered = np.zeros((height, width), dtype=bool)
        for i in [*range(summed.get(az, 0)), *waiting.get(az, ())]:
            x, y = grid.anchors[i]
            covered[y : y + grid.patch_h, x : x + grid.patch_w] = True
        if not covered.all():
            raise CoverageError(f"voxel {first_voxel(~covered, z)} is covered by no patch")
    z = incomplete[0]
    i = summed[z]
    while i in waiting[z]:  # 3d windows held for their grid have arrived
        i += 1
    x, y = grid.anchors[i]
    raise CoverageError(f"no prediction arrived for anchor ({x}, {y}, {z})")


def labelize(prob: ProbVolume) -> LabelVolume:
    """Arg-max decision per voxel; ties resolve to the lowest class index.

    Each slice keeps a running maximum over the classes in order and a class
    replaces the label only where it is strictly greater, writing straight
    into the uint8 result.  A NaN carries into the running maximum, so it is
    caught there: ValidationError names the first voxel holding one.
    """
    probs = prob.probs
    labels = np.zeros(probs.shape[1:], dtype=np.uint8)
    best = np.empty(probs.shape[2:], dtype=probs.dtype)
    wins = np.empty(probs.shape[2:], dtype=bool)
    for z, out in enumerate(labels):
        np.copyto(best, probs[0, z])
        for cls in range(1, N_CLASSES):
            np.greater(probs[cls, z], best, out=wins)
            np.putmask(out, wins, cls)
            np.maximum(best, probs[cls, z], out=best)
        if np.isnan(best).any():
            raise ValidationError(
                f"probability at voxel {first_voxel(np.isnan(best), z)} of volume "
                f"'{prob.volume_id}' is NaN"
            )
    return LabelVolume(voxels=labels, volume_id=prob.volume_id)


def close_mask(labels: LabelVolume, cls: FluidClass, radius: int) -> LabelVolume:
    """Morphologically close one fluid's mask per B-scan.

    Dilation then erosion with a square structuring element of side
    ``2*radius + 1``, on the infinite plane: voxels outside the B-scan count
    as background, so a mask touching the border closes as if zero-padded.
    The square is applied as a row sweep then a column sweep, which gives
    exactly the 2-D square's result.  Cavities the element can bridge are
    filled with ``cls``; existing ``cls`` voxels are never removed (closing
    is extensive), and the operation is idempotent.
    """
    out = labels.voxels.copy()
    _close_in_place(out, cls, radius)
    return LabelVolume(voxels=out, volume_id=labels.volume_id)


def _close_in_place(voxels: np.ndarray, cls: FluidClass, radius: int) -> bool:
    """Close ``cls``'s mask in each slice of the (depth, h, w) ``voxels``;
    returns whether that added a ``cls`` voxel.

    A (2r+1)^2 square is the Minkowski sum of a row and a column segment, so
    dilation (shifted ORs) and erosion (shifted ANDs) are each a row sweep
    then a column sweep of r one-step shifts each way, in one buffer
    zero-padded by r.  Only the r-wide ring's erosion is wrong, and the crop
    drops it, so the infinite-plane border rule holds.
    """
    cls = FluidClass(cls)
    if cls == FluidClass.BACKGROUND:
        raise ValueError("closing is defined for fluid classes, not background")
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    r = radius
    buf = np.zeros((voxels.shape[1] + 2 * r, voxels.shape[2] + 2 * r), dtype=bool)
    inner = buf[r:-r, r:-r]
    changed = False
    for plane in voxels:
        before = np.count_nonzero(np.equal(plane, int(cls), out=inner))
        if not before:
            continue
        for op in (np.logical_or, np.logical_and):  # dilate, then erode
            for lo, hi in ((buf[:, 1:], buf[:, :-1]), (buf[1:], buf[:-1])):
                for _ in range(r):
                    op(lo, hi, out=lo)
                    op(hi, lo, out=hi)
        changed |= np.count_nonzero(inner) > before  # closing is extensive
        np.copyto(plane, int(cls), where=inner)  # so this adds closed & ~mask
        buf[:] = False  # the sweeps set bits in the padding ring
    return changed


def close_all(labels: LabelVolume, radius: int) -> LabelVolume:
    """Close every fluid mask in class order IRF, SRF, PED, on one copy of
    the labels."""
    out = labels.voxels.copy()
    for cls in FLUIDS:
        _close_in_place(out, cls, radius)
    return LabelVolume(voxels=out, volume_id=labels.volume_id)


_SHAPE_FIELDS = {"patches": "patch_shape", "predictions": "pred_shape"}


def _sidecar_paths(path_base) -> tuple[Path, Path]:
    base = Path(path_base)
    return base.with_suffix(".raw"), base.with_suffix(".json")


def _save_spill(path_base, kind: str, stack, meta: dict) -> None:
    """Write n same-shaped arrays, stacked (n, *shape), as one raw float32
    blob plus a JSON sidecar holding ``kind``, the per-array shape and the
    caller's ``meta``."""
    raw_path, meta_path = _sidecar_paths(path_base)
    if not len(stack):
        raise ValueError(f"refusing to spill an empty {kind} batch")
    stack = np.asarray(stack, dtype=np.float32)
    meta = {"kind": kind, _SHAPE_FIELDS[kind]: list(stack.shape[1:]), **meta}
    write_files((raw_path, stack), (meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n"))


def _integers(meta_path: Path, name: str, value, n: int = 0):
    """``value`` if it is a JSON integer, or a list of ``n`` of them; else
    FormatError naming the sidecar and ``name``, where ``int`` would read 64.9 or true."""
    values = value if n else [value]
    if not (type(values) is list and len(values) == max(n, 1) and all(type(v) is int for v in values)):
        count = ("an integer", "", "two integers", "three integers")[n]
        raise FormatError(f"{meta_path}: {name} {value!r} is not {count}")
    return value


def _load_spill(path_base, kind: str, build):
    """Read a spill of ``kind`` and return ``build(meta_path, meta, stack)``, given
    its sidecar and an (n_anchors, *shape) stack.  A sidecar that is not JSON,
    lacks a field, holds a value of the wrong type or an anchor that is not
    three integers raises FormatError naming it, as :func:`read_payload`
    does a raw file whose size differs from the sidecar's promise."""
    raw_path, meta_path = _sidecar_paths(path_base)
    try:
        meta = json.loads(meta_path.read_text())
        if meta.get("kind") != kind:
            raise FormatError(f"{meta_path} describes {meta.get('kind')!r}, expected {kind!r}")
        for anchor in meta["anchors"]:
            _integers(meta_path, "anchor", anchor, 3)
        shape = (len(meta["anchors"]), *meta[_SHAPE_FIELDS[kind]])
        return build(meta_path, meta, read_payload(meta_path, raw_path, 0, np.float32, shape))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{meta_path} is not a valid {kind} sidecar: {type(exc).__name__}: {exc}") from exc


def save_patches(path_base, batch: PatchBatch, grid: PatchGrid, volume_id: str = "") -> None:
    """Spill a patch batch to disk: its data as one raw float32 blob plus a
    JSON sidecar holding the anchors and the grid parameters needed to rebuild it."""
    meta = {
        "volume_id": volume_id,
        "anchors": batch.anchors.tolist(),
        "grid": {
            "image_dims": list(grid.image_dims),
            "patch": [grid.patch_w, grid.patch_h],
            "overlap": grid.overlap,
            "depth_mode": {"kind": grid.depth_mode.value, "radius": SLAB_RADIUS},
        },
    }
    _save_spill(path_base, "patches", batch.data, meta)


def load_patches(path_base) -> tuple[PatchBatch, PatchGrid, str]:
    """Read back a spilled patch batch; returns (batch, grid, volume_id)."""

    def build(meta_path, meta, stack):
        g = meta["grid"]
        radius = _integers(meta_path, "grid.depth_mode.radius", g["depth_mode"].get("radius", SLAB_RADIUS))
        if radius != SLAB_RADIUS:
            raise ValueError(f"slab radius must be {SLAB_RADIUS}, got {radius!r}")
        grid = plan_grid(
            tuple(_integers(meta_path, "grid.image_dims", g["image_dims"], 2)),
            tuple(_integers(meta_path, "grid.patch", g["patch"], 2)),
            g["overlap"],
            DepthMode(g["depth_mode"]["kind"]),
        )
        anchors = np.array(meta["anchors"], dtype=np.intp).reshape(-1, 3)
        return PatchBatch(anchors, stack), grid, meta.get("volume_id", "")

    return _load_spill(path_base, "patches", build)


def save_predictions(path_base, patch_probs: list[tuple[tuple[int, int, int], np.ndarray]]) -> None:
    """Spill per-patch probability predictions next to their anchors."""
    meta = {"anchors": [list(a) for a, _pred in patch_probs]}
    _save_spill(path_base, "predictions", [pred for _a, pred in patch_probs], meta)


def load_predictions(path_base) -> list[tuple[tuple[int, int, int], np.ndarray]]:
    """Read back spilled predictions as (anchor, prediction) pairs."""
    return _load_spill(
        path_base, "predictions",
        lambda _, meta, stack: [(tuple(a), stack[i]) for i, a in enumerate(meta["anchors"])],
    )
