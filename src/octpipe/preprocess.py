"""Resizing, intensity normalization, B-scan denoising, and slice filtering.

Resampling uses half-pixel-center coordinates: output pixel ``i`` along an
axis of size ``dst`` samples source coordinate ``(i + 0.5) * src / dst - 0.5``.
Bilinear interpolation is a convex combination of the four neighbours, so it
can never overshoot the source value range: it is computed in float64, whose
round-off is far below half a float32 ulp, so the float32 output stays inside
the range without a clamp.  Nearest-neighbour picks
``floor((i + 0.5) * src / dst)`` and therefore never leaves the source
alphabet.  Volume-wide stages work one B-scan at a time, and range and
finiteness checks are reductions, so no stage holds a second volume-sized
temporary besides its output: each denoised B-scan is written back into the
volume the rescale or resize allocated.  The resize and the denoiser run
their B-scans on the calling thread and on ``jobs`` tasks of an executor
the caller lends, if any; each takes the next free B-scan index and writes
only its own B-scan of the output, so the result is the same bits however
many threads share the work.  Only the nlm denoiser uses scipy, and it
imports it when it runs.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .errors import ValidationError, check_fields
from .volume_io import LabelVolume, OctVolume, Vendor

if TYPE_CHECKING:
    from concurrent.futures import Executor

DENOISERS = ("none", "gaussian", "nlm")
NORMALIZE_MODES = ("auto", "always", "never")
SLICE_POLICIES = ("diseased_only", "all")


@dataclass(frozen=True)
class PreprocessConfig:
    """Working resolutions plus the denoiser and normalization stage settings.

    Field metadata declares the command-line flag and the choices of a
    setting; each range check names the setting by its file key."""

    target_2d: tuple[int, int] = (572, 572)
    target_vol: tuple[int, int] = (384, 384)
    denoiser: str = field(default="none", metadata={"flag": "--denoiser", "choices": DENOISERS})
    sigma: float = 1.0          # gaussian kernel width
    search_radius: int = 5      # nlm search window half-width
    patch_radius: int = 2       # nlm comparison patch half-width
    h: float = 0.1              # nlm weight bandwidth
    normalize: str = field(default="auto", metadata={"choices": NORMALIZE_MODES})

    def __post_init__(self):
        for name, target in (("target_2d", self.target_2d), ("target_vol", self.target_vol)):
            if len(target) != 2 or any(int(t) < 1 for t in target):
                raise ValidationError(
                    f"preprocess.{name} must be two positive integers, got {target}"
                )
        check_fields(self, "preprocess.")
        positive = {"gaussian": ("sigma",), "nlm": ("h", "search_radius", "patch_radius")}
        for name in positive.get(self.denoiser, ()):
            if not getattr(self, name) > 0:
                raise ValidationError(
                    f"preprocess.{name} must be > 0 with the {self.denoiser} denoiser, "
                    f"got {getattr(self, name)}"
                )


def default_slice_policy(vendor: Vendor | None) -> str:
    """Diseased-only slice training helps Cirrus/Spectralis but not Topcon."""
    return "all" if vendor is Vendor.TOPCON else "diseased_only"


def _nearest_indices(src: int, dst: int) -> np.ndarray:
    # floor((i + 0.5) * src / dst) in exact integer arithmetic
    i = np.arange(dst, dtype=np.int64)
    return (2 * i + 1) * src // (2 * dst)


def _linear_coords(src: int, dst: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    centers = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    lo = np.floor(centers).astype(np.int64)
    frac = centers - lo
    return np.clip(lo, 0, src - 1), np.clip(lo + 1, 0, src - 1), frac


_STRIP = 64  # rows per resize or gaussian pass, so their float64 buffers stay cache-sized


def _bilinear(shape: tuple[int, int], target: tuple[int, int]):
    """Return ``resize(image, out)``, which writes the bilinear resize of one
    float32 ``shape`` image to ``target`` = (width, height) into the
    (height, width) float32 array ``out``.

    The row and column buffers, ``_STRIP`` output rows each, are allocated
    here, once, and reused by every strip of every call, so each thread that
    resizes builds its own.  Each needed row is gathered from the image as
    float32 and weighted into float64, which promotes it exactly as
    converting the whole image first would.  The weights are non-negative
    and sum to 1 within float64 round-off, so a result can leave the image's
    value range only by a few float64 ulps.  That is far below half a
    float32 ulp of the edge value, which is itself a float32, so the cast to
    ``out`` rounds it back onto the edge, and no clamp is needed.
    """
    src_h, src_w = shape
    tw, th = target
    y0, y1, fy = _linear_coords(src_h, th)
    x0, x1, fx = _linear_coords(src_w, tw)
    wy0, wy1, wx0 = (1.0 - fy)[:, None], fy[:, None], 1.0 - fx
    # kept: fancy-indexed temporaries give the same bits but make each resize ~2x slower
    strip = min(_STRIP, th)
    gathered = np.empty((strip, src_w), dtype=np.float32)
    rows, row_term = np.empty((strip, src_w)), np.empty((strip, src_w))
    cols, col_term = np.empty((strip, tw)), np.empty((strip, tw))

    def resize(image: np.ndarray, out: np.ndarray) -> None:
        for top in range(0, th, strip):
            at = slice(top, min(top + strip, th))
            n = at.stop - top
            row, term, col, cterm = rows[:n], row_term[:n], cols[:n], col_term[:n]
            # the indices are already in range, and mode="clip" lets take write to out unbuffered
            np.multiply(np.take(image, y0[at], axis=0, out=gathered[:n], mode="clip"), wy0[at], out=row)
            np.multiply(np.take(image, y1[at], axis=0, out=gathered[:n], mode="clip"), wy1[at], out=term)
            np.add(row, term, out=row)
            np.multiply(np.take(row, x0, axis=1, out=col, mode="clip"), wx0, out=col)
            np.multiply(np.take(row, x1, axis=1, out=cterm, mode="clip"), fx, out=cterm)
            np.add(col, cterm, out=col)
            out[at] = col

    return resize


def _drain(depth: int, work: Callable[[Iterator[int]], None], pool: Executor | None, jobs: int) -> None:
    """Run ``work(indices)`` on the calling thread and, with a ``pool``, in
    ``jobs`` tasks on it.  Every ``indices`` takes the next B-scan index
    from one shared counter, so each of ``range(depth)`` goes to exactly one
    drainer, whichever is free.  Once a drainer raises, the others take no
    more indices; the caller waits for every task, then raises its own error
    or the first task's."""
    lock, counter, failed = threading.Lock(), iter(range(depth)), threading.Event()

    def indices() -> Iterator[int]:
        while not failed.is_set():
            with lock:
                z = next(counter, None)
            if z is None:
                return
            yield z

    def drainer() -> None:
        try:
            work(indices())
        except BaseException:
            failed.set()
            raise

    tasks = [pool.submit(drainer) for _ in range(jobs)] if pool is not None else []
    try:
        drainer()
    finally:
        wait(tasks)
    for task in tasks:
        task.result()


def resize_volume(
    vol: OctVolume | LabelVolume, target: tuple[int, int], pool: Executor | None = None, jobs: int = 0
):
    """Resize every B-scan to ``target`` = (width, height); depth is preserved.

    Intensity volumes are interpolated bilinearly, their B-scans shared out
    by ``_drain`` over the calling thread and ``jobs`` tasks on ``pool``;
    label volumes with nearest-neighbour so no new class can appear, on the
    calling thread.  The x and y spacing scale with the resize, so each axis
    keeps its physical extent; z spacing is unchanged.  A volume already at
    ``target`` is returned as it is.
    """
    tw, th = (int(t) for t in target)
    if tw < 1 or th < 1:
        raise ValueError(f"target dimensions must be positive, got {target}")
    depth, src_h, src_w = vol.voxels.shape
    if (src_w, src_h) == (tw, th):
        return vol
    if vol.spacing is None:
        spacing = None
    else:
        sx, sy, sz = vol.spacing
        spacing = (sx * src_w / tw, sy * src_h / th, sz)

    if isinstance(vol, LabelVolume):
        iy = _nearest_indices(src_h, th)
        ix = _nearest_indices(src_w, tw)
        out = np.empty((depth, th, tw), dtype=vol.voxels.dtype)
        for z in range(depth):
            np.take(vol.voxels[z].take(iy, axis=0), ix, axis=1, out=out[z])
        return LabelVolume(voxels=out, volume_id=vol.volume_id, spacing=spacing)

    out = np.empty((depth, th, tw), dtype=np.float32)

    def resize_each(indices: Iterator[int]) -> None:
        resize = _bilinear((src_h, src_w), (tw, th))
        for z in indices:
            resize(vol.voxels[z], out[z])

    _drain(depth, resize_each, pool, jobs)
    return OctVolume(voxels=out, spacing=spacing, volume_id=vol.volume_id)


def _finite_range(vol: OctVolume) -> tuple[float, float]:
    """(min, max) of the intensities; either is NaN or infinite exactly when
    some voxel is not finite, which raises ValidationError."""
    lo, hi = float(vol.voxels.min()), float(vol.voxels.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"volume '{vol.volume_id}' contains non-finite intensities")
    return lo, hi


def _rescale(vol: OctVolume, lo: float, hi: float) -> OctVolume:
    """Map the intensity range [lo, hi] onto [0, 1], or all zeros if lo == hi.
    A range whose float32 width overflows raises ValidationError: its
    rescale would turn voxels into NaN."""
    with np.errstate(over="ignore"):
        width = np.float32(hi) - np.float32(lo)
    if not np.isfinite(width):
        raise ValidationError(
            f"volume '{vol.volume_id}' spans intensities {lo:g} to {hi:g}, "
            "a range too wide to rescale in float32"
        )
    if hi > lo:
        out = vol.voxels - lo
        out /= hi - lo
    else:
        out = np.zeros_like(vol.voxels)
    return OctVolume(voxels=out, spacing=vol.spacing, volume_id=vol.volume_id)


def _nlm(image: np.ndarray, search_radius: int, patch_radius: int, h: float) -> np.ndarray:
    """Non-local means by shift-and-accumulate over the search window.

    Patch distances are mean squared differences computed with a box filter;
    weights are exp(-d2 / h^2).  Borders use edge replication.
    """
    from scipy import ndimage

    img = image.astype(np.float64)
    height, width = img.shape
    pad = search_radius
    padded = np.pad(img, pad, mode="edge")
    num = np.zeros_like(img)
    den = np.zeros_like(img)
    size = 2 * patch_radius + 1
    inv_h2 = 1.0 / (h * h)
    for dy in range(-search_radius, search_radius + 1):
        for dx in range(-search_radius, search_radius + 1):
            shifted = padded[pad + dy : pad + dy + height, pad + dx : pad + dx + width]
            d2 = ndimage.uniform_filter((img - shifted) ** 2, size=size, mode="nearest")
            w = np.exp(-d2 * inv_h2)
            num += w * shifted
            den += w
    return num / den


def _gaussian(image: np.ndarray, sigma: float) -> np.ndarray:
    """scipy's ``gaussian_filter(image, sigma, mode="nearest")``, bit for bit:
    its float64 weights over radius ``int(4 * sigma + 0.5)``, axis 0 and then
    axis 1, each output ``x * w[0]`` and then ``+= (x[-k] + x[+k]) * w[k]``
    for k from the radius down to 1, on one edge-padded float64 copy.  Axis 0
    filters each column alone, so it leaves the padded columns the edge's."""
    if sigma <= 1e-15:  # scipy filters no axis
        return image.astype(np.float64)
    r = int(4 * sigma + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    taps = (taps / taps.sum())[r:]
    height, width = image.shape
    padded = np.pad(image, r, mode="edge").astype(np.float64, copy=False)
    out, cols = np.empty((height, width)), np.empty((_STRIP, width + 2 * r))
    terms = np.empty(cols.size)

    def correlate(at, acc):
        term = terms[: acc.size].reshape(acc.shape)
        np.multiply(at(0), taps[0], out=acc)
        for k in range(r, 0, -1):
            acc += np.multiply(np.add(at(-k), at(k), out=term), taps[k], out=term)

    for top in range(0, height, _STRIP):
        col = cols[: min(_STRIP, height - top)]
        correlate(lambda d: padded[top + r + d : top + r + d + len(col)], col)
        correlate(lambda d: col[:, r + d : r + d + width], out[top : top + len(col)])
    return out


def denoise(image: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """Denoise one B-scan per the configured stage; ``none`` is an exact identity.
    Filters run in float64, and the filtered B-scan is returned as float32."""
    if cfg.denoiser == "none":
        return image
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    if cfg.denoiser == "gaussian":
        out = _gaussian(image, cfg.sigma)
    else:
        out = _nlm(image, cfg.search_radius, cfg.patch_radius, cfg.h)
    return out.astype(np.float32)


def filter_slices(labels: LabelVolume, policy: str) -> list[int]:
    """Return the z-indices to train on: slices with any fluid, or every slice."""
    if policy not in SLICE_POLICIES:
        raise ValueError(f"policy must be one of {SLICE_POLICIES}, got {policy!r}")
    depth = labels.voxels.shape[0]
    if policy == "all":
        return list(range(depth))
    diseased = labels.voxels.reshape(depth, -1).any(axis=1)
    return [int(z) for z in np.nonzero(diseased)[0]]


def preprocess_volume(
    vol: OctVolume, cfg: PreprocessConfig, target: tuple[int, int],
    pool: Executor | None = None, jobs: int = 0,
) -> OctVolume:
    """Normalize (per ``cfg.normalize``), resize to ``target``, and denoise.

    Every mode takes the intensity range once and rejects a volume with a
    non-finite intensity.  With ``normalize="auto"`` the affine rescale only
    runs when intensities fall outside [0, 1], so already-normalized volumes
    pass through bit-true.  The resize and the denoiser run their B-scans on
    the calling thread and on ``jobs`` tasks of the lent ``pool``, if any;
    the result is the same bits at every ``jobs``.  Each denoised B-scan is
    written into the volume the rescale or resize allocated, never into
    ``vol``."""
    caller = vol.voxels
    lo, hi = _finite_range(vol)
    if cfg.normalize == "always" or (cfg.normalize == "auto" and (lo < 0.0 or hi > 1.0)):
        vol = _rescale(vol, lo, hi)
    vol = resize_volume(vol, target, pool, jobs)
    if cfg.denoiser != "none":
        planes = vol.voxels
        voxels = np.empty_like(caller) if planes is caller else planes

        def denoise_each(indices: Iterator[int]) -> None:
            for z in indices:
                voxels[z] = denoise(planes[z], cfg)

        _drain(len(planes), denoise_each, pool, jobs)
        vol = OctVolume(voxels=voxels, spacing=vol.spacing, volume_id=vol.volume_id)
    return vol
