"""Synthetic band-coded test volumes with known fluid labels.

Each class occupies its own intensity band (background low, then IRF, SRF,
PED in rising order) so a simple threshold at 0.25 / 0.5 / 0.75 recovers the
labels exactly.  Fluid regions are axis-aligned ellipsoids kept well apart,
so per-class morphological closing leaves the truth unchanged.

Intensities follow one stream contract: a phantom's generator draws class by
class in ``INTENSITY_BANDS`` order, and each class's values fill its voxels
in C order (slice, row, column), so drawing them one B-scan at a time
continues the same stream as one draw per class.  Memory rule: besides the
image and labels a phantom returns, nothing the size of the volume is
allocated, only buffers the size of one B-scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..patch_engine import FluidClass, _close_in_place
from ..volume_io import FLUIDS, LabelVolume, OctVolume

# per-class intensity bands, strictly inside the 0.25/0.5/0.75 thresholds
INTENSITY_BANDS = {
    FluidClass.BACKGROUND: (0.02, 0.22),
    FluidClass.IRF: (0.30, 0.45),
    FluidClass.SRF: (0.55, 0.70),
    FluidClass.PED: (0.80, 0.95),
}


@dataclass(frozen=True)
class BlobSpec:
    """One ellipsoidal fluid region: class, centre (x, y, z), radii (rx, ry, rz)."""

    cls: FluidClass
    center: tuple[int, int, int]
    radii: tuple[int, int, int]

    def __post_init__(self):
        if FluidClass(self.cls) == FluidClass.BACKGROUND:
            raise ValueError("blobs must carry a fluid class, not background")
        if any(r < 1 for r in self.radii):
            raise ValueError(f"blob radii must be >= 1, got {self.radii}")


def _paint_labels(dims: tuple[int, int, int], blobs: list[BlobSpec]) -> np.ndarray:
    width, height, depth = dims
    labels = np.zeros((depth, height, width), dtype=np.uint8)
    for blob in blobs:
        cx, cy, cz = blob.center
        rx, ry, rz = blob.radii
        spans = zip((cz, cy, cx), (rz, ry, rx), labels.shape)
        box = tuple(slice(max(c - r, 0), min(c + r + 1, n)) for c, r, n in spans)  # holds the blob
        zs, ys, xs = np.ogrid[box]
        member = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 + ((zs - cz) / rz) ** 2 <= 1.0
        labels[box][member] = int(blob.cls)
    return labels


MIN_DIMS = (64, 64, 4)


def synth_phantom(
    dims: tuple[int, int, int],
    blobs: list[BlobSpec],
    seed: int,
    volume_id: str = "phantom",
) -> tuple[OctVolume, LabelVolume]:
    """Render a phantom: labels from the blob list, intensities drawn per voxel
    uniformly inside the class's band.

    The intensities are, bit for bit, ``default_rng(seed).uniform(lo, hi, n)``
    per class in band order, filling that class's ``n`` voxels in C order;
    they are drawn one B-scan at a time into reused plane buffers, so nothing
    the size of the volume is allocated besides the outputs."""
    width, height, depth = (int(v) for v in dims)
    if width < MIN_DIMS[0] or height < MIN_DIMS[1] or depth < MIN_DIMS[2]:
        raise ValueError(f"phantom dims must be at least {MIN_DIMS}, got {dims}")
    for blob in blobs:
        cx, cy, cz = blob.center
        rx, ry, rz = blob.radii
        if (
            cx - rx < 0 or cx + rx >= width
            or cy - ry < 0 or cy + ry >= height
            or cz - rz < 0 or cz + rz >= depth
        ):
            raise ValueError(
                f"blob at {blob.center} with radii {blob.radii} exceeds dims {dims}"
            )
    labels = _paint_labels((width, height, depth), blobs)
    rng = np.random.default_rng(seed)
    voxels = np.empty((depth, height, width), dtype=np.float32)
    mask = np.empty((height, width), dtype=bool)
    draws = np.empty(height * width)
    for cls, (lo, hi) in INTENSITY_BANDS.items():
        for plane, plane_labels in zip(voxels, labels):
            n = np.count_nonzero(np.equal(plane_labels, int(cls), out=mask))
            if not n:
                continue
            values = rng.random(out=draws[:n])  # numpy's uniform is lo + (hi - lo) * random()
            values *= hi - lo
            values += lo
            if n == mask.size:
                plane[...] = values.reshape(mask.shape)
            else:
                plane[mask] = values
    vol = OctVolume(voxels=voxels, spacing=(1.0, 1.0, 1.0), volume_id=volume_id)
    return vol, LabelVolume(voxels=labels, volume_id=volume_id, spacing=vol.spacing)


def closing_stable(labels: LabelVolume, radius: int) -> bool:
    """True when per-class closing at ``radius`` leaves the labels untouched.

    Closing works per B-scan, so each B-scan is copied into one reused plane
    and its classes close in order there, stopping at the first change: until
    a class changes something the plane still equals the B-scan."""
    plane = np.empty((1, *labels.voxels.shape[1:]), dtype=labels.voxels.dtype)
    for scan in labels.voxels:
        np.copyto(plane[0], scan)
        if any(_close_in_place(plane, cls, radius) for cls in FLUIDS):
            return False
    return True


def random_phantom(
    dims: tuple[int, int, int],
    seed: int,
    n_blobs: int = 6,
    close_radius: int = 2,
    volume_id: str = "phantom",
) -> tuple[OctVolume, LabelVolume]:
    """Scatter separated fluid blobs and render the phantom.

    Blob bounding boxes are padded by ``close_radius + 1`` and kept disjoint
    (and clear of the volume border), which keeps closing from bridging
    between regions; the result is checked and re-rolled if it is not
    closing-stable at ``close_radius``.
    """
    width, height, depth = (int(v) for v in dims)
    rng = np.random.default_rng(seed)
    margin = close_radius + 1
    for _attempt in range(16):
        blobs: list[BlobSpec] = []
        boxes: list[tuple[int, int, int, int, int, int]] = []
        tries = 0
        while len(blobs) < n_blobs and tries < 400:
            tries += 1
            cls = FLUIDS[len(blobs) % 3]
            rx = int(rng.integers(4, max(5, min(25, width // 8))))
            ry = int(rng.integers(4, max(5, min(25, height // 8))))
            rz = int(rng.integers(1, max(2, min(7, depth // 3 + 1))))
            lo_x, hi_x = rx + margin, width - rx - margin
            lo_y, hi_y = ry + margin, height - ry - margin
            lo_z, hi_z = rz, depth - rz
            if lo_x >= hi_x or lo_y >= hi_y or lo_z >= hi_z:
                continue
            cx = int(rng.integers(lo_x, hi_x))
            cy = int(rng.integers(lo_y, hi_y))
            cz = int(rng.integers(lo_z, hi_z))
            box = (
                cx - rx - margin,
                cx + rx + margin,
                cy - ry - margin,
                cy + ry + margin,
                cz - rz - 1,
                cz + rz + 1,
            )
            clash = any(
                box[0] <= b[1] and b[0] <= box[1]
                and box[2] <= b[3] and b[2] <= box[3]
                and box[4] <= b[5] and b[4] <= box[5]
                for b in boxes
            )
            if clash:
                continue
            boxes.append(box)
            blobs.append(BlobSpec(cls=cls, center=(cx, cy, cz), radii=(rx, ry, rz)))
        if not blobs:
            raise ValueError(f"volume {dims} is too small to place any fluid blob")
        vol, labels = synth_phantom((width, height, depth), blobs, seed=int(rng.integers(2**31)), volume_id=volume_id)
        if closing_stable(labels, close_radius):
            return vol, labels
    raise RuntimeError(f"could not build a closing-stable phantom for dims {dims}, seed {seed}")
