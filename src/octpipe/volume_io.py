"""MetaImage (.mhd + raw) volume I/O and scanner-geometry classification.

Array convention: voxel arrays are indexed ``[z, y, x]`` (slice, row, column),
which matches the x-fastest raw payload order of MetaImage directly.  All
``dims`` tuples in the public API are ``(width, height, depth)``.  A payload
is read straight into the array that is returned, and per-voxel checks run
one slice at a time, so neither allocates a second volume.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

N_CLASSES = 4

PROB_SUM_TOL = 1e-5  # how far a probability volume's channel sums may stray from 1

ELEMENT_DTYPES = {
    "MET_UCHAR": np.dtype("<u1"),
    "MET_USHORT": np.dtype("<u2"),
    "MET_FLOAT": np.dtype("<f4"),
}


class FluidClass(enum.IntEnum):
    """Per-voxel label alphabet: background plus the three fluid classes."""

    BACKGROUND = 0
    IRF = 1
    SRF = 2
    PED = 3


FLUIDS = (FluidClass.IRF, FluidClass.SRF, FluidClass.PED)


class Vendor(enum.Enum):
    CIRRUS = "Cirrus"
    SPECTRALIS = "Spectralis"
    TOPCON = "Topcon"


# (width, height, depth) of the raw scans each scanner produces.
_NATIVE_GEOMETRIES = {
    Vendor.CIRRUS: ((512, 1024, 128),),
    Vendor.SPECTRALIS: ((512, 496, 49),),
    Vendor.TOPCON: ((512, 885, 128), (512, 650, 128)),
}


def vendor_of(dims: tuple[int, int, int]) -> Vendor | None:
    """Return the scanner whose native geometry matches ``dims``, or None."""
    dims = tuple(int(d) for d in dims)
    for vendor, geometries in _NATIVE_GEOMETRIES.items():
        if dims in geometries:
            return vendor
    return None


@dataclass
class OctVolume:
    """Intensity volume, float32, indexed [z, y, x]."""

    voxels: np.ndarray
    spacing: tuple[float, float, float] | None = None
    volume_id: str = ""

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.float32)
        if self.voxels.ndim != 3:
            raise ValueError(f"intensity volume must be 3-D, got shape {self.voxels.shape}")

    @property
    def dims(self) -> tuple[int, int, int]:
        d, h, w = self.voxels.shape
        return (w, h, d)


@dataclass
class LabelVolume:
    """Per-voxel class labels in {0,1,2,3}, uint8, indexed [z, y, x]."""

    voxels: np.ndarray
    volume_id: str = ""
    spacing: tuple[float, float, float] | None = None

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.uint8)
        if self.voxels.ndim != 3:
            raise ValueError(f"label volume must be 3-D, got shape {self.voxels.shape}")
        if self.voxels.size and int(self.voxels.max()) >= N_CLASSES:
            raise ValidationError(
                f"label volume contains a value outside 0..{N_CLASSES - 1}"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        d, h, w = self.voxels.shape
        return (w, h, d)


@dataclass
class ProbVolume:
    """Per-class probability field, float32, shape (4, depth, height, width).

    Channel order is Background, IRF, SRF, PED.  Channel sums are expected to
    lie within ``PROB_SUM_TOL`` of 1 at every voxel; ``validate()`` enforces that.
    """

    probs: np.ndarray
    volume_id: str = ""

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float32)
        if self.probs.ndim != 4 or self.probs.shape[0] != N_CLASSES:
            raise ValidationError(
                f"probability volume must have shape (4, depth, height, width), got {self.probs.shape}"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        _, d, h, w = self.probs.shape
        return (w, h, d)

    def validate(self) -> None:
        """Reject a volume that is not a distribution over the classes at
        every voxel: a negative value anywhere, else a non-finite value
        anywhere, else a channel sum off 1 (reporting the largest deviation).
        Checks one slice at a time."""
        err, finite = 0.0, True
        dev = np.empty(self.probs.shape[2:], dtype=np.float64)
        for z in range(self.probs.shape[1]):
            plane = self.probs[:, z]
            if (plane < 0).any():
                raise ValidationError(f"negative probability in volume '{self.volume_id}'")
            plane.sum(axis=0, dtype=np.float64, out=dev)
            dev -= 1.0
            np.abs(dev, out=dev)
            dev_max = float(dev.max(initial=0.0))
            finite = finite and np.isfinite(dev_max)
            err = max(err, dev_max)
        if not finite:
            raise ValidationError(f"non-finite probability in volume '{self.volume_id}'")
        if err > PROB_SUM_TOL:
            raise ValidationError(
                f"channel sums deviate from 1 by up to {err:.3g} in volume '{self.volume_id}'"
            )


def _parse_header(path: Path) -> tuple[dict[str, str], int]:
    """Read MetaImage header keys; return them plus the byte offset past the header.
    A key given twice raises FormatError naming it, so no value silently wins."""
    header: dict[str, str] = {}
    offset = 0
    with open(path, "rb") as f:
        while True:
            line = f.readline()
            if not line:
                raise FormatError(f"{path}: header ended before ElementDataFile")
            offset += len(line)
            try:
                text = line.decode("ascii").strip()
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}: non-ASCII bytes in header") from e
            if not text:
                continue
            if "=" not in text:
                raise FormatError(f"{path}: malformed header line {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if key in header:
                raise FormatError(f"{path}: header key {key!r} is given twice")
            header[key] = value
            if key == "ElementDataFile":
                return header, offset


def _read_raw(
    path: Path, header: dict[str, str], header_end: int, dtype: np.dtype, count: int
) -> np.ndarray:
    """Read the ``count`` values of the payload into one flat array, which is
    allocated only once the payload is known to hold exactly that many bytes."""
    data_file = header["ElementDataFile"]
    if data_file.upper() == "LOCAL":
        source, offset = path, header_end
    else:
        source, offset = path.parent / data_file, 0
        if not source.exists():
            raise FileNotFoundError(f"{path}: raw payload file {source} does not exist")
        if not source.is_file():
            raise FormatError(f"{path}: raw payload {source} is not a regular file")
    expected = count * dtype.itemsize
    with open(source, "rb") as f:
        found = os.fstat(f.fileno()).st_size - offset
        if found == expected:
            data = np.empty(count, dtype=dtype)
            f.seek(offset)
            found = f.readinto(data)
    if found != expected:
        raise IOError(
            f"{source}: raw payload size mismatch, expected {expected} bytes, found {found}"
        )
    return data


def _numbers(path: Path, header: dict[str, str], key: str, kind: type) -> list:
    """The whitespace-separated values of header field ``key`` (none if absent)."""
    try:
        return [kind(t) for t in header.get(key, "").split()]
    except ValueError:
        raise FormatError(
            f"{path}: {key} must hold {kind.__name__} values, got {header[key]!r}"
        ) from None


def _load_array(path: Path) -> tuple[np.ndarray, dict[str, str]]:
    """Load a MetaImage file as an array shaped (..., depth, height, width)."""
    path = Path(path)
    header, header_end = _parse_header(path)
    if _numbers(path, header, "NDims", int) not in ([3], [4]):
        raise FormatError(f"{path}: NDims must be 3 or 4, got {header.get('NDims')}")
    ndims = int(header["NDims"])
    if "DimSize" not in header:
        raise FormatError(f"{path}: header is missing DimSize")
    dim_size = _numbers(path, header, "DimSize", int)
    if len(dim_size) != ndims:
        raise FormatError(f"{path}: DimSize has {len(dim_size)} entries for NDims={ndims}")
    if any(d < 1 for d in dim_size):
        raise FormatError(f"{path}: non-positive DimSize {dim_size}")
    if header.get("CompressedData", "False").lower() == "true":
        raise FormatError(f"{path}: compressed payloads are not supported")
    if header.get("BinaryDataByteOrderMSB", "False").lower() == "true":
        raise FormatError(f"{path}: big-endian payloads are not supported")
    element_type = header.get("ElementType", "")
    dtype = ELEMENT_DTYPES.get(element_type)
    if dtype is None:
        raise FormatError(f"{path}: unsupported ElementType {element_type!r}")

    count = 1
    for d in dim_size:
        count *= d
    data = _read_raw(path, header, header_end, dtype, count)
    # DimSize is fastest-first (x, y, z[, c]); numpy C-order wants slowest-first.
    return data.reshape(tuple(reversed(dim_size))), header


def _parse_spacing(path: Path, header: dict[str, str]) -> tuple[float, float, float] | None:
    """The (x, y, z) ElementSpacing, or None when the header has none; the
    first three values must be finite and > 0 (any further ones are ignored)."""
    if "ElementSpacing" not in header:
        return None
    parts = _numbers(path, header, "ElementSpacing", float)
    if len(parts) < 3 or not (np.isfinite(parts[:3]).all() and min(parts[:3]) > 0):
        raise FormatError(
            f"{path}: ElementSpacing needs three finite values > 0, got {header['ElementSpacing']!r}"
        )
    return (parts[0], parts[1], parts[2])


def read_volume(path: str | Path) -> OctVolume:
    """Read an intensity volume; 8/16-bit unsigned payloads are converted to float32."""
    path = Path(path)
    data, header = _load_array(path)
    if data.ndim != 3:
        raise FormatError(f"{path}: expected a scalar 3-D volume, got NDims=4")
    return OctVolume(voxels=data, spacing=_parse_spacing(path, header), volume_id=path.stem)


def read_labels(path: str | Path) -> LabelVolume:
    """Read a label volume, rejecting any voxel outside the 0..3 alphabet."""
    path = Path(path)
    data, header = _load_array(path)
    if data.ndim != 3:
        raise FormatError(f"{path}: expected a scalar 3-D label volume, got NDims=4")
    if not np.issubdtype(data.dtype, np.unsignedinteger):
        raise FormatError(f"{path}: label payload must be an unsigned integer type")
    if int(data.max()) >= N_CLASSES:
        z, y, x = (int(i) for i in np.argwhere(data >= N_CLASSES)[0])
        raise ValidationError(
            f"{path}: label value {int(data[z, y, x])} at voxel (x={x}, y={y}, z={z}) "
            f"outside 0..{N_CLASSES - 1}"
        )
    return LabelVolume(voxels=data, volume_id=path.stem, spacing=_parse_spacing(path, header))


_PROB_SUFFIX = "_prob"


def prob_path(directory: str | Path, volume_id: str) -> Path:
    """Where ``volume_id``'s probability volume lives in ``directory``."""
    return Path(directory) / f"{volume_id}{_PROB_SUFFIX}.mhd"


def read_prob(path: str | Path) -> ProbVolume:
    """Read a 4-channel probability volume written by :func:`write_volume`;
    its id is the file stem less any ``_prob`` suffix :func:`prob_path` adds."""
    path = Path(path)
    data, header = _load_array(path)
    if data.ndim != 4:
        raise FormatError(f"{path}: expected a 4-channel volume (NDims=4)")
    if data.shape[0] != N_CLASSES:
        raise FormatError(f"{path}: expected {N_CLASSES} channels, got {data.shape[0]}")
    return ProbVolume(probs=data, volume_id=path.stem.removesuffix(_PROB_SUFFIX))


# the array each kind of volume is written from, and its element type on disk
_WRITTEN_AS = {
    OctVolume: ("voxels", "MET_FLOAT"),
    LabelVolume: ("voxels", "MET_UCHAR"),
    ProbVolume: ("probs", "MET_FLOAT"),
}


def write_volume(vol: OctVolume | LabelVolume | ProbVolume, path: str | Path) -> None:
    """Write a volume as a MetaImage header plus companion raw file.

    Each kind, or a subclass of it, is stored with its ``_WRITTEN_AS``
    element type.  Probability volumes are stored channel-major as a 4-D
    MetaImage (DimSize = width height depth 4), so each class plane is a
    contiguous x-fastest block.
    The payload is written before its header, so a failed payload write
    leaves no header pointing at it.
    """
    path = Path(path)
    if path.suffix != ".mhd":
        raise ValueError(f"volumes are written as .mhd header + raw pair, got {path.name}")
    written = next((w for kind, w in _WRITTEN_AS.items() if isinstance(vol, kind)), None)
    if written is None:
        raise TypeError(f"cannot serialize object of type {type(vol).__name__}")
    field, element_type = written
    data = getattr(vol, field).astype(ELEMENT_DTYPES[element_type], copy=False)

    dim_size = " ".join(str(d) for d in reversed(data.shape))
    raw_name = path.stem + ".raw"
    lines = [
        "ObjectType = Image",
        f"NDims = {data.ndim}",
        "BinaryData = True",
        "BinaryDataByteOrderMSB = False",
        "CompressedData = False",
        f"DimSize = {dim_size}",
        f"ElementType = {element_type}",
    ]
    spacing = getattr(vol, "spacing", None)
    if spacing is not None:
        lines.append("ElementSpacing = " + " ".join(repr(float(s)) for s in spacing))
    lines.append(f"ElementDataFile = {raw_name}")
    np.ascontiguousarray(data).tofile(path.parent / raw_name)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
