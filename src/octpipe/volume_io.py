"""MetaImage (.mhd + raw) volume I/O and scanner-geometry classification.

Array convention: voxel arrays are indexed ``[z, y, x]`` (slice, row, column),
which matches the x-fastest raw payload order of MetaImage directly.  All
``dims`` tuples in the public API are ``(width, height, depth)``.  A payload
is read straight into the array that is returned, and per-voxel checks run
one slice at a time, so neither allocates a second volume.
"""

from __future__ import annotations

import enum
import math
import operator
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

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


def first_voxel(mask: np.ndarray, z: int) -> str:
    """``(x=…, y=…, z=…)`` of the first set element, in row-major order, of
    the (height, width) ``mask`` of slice ``z``."""
    y, x = np.argwhere(mask)[0]
    return f"(x={x}, y={y}, z={z})"


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
        voxels = np.asarray(self.voxels)
        if voxels.ndim != 3:
            raise ValueError(f"label volume must be 3-D, got shape {voxels.shape}")
        # checked before the cast, which wraps 256 to 0; an unsigned array needs only its max
        if voxels.size and not (voxels.dtype.kind == "u" and voxels.max() < N_CLASSES):
            for z, plane in enumerate(voxels):
                outside = ~np.isin(plane, np.arange(N_CLASSES))
                if outside.any():
                    raise ValidationError(
                        f"label value {plane[outside][0].item()} at voxel {first_voxel(outside, z)} "
                        f"outside 0..{N_CLASSES - 1}"
                    )
        self.voxels = voxels.astype(np.uint8, copy=False)

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


def read_payload(described_by: Path, source: Path, offset: int, dtype, shape) -> np.ndarray:
    """Read the ``shape`` array of ``dtype`` that the header or sidecar
    ``described_by`` promises in ``source`` from byte ``offset`` on.  It is
    allocated only once the file holds exactly its bytes; any other size
    raises FormatError naming both files and both counts."""
    expected = math.prod(map(operator.index, shape)) * np.dtype(dtype).itemsize
    with open(source, "rb") as f:
        found = os.fstat(f.fileno()).st_size - offset
        if found == expected:
            data = np.empty(shape, dtype=dtype)
            f.seek(offset)
            found = f.readinto(data)
    if found != expected:
        raise FormatError(f"{described_by}: payload {source} holds {found} bytes, expected {expected}")
    return data


def _plain(kind: type, pattern: str, form: str) -> Callable[[str], Any]:
    """``kind``'s parser, under ``kind``'s name (argparse's ``invalid int value``),
    which also refuses text ``pattern`` does not match in full (digit groups, surrounding
    space, other scripts' digits); text ``kind`` cannot read keeps its own message."""
    match = re.compile(pattern).fullmatch

    def parse(text: str) -> Any:
        value = kind(text)
        if match(text) is None:
            raise ValueError(f"expected {form}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


# what str() writes of an int and repr() of a float: a sign, digits, one point, an exponent
parse_int = _plain(int, r"[+-]?[0-9]+", "an integer")
parse_float = _plain(
    float, r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)", "a decimal number"
)


def render_float(value) -> str:
    """A float as Python spells it, a numpy scalar included: what ``parse_float`` reads."""
    return repr(float(value))


def _numbers(path: Path, header: dict[str, str], key: str, parse: Callable[[str], Any]) -> list:
    """The whitespace-separated values of header field ``key`` (none if absent), each read by ``parse``."""
    try:
        return [parse(t) for t in header.get(key, "").split()]
    except ValueError:
        raise FormatError(f"{path}: {key} must hold {parse.__name__} values, got {header[key]!r}") from None


def _load_array(path: Path, ndims: int) -> tuple[np.ndarray, dict[str, str]]:
    """Load an ``ndims``-D MetaImage file as an array shaped (..., depth, height, width)."""
    header, header_end = _parse_header(path)
    if _numbers(path, header, "NDims", parse_int) != [ndims]:
        raise FormatError(f"{path}: NDims must be {ndims}, got {header.get('NDims')}")
    if "DimSize" not in header:
        raise FormatError(f"{path}: header is missing DimSize")
    dim_size = _numbers(path, header, "DimSize", parse_int)
    if len(dim_size) != ndims:
        raise FormatError(f"{path}: DimSize has {len(dim_size)} entries for NDims={ndims}")
    if any(d < 1 for d in dim_size):
        raise FormatError(f"{path}: non-positive DimSize {dim_size}")
    # each flag reads True or False in any case; an absent one names the payload octpipe reads
    for key, refused, payload in (("BinaryData", "false", "ASCII"), ("CompressedData", "true", "compressed"),
                                  ("BinaryDataByteOrderMSB", "true", "big-endian"),
                                  ("ElementByteOrderMSB", "true", "big-endian")):
        text = header.get(key, "").lower()
        if key in header and text not in ("true", "false"):
            raise FormatError(f"{path}: {key} must be True or False, got {header[key]!r}")
        if text == refused:
            raise FormatError(f"{path}: {payload} payloads are not supported ({key} = {header[key]})")
    element_type = header.get("ElementType", "")
    dtype = ELEMENT_DTYPES.get(element_type)
    if dtype is None:
        raise FormatError(f"{path}: unsupported ElementType {element_type!r}")

    data_file = header["ElementDataFile"]
    if data_file.upper() == "LOCAL":
        source, offset = path, header_end
    else:
        source, offset = path.parent / data_file, 0
        if not source.exists():
            raise FileNotFoundError(f"{path}: raw payload file {source} does not exist")
        if not source.is_file():
            raise FormatError(f"{path}: raw payload {source} is not a regular file")
    # DimSize is fastest-first (x, y, z[, c]); numpy C-order wants slowest-first.
    return read_payload(path, source, offset, dtype, tuple(reversed(dim_size))), header


def _parse_spacing(path: Path, header: dict[str, str]) -> tuple[float, float, float] | None:
    """The (x, y, z) ElementSpacing, or None when the header has none; the
    first three values must be finite and > 0 (any further ones are ignored)."""
    if "ElementSpacing" not in header:
        return None
    parts = _numbers(path, header, "ElementSpacing", parse_float)
    if len(parts) < 3 or not (np.isfinite(parts[:3]).all() and min(parts[:3]) > 0):
        raise FormatError(
            f"{path}: ElementSpacing needs three finite values > 0, got {header['ElementSpacing']!r}"
        )
    return (parts[0], parts[1], parts[2])


def read_volume(path: str | Path) -> OctVolume:
    """Read an intensity volume; 8/16-bit unsigned payloads are converted to float32."""
    path = Path(path)
    data, header = _load_array(path, 3)
    return OctVolume(voxels=data, spacing=_parse_spacing(path, header), volume_id=path.stem)


def read_labels(path: str | Path) -> LabelVolume:
    """Read a label volume; a voxel outside the 0..3 alphabet fails naming the file."""
    path = Path(path)
    data, header = _load_array(path, 3)
    if not np.issubdtype(data.dtype, np.unsignedinteger):
        raise FormatError(f"{path}: label payload must be an unsigned integer type")
    try:
        return LabelVolume(voxels=data, volume_id=path.stem, spacing=_parse_spacing(path, header))
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


_PROB_SUFFIX = "_prob"


def check_volume_id(volume_id: object, origin: str) -> str:
    """``volume_id`` if it is a non-empty ``str`` that is its own file name
    and not ``..``, so every path built from it stays in its directory; else
    ValidationError naming ``origin``, the file or flag the id came from."""
    if not isinstance(volume_id, str) or volume_id in ("", "..") or Path(volume_id).name != volume_id:
        raise ValidationError(f"{origin}: a volume id must be a plain file name string, got {volume_id!r}")
    return volume_id


def prob_path(directory: str | Path, volume_id: str) -> Path:
    """Where ``volume_id``'s probability volume lives in ``directory``."""
    return Path(directory) / f"{volume_id}{_PROB_SUFFIX}.mhd"


def read_prob(path: str | Path) -> ProbVolume:
    """Read a 4-channel probability volume written by :func:`write_volume`;
    its id is the file stem less any ``_prob`` suffix :func:`prob_path` adds."""
    path = Path(path)
    data, header = _load_array(path, 4)
    if data.shape[0] != N_CLASSES:
        raise FormatError(f"{path}: expected {N_CLASSES} channels, got {data.shape[0]}")
    return ProbVolume(probs=data, volume_id=path.stem.removesuffix(_PROB_SUFFIX))


# the array each kind of volume is written from, and its element type on disk
_WRITTEN_AS = {
    OctVolume: ("voxels", "MET_FLOAT"),
    LabelVolume: ("voxels", "MET_UCHAR"),
    ProbVolume: ("probs", "MET_FLOAT"),
}


def write_files(*files: tuple[str | Path, str | np.ndarray]) -> None:
    """Write each (path, text or array) to a ``.part`` file beside its
    target, making its directory, in the order given, then ``os.replace``
    each target by its part in the same order, so a payload listed before
    its header is whole before the header names it.  A failed write removes
    every part, leaving the targets as they were.  Text is UTF-8.  Nothing
    is fsynced: a file is replaced whole, but not made to survive a power loss."""
    parts = []
    try:
        for path, content in files:
            parts.append(part := Path(f"{path}.part"))
            part.parent.mkdir(parents=True, exist_ok=True)
            with open(part, "wb") as f:  # unlike ndarray.tofile, raises on a failed flush
                f.write(content.encode() if isinstance(content, str) else np.ascontiguousarray(content))
        for (path, _), part in zip(files, parts):
            os.replace(part, path)
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise


def write_volume(vol: OctVolume | LabelVolume | ProbVolume, path: str | Path) -> None:
    """Write a volume as a MetaImage header plus companion raw file, payload first.

    Each kind, or a subclass of it, is stored with its ``_WRITTEN_AS``
    element type.  Probability volumes are stored channel-major as a 4-D
    MetaImage (DimSize = width height depth 4), so each class plane is a
    contiguous x-fastest block.  The header names the payload in ASCII, so
    a non-ASCII file name raises FormatError before anything is written.
    """
    path = Path(path)
    if path.suffix != ".mhd":
        raise ValueError(f"volumes are written as .mhd header + raw pair, got {path.name}")
    written = next((w for kind, w in _WRITTEN_AS.items() if isinstance(vol, kind)), None)
    if written is None:
        raise TypeError(f"cannot serialize object of type {type(vol).__name__}")
    raw_name = path.stem + ".raw"
    if not raw_name.isascii():
        raise FormatError(f"{path}: a MetaImage header names its payload in ASCII, got {raw_name!r}")
    field, element_type = written
    data = getattr(vol, field).astype(ELEMENT_DTYPES[element_type], copy=False)

    lines = [
        "ObjectType = Image",
        f"NDims = {data.ndim}",
        "BinaryData = True",
        "BinaryDataByteOrderMSB = False",
        "CompressedData = False",
        f"DimSize = {' '.join(map(str, reversed(data.shape)))}",
        f"ElementType = {element_type}",
    ]
    spacing = getattr(vol, "spacing", None)
    if spacing is not None:
        lines.append("ElementSpacing = " + " ".join(map(render_float, spacing)))
    lines.append(f"ElementDataFile = {raw_name}")
    write_files((path.parent / raw_name, data), (path, "\n".join(lines) + "\n"))
