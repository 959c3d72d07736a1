"""MetaImage reading/writing and the label/probability volume contracts."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from octpipe.config import CODECS
from octpipe.errors import FormatError, ValidationError
from octpipe.volume_io import (
    FluidClass,
    LabelVolume,
    OctVolume,
    ProbVolume,
    Vendor,
    check_volume_id,
    parse_float,
    parse_int,
    prob_path,
    read_labels,
    read_prob,
    read_volume,
    render_float,
    vendor_of,
    write_volume,
)


def write_mhd(path, header_lines, payload):
    lines = list(header_lines) + [f"ElementDataFile = {path.stem}.raw"]
    path.write_text("\n".join(lines) + "\n")
    path.with_suffix(".raw").write_bytes(payload)


def header_for(dims, element_type):
    w, h, d = dims
    return [
        "ObjectType = Image",
        "NDims = 3",
        f"DimSize = {w} {h} {d}",
        f"ElementType = {element_type}",
        "ElementSpacing = 1.0 1.0 1.0",
    ]


def test_float_volume_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    voxels = rng.random((6, 5, 4), dtype=np.float32)
    vol = OctVolume(voxels=voxels, spacing=(0.5, 0.25, 2.0), volume_id="v")
    write_volume(vol, tmp_path / "v.mhd")
    back = read_volume(tmp_path / "v.mhd")
    assert back.dims == (4, 5, 6)
    assert back.spacing == (0.5, 0.25, 2.0)
    np.testing.assert_array_equal(back.voxels, voxels)


def test_failed_payload_write_leaves_no_header(tmp_path):
    (tmp_path / "v.raw").mkdir()
    vol = OctVolume(voxels=np.zeros((2, 3, 4), dtype=np.float32), volume_id="v")
    with pytest.raises(IsADirectoryError):
        write_volume(vol, tmp_path / "v.mhd")
    assert not (tmp_path / "v.mhd").exists()


def test_label_round_trip_many_seeds(tmp_path):
    for seed in range(40, 60):
        rng = np.random.default_rng(seed)
        voxels = rng.integers(0, 4, size=(2, 8, 8), dtype=np.uint8)
        write_volume(LabelVolume(voxels=voxels, volume_id="x"), tmp_path / f"x{seed}.mhd")
        back = read_labels(tmp_path / f"x{seed}.mhd")
        np.testing.assert_array_equal(back.voxels, voxels)


def test_spectralis_zero_labels_round_trip(tmp_path):
    voxels = np.zeros((49, 496, 512), dtype=np.uint8)
    write_volume(LabelVolume(voxels=voxels, volume_id="spec"), tmp_path / "spec.mhd")
    back = read_labels(tmp_path / "spec.mhd")
    assert back.dims == (512, 496, 49)
    assert int(back.voxels.max()) == 0


def test_prob_volume_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    raw = rng.random((4, 3, 6, 5)).astype(np.float32)
    probs = raw / raw.sum(axis=0, keepdims=True)
    prob = ProbVolume(probs=probs, volume_id="p")
    prob.validate()
    write_volume(prob, tmp_path / "p_prob.mhd")
    back = read_prob(tmp_path / "p_prob.mhd")
    assert back.volume_id == "p"
    np.testing.assert_array_equal(back.probs, probs)
    back.validate()


def test_prob_uniform_quarters_round_trip(tmp_path):
    probs = np.full((4, 2, 4, 4), 0.25, dtype=np.float32)
    write_volume(ProbVolume(probs=probs, volume_id="u"), tmp_path / "u_prob.mhd")
    back = read_prob(tmp_path / "u_prob.mhd")
    np.testing.assert_allclose(back.probs.sum(axis=0), 1.0, atol=1e-6)


shapes = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=8)
# every float32, -0.0, infinities and NaN included
floats32 = st.floats(width=32) | st.just(-0.0)


def round_trip(vol, name, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.mhd"
        write_volume(vol, path)
        return read(path)


@settings(max_examples=100, deadline=None)
@given(
    voxels=hnp.arrays(np.float32, shapes, elements=floats32),
    spacing=st.none() | st.tuples(*[st.floats(1e-6, 1e6)] * 3),
)
def test_oct_volume_round_trip_is_bit_identical(voxels, spacing):
    back = round_trip(OctVolume(voxels=voxels, spacing=spacing), "v", read_volume)
    assert back.voxels.dtype == np.float32 and back.voxels.shape == voxels.shape
    assert back.voxels.tobytes() == voxels.tobytes()
    assert back.spacing == spacing
    assert back.volume_id == "v"


@settings(max_examples=100, deadline=None)
@given(
    voxels=hnp.arrays(np.uint8, shapes, elements=st.integers(0, 3)),
    spacing=st.none() | st.tuples(*[st.floats(1e-6, 1e6)] * 3),
)
def test_label_volume_round_trip_is_bit_identical(voxels, spacing):
    back = round_trip(LabelVolume(voxels=voxels, spacing=spacing), "l", read_labels)
    assert back.voxels.dtype == np.uint8 and back.voxels.shape == voxels.shape
    assert back.voxels.tobytes() == voxels.tobytes()
    assert back.spacing == spacing
    assert back.volume_id == "l"


@settings(max_examples=100, deadline=None)
@given(shapes.flatmap(lambda s: hnp.arrays(np.float32, (4,) + s, elements=floats32)))
def test_prob_volume_round_trip_is_bit_identical(probs):
    back = round_trip(ProbVolume(probs=probs), "p_prob", read_prob)
    assert back.probs.dtype == np.float32 and back.probs.shape == probs.shape
    assert back.probs.tobytes() == probs.tobytes()
    assert back.volume_id == "p"


def test_read_uchar_and_ushort_intensities(tmp_path):
    data8 = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    write_mhd(tmp_path / "u8.mhd", header_for((4, 3, 2), "MET_UCHAR"), data8.tobytes())
    vol8 = read_volume(tmp_path / "u8.mhd")
    assert vol8.voxels.dtype == np.float32
    np.testing.assert_array_equal(vol8.voxels, data8.astype(np.float32))

    data16 = (np.arange(24, dtype=np.uint16) * 100).reshape(2, 3, 4)
    write_mhd(
        tmp_path / "u16.mhd", header_for((4, 3, 2), "MET_USHORT"), data16.astype("<u2").tobytes()
    )
    vol16 = read_volume(tmp_path / "u16.mhd")
    np.testing.assert_array_equal(vol16.voxels, data16.astype(np.float32))


def test_vendor_of_table_geometries():
    assert vendor_of((512, 1024, 128)) == Vendor.CIRRUS
    assert vendor_of((512, 496, 49)) == Vendor.SPECTRALIS
    assert vendor_of((512, 885, 128)) == Vendor.TOPCON
    assert vendor_of((512, 650, 128)) == Vendor.TOPCON
    assert vendor_of((100, 100, 100)) is None


def test_volume_id_from_stem_and_prob_suffix(tmp_path):
    voxels = np.zeros((2, 2, 2), dtype=np.float32)
    write_volume(
        OctVolume(voxels=voxels, spacing=None, volume_id="ignored"),
        tmp_path / "case07.mhd",
    )
    assert read_volume(tmp_path / "case07.mhd").volume_id == "case07"

    probs = np.zeros((4, 1, 2, 2), dtype=np.float32)
    probs[0] = 1.0
    write_volume(ProbVolume(probs=probs, volume_id="x"), tmp_path / "case07_prob.mhd")
    assert read_prob(tmp_path / "case07_prob.mhd").volume_id == "case07"


def test_label_value_out_of_range_rejected(tmp_path):
    data = np.zeros((1, 2, 3), dtype=np.uint8)
    data[0, 1, 2] = 7
    write_mhd(tmp_path / "bad.mhd", header_for((3, 2, 1), "MET_UCHAR"), data.tobytes())
    with pytest.raises(ValidationError) as err:
        read_labels(tmp_path / "bad.mhd")
    msg = str(err.value)
    assert "7" in msg and "x=2" in msg and "y=1" in msg and "z=0" in msg

    # checked as read: a cast to uint8 would wrap 256 to 0
    wide = np.zeros((2, 2, 3), dtype="<u2")
    wide[1, 0, 2] = 256
    write_mhd(tmp_path / "wide.mhd", header_for((3, 2, 2), "MET_USHORT"), wide.tobytes())
    with pytest.raises(ValidationError, match=re.escape(
        f"{tmp_path / 'wide.mhd'}: label value 256 at voxel (x=2, y=0, z=1) outside 0..3"
    )):
        read_labels(tmp_path / "wide.mhd")


def test_label_volume_constructor_rejects_bad_alphabet():
    with pytest.raises(ValidationError):
        LabelVolume(voxels=np.full((1, 2, 2), 9, dtype=np.uint8), volume_id="bad")
    with pytest.raises(ValidationError, match=re.escape("label value 256 at voxel (x=0, y=0, z=0)")):
        LabelVolume(np.array([[[256, 257, 1]]]))  # not cast to [0, 1, 1] first
    with pytest.raises(ValueError, match=re.escape("label volume must be 3-D, got shape (2, 2)")):
        LabelVolume(voxels=np.zeros((2, 2), dtype=np.uint8), volume_id="flat")


# the values outside 0..3 each element type can hold
BAD_LABELS = {
    np.uint8: (4,),
    np.uint16: (256, 4),
    np.int64: (256, -1, 4),
    np.float32: (256, -1, 4, 1.5, np.nan),
    np.float64: (256, -1, 4, 1.5, np.nan),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(sorted(BAD_LABELS, key=str)))
def test_label_volume_checks_every_value_before_its_uint8_cast(data, dtype):
    """Values in 0..3 of any integer or float type construct and equal their
    uint8 cast.  A value outside the alphabet, placed at one or more drawn
    voxels, fails naming the first of them in (z, y, x) order and its value,
    where the cast would have wrapped 256 to 0, -1 to 255 and 1.5 to 1."""
    shape = data.draw(hnp.array_shapes(min_dims=3, max_dims=3, max_side=5))
    voxels = data.draw(hnp.arrays(dtype, shape, elements=st.integers(0, 3)))
    assert LabelVolume(voxels).voxels.tobytes() == voxels.astype(np.uint8).tobytes()

    bad = np.asarray(data.draw(st.sampled_from(BAD_LABELS[dtype])), dtype=dtype)
    at = data.draw(st.lists(st.integers(0, voxels.size - 1), min_size=1, max_size=3, unique=True))
    voxels.flat[at] = bad
    z, y, x = np.unravel_index(min(at), shape)
    with pytest.raises(ValidationError, match=re.escape(
        f"label value {bad.item()} at voxel (x={x}, y={y}, z={z}) outside 0..3"
    )):
        LabelVolume(voxels)


@pytest.mark.parametrize(
    "name, vol, error, message",
    [
        ("v.raw", OctVolume(np.zeros((1, 2, 2))), ValueError,
         "volumes are written as .mhd header + raw pair, got v.raw"),
        ("v.mhd", np.zeros((1, 2, 2)), TypeError, "cannot serialize object of type ndarray"),
    ],
)
def test_write_volume_refuses_another_path_or_object(tmp_path, name, vol, error, message):
    with pytest.raises(error, match=re.escape(message)):
        write_volume(vol, tmp_path / name)
    assert not list(tmp_path.iterdir())


def test_write_volume_writes_a_subclass_as_its_base(tmp_path):
    class Annotated(LabelVolume):
        pass

    voxels = np.array([[[0, 1], [2, 3]]], dtype=np.uint8)
    write_volume(Annotated(voxels=voxels, volume_id="sub"), tmp_path / "sub.mhd")
    assert "ElementType = MET_UCHAR" in (tmp_path / "sub.mhd").read_text()
    np.testing.assert_array_equal(read_labels(tmp_path / "sub.mhd").voxels, voxels)


def test_malformed_headers_rejected(tmp_path):
    payload = np.zeros(8, dtype=np.uint8).tobytes()

    lines = header_for((2, 2, 2), "MET_UCHAR")
    write_mhd(tmp_path / "nodim.mhd", [l for l in lines if not l.startswith("DimSize")], payload)
    with pytest.raises(FormatError):
        read_volume(tmp_path / "nodim.mhd")

    bad_ndims = ["ObjectType = Image", "NDims = 2", "DimSize = 2 4",
                 "ElementType = MET_UCHAR", "ElementDataFile = LOCAL"]
    write_mhd(tmp_path / "ndims.mhd", bad_ndims, payload)
    with pytest.raises(FormatError):
        read_volume(tmp_path / "ndims.mhd")

    compressed = header_for((2, 2, 2), "MET_UCHAR")
    compressed.insert(4, "CompressedData = True")
    write_mhd(tmp_path / "comp.mhd", compressed, payload)
    with pytest.raises(FormatError):
        read_volume(tmp_path / "comp.mhd")

    big_endian = header_for((2, 2, 2), "MET_UCHAR")
    big_endian.insert(4, "BinaryDataByteOrderMSB = True")
    write_mhd(tmp_path / "msb.mhd", big_endian, payload)
    with pytest.raises(FormatError):
        read_volume(tmp_path / "msb.mhd")

    write_mhd(tmp_path / "etype.mhd", header_for((2, 2, 2), "MET_DOUBLE"), payload)
    with pytest.raises(FormatError):
        read_volume(tmp_path / "etype.mhd")

    # fewer than three spacings, or one that is not finite and > 0
    for i, spacing in enumerate(["1 1", "", "nan 1 1", "1 inf 1", "1 1 0", "-1 1 1"]):
        lines = [l for l in header_for((2, 2, 2), "MET_UCHAR") if not l.startswith("ElementSpacing")]
        path = tmp_path / f"spacing{i}.mhd"
        write_mhd(path, lines + [f"ElementSpacing = {spacing}"], payload)
        for read in (read_volume, read_labels):
            with pytest.raises(FormatError, match=re.escape(f"{path}: ElementSpacing")):
                read(path)


def test_payload_size_mismatch_reported(tmp_path):
    path = tmp_path / "short.mhd"
    write_mhd(path, header_for((4, 4, 4), "MET_UCHAR"), b"\x00" * 10)
    message = f"{path}: payload {tmp_path / 'short.raw'} holds 10 bytes, expected 64"
    with pytest.raises(FormatError, match=re.escape(message)):
        read_volume(path)


def test_payload_size_is_checked_before_allocating(tmp_path):
    # 10^15 float32 values would need 3.55 PiB; the 32-byte payload is reported instead
    path = tmp_path / "huge.mhd"
    write_mhd(path, header_for((100000, 100000, 100000), "MET_FLOAT"), b"\x00" * 32)
    message = f"{path}: payload {tmp_path / 'huge.raw'} holds 32 bytes, expected 4000000000000000"
    with pytest.raises(FormatError, match=re.escape(message)):
        read_volume(path)


@pytest.mark.parametrize("data_file", ["", ".", ".."])
def test_payload_that_is_not_a_regular_file_names_the_header(tmp_path, data_file):
    path = tmp_path / "dir.mhd"
    lines = header_for((2, 2, 2), "MET_UCHAR") + [f"ElementDataFile = {data_file}"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: raw payload")) as err:
        read_volume(path)
    assert "not a regular file" in str(err.value)


def test_missing_raw_companion(tmp_path):
    lines = header_for((2, 2, 2), "MET_UCHAR") + ["ElementDataFile = lost.raw"]
    (tmp_path / "lost.mhd").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileNotFoundError):
        read_volume(tmp_path / "lost.mhd")


def test_local_payload_in_same_file(tmp_path):
    lines = header_for((2, 2, 2), "MET_UCHAR") + ["ElementDataFile = LOCAL"]
    data = np.arange(8, dtype=np.uint8)
    with open(tmp_path / "local.mhd", "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))
        f.write(data.tobytes())
    vol = read_volume(tmp_path / "local.mhd")
    np.testing.assert_array_equal(vol.voxels.reshape(-1), data.astype(np.float32))


def test_prob_validate_rejects_bad_fields():
    bad_sum = np.zeros((4, 1, 2, 2), dtype=np.float32)
    bad_sum[0] = 0.5
    with pytest.raises(ValidationError):
        ProbVolume(probs=bad_sum, volume_id="s").validate()

    negative = np.full((4, 1, 2, 2), 0.25, dtype=np.float32)
    negative[1, 0, 0, 0] = -0.2
    negative[0, 0, 0, 0] = 0.7
    with pytest.raises(ValidationError):
        ProbVolume(probs=negative, volume_id="n").validate()


def test_prob_volume_validate_cases():
    good = np.full((4, 1, 2, 2), 0.25, dtype=np.float32)
    ProbVolume(probs=good, volume_id="good").validate()
    with pytest.raises(ValidationError):
        ProbVolume(probs=np.zeros((3, 1, 2, 2)), volume_id="three")
    low = np.full((4, 1, 2, 2), 0.2, dtype=np.float32)
    with pytest.raises(ValidationError, match="'low'"):
        ProbVolume(probs=low, volume_id="low").validate()
    signed = good.copy()
    signed[1, 0, 0, 0] = -0.25
    signed[0, 0, 0, 0] = 0.75
    with pytest.raises(ValidationError, match="'signed'"):
        ProbVolume(probs=signed, volume_id="signed").validate()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_prob_validate_tolerance_sits_between_5e6_and_2e5(sign):
    """Channel sums off 1 by 5e-6 pass and by 2e-5 fail, in either direction."""
    for off, passes in ((5e-6, True), (2e-5, False)):
        probs = np.full((4, 2, 3, 3), 0.25, dtype=np.float32)
        probs[1, 1, 2, 0] += np.float32(sign * off)
        vol = ProbVolume(probs=probs, volume_id="tol")
        if passes:
            vol.validate()
        else:
            with pytest.raises(ValidationError, match="channel sums deviate from 1 by up to 2"):
                vol.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prob_validate_rejects_non_finite_values(bad):
    everywhere = np.full((4, 1, 2, 2), bad, dtype=np.float32)
    with pytest.raises(ValidationError, match="non-finite probability in volume 'all'"):
        ProbVolume(probs=everywhere, volume_id="all").validate()
    one_voxel = np.full((4, 1, 2, 2), 0.25, dtype=np.float32)
    one_voxel[2, 0, 1, 1] = bad
    with pytest.raises(ValidationError, match="non-finite probability in volume 'one'"):
        ProbVolume(probs=one_voxel, volume_id="one").validate()


def test_prob_validate_precedence_across_slices():
    good = np.full((4, 3, 2, 2), 0.25, dtype=np.float32)

    def message(probs):
        with pytest.raises(ValidationError) as err:
            ProbVolume(probs=probs, volume_id="v").validate()
        return str(err.value)

    # a negative value in a later slice beats an earlier sum deviation or NaN
    probs = good.copy()
    probs[0, 0, 0, 0] = 0.5
    probs[2, 1, 1, 0] = np.nan
    probs[1, 2, 1, 1], probs[0, 2, 1, 1] = -0.25, 0.75
    assert message(probs) == "negative probability in volume 'v'"
    # a non-finite value beats a sum deviation, and is caught in the last slice
    probs = good.copy()
    probs[0, 0, 0, 0] = 0.9
    probs[3, 2, 1, 1] = np.nan
    assert message(probs) == "non-finite probability in volume 'v'"
    # the reported deviation is the largest in the volume, not the first one met
    probs = good.copy()
    probs[0, 0, 0, 0] = 0.3
    probs[0, 1, 1, 0] = 0.5
    probs[0, 2, 0, 1] = 0.375
    assert message(probs) == "channel sums deviate from 1 by up to 0.25 in volume 'v'"


@pytest.mark.parametrize(
    "field, line",
    [
        ("NDims", "NDims = three"),
        ("DimSize", "DimSize = 2 2 two"),
        ("ElementSpacing", "ElementSpacing = 1.0 wide 1.0"),
    ],
)
def test_non_numeric_header_field_is_a_format_error(tmp_path, field, line):
    lines = [line if l.startswith(field) else l for l in header_for((2, 2, 2), "MET_UCHAR")]
    path = tmp_path / "field.mhd"
    write_mhd(path, lines, np.zeros(8, dtype=np.uint8).tobytes())
    with pytest.raises(FormatError) as err:
        read_volume(path)
    assert str(path) in str(err.value) and field in str(err.value)


@pytest.mark.parametrize(
    "line, message",
    [
        # a writer that spells true as 1 would have its big-endian payload read as little-endian
        ("BinaryDataByteOrderMSB = 1", "BinaryDataByteOrderMSB must be True or False, got '1'"),
        ("CompressedData = yes", "CompressedData must be True or False, got 'yes'"),
        ("BinaryData = False", "ASCII payloads are not supported"),
        ("BinaryData = false", "ASCII payloads are not supported"),
        ("BinaryDataByteOrderMSB = TRUE", "big-endian payloads are not supported"),
        # MetaIO's other name for the byte-order flag
        ("ElementByteOrderMSB = True", "big-endian payloads are not supported (ElementByteOrderMSB = True)"),
        ("ElementByteOrderMSB = 1", "ElementByteOrderMSB must be True or False, got '1'"),
    ],
)
def test_header_flags_read_true_or_false_in_any_case(tmp_path, line, message):
    path = tmp_path / "flag.mhd"
    write_mhd(path, header_for((2, 2, 2), "MET_UCHAR") + [line], np.zeros(8, dtype=np.uint8).tobytes())
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        read_volume(path)


def test_header_flags_in_any_case_that_name_a_raw_payload_read(tmp_path):
    path = tmp_path / "flags.mhd"
    flags = ["BinaryData = TRUE", "CompressedData = false", "BinaryDataByteOrderMSB = False",
             "ElementByteOrderMSB = False"]
    write_mhd(path, header_for((2, 2, 2), "MET_UCHAR") + flags, bytes(range(8)))
    assert read_volume(path).voxels.ravel().tolist() == list(range(8))


def test_headers_and_settings_read_numbers_with_one_codec():
    assert CODECS[int] == (parse_int, str)
    assert CODECS[float] == (parse_float, render_float)


def _digit_group(token: str, at: int) -> str:
    """``token`` with an underscore between two of its digits, which Python's
    ``int`` and ``float`` read as if it were not there; a token with no two
    digits side by side gets a leading zero first (``3`` becomes ``0_3``)."""
    pairs = [i + 1 for i in range(len(token) - 1) if token[i : i + 2].isdigit()]
    if not pairs:
        return _digit_group("0" + token, at)
    i = pairs[at % len(pairs)]
    return token[:i] + "_" + token[i:]


@settings(max_examples=100, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 24)] * 3),
    spacing=st.tuples(*[st.floats(0, exclude_min=True, allow_infinity=False)] * 3),
    mutation=st.tuples(st.sampled_from([("NDims", int), ("DimSize", int), ("ElementSpacing", float)]),
                       st.integers(0, 2), st.integers(0, 30)),
)
# spacings whose repr has an exponent, a subnormal one among them, and a depth of 0_2
@example(dims=(10, 11, 12), spacing=(1e-07, 2.5e+16, 5e-324), mutation=(("ElementSpacing", float), 0, 0))
@example(dims=(4, 3, 2), spacing=(1.0, 1.0, 1.0), mutation=(("DimSize", int), 2, 0))
@example(dims=(4, 3, 2), spacing=(1.0, 1.0, 1.0), mutation=(("NDims", int), 0, 0))
def test_header_numbers_read_back_exactly_and_refuse_digit_groups(dims, spacing, mutation):
    """What ``write_volume`` writes reads back exactly; the same header with
    one ``NDims``, ``DimSize`` or ``ElementSpacing`` token spelled with a
    digit-group underscore is refused naming that key, though Python's
    ``int`` or ``float`` reads the token as the value it was written from."""
    (key, kind), which, at = mutation
    w, h, d = dims
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.mhd"
        write_volume(OctVolume(np.zeros((d, h, w), np.float32), spacing=spacing), path)
        back = read_volume(path)
        assert back.dims == dims and back.spacing == spacing

        lines = path.read_text().splitlines()
        i = next(n for n, line in enumerate(lines) if line.startswith(f"{key} = "))
        tokens = lines[i].split(" = ")[1].split()
        which %= len(tokens)
        grouped = _digit_group(tokens[which], at)
        assert "_" in grouped and kind(grouped) == kind(tokens[which])
        tokens[which] = grouped
        lines[i] = f"{key} = {' '.join(tokens)}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: {key} must hold {kind.__name__} values")):
            read_volume(path)


@pytest.mark.parametrize(
    "read, lines, payload, message",
    [
        (read_volume, ["DimSize = 2 4"], 8, "DimSize has 2 entries for NDims=3"),
        (read_volume, ["DimSize = 2 0 4"], 8, "non-positive DimSize [2, 0, 4]"),
        (read_volume, ["Comment = caf\u00e9"], 8, "non-ASCII bytes in header"),
        (read_labels, ["ElementType = MET_FLOAT"], 32, "label payload must be an unsigned integer type"),
        (read_prob, ["NDims = 4", "DimSize = 2 2 2 3", "ElementType = MET_FLOAT"], 96,
         "expected 4 channels, got 3"),
        (read_volume, ["NDims = 4", "DimSize = 2 2 2 1"], 8, "NDims must be 3, got 4"),
        (read_labels, ["NDims = 4", "DimSize = 2 2 2 1"], 8, "NDims must be 3, got 4"),
        (read_prob, ["ElementType = MET_FLOAT"], 32, "NDims must be 4, got 3"),
    ],
)
def test_header_that_does_not_fit_its_reader_names_the_file(tmp_path, read, lines, payload, message):
    """Each line replaces the header line of its key, or is added; the
    payload holds ``payload`` bytes, as many as the header asks for."""
    header = header_for((2, 2, 2), "MET_UCHAR")
    for line in lines:
        key = line.partition("=")[0]
        header = [l for l in header if not l.startswith(key)] + [line]
    path = tmp_path / "case.mhd"
    path.write_bytes(("\n".join(header + ["ElementDataFile = case.raw"]) + "\n").encode("utf-8"))
    path.with_suffix(".raw").write_bytes(bytes(payload))
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        read(path)


def test_header_key_given_twice_is_a_format_error(tmp_path):
    """Were the last DimSize to win, this header would read as (2, 3, 2)."""
    lines = header_for((3, 2, 2), "MET_UCHAR")
    lines.insert(lines.index("DimSize = 3 2 2") + 1, "DimSize = 2 3 2")
    path = tmp_path / "twice.mhd"
    write_mhd(path, lines, np.zeros(12, dtype=np.uint8).tobytes())
    for read in (read_volume, read_labels):
        with pytest.raises(FormatError, match=re.escape(f"{path}: header key 'DimSize' is given twice")):
            read(path)


@pytest.mark.parametrize("volume_id", ["cirrus_00", "...", "a b", ".hidden"])
def test_a_volume_id_that_is_a_file_name_stays_in_its_directory(tmp_path, volume_id):
    assert check_volume_id(volume_id, "origin") == volume_id
    assert prob_path(tmp_path, volume_id).parent == tmp_path


@pytest.mark.parametrize("volume_id", ["", ".", "..", "../x", "a/b", "a/", "./a", "/abs", 7, None, b"x"])
def test_a_volume_id_that_is_no_file_name_is_refused_naming_its_origin(volume_id):
    message = f"inventory.json: a volume id must be a plain file name string, got {volume_id!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        check_volume_id(volume_id, "inventory.json")


def test_fluid_class_values():
    assert [int(c) for c in FluidClass] == [0, 1, 2, 3]
    assert FluidClass.BACKGROUND == 0 and FluidClass.PED == 3


# values a fuzzed header field may take: junk text, empty, signed and huge
# numbers, non-finite floats, valid tokens of other fields, and number lists
_junk = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="/\\"),
                max_size=12)
_number_lists = st.lists(
    st.sampled_from(["-1", "0", "1", "2", "3", "4", "100000", "99999999999", "nan", "inf", "1e3"]),
    max_size=5,
).map(" ".join)
_tokens = st.sampled_from(
    ["", "LOCAL", ".", "..", "True", "False", "MET_UCHAR", "MET_USHORT", "MET_FLOAT", "MET_DOUBLE"]
)
_values = _junk | _number_lists | _tokens


@st.composite
def mutated_headers(draw):
    """The header lines of a valid labels or probability volume, mutated by
    dropping, duplicating or replacing lines and by replacing values."""
    lines = list(draw(st.sampled_from([_LABEL_HEADER, _PROB_HEADER])))
    for _ in range(draw(st.integers(1, 4))):  # a header has 8 or 9 lines, so some stay
        i = draw(st.sampled_from(range(len(lines))))
        op = draw(st.sampled_from(["drop", "duplicate", "junk line", "value"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "junk line":
            lines[i] = draw(_junk)
        else:
            lines[i] = f"{lines[i].partition('=')[0].strip()} = {draw(_values)}"
    return lines


def _header_lines(vol, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write_volume(vol, path)
        return tuple(path.read_text().splitlines())


_LABELS = LabelVolume(np.arange(12, dtype=np.uint8).reshape(2, 2, 3) % 4, spacing=(0.5, 1.0, 2.0))
_PROBS = ProbVolume(np.full((4, 2, 2, 3), 0.25, np.float32))
_LABEL_HEADER = _header_lines(_LABELS, "case.mhd")
_PROB_HEADER = _header_lines(_PROBS, "case_prob.mhd")


def _with(header, line):
    """``header`` with the line of ``line``'s key replaced by ``line``."""
    key = line.partition("=")[0]
    return [line if old.startswith(key) else old for old in header]


@settings(max_examples=300, deadline=None)
@given(lines=mutated_headers(), read=st.sampled_from([read_volume, read_labels, read_prob]))
# pinned: a DimSize whose array would need 3.55 PiB, and a directory as the payload
@example(lines=_with(_LABEL_HEADER, "DimSize = 100000 100000 100000"), read=read_labels)
@example(lines=_with(_LABEL_HEADER, "ElementDataFile = ."), read=read_volume)
def test_fuzzed_header_reads_or_fails_naming_its_file(lines, read):
    """Both base volumes sit beside the fuzzed header, so every payload a
    valid header names exists."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_volume(_LABELS, tmp / "case.mhd")
        write_volume(_PROBS, tmp / "case_prob.mhd")
        path = tmp / "fuzzed.mhd"
        path.write_text("\n".join(lines) + "\n")
        payloads = [
            str(tmp / value.strip())
            for key, _, value in (line.partition("=") for line in lines)
            if key.strip() == "ElementDataFile"
        ]
        try:
            read(path)
        except (FormatError, ValidationError, FileNotFoundError) as exc:
            assert str(exc).startswith(f"{path}: "), exc
            # a payload of the wrong size is the header itself or a file beside it
            mismatch = re.fullmatch(r".*: payload (.*) holds -?\d+ bytes, expected \d+", str(exc))
            assert mismatch is None or mismatch[1] in (str(path), *payloads), exc
