"""Resizing, normalization, denoising, and slice filtering."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from octpipe.errors import ValidationError
from octpipe.preprocess import (
    NORMALIZE_MODES,
    PreprocessConfig,
    default_slice_policy,
    denoise,
    filter_slices,
    preprocess_volume,
    resize_volume,
)
from octpipe.volume_io import LabelVolume, OctVolume, Vendor


def nearest_oracle(image, tw, th):
    """Per-pixel nearest-neighbour resample with half-pixel centers."""
    src_h, src_w = image.shape
    out = np.empty((th, tw), dtype=image.dtype)
    for y in range(th):
        for x in range(tw):
            sy = math.floor((y + 0.5) * src_h / th)
            sx = math.floor((x + 0.5) * src_w / tw)
            out[y, x] = image[min(sy, src_h - 1), min(sx, src_w - 1)]
    return out


def bilinear_oracle(image, tw, th):
    """Per-pixel bilinear resample mirroring the half-pixel-center convention."""
    src_h, src_w = image.shape

    def clamp(i, n):
        return min(max(i, 0), n - 1)

    out = np.empty((th, tw), dtype=np.float64)
    for y in range(th):
        cy = (y + 0.5) * src_h / th - 0.5
        y0 = clamp(math.floor(cy), src_h)
        y1 = clamp(math.floor(cy) + 1, src_h)
        fy = cy - math.floor(cy)
        for x in range(tw):
            cx = (x + 0.5) * src_w / tw - 0.5
            x0 = clamp(math.floor(cx), src_w)
            x1 = clamp(math.floor(cx) + 1, src_w)
            fx = cx - math.floor(cx)
            top = image[y0, x0] * (1 - fx) + image[y0, x1] * fx
            bot = image[y1, x0] * (1 - fx) + image[y1, x1] * fx
            out[y, x] = top * (1 - fy) + bot * fy
    return out


def resize_plane(image, target):
    """Bilinear resize of one float32 image through a one-slice OctVolume."""
    vol = OctVolume(voxels=np.asarray(image, dtype=np.float32)[None], volume_id="one")
    return resize_volume(vol, target).voxels[0]


def test_resize_constant_slice():
    out = resize_plane(np.full((7, 9), 0.5), (572, 572))
    assert out.shape == (572, 572)
    np.testing.assert_allclose(out, 0.5)
    labels = LabelVolume(voxels=np.full((1, 7, 9), 2, dtype=np.uint8))
    out = resize_volume(labels, (572, 572)).voxels
    assert out.shape == (1, 572, 572)
    np.testing.assert_array_equal(out, 2)


def test_resize_cirrus_slice_to_square():
    rng = np.random.default_rng(3)
    image = rng.random((1024, 512), dtype=np.float32)
    out = resize_plane(image, (572, 572))
    assert out.shape == (572, 572)
    assert out.min() >= image.min() and out.max() <= image.max()


def test_resize_checkerboard_nearest_upscale():
    cells = (np.indices((4, 4)).sum(axis=0) % 2).astype(np.uint8)
    (out,) = resize_volume(LabelVolume(voxels=cells[None]), (8, 8)).voxels
    assert set(np.unique(out)) <= {0, 1}
    np.testing.assert_array_equal(out, nearest_oracle(cells, 8, 8))


def test_resize_nearest_matches_oracle_random_shapes():
    rng = np.random.default_rng(17)
    for _ in range(25):
        sh, sw = rng.integers(1, 20, size=2)
        th, tw = rng.integers(1, 20, size=2)
        image = rng.integers(0, 4, size=(sh, sw)).astype(np.uint8)
        (out,) = resize_volume(LabelVolume(voxels=image[None]), (int(tw), int(th))).voxels
        np.testing.assert_array_equal(out, nearest_oracle(image, int(tw), int(th)))


def test_resize_bilinear_matches_oracle_random_shapes():
    rng = np.random.default_rng(23)
    for _ in range(15):
        sh, sw = rng.integers(2, 16, size=2)
        th, tw = rng.integers(1, 16, size=2)
        image = rng.random((sh, sw), dtype=np.float32)
        out = resize_plane(image, (int(tw), int(th)))
        # float32 output: within one float32 ulp of the float64 oracle
        expected = bilinear_oracle(image.astype(np.float64), int(tw), int(th))
        np.testing.assert_allclose(out, expected, rtol=2.0**-23, atol=0)


def bilinear_reference(image, tw, th):
    """The whole-slice bilinear formula: convert the image to float64, weight
    two gathered rows and add them, weight two gathered columns and add them,
    then clamp to the image's range."""

    def coords(src, dst):
        centers = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
        lo = np.floor(centers).astype(np.int64)
        return np.clip(lo, 0, src - 1), np.clip(lo + 1, 0, src - 1), centers - lo

    y0, y1, fy = coords(image.shape[0], th)
    x0, x1, fx = coords(image.shape[1], tw)
    data = image.astype(np.float64)
    rows = data[y0] * (1.0 - fy)[:, None] + data[y1] * fy[:, None]
    out = rows[:, x0] * (1.0 - fx)[None, :] + rows[:, x1] * fx[None, :]
    np.clip(out, data.min(), data.max(), out=out)
    return out


FLT_MAX = float(np.finfo(np.float32).max)
FLT_TINY = float(np.finfo(np.float32).smallest_subnormal)
EXTREMES = [FLT_MAX, -FLT_MAX, FLT_TINY, -FLT_TINY, 1e-40, -1e-40, 0.0, -0.0, 1.0, -1.0]


@st.composite
def float32_volumes(draw):
    """(depth, h, w) float32 volumes with axes down to 1 pixel, drawing often
    from +-FLT_MAX, denormals and signed zeros; some slices are constant."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12)))
    elements = st.one_of(
        st.sampled_from(EXTREMES), st.floats(width=32, allow_nan=False, allow_infinity=False)
    )
    vol = draw(hnp.arrays(np.float32, shape, elements=elements))
    for z in draw(st.sets(st.integers(0, shape[0] - 1))):
        vol[z] = vol[z, 0, 0]
    return vol


def assert_resize_is_the_clamped_formula(voxels, target):
    tw, th = target
    ref = np.stack([bilinear_reference(plane, tw, th) for plane in voxels]).astype(np.float32)
    out = resize_volume(OctVolume(voxels=voxels, volume_id="r"), target).voxels
    np.testing.assert_array_equal(out.view(np.uint32), ref.view(np.uint32))


@settings(max_examples=200, deadline=None)
@given(voxels=float32_volumes(), target=st.tuples(st.integers(1, 16), st.integers(1, 16)))
def test_resize_is_bit_identical_to_the_whole_slice_formula(voxels, target):
    if voxels.shape[1:] != target[::-1]:  # a volume at the target comes back as it is
        assert_resize_is_the_clamped_formula(voxels, target)


@pytest.mark.parametrize("target", [(1, 1), (5, 3), (17, 29), (64, 48)])
def test_resize_matches_the_clamped_formula_at_extreme_values(target):
    rng = np.random.default_rng(47)
    slices = [
        np.full((9, 13), FLT_MAX),
        np.full((9, 13), -FLT_TINY),
        rng.choice([FLT_MAX, -FLT_MAX], size=(9, 13)),
        rng.choice([FLT_TINY, -FLT_TINY, 0.0, -0.0, 1e-40], size=(9, 13)),
        rng.choice(EXTREMES, size=(9, 13)),
        rng.standard_normal((9, 13)) * 1e30,
        np.where(rng.random((9, 13)) < 0.5, FLT_MAX, FLT_MAX * 0.999),
    ]
    assert_resize_is_the_clamped_formula(np.array(slices, dtype=np.float32), target)


def test_resize_volume_rejects_a_non_positive_target():
    for vol in (OctVolume(voxels=np.zeros((1, 4, 4))), LabelVolume(voxels=np.zeros((1, 4, 4)))):
        for target in ((0, 4), (4, 0), (-1, 4)):
            with pytest.raises(ValueError, match="target dimensions must be positive"):
                resize_volume(vol, target)
    with pytest.raises(ValueError, match="must be 3-D"):
        OctVolume(voxels=np.zeros((4, 4)))


def test_resize_volume_spectralis_geometry():
    vol = OctVolume(
        voxels=np.random.default_rng(1).random((49, 496, 512), dtype=np.float32),
        spacing=None,
        volume_id="s",
    )
    out = resize_volume(vol, (384, 384))
    assert out.dims == (384, 384, 49)
    assert out.volume_id == "s"


@settings(max_examples=100, deadline=None)
@given(
    src=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 3)),
    target=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    spacing=st.tuples(*[st.floats(1e-4, 1e3)] * 3),
    kind=st.sampled_from([OctVolume, LabelVolume]),
)
def test_resize_volume_keeps_each_axis_extent(src, target, spacing, kind):
    w, h, d = src
    vol = kind(voxels=np.zeros((d, h, w), np.float32), spacing=spacing, volume_id="sp")
    out = resize_volume(vol, target)
    assert type(out) is kind
    for axis, (before, after) in enumerate(zip((w, h, d), out.dims)):
        assert math.isclose(out.spacing[axis] * after, spacing[axis] * before, rel_tol=1e-12)
    assert out.spacing[2] == spacing[2]


def test_resize_volume_preserves_label_alphabet():
    rng = np.random.default_rng(11)
    voxels = rng.choice(np.array([0, 2], dtype=np.uint8), size=(3, 30, 40))
    labels = LabelVolume(voxels=voxels, volume_id="lab")
    out = resize_volume(labels, (17, 19))
    assert isinstance(out, LabelVolume)
    assert out.dims == (17, 19, 3)
    assert set(np.unique(out.voxels)) <= {0, 2}


def test_resize_volume_labels_equal_nearest_reference_slice_major():
    rng = np.random.default_rng(12)
    voxels = rng.integers(0, 4, size=(3, 30, 40), dtype=np.uint8)
    out = resize_volume(LabelVolume(voxels=voxels, volume_id="n"), (17, 45)).voxels
    iy = (2 * np.arange(45) + 1) * 30 // (2 * 45)
    ix = (2 * np.arange(17) + 1) * 40 // (2 * 17)
    np.testing.assert_array_equal(out, voxels[:, iy[:, None], ix[None, :]])
    # slice-major, so passes over one slice or chunk read contiguous memory
    assert out.flags.c_contiguous


def test_resize_volume_identity_is_exact():
    rng = np.random.default_rng(13)
    voxels = rng.integers(0, 4, size=(4, 12, 10), dtype=np.uint8)
    labels = LabelVolume(voxels=voxels, volume_id="same")
    out = resize_volume(labels, (10, 12))
    np.testing.assert_array_equal(out.voxels, voxels)
    # a volume already at the target comes back as it is, images too
    assert out is labels
    image = OctVolume(voxels=rng.random((4, 12, 10)), spacing=(0.3, 0.7, 1.1), volume_id="same")
    assert resize_volume(image, (10, 12)) is image


def normalize(vol):
    """``preprocess_volume``'s min-max rescale alone: always normalize, at the
    volume's own plane size, with no denoiser."""
    return preprocess_volume(vol, PreprocessConfig(normalize="always"), vol.dims[:2])


def test_normalize_affine_and_degenerate():
    vol = OctVolume(
        voxels=np.array([[[10.0, 20.0, 30.0]]], dtype=np.float32),
        spacing=None, volume_id="n",
    )
    np.testing.assert_allclose(normalize(vol).voxels, [[[0.0, 0.5, 1.0]]])

    flat = OctVolume(voxels=np.full((2, 2, 2), 7.0, np.float32),
                     spacing=None, volume_id="f")
    np.testing.assert_array_equal(normalize(flat).voxels, np.zeros((2, 2, 2)))


def test_normalize_idempotent():
    rng = np.random.default_rng(29)
    vol = OctVolume(voxels=rng.random((3, 8, 8), dtype=np.float32) * 40 - 5,
                    spacing=None, volume_id="r")
    once = normalize(vol)
    twice = normalize(once)
    np.testing.assert_array_equal(once.voxels, twice.voxels)


def test_normalize_rejects_non_finite():
    voxels = np.zeros((1, 2, 2), dtype=np.float32)
    voxels[0, 0, 0] = np.nan
    vol = OctVolume(voxels=voxels, spacing=None, volume_id="nan")
    with pytest.raises(ValidationError):
        normalize(vol)


def test_denoise_none_is_identity():
    image = np.random.default_rng(2).random((20, 20))
    out = denoise(image, PreprocessConfig(denoiser="none"))
    assert out is image


def test_denoise_rejects_an_image_that_is_not_2d():
    for denoiser in ("gaussian", "nlm"):
        for shape in ((16,), (2, 16, 16)):
            with pytest.raises(ValueError, match=re.escape(f"expected a 2-D image, got shape {shape}")):
                denoise(np.zeros(shape), PreprocessConfig(denoiser=denoiser))


def test_denoise_constant_slice():
    image = np.full((16, 16), 0.3)
    for denoiser in ("gaussian", "nlm"):
        out = denoise(image, PreprocessConfig(denoiser=denoiser))
        assert out.shape == image.shape
        np.testing.assert_allclose(out, 0.3, atol=1e-6)


def test_denoise_reduces_noise():
    rng = np.random.default_rng(7)
    yy, xx = np.mgrid[0:48, 0:48]
    clean = 0.5 + 0.3 * np.sin(xx / 8.0) * np.cos(yy / 10.0)
    noisy = clean + rng.normal(0.0, 0.05, clean.shape)
    noisy_mae = np.abs(noisy - clean).mean()
    for denoiser in ("gaussian", "nlm"):
        out = denoise(noisy, PreprocessConfig(denoiser=denoiser, sigma=1.0))
        assert np.abs(out - clean).mean() < noisy_mae


def gaussian_oracle(image, sigma):
    """Separable gaussian in float64 on an edge-replicated copy: scipy's
    kernel (radius ``int(4 * sigma + 0.5)``, normalised weights) and its
    ``mode="nearest"`` border, written out."""
    radius = int(4.0 * sigma + 0.5)
    k = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 * (k / sigma) ** 2)
    weights /= weights.sum()
    padded = np.pad(np.asarray(image, dtype=np.float64), radius, mode="edge")
    h, w = image.shape
    rows = sum(wt * padded[:, radius + d : radius + d + w] for d, wt in zip(k, weights))
    return sum(wt * rows[radius + d : radius + d + h] for d, wt in zip(k, weights))


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.5])
def test_gaussian_border_replicates_the_edge(sigma):
    """Both the per-B-scan call and the volume path match a written-out
    filter on an edge-replicated image, pixel for pixel up to the border; a
    mirrored border would not."""
    rng = np.random.default_rng(int(sigma * 10))
    voxels = rng.random((2, 11, 13), dtype=np.float32)
    cfg = PreprocessConfig(denoiser="gaussian", sigma=sigma)
    volume = preprocess_volume(OctVolume(voxels=voxels, volume_id="g"), cfg, (13, 11)).voxels
    for z, plane in enumerate(voxels):
        expected = gaussian_oracle(plane, sigma)
        np.testing.assert_allclose(denoise(plane, cfg), expected, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(volume[z], expected, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.5])
def test_preprocess_volume_gaussian_equals_per_slice_float64_filter(sigma):
    """The float32 B-scans filter into a float64 output with no float64 copy
    of the input; that is bit for bit the filter of each B-scan's float64 copy."""
    from scipy import ndimage

    rng = np.random.default_rng(17)
    voxels = rng.random((3, 24, 20), dtype=np.float32)
    cfg = PreprocessConfig(denoiser="gaussian", sigma=sigma)
    out = preprocess_volume(OctVolume(voxels=voxels, volume_id="b"), cfg, (20, 24)).voxels
    expected = np.stack([
        ndimage.gaussian_filter(p.astype(np.float64), sigma=sigma, mode="nearest").astype(np.float32)
        for p in voxels
    ])
    assert out.tobytes() == expected.tobytes()
    assert all(denoise(p, cfg).tobytes() == e.tobytes() for p, e in zip(voxels, expected))


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 48), st.integers(1, 48)),
    sigma_scale=st.floats(0.0, 1.0),
    magnitude=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gaussian_is_scipys_filter_bit_for_bit(shape, sigma_scale, magnitude, seed):
    """From a sigma scipy does not filter at (<= 1e-15) to one whose radius
    passes the image's larger side several times over."""
    from scipy import ndimage

    sigma = 1e-16 * (2 * max(shape) / 1e-16) ** sigma_scale  # log-uniform over 1e-16 .. 2 * side
    image = np.random.default_rng(seed).uniform(-magnitude, magnitude, shape).astype(np.float32)
    expected = ndimage.gaussian_filter(image.astype(np.float64), sigma, mode="nearest").astype(np.float32)
    assert denoise(image, PreprocessConfig(denoiser="gaussian", sigma=sigma)).tobytes() == expected.tobytes()


def nlm_oracle(image, search_radius, patch_radius, h):
    """Non-local means pixel by pixel: every coordinate that leaves the image,
    a search offset's or a comparison patch's, is clamped to the edge."""
    height, width = image.shape

    def at(y, x):
        return float(image[min(max(y, 0), height - 1), min(max(x, 0), width - 1)])

    def inside(v, n):
        return min(max(v, 0), n - 1)

    out = np.empty((height, width))
    span = range(-search_radius, search_radius + 1)
    patch = range(-patch_radius, patch_radius + 1)
    for y in range(height):
        for x in range(width):
            num = den = 0.0
            for dy in span:
                for dx in span:
                    d2 = np.mean([
                        (at(cy, cx) - at(cy + dy, cx + dx)) ** 2
                        for cy in (inside(y + py, height) for py in patch)
                        for cx in (inside(x + px, width) for px in patch)
                    ])
                    weight = np.exp(-d2 / (h * h))
                    num += weight * at(y + dy, x + dx)
                    den += weight
            out[y, x] = num / den
    return out


def test_nlm_border_replicates_the_edge():
    image = np.random.default_rng(23).random((8, 9))
    cfg = PreprocessConfig(denoiser="nlm", search_radius=2, patch_radius=2, h=0.5)
    expected = nlm_oracle(image, 2, 2, 0.5)
    np.testing.assert_allclose(denoise(image, cfg), expected, rtol=1e-6, atol=1e-7)


def test_preprocess_config_validation():
    for key, kwargs in (
        ("preprocess.target_vol", dict(target_vol=(0, 384))),
        ("preprocess.target_2d", dict(target_2d=(572,))),
        ("preprocess.denoiser", dict(denoiser="bm3d")),
        ("preprocess.sigma", dict(denoiser="gaussian", sigma=0.0)),
        ("preprocess.h", dict(denoiser="nlm", h=0.0)),
        ("preprocess.search_radius", dict(denoiser="nlm", search_radius=0)),
        ("preprocess.patch_radius", dict(denoiser="nlm", patch_radius=0)),
        ("preprocess.normalize", dict(normalize="sometimes")),
    ):
        with pytest.raises(ValidationError, match=rf"^{re.escape(key)} must"):
            PreprocessConfig(**kwargs)


def test_filter_slices_policies():
    voxels = np.zeros((49, 4, 4), dtype=np.uint8)
    voxels[3, 1, 1] = 1
    voxels[17, 2, 0] = 3
    labels = LabelVolume(voxels=voxels, volume_id="f")
    assert filter_slices(labels, "diseased_only") == [3, 17]
    assert filter_slices(labels, "all") == list(range(49))

    healthy = LabelVolume(voxels=np.zeros((5, 4, 4), dtype=np.uint8), volume_id="h")
    assert filter_slices(healthy, "diseased_only") == []

    with pytest.raises(ValueError):
        filter_slices(labels, "some")


def test_default_slice_policy_per_vendor():
    assert default_slice_policy(Vendor.CIRRUS) == "diseased_only"
    assert default_slice_policy(Vendor.SPECTRALIS) == "diseased_only"
    assert default_slice_policy(Vendor.TOPCON) == "all"
    assert default_slice_policy(None) == "diseased_only"


def test_preprocess_volume_auto_passthrough_is_bit_true():
    rng = np.random.default_rng(41)
    voxels = rng.random((4, 32, 32), dtype=np.float32)
    vol = OctVolume(voxels=voxels, spacing=None, volume_id="p")
    out = preprocess_volume(vol, PreprocessConfig(), (32, 32))
    np.testing.assert_array_equal(out.voxels, voxels)


def test_preprocess_volume_rescales_when_out_of_range():
    voxels = np.array([[[0.0, 128.0], [64.0, 255.0]]], dtype=np.float32)
    vol = OctVolume(voxels=voxels, spacing=None, volume_id="w")
    out = preprocess_volume(vol, PreprocessConfig(), (2, 2))
    assert out.voxels.min() == 0.0 and out.voxels.max() == 1.0


@pytest.mark.parametrize("mode", NORMALIZE_MODES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_preprocess_volume_rejects_non_finite_intensities_in_every_mode(mode, bad):
    voxels = np.full((2, 8, 8), 0.5, dtype=np.float32)
    voxels[1, 3, 4] = bad
    vol = OctVolume(voxels=voxels, volume_id="nf")
    with pytest.raises(ValidationError, match="volume 'nf' contains non-finite intensities"):
        preprocess_volume(vol, PreprocessConfig(normalize=mode), (8, 8))


def per_slice_preprocess(voxels, cfg, target):
    """What ``preprocess_volume`` computed before it denoised in place:
    normalize per ``cfg.normalize``, resize, then copy each B-scan's float32
    ``denoise`` into a new volume."""
    lo, hi = float(voxels.min()), float(voxels.max())
    if cfg.normalize == "always" or (cfg.normalize == "auto" and (lo < 0.0 or hi > 1.0)):
        voxels = (voxels - lo) / (hi - lo) if hi > lo else np.zeros_like(voxels)
    vol = OctVolume(voxels=voxels, volume_id="old")
    vol = resize_volume(vol, target)
    if cfg.denoiser == "none":
        return vol.voxels
    planes = [denoise(plane, cfg) for plane in vol.voxels]
    assert all(plane.dtype == np.float32 for plane in planes)
    return np.stack(planes)


def read_only_volume(shape, seed, scale=1.0):
    voxels = np.random.default_rng(seed).random(shape, dtype=np.float32) * np.float32(scale)
    voxels.flags.writeable = False
    return OctVolume(voxels=voxels, volume_id="ro")


@pytest.mark.parametrize("denoiser", ["gaussian", "nlm"])
def test_preprocess_volume_never_writes_into_its_callers_volume(denoiser):
    """A read-only volume already at the working size passes through resize
    as it is, so the denoised output must be a new volume."""
    vol = read_only_volume((3, 12, 10), seed=44)
    before = vol.voxels.tobytes()
    cfg = PreprocessConfig(denoiser=denoiser)
    out = preprocess_volume(vol, cfg, (10, 12))
    assert vol.voxels.tobytes() == before
    assert not np.shares_memory(out.voxels, vol.voxels)
    assert out.voxels.tobytes() == per_slice_preprocess(vol.voxels, cfg, (10, 12)).tobytes()


@pytest.mark.parametrize("shape", [(3, 12, 10), (3, 15, 11)], ids=["at-target", "resized"])
@pytest.mark.parametrize("mode", NORMALIZE_MODES)
@pytest.mark.parametrize("denoiser", ["none", "gaussian", "nlm"])
def test_preprocess_volume_is_bit_identical_to_the_per_slice_formula(denoiser, mode, shape):
    """Intensities in [0, 1.5): ``auto`` and ``always`` rescale and ``never``
    passes the caller's volume on, so every owner of the volume that gets
    denoised occurs; the caller's read-only input is never written."""
    vol = read_only_volume(shape, seed=45, scale=1.5)
    cfg = PreprocessConfig(denoiser=denoiser, normalize=mode)
    out = preprocess_volume(vol, cfg, (10, 12))
    assert out.voxels.dtype == np.float32
    assert out.voxels.tobytes() == per_slice_preprocess(vol.voxels, cfg, (10, 12)).tobytes()


@pytest.mark.parametrize(
    "shape, scale", [((256, 48, 40), 1.0), ((256, 32, 32), 2.0)], ids=["resized", "normalized-at-target"]
)
def test_preprocess_volume_peak_denoises_in_place(shape, scale):
    """The resize, or the rescale of a volume already at the working size,
    allocates the output, and the gaussian writes back into it through one
    float64 plane: a second output-sized volume does not fit."""
    import tracemalloc

    vol = read_only_volume(shape, seed=46, scale=scale)
    cfg = PreprocessConfig(denoiser="gaussian")
    preprocess_volume(vol, cfg, (32, 32))  # warm the path
    tracemalloc.start()
    try:
        out = preprocess_volume(vol, cfg, (32, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.voxels.nbytes


def test_preprocess_volume_resizes_and_denoises():
    rng = np.random.default_rng(43)
    vol = OctVolume(voxels=rng.random((3, 20, 24), dtype=np.float32),
                    spacing=None, volume_id="rd")
    out = preprocess_volume(vol, PreprocessConfig(denoiser="gaussian", sigma=1.0), (16, 16))
    assert out.dims == (16, 16, 3)
