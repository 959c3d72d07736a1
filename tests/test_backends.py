"""Prediction backends and the training loss."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from octpipe import backends
from octpipe.backends import (
    BANDS,
    Backend,
    TrainingConfig,
    external_backend,
    one_hot,
    oracle_backend,
    parse_backend_descriptor,
    threshold_backend,
    weighted_cross_entropy,
)
from octpipe.errors import ValidationError
from octpipe.patch_engine import DepthMode, PatchBatch, extract, plan_grid
from octpipe.volume_io import LabelVolume, OctVolume, ProbVolume, read_prob, write_volume


def band_labels(intensity):
    """Reference band labels: <=b1 -> 0, <=b2 -> 1, <=b3 -> 2, else 3, by
    three masked assignments over a uint8 array of 3s."""
    b1, b2, b3 = BANDS
    out = np.full(intensity.shape, 3, dtype=np.uint8)
    out[intensity <= b3] = 2
    out[intensity <= b2] = 1
    out[intensity <= b1] = 0
    return out


def threshold_labels(values):
    """The threshold backend's arg-max over a row of values, as a 2D batch."""
    data = np.asarray(values, dtype=np.float32).reshape(len(values), 1, 1, 1)
    batch = PatchBatch(np.zeros((len(values), 3), int), data)
    return threshold_backend().predict(batch, DepthMode.D2, "v").argmax(axis=1).ravel()


def test_threshold_backend_band_edges_are_inclusive():
    values = [0.0, 0.25, 0.2500001, 0.5, 0.5000001, 0.75, 0.7500001, 1.0, np.nan, np.inf, -np.inf]
    assert threshold_labels(values).tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 3, 3, 0]


EDGE_VALUES = [
    float(v)
    for cut in np.float32(BANDS)
    for v in (np.nextafter(cut, np.float32(-np.inf)), cut, np.nextafter(cut, np.float32(np.inf)))
] + [0.0, -0.0, np.inf, -np.inf, np.nan]


@st.composite
def threshold_batches(draw):
    """(mode, PatchBatch) with float32 data mixing random values and the band
    edges, their float32 neighbours, signed zeros, infinities and NaN."""
    mode = draw(st.sampled_from(list(DepthMode)))
    planes = {DepthMode.D2: 1, DepthMode.D25: 3}.get(mode) or draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    elements = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(width=32))
    data = draw(hnp.arrays(np.float32, (n, planes, draw(st.integers(1, 5)), draw(st.integers(1, 5))),
                           elements=elements))
    return mode, PatchBatch(np.zeros((n, 3), int), data)


@settings(max_examples=300, deadline=None)
@given(case=threshold_batches())
def test_threshold_backend_equals_one_hot_of_band_labels(case):
    mode, batch = case
    data = batch.data if mode is DepthMode.D3 else batch.data[:, batch.data.shape[1] // 2]
    expected = one_hot(band_labels(data), axis=1)
    got = threshold_backend().predict(batch, mode, "v")
    assert got.dtype == np.float32 and got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint32), expected.view(np.uint32))


def test_one_hot_round_trip():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 4, size=(3, 5, 7), dtype=np.uint8)
    encoded = one_hot(labels)
    assert encoded.shape == (4, 3, 5, 7)
    np.testing.assert_allclose(encoded.sum(axis=0), 1.0)
    np.testing.assert_array_equal(encoded.argmax(axis=0), labels)


def test_parse_backend_descriptor():
    assert parse_backend_descriptor("threshold") == ("threshold", "")
    assert parse_backend_descriptor("oracle") == ("oracle", "")
    assert parse_backend_descriptor("external:/probs") == ("external", "/probs")
    with pytest.raises(ValidationError):
        parse_backend_descriptor("unet")
    with pytest.raises(ValidationError):
        parse_backend_descriptor("external")
    with pytest.raises(ValidationError):
        parse_backend_descriptor("oracle:/probs")


def band_volume(dims, seed):
    """Intensity volume whose band classification is knowable by construction."""
    w, h, d = dims
    rng = np.random.default_rng(seed)
    return OctVolume(voxels=rng.random((d, h, w), dtype=np.float32),
                     spacing=None, volume_id="bv")


def test_threshold_backend_center_plane_semantics():
    vol = band_volume((32, 32, 5), seed=2)
    grid = plan_grid((32, 32), (16, 16), 0.5, DepthMode.D25)
    batch = extract(vol, grid, z=2)
    backend = threshold_backend()
    preds = backend.predict(batch, DepthMode.D25, "bv")
    assert len(preds) == len(batch)
    for data, pred in zip(batch.data, preds):
        assert pred.shape == (4, 16, 16)
        np.testing.assert_array_equal(
            pred.argmax(axis=0), band_labels(data[1])
        )
        ProbVolume(probs=pred[:, None]).validate()


def test_threshold_backend_3d_classifies_every_plane():
    vol = band_volume((16, 16, 3), seed=3)
    grid = plan_grid((16, 16), (16, 16), 0.0, DepthMode.D3)
    batch = extract(vol, grid)
    (pred,) = threshold_backend().predict(batch, DepthMode.D3, "bv")
    assert pred.shape == (4, 3, 16, 16)
    np.testing.assert_array_equal(pred.argmax(axis=0), band_labels(vol.voxels))


def test_oracle_backend_reproduces_truth_windows():
    rng = np.random.default_rng(4)
    voxels = rng.integers(0, 4, size=(4, 24, 24), dtype=np.uint8)
    truth = LabelVolume(voxels=voxels, volume_id="t")
    backend = oracle_backend(truth)

    grid = plan_grid((24, 24), (8, 8), 0.5)
    batch = extract(OctVolume(voxels=np.zeros((4, 24, 24), np.float32),
                              spacing=None, volume_id="t"), grid, z=1)
    preds = backend.predict(batch, DepthMode.D2, "t")
    for (x, y, _), pred in zip(batch.anchors, preds):
        np.testing.assert_array_equal(pred.argmax(axis=0), voxels[1, y : y + 8, x : x + 8])


def test_oracle_backend_rejects_out_of_bounds_patch():
    truth = LabelVolume(voxels=np.zeros((2, 8, 8), dtype=np.uint8), volume_id="t")
    backend = oracle_backend(truth)
    bad = PatchBatch(np.array([[4, 4, 0]]), np.zeros((1, 1, 8, 8), np.float32))
    with pytest.raises(IndexError):
        backend.predict(bad, DepthMode.D2, "t")


def test_external_backend_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    raw = rng.random((4, 3, 16, 16)).astype(np.float32)
    probs = raw / raw.sum(axis=0, keepdims=True)
    write_volume(ProbVolume(probs=probs, volume_id="case"), tmp_path / "case_prob.mhd")

    backend = external_backend(tmp_path, "case", (16, 16, 3))
    grid = plan_grid((16, 16), (8, 8), 0.5)
    vol = OctVolume(voxels=np.zeros((3, 16, 16), np.float32), spacing=None, volume_id="case")
    batch = extract(vol, grid, z=2)
    preds = backend.predict(batch, DepthMode.D2, "case")
    for (x, y, _), pred in zip(batch.anchors, preds):
        np.testing.assert_array_equal(pred, probs[:, 2, y : y + 8, x : x + 8])


def test_external_backend_reads_its_volume_once_and_refuses_another_id(tmp_path, monkeypatch):
    probs = np.full((4, 1, 4, 4), 0.25, dtype=np.float32)
    for vid in ("a", "b"):
        write_volume(ProbVolume(probs=probs, volume_id=vid), tmp_path / f"{vid}_prob.mhd")
    reads = []

    def counted_read_prob(path):
        reads.append(Path(path).name)
        return read_prob(path)

    monkeypatch.setattr(backends, "read_prob", counted_read_prob)
    backend = external_backend(tmp_path, "a", (4, 4, 1))
    assert reads == ["a_prob.mhd"]
    batch = PatchBatch(np.zeros((1, 3), int), np.zeros((1, 1, 4, 4), np.float32))
    for _ in range(3):
        backend.predict(batch, DepthMode.D2, "a")
    with pytest.raises(ValidationError, match="backend for volume 'a' asked for 'b'"):
        backend.predict(batch, DepthMode.D2, "b")
    assert reads == ["a_prob.mhd"]


def test_external_backend_missing_file_names_volume(tmp_path):
    with pytest.raises(FileNotFoundError) as err:
        external_backend(tmp_path, "ghost", (4, 4, 1))
    assert "ghost" in str(err.value)


def test_external_backend_rejects_invalid_probabilities(tmp_path):
    bad = np.zeros((4, 1, 4, 4), dtype=np.float32)
    bad[0] = 0.2
    write_volume(ProbVolume(probs=bad, volume_id="bad"), tmp_path / "bad_prob.mhd")
    with pytest.raises(ValidationError):
        external_backend(tmp_path, "bad", (4, 4, 1))


def test_weighted_cross_entropy_perfect_prediction():
    labels = np.array([[0, 1], [2, 3]], dtype=np.uint8)
    probs = one_hot(labels)
    loss = weighted_cross_entropy(probs, labels, np.ones(4))
    assert loss <= 1e-6


def test_weighted_cross_entropy_uniform_is_log4():
    labels = np.zeros((8, 8), dtype=np.uint8)
    probs = np.full((4, 8, 8), 0.25)
    loss = weighted_cross_entropy(probs, labels, np.ones(4))
    assert abs(loss - math.log(4.0)) <= 1e-9


def test_weighted_cross_entropy_matches_brute_force():
    rng = np.random.default_rng(7)
    weights = np.array([1.0, 2.0, 3.0, 4.0])
    for _ in range(25):
        labels = rng.integers(0, 4, size=(8, 8), dtype=np.uint8)
        raw = rng.random((4, 8, 8))
        probs = raw / raw.sum(axis=0, keepdims=True)
        expected = 0.0
        for y in range(8):
            for x in range(8):
                t = int(labels[y, x])
                p = max(float(probs[t, y, x]), 1e-7)
                expected += -weights[t] * math.log(p)
        expected /= 64.0
        got = weighted_cross_entropy(probs, labels, weights)
        assert abs(got - expected) <= 1e-6


def test_weighted_cross_entropy_scales_linearly_in_weights():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 4, size=(6, 6), dtype=np.uint8)
    raw = rng.random((4, 6, 6))
    probs = raw / raw.sum(axis=0, keepdims=True)
    base = weighted_cross_entropy(probs, labels, np.ones(4))
    tripled = weighted_cross_entropy(probs, labels, np.full(4, 3.0))
    np.testing.assert_allclose(tripled, 3.0 * base, rtol=1e-12)


def test_weighted_cross_entropy_clamps_zero_probability():
    labels = np.array([[1]], dtype=np.uint8)
    probs = np.zeros((4, 1, 1))
    probs[0] = 1.0
    loss = weighted_cross_entropy(probs, labels, np.ones(4))
    np.testing.assert_allclose(loss, -math.log(1e-7))


def test_weighted_cross_entropy_shape_errors():
    labels = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(ValidationError):
        weighted_cross_entropy(np.full((4, 3, 2), 0.25), labels, np.ones(4))
    with pytest.raises(ValidationError):
        weighted_cross_entropy(np.full((4, 2, 2), 0.25), labels, np.ones(3))


def test_training_config_defaults_and_validation():
    cfg = TrainingConfig()
    assert cfg.optimizer == "adam"
    assert cfg.decay == 0.95
    assert cfg.lr_start == 1e-3 and cfg.lr_end == 1e-4
    assert cfg.epochs == 100
    assert cfg.shuffle_each_epoch
    assert "adam" in cfg.summary()
    with pytest.raises(ValueError):
        TrainingConfig(lr_start=1e-5, lr_end=1e-4)
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
