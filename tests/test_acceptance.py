"""Acceptance gate: one test per shipped guarantee, each with a pinned
tolerance and (where stated) a wall-clock budget.  Every test prints a
single PASS line with its measured numbers; `pytest -v` shows one
pass/fail line per criterion either way.
"""

import time
from collections import Counter

import numpy as np
import pytest

from octpipe.backends import (
    one_hot,
    oracle_backend,
    threshold_backend,
    weighted_cross_entropy,
)
from octpipe.cli import main as cli_main
from octpipe.eval_harness.folds import make_folds
from octpipe.eval_harness.metrics import dice_volume
from octpipe.eval_harness.phantom import random_phantom
from octpipe.eval_harness.report import format_cell, load_report_csv, render_report
from octpipe.config import RunConfig
from octpipe.eval_harness.runner import predict_volume, run_experiment
from octpipe.patch_engine import (
    DepthMode,
    close_all,
    close_mask,
    extract,
    labelize,
    plan_grid,
    stitch,
)
from octpipe.preprocess import PreprocessConfig
from octpipe.volume_io import (
    FLUIDS,
    FluidClass,
    LabelVolume,
    OctVolume,
    ProbVolume,
    write_volume,
)


def tally_dice(pred: np.ndarray, truth: np.ndarray, cls: int) -> float:
    """Brute-force Dice from an exhaustive per-voxel (pred, truth) tally."""
    pairs = Counter(zip(pred.ravel().tolist(), truth.ravel().tolist()))
    tp = pairs.get((cls, cls), 0)
    fp = sum(n for (p, t), n in pairs.items() if p == cls and t != cls)
    fn = sum(n for (p, t), n in pairs.items() if p != cls and t == cls)
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2.0 * tp / denom


def test_criterion_01_dice_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(1000):
        if trial < 10:
            w, h, d = 32, 32, 8
        else:
            w = int(rng.integers(1, 33))
            h = int(rng.integers(1, 33))
            d = int(rng.integers(1, 9))
        pred = rng.integers(0, 4, size=(d, h, w), dtype=np.uint8)
        truth = rng.integers(0, 4, size=(d, h, w), dtype=np.uint8)
        scores = dice_volume(LabelVolume(pred), LabelVolume(truth))
        for cls in FLUIDS:
            expected = tally_dice(pred, truth, int(cls))
            delta = abs(scores[cls] - expected)
            worst = max(worst, delta)
            assert delta <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS dice oracle equivalence: 1000 pairs, max delta {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_pipeline_round_trip():
    start = time.perf_counter()
    vol, truth = random_phantom(
        (384, 384, 16), seed=77, n_blobs=6, close_radius=1, volume_id="px"
    )
    assert set(np.unique(truth.voxels)) == {0, 1, 2, 3}
    backend = oracle_backend(truth)
    for mode in DepthMode:
        grid = plan_grid((384, 384), (128, 128), 0.75, mode)
        pairs = []
        if mode is DepthMode.D3:
            batch = extract(vol, grid)
            preds = backend.predict(batch, mode, "px")
            pairs = [(tuple(a), pr) for a, pr in zip(batch.anchors.tolist(), preds)]
        else:
            for z in range(16):
                batch = extract(vol, grid, z)
                preds = backend.predict(batch, mode, "px")
                pairs.extend((tuple(a), pr) for a, pr in zip(batch.anchors.tolist(), preds))
        prob = stitch(pairs, grid, (384, 384, 16), volume_id="px")
        pred = labelize(prob)
        np.testing.assert_array_equal(pred.voxels, truth.voxels)
        closed = close_all(pred, 1)
        np.testing.assert_array_equal(closed.voxels, truth.voxels)
        scores = dice_volume(closed, truth)
        assert all(scores[cls] == 1.0 for cls in FLUIDS)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS pipeline round trip: 3 depth modes voxel-exact, Dice 1.0, {elapsed:.2f}s")


def test_criterion_03_grid_arithmetic():
    start = time.perf_counter()

    exact = plan_grid((384, 384), (128, 128), 0.75)
    assert exact.stride_x == 32 and exact.stride_y == 32
    assert len(exact.anchors) == 81

    residual = plan_grid((572, 572), (128, 128), 0.75)
    assert len(residual.anchors) == 225
    xs = sorted({a[0] for a in residual.anchors})
    ys = sorted({a[1] for a in residual.anchors})
    assert xs[-1] == 444 and ys[-1] == 444

    for grid, side in ((exact, 384), (residual, 572)):
        covered = np.zeros((side, side), dtype=np.int32)
        for x, y in grid.anchors:
            covered[y : y + 128, x : x + 128] += 1
        assert covered.min() >= 1

    interior = np.zeros((384, 384), dtype=np.int32)
    for x, y in exact.anchors:
        interior[y : y + 128, x : x + 128] += 1
    # pixels at least a full stride run inside every border see all 16 tiles
    assert (interior[127:257, 127:257] == 16).all()

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS grid arithmetic: 81/225 anchors, full cover, 16x interior, {elapsed:.2f}s")


def test_criterion_04_fold_plan():
    start = time.perf_counter()
    inventory = {
        "Cirrus": [f"c{i:02d}" for i in range(24)],
        "Spectralis": [f"s{i:02d}" for i in range(24)],
        "Topcon": [f"t{i:02d}" for i in range(22)],
    }
    plan = make_folds(inventory, 3, 0)
    sizes = [
        tuple(len(plan.test_sets[f][v]) for v in ("Cirrus", "Spectralis", "Topcon"))
        for f in range(3)
    ]
    assert (8, 8, 6) in sizes
    fold = sizes.index((8, 8, 6))
    train = plan.train_ids(fold)
    for prefix in "cst":
        assert sum(1 for i in train if i.startswith(prefix)) == 16

    all_ids = sorted(i for ids in inventory.values() for i in ids)
    for seed in range(100):
        p = make_folds(inventory, 3, seed)
        seen = []
        for f in range(3):
            test = p.test_ids(f)
            seen.extend(test)
            assert sorted(test + p.train_ids(f)) == all_ids
        assert sorted(seen) == all_ids
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS fold plan: (8,8,6) test / 16-per-vendor train, 100 seeds, {elapsed:.2f}s")


def test_criterion_05_stitch_determinism():
    start = time.perf_counter()
    rng = np.random.default_rng(55)

    grid = plan_grid((64, 64), (16, 16), 0.5)
    pairs = []
    for z in range(4):
        for x, y in grid.anchors:
            raw = rng.random((4, 16, 16)).astype(np.float32)
            pairs.append(((x, y, z), raw / raw.sum(axis=0, keepdims=True)))
    reference = stitch(pairs, grid, (64, 64, 4)).probs.tobytes()
    for _ in range(20):
        order = rng.permutation(len(pairs))
        shuffled = [pairs[i] for i in order]
        assert stitch(shuffled, grid, (64, 64, 4)).probs.tobytes() == reference

    vol = OctVolume(rng.random((8, 96, 96), dtype=np.float32), volume_id="jv")
    backend = threshold_backend()
    outputs = []
    for jobs in (1, 2, 8):
        cfg = RunConfig(depth_mode=DepthMode.D25, patch_size=32, overlap=0.5, jobs=jobs)
        outputs.append(predict_volume(vol, backend, cfg).probs.tobytes())
    assert outputs[0] == outputs[1] == outputs[2]

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS stitch determinism: 20 permutations + jobs 1/2/8 bit-identical, {elapsed:.2f}s")


def test_criterion_06_weighted_cross_entropy():
    rng = np.random.default_rng(66)
    clamp = 1e-7
    worst = 0.0
    for _ in range(100):
        raw = rng.random((4, 8, 8)) + 1e-3
        probs = (raw / raw.sum(axis=0, keepdims=True)).astype(np.float64)
        labels = rng.integers(0, 4, size=(8, 8))
        weights = rng.uniform(0.1, 3.0, size=4)

        total = 0.0
        for i in range(8):
            for j in range(8):
                t = int(labels[i, j])
                p = min(max(float(probs[t, i, j]), clamp), 1.0)
                total += -float(weights[t]) * np.log(p)
        expected = total / 64.0
        got = weighted_cross_entropy(probs, labels, weights)
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= 1e-6

        unweighted = 0.0
        for i in range(8):
            for j in range(8):
                t = int(labels[i, j])
                unweighted += -np.log(min(max(float(probs[t, i, j]), clamp), 1.0))
        assert abs(weighted_cross_entropy(probs, labels, np.ones(4)) - unweighted / 64.0) <= 1e-6

    uniform = np.full((4, 8, 8), 0.25)
    labels = rng.integers(0, 4, size=(8, 8))
    assert abs(weighted_cross_entropy(uniform, labels, np.ones(4)) - np.log(4.0)) <= 1e-9
    print(f"PASS weighted cross-entropy: 100 fields vs per-pixel sum, max delta {worst:.2e}")


def test_criterion_07_closing():
    square = np.full((7, 7), 0, dtype=np.uint8)
    square[1:6, 1:6] = 2
    square[3, 3] = 0
    fixture = LabelVolume(square[None, :, :])
    closed = close_mask(fixture, FluidClass.SRF, 1)
    assert closed.voxels[0, 3, 3] == 2
    assert (closed.voxels[0] == square).sum() == 48  # only the hole changed

    rng = np.random.default_rng(7007)
    for trial in range(200):
        labels = LabelVolume(rng.integers(0, 4, size=(2, 16, 16), dtype=np.uint8))
        cls = FLUIDS[trial % 3]
        radius = 1 + trial % 2
        once = close_mask(labels, cls, radius)
        twice = close_mask(once, cls, radius)
        np.testing.assert_array_equal(twice.voxels, once.voxels)
        before = labels.voxels == int(cls)
        after = once.voxels == int(cls)
        assert (before & ~after).sum() == 0
    print("PASS closing: hole filled at radius 1, 200 masks idempotent, extensive")


def test_criterion_08_report_fidelity(make_dataset, tmp_path):
    root, inventory, truths = make_dataset()
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    rng = np.random.default_rng(88)

    expected_labels = {}
    for vid, truth in truths.items():
        hot = one_hot(truth.voxels).astype(np.float64)
        noise = rng.random((4,) + truth.voxels.shape)
        raw = 0.7 * hot + 0.3 * noise / noise.sum(axis=0, keepdims=True)
        probs = (raw / raw.sum(axis=0, keepdims=True)).astype(np.float32)
        write_volume(ProbVolume(probs=probs, volume_id=vid), pred_dir / f"{vid}_prob.mhd")
        expected_labels[vid] = np.argmax(probs, axis=0).astype(np.uint8)

    cfg = RunConfig(
        data_root=root,
        backend=f"external:{pred_dir}",
        preprocess=PreprocessConfig(target_2d=(96, 96), target_vol=(96, 96)),
        depth_mode=DepthMode.D25,
        patch_size=32,
        overlap=0.5,
        close_radius=0,  # keep the argmax comparable to the file contents
        folds_k=2,
        seed=0,
    )
    plan = make_folds(inventory, 2, 0)
    entries = run_experiment(cfg, 0)

    expected = {}
    for vendor, ids in plan.test_sets[0].items():
        for cls in FLUIDS:
            values = [
                tally_dice(expected_labels[vid], truths[vid].voxels, int(cls))
                for vid in sorted(ids)
            ]
            expected[(vendor, cls.name)] = sum(values) / len(values)

    assert len(entries) == len(expected)
    for entry in entries:
        assert abs(entry.dice - expected[(entry.vendor, entry.fluid)]) <= 1e-12

    table, csv_text = render_report(entries)
    assert "Human grader baseline: Dice 0.71." in table
    prefix = f"| 2.5D | {cfg.backend}_P |"
    row = next(line for line in table.splitlines() if line.startswith(prefix))
    cells = [c.strip() for c in row.split("|")[3:-1]]
    want = [
        format_cell(expected[(vendor, cls.name)])
        for vendor in sorted(plan.test_sets[0])
        for cls in FLUIDS
    ]
    assert cells == want

    csv_path = tmp_path / "fidelity.csv"
    csv_path.write_text(csv_text)
    reloaded = load_report_csv(csv_path)
    by_key = {(e.vendor, e.fluid): e.dice for e in reloaded}
    for entry in entries:
        assert by_key[(entry.vendor, entry.fluid)] == entry.dice
    print("PASS report fidelity: cells match tallied Dice to 2 decimals, CSV full precision")


def test_criterion_09_throughput():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    vol = OctVolume(rng.random((128, 384, 384), dtype=np.float32), volume_id="big")
    grid = plan_grid((384, 384), (128, 128), 0.75, DepthMode.D2)
    assert len(grid.anchors) == 81

    # constant prediction stands in for a model; the cost under test is
    # extraction and stitching of 81 x 128 patches
    flat = np.zeros((4, 128, 128), dtype=np.float32)
    flat[0] = 1.0
    pairs = []
    for z in range(128):
        for anchor in extract(vol, grid, z).anchors.tolist():
            pairs.append((tuple(anchor), flat))
    prob = stitch(pairs, grid, (384, 384, 128), volume_id="big")
    assert prob.probs.shape == (4, 128, 384, 384)
    assert float(prob.probs[0].min()) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS throughput: 10368 patches extracted and stitched in {elapsed:.2f}s")


def test_criterion_10_end_to_end_determinism(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "preprocess.target_vol = 96x96\n"
        "preprocess.target_2d = 96x96\n"
        "grid.patch_size = 32\n"
        "grid.overlap = 0.5\n"
        "folds.k = 2\n"
        "folds.seed = 0\n"
        "backend = oracle\n"
    )
    artifacts = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        rc = cli_main(
            [
                "evaluate",
                "--config", str(cfg),
                "--data-root", str(root),
                "--output-dir", str(out_dir),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        reports = out_dir / "reports"
        artifacts.append(
            (
                (reports / "evaluate_2.5d_P.csv").read_bytes(),
                (reports / "evaluate_2.5d_P.md").read_bytes(),
            )
        )
    assert artifacts[0] == artifacts[1]
    print("PASS end-to-end determinism: repeated evaluate runs byte-identical")
