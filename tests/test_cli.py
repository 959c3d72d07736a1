"""End-to-end command-line workflows on temporary phantom datasets."""

import argparse
import contextlib
import hashlib
import json
import re
import resource
import signal
from dataclasses import replace

import numpy as np
import pytest

from octpipe import patch_engine
from octpipe.backends import one_hot, threshold_backend
from octpipe.cli import build_parser, main
from octpipe.config import DATA_ROOT_ENV, KEYS, load_config
from octpipe.errors import FormatError
from octpipe.eval_harness import runner
from octpipe.eval_harness.report import load_report_csv
from octpipe.eval_harness.runner import predict_volume
from octpipe.patch_engine import DepthMode, plan_grid
from octpipe.preprocess import filter_slices, preprocess_volume
from octpipe.volume_io import (
    LabelVolume,
    ProbVolume,
    read_labels,
    read_prob,
    read_volume,
    write_volume,
)


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_uchar_volume(path, dims):
    """Hand-rolled header + zero payload, enough for geometry probing."""
    w, h, d = dims
    header = (
        "ObjectType = Image\n"
        "NDims = 3\n"
        f"DimSize = {w} {h} {d}\n"
        "ElementType = MET_UCHAR\n"
        f"ElementDataFile = {path.stem}.raw\n"
    )
    path.write_text(header)
    path.with_suffix(".raw").write_bytes(bytes(w * h * d))


def native_config(tmp_path):
    """Pin preprocessing targets to the fixture's native plane size."""
    path = tmp_path / "native.cfg"
    path.write_text(
        "preprocess.target_vol = 96x96\n"
        "preprocess.target_2d = 96x96\n"
        "grid.patch_size = 32\n"
        "grid.overlap = 0.5\n"
    )
    return path


def test_synth_writes_dataset(tmp_path, capsys):
    root = tmp_path / "data"
    rc, out, _ = run(
        capsys,
        "synth",
        "--data-root", root,
        "--dims", "64x64x4",
        "--n-per-vendor", "1",
        "--vendors", "Cirrus,Topcon",
        "--n-blobs", "3",
        "--seed", "5",
    )
    assert rc == 0
    assert "wrote 2 phantom volumes" in out
    assert (root / "inventory.json").exists()
    assert (root / "run_config.txt").exists()
    for vid in ("cirrus_00", "topcon_00"):
        vol = read_volume(root / "images" / f"{vid}.mhd")
        labels = read_labels(root / "labels" / f"{vid}.mhd")
        assert vol.dims == (64, 64, 4)
        assert labels.dims == (64, 64, 4)
        assert set(np.unique(labels.voxels)) <= {0, 1, 2, 3}


def test_synth_dataset_bytes_are_pinned(tmp_path, capsys):
    root = tmp_path / "data"
    rc, _, _ = run(capsys, "synth", "--data-root", root, "--dims", "100x90x6", "--n-per-vendor", "1", "--seed", "3")
    assert rc == 0
    digest = hashlib.md5()
    for path in sorted(root.glob("*/*")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    digest.update((root / "inventory.json").read_bytes())
    assert digest.hexdigest() == "1fc088784871742b6f9a3495f215fdbe"


def test_a_non_ascii_volume_name_is_refused_before_any_file_is_written(tmp_path, capsys):
    """A MetaImage header names its payload in ASCII, so neither
    ``write_volume`` nor ``synth`` leaves a payload, or a header that cannot
    name it, for a volume called ``ünï_00``."""
    path = tmp_path / "direct" / "ünï_00.mhd"
    path.parent.mkdir()
    with pytest.raises(FormatError, match=re.escape(str(path))):
        write_volume(LabelVolume(np.zeros((1, 2, 2), np.uint8)), path)
    root = tmp_path / "data"
    rc, _, err = run(
        capsys, "synth", "--data-root", root, "--dims", "64x64x4", "--n-per-vendor", "1", "--vendors", "Ünï"
    )
    assert rc == 1
    assert str(root / "images" / "ünï_00.mhd") in err
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


@contextlib.contextmanager
def file_size_limit(nbytes):
    """Fail every write past ``nbytes`` of a file with EFBIG, as a full disk
    fails a write part-way (SIGXFSZ is ignored, so the write returns the error)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


@pytest.mark.parametrize("kind", ["volume", "spill", "report"])
def test_a_write_that_fails_part_way_leaves_the_old_files(make_dataset, tmp_path, capsys, kind):
    """A second write of each kind that fails 256 bytes into its first file
    leaves the first write's header and payload bytes as they were, so no
    header names a new payload, and leaves no ``.part`` file."""
    out = tmp_path / "out"
    out.mkdir()
    if kind == "volume":
        def write(n):
            write_volume(LabelVolume(np.full((n, 16, 16), n % 4, np.uint8)), out / "case.mhd")
    elif kind == "spill":
        def write(n):
            patch_engine.save_predictions(out / "spill", [((0, 0, z), np.full((4, 16, 16), 0.25)) for z in range(n)])
    else:
        root, _, _ = make_dataset()

        def write(n):  # fold 0 alone, then both folds of the threshold backend
            folds = ["--fold", "0"] if n == 1 else ["--backend", "threshold"]
            argv = ["evaluate", "--config", native_config(tmp_path), "--data-root", root, "--output-dir", out]
            rc, _, err = run(capsys, *argv, "--folds", "2", "--jobs", "1", *folds)
            if rc:
                raise OSError(err)

    write(1)
    old = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    with file_size_limit(256), pytest.raises(OSError, match="File too large"):
        write(2)
    assert not list(out.rglob("*.part"))
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == old


def test_synth_rejects_empty_vendor_list(tmp_path, capsys):
    rc, _, err = run(capsys, "synth", "--data-root", tmp_path / "d", "--vendors", " , ")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--dims", "12xabcx3"),
        ("--dims", "0x64x8"),
        ("--dims", "64x64"),
        ("--dims", "64x64x4x2"),
        ("--n-blobs", "0"),
        ("--n-per-vendor", "0"),
    ],
)
def test_synth_bad_argument_is_usage_error(tmp_path, capsys, flag, value):
    root = tmp_path / "d"
    rc, _, err = run(capsys, "synth", "--data-root", root, flag, value)
    assert rc == 2
    assert err.startswith("error:")
    assert not (root / "images").exists()


def test_stitch_checks_dims_before_reading_predictions(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "stitch",
        "--output-dir", tmp_path / "o",
        "--volume", "v",
        "--dims", "64x0x4",
        "--predictions", tmp_path / "absent",
    )
    assert rc == 2
    assert "64x0x4" in err


def test_info_prints_vendor_and_unknown(tmp_path, capsys):
    known = tmp_path / "scan_a.mhd"
    odd = tmp_path / "scan_b.mhd"
    write_uchar_volume(known, (512, 1024, 128))
    write_uchar_volume(odd, (8, 8, 2))
    rc, out, _ = run(capsys, "info", known, odd)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "scan_a: Cirrus 512x1024x128"
    assert lines[1] == "scan_b: Unknown 8x8x2"


def test_folds_writes_plan_and_prints_sizes(make_dataset, tmp_path, capsys):
    root, inventory, _ = make_dataset()
    out_dir = tmp_path / "out"
    rc, out, _ = run(
        capsys,
        "folds",
        "--data-root", root,
        "--output-dir", out_dir,
        "--folds", "2",
        "--seed", "0",
    )
    assert rc == 0
    plan = json.loads((out_dir / "folds" / "folds.json").read_text())
    assert plan["k"] == 2 and plan["seed"] == 0
    tested = sorted(vid for fold in plan["folds"] for ids in fold.values() for vid in ids)
    assert tested == sorted(i for ids in inventory.values() for i in ids)
    assert "fold 0 test volumes:" in out
    assert "fold 1 test volumes:" in out
    config_copy = (out_dir / "folds" / "run_config.txt").read_text()
    assert "folds.k=2" in config_copy


def test_folds_json_lists_the_volumes_evaluate_scores(
    make_dataset, tmp_path, capsys, monkeypatch
):
    root, _, _ = make_dataset(n_per_vendor=3)
    out_dir = tmp_path / "out"
    common = [
        "--config", native_config(tmp_path), "--data-root", root, "--output-dir", out_dir,
        "--folds", "3", "--seed", "5", "--variant", "F",
    ]
    rc, _, err = run(capsys, "folds", *common)
    assert rc == 0, err
    plan = json.loads((out_dir / "folds" / "folds.json").read_text())
    scored = []
    evaluate_volume = runner.evaluate_volume
    monkeypatch.setattr(
        runner, "evaluate_volume", lambda vid, cfg: scored.append(vid) or evaluate_volume(vid, cfg)
    )
    for fold, test_sets in enumerate(plan["folds"]):
        scored.clear()
        rc, _, err = run(capsys, "evaluate", "--fold", fold, *common)
        assert rc == 0, err
        assert sorted(scored) == sorted(vid for ids in test_sets.values() for vid in ids)


def test_preprocess_resizes_images_and_labels(make_dataset, tmp_path, capsys):
    root, inventory, _ = make_dataset()
    out_dir = tmp_path / "out"
    cfg = tmp_path / "half.cfg"
    cfg.write_text("preprocess.target_vol = 48x48\n")
    rc, out, _ = run(
        capsys,
        "preprocess",
        "--config", cfg,
        "--data-root", root,
        "--output-dir", out_dir,
    )
    assert rc == 0
    for ids in inventory.values():
        for vid in ids:
            vol = read_volume(out_dir / "volumes" / f"{vid}.mhd")
            labels = read_labels(out_dir / "volumes" / f"{vid}_labels.mhd")
            assert vol.dims == (48, 48, 4)
            assert labels.dims == (48, 48, 4)
            assert set(np.unique(labels.voxels)) <= {0, 1, 2, 3}
            assert f"preprocessed {vid} -> 48x48" in out
    assert (out_dir / "volumes" / "run_config.txt").exists()


def test_preprocess_header_spacing_follows_the_resize(make_dataset, tmp_path, capsys):
    root, inventory, _ = make_dataset()
    cfg = tmp_path / "half.cfg"
    cfg.write_text("preprocess.target_vol = 48x24\n")
    out_dir = tmp_path / "out"
    rc, _, err = run(
        capsys, "preprocess", "--config", cfg, "--data-root", root, "--output-dir", out_dir
    )
    assert rc == 0, err
    # the 96x96x4 phantoms and their labels are written with unit spacing
    for name in ("cirrus_00.mhd", "cirrus_00_labels.mhd"):
        header = (out_dir / "volumes" / name).read_text()
        assert "DimSize = 48 24 4\n" in header
        assert "ElementSpacing = 2.0 4.0 1.0\n" in header


def test_preprocess_writes_only_the_image_of_a_volume_without_labels(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    (root / "labels" / "cirrus_01.mhd").unlink()
    (root / "labels" / "cirrus_01.raw").unlink()
    cfg = tmp_path / "half.cfg"
    cfg.write_text("preprocess.target_vol = 48x40\npreprocess.denoiser = gaussian\n")
    out_dir = tmp_path / "out"
    rc, out, err = run(
        capsys, "preprocess", "--config", cfg, "--data-root", root, "--output-dir", out_dir
    )
    assert rc == 0, err
    assert "preprocessed cirrus_01 -> 48x40" in out
    volumes = out_dir / "volumes"
    assert (volumes / "cirrus_01.mhd").exists()
    assert not (volumes / "cirrus_01_labels.mhd").exists()
    assert (volumes / "cirrus_00_labels.mhd").exists()
    source = read_volume(root / "images" / "cirrus_01.mhd")
    expected = preprocess_volume(source, load_config(cfg).preprocess, (48, 40))
    got = read_volume(volumes / "cirrus_01.mhd")
    assert got.dims == (48, 40, 4)
    assert got.voxels.tobytes() == expected.voxels.tobytes()


def test_stitch_of_a_spill_with_a_two_entry_anchor_names_the_sidecar(tmp_path, capsys):
    grid = plan_grid((32, 32), 16, 0.5, DepthMode.D2)
    base = tmp_path / "pred_z0000"
    patch_engine.save_predictions(base, [((x, y, 0), np.full((4, 16, 16), 0.25)) for x, y in grid.anchors])
    sidecar = base.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    meta["anchors"][0] = [0, 0]
    sidecar.write_text(json.dumps(meta))
    rc, _, err = run(
        capsys, "stitch", "--volume", "v", "--dims", "32x32x1", "--patch-size", "16",
        "--overlap", "0.5", "--depth-mode", "2d", "--output-dir", tmp_path / "out",
        "--predictions", base,
    )
    assert rc == 1
    assert f"{sidecar}: anchor [0, 0] is not three integers" in err


def test_patchify_stitch_round_trip(make_dataset, tmp_path, capsys):
    root, _, truths = make_dataset()
    out_dir = tmp_path / "out"
    cfg = native_config(tmp_path)
    vid = "cirrus_00"
    common = [
        "--config", cfg,
        "--data-root", root,
        "--output-dir", out_dir,
        "--patch-size", "32",
        "--overlap", "0.5",
    ]
    for z in range(4):
        rc, out, _ = run(capsys, "patchify", "--volume", vid, "--slice", z, *common)
        assert rc == 0
        assert "25 patches" in out

    # Predict each spilled slice with the band thresholder, spill the results.
    backend = threshold_backend()
    bases = []
    for z in range(4):
        patch_base = out_dir / "patches" / f"{vid}_z{z:04d}"
        batch, grid, loaded_id = patch_engine.load_patches(patch_base)
        assert loaded_id == vid
        probs = backend.predict(batch, grid.depth_mode, vid)
        pairs = [(tuple(a), prob) for a, prob in zip(batch.anchors.tolist(), probs)]
        pred_base = out_dir / "patches" / f"pred_{vid}_z{z:04d}"
        patch_engine.save_predictions(pred_base, pairs)
        bases.append(pred_base)

    rc, out, _ = run(
        capsys,
        "stitch",
        "--volume", vid,
        "--dims", "96x96x4",
        "--predictions", *bases,
        *common,
    )
    assert rc == 0
    prob_path = out_dir / "predictions" / f"{vid}_prob.mhd"
    assert prob_path.exists()
    prob = read_prob(prob_path)
    prob.validate()
    labels = patch_engine.labelize(prob)
    np.testing.assert_array_equal(labels.voxels, truths[vid].voxels)


def test_stitch_holds_at_most_two_spills(tmp_path, capsys):
    """Stitching reads spills one by one, so at most two are in memory (the
    one being read, and the one whose last prediction stitch still holds),
    not all of them; 512 KiB (under half a spill) covers the command's own
    bookkeeping: coverage plane, parser, JSON.  Each spill holds one slice's
    whole grid, so holding its windows until the grid's last anchor keeps
    no more alive."""
    import tracemalloc

    width = height = 96
    depth = 16
    grid = plan_grid((width, height), 32, 0.75, DepthMode.D25)
    rng = np.random.default_rng(12)
    bases = []
    for z in range(depth):
        raw = rng.random((len(grid.anchors), 4, 32, 32), dtype=np.float32) + 0.1
        probs = raw / raw.sum(axis=1, keepdims=True)
        base = tmp_path / f"pred_z{z:04d}"
        pairs = [((x, y, z), p) for (x, y), p in zip(grid.anchors, probs)]
        patch_engine.save_predictions(base, pairs)
        bases.append(base)
    spill = probs.nbytes
    output = 4 * depth * height * width * 4
    common = [
        "stitch", "--volume", "v", "--dims", f"{width}x{height}x{depth}",
        "--patch-size", "32", "--overlap", "0.75", "--predictions", *bases,
    ]
    argv = [*common, "--output-dir", tmp_path / "out"]
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, err
    assert f"stitched {depth * len(grid.anchors)} patch predictions" in out
    assert peak <= output + 2 * spill + 512 * 1024, (peak, output, spill)
    # the summing threads split each run by class, so their count changes no byte
    written = []
    for jobs in ("1", "3"):
        out_dir = tmp_path / f"out_jobs{jobs}"
        rc, _, err = run(capsys, *common, "--output-dir", out_dir, "--jobs", jobs)
        assert rc == 0, err
        written.append((out_dir / "predictions" / "v_prob.raw").read_bytes())
    assert written[0] == written[1] == (tmp_path / "out" / "predictions" / "v_prob.raw").read_bytes()


def test_stitch_onto_a_mismatched_grid_names_the_grid(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    out_dir = tmp_path / "out"
    common = ["--config", native_config(tmp_path), "--data-root", root, "--output-dir", out_dir]
    rc, _, err = run(capsys, "patchify", "--volume", "cirrus_00", "--slice", "0", *common)
    assert rc == 0, err
    batch, grid, _ = patch_engine.load_patches(out_dir / "patches" / "cirrus_00_z0000")
    probs = threshold_backend().predict(batch, grid.depth_mode, "cirrus_00")
    pred_base = out_dir / "patches" / "pred_cirrus_00_z0000"
    patch_engine.save_predictions(pred_base, list(zip(map(tuple, batch.anchors.tolist()), probs)))

    # cut at 96x96 with patch 32 and stride 16, stitched as if the slice were 64x64
    rc, _, err = run(
        capsys, "stitch", "--volume", "cirrus_00", "--dims", "64x64x1",
        "--predictions", pred_base, *common,
    )
    assert rc == 1
    assert "anchor (48, 0)" in err
    assert "image 64x64, patch 32x32, stride 16x16" in err


def _patchify_full_image(root, out_dir, cfg_path, capsys, vid="cirrus_00"):
    """Patchify every slice of ``vid`` as variant F; returns the common flags."""
    common = ["--config", cfg_path, "--data-root", root, "--output-dir", out_dir, "--variant", "F"]
    rc, out, err = run(capsys, "patchify", "--volume", vid, "--slice-policy", "all", *common)
    assert rc == 0, err
    assert "wrote 1 patches for each of 4 slices" in out
    return common


def test_patchify_full_image_variant_writes_one_image_sized_patch_per_slice(
    make_dataset, tmp_path, capsys
):
    root, _, _ = make_dataset()
    out_dir = tmp_path / "out"
    _patchify_full_image(root, out_dir, native_config(tmp_path), capsys)
    for z in range(4):
        batch, grid, _ = patch_engine.load_patches(out_dir / "patches" / f"cirrus_00_z{z:04d}")
        assert (grid.patch_w, grid.patch_h, grid.overlap) == (96, 96, 0.0)
        assert grid.anchors == ((0, 0),)
        assert batch.anchors.tolist() == [[0, 0, z]]
        assert batch.data.shape == (1, 3, 96, 96)  # the 2.5d slab around z


def test_patchify_3d_spills_the_whole_grid(make_dataset, tmp_path, capsys):
    """``--depth-mode 3d`` writes one spill of every full-depth patch,
    which reads back equal to extracting the whole grid."""
    root, _, _ = make_dataset()
    out_dir = tmp_path / "out"
    cfg_path = native_config(tmp_path)
    common = ["--config", cfg_path, "--data-root", root, "--output-dir", out_dir, "--depth-mode", "3d"]
    rc, out, err = run(capsys, "patchify", "--volume", "cirrus_00", *common)
    assert rc == 0, err
    base = out_dir / "patches" / "cirrus_00_3d"
    assert out.strip() == f"wrote 25 patches to {base}.raw"
    cfg = replace(load_config(cfg_path), depth_mode=DepthMode.D3)
    target = cfg.working_size
    vol = preprocess_volume(read_volume(root / "images" / "cirrus_00.mhd"), cfg.preprocess, target)
    grid = cfg.grid(vol.dims[:2])
    expected = patch_engine.extract(vol, grid)
    batch, loaded_grid, volume_id = patch_engine.load_patches(base)
    assert (loaded_grid, volume_id) == (grid, "cirrus_00")
    assert batch.anchors.tolist() == expected.anchors.tolist()
    assert batch.data.shape == (25, 4, 32, 32)
    assert batch.data.tobytes() == expected.data.astype(np.float32).tobytes()


def test_stitch_full_image_variant_matches_predict_volume(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    out_dir = tmp_path / "out"
    cfg_path = native_config(tmp_path)
    vid = "cirrus_00"
    common = _patchify_full_image(root, out_dir, cfg_path, capsys, vid)
    backend = threshold_backend()
    bases = []
    for z in range(4):
        batch, grid, _ = patch_engine.load_patches(out_dir / "patches" / f"{vid}_z{z:04d}")
        probs = backend.predict(batch, grid.depth_mode, vid)
        base = out_dir / "patches" / f"pred_{vid}_z{z:04d}"
        patch_engine.save_predictions(base, list(zip(map(tuple, batch.anchors.tolist()), probs)))
        bases.append(base)

    rc, out, err = run(
        capsys, "stitch", "--volume", vid, "--dims", "96x96x4", "--predictions", *bases, *common
    )
    assert rc == 0, err
    assert "stitched 4 patch predictions" in out
    cfg = replace(load_config(cfg_path), variant="F")
    target = cfg.working_size
    vol = preprocess_volume(read_volume(root / "images" / f"{vid}.mhd"), cfg.preprocess, target)
    expected = predict_volume(vol, backend, cfg)
    got = read_prob(out_dir / "predictions" / f"{vid}_prob.mhd")
    assert got.probs.tobytes() == expected.probs.tobytes()


def test_patchify_policy_selects_diseased_slices(make_dataset, tmp_path, capsys):
    root, _, truths = make_dataset()
    out_dir = tmp_path / "out"
    cfg = native_config(tmp_path)
    vid = "cirrus_01"
    expected = filter_slices(truths[vid], "diseased_only")
    rc, out, _ = run(
        capsys,
        "patchify",
        "--volume", vid,
        "--config", cfg,
        "--data-root", root,
        "--output-dir", out_dir,
        "--patch-size", "32",
        "--overlap", "0.5",
    )
    assert rc == 0
    assert f"for each of {len(expected)} slices" in out
    for z in expected:
        assert (out_dir / "patches" / f"{vid}_z{z:04d}.json").exists()


def test_patchify_takes_the_vendor_of_its_slice_policy_from_the_inventory(tmp_path, capsys):
    """A Topcon volume patchifies every slice and a Cirrus one only its
    diseased ones, though neither has its scanner's native geometry."""
    root, out_dir = tmp_path / "data", tmp_path / "out"
    rc, _, _ = run(
        capsys, "synth", "--vendors", "Topcon,Cirrus", "--dims", "96x96x8", "--seed", "3",
        "--data-root", root,
    )
    assert rc == 0
    diseased = filter_slices(read_labels(root / "labels" / "cirrus_00.mhd"), "diseased_only")
    assert len(diseased) < 8
    for vid, count in (("topcon_00", 8), ("cirrus_00", len(diseased))):
        rc, out, _ = run(
            capsys,
            "patchify",
            "--volume", vid,
            "--config", native_config(tmp_path),
            "--data-root", root,
            "--output-dir", out_dir,
        )
        assert rc == 0
        assert f"for each of {count} slices" in out


def test_patchify_refuses_a_volume_the_inventory_does_not_list(make_dataset, tmp_path, capsys):
    """Only the automatic slice policy reads the inventory."""
    root, inventory, _ = make_dataset()
    inventory["Cirrus"].remove("cirrus_01")
    (root / "inventory.json").write_text(json.dumps(inventory))
    out_dir = tmp_path / "out"
    common = ["--volume", "cirrus_01", "--config", native_config(tmp_path), "--data-root", root]
    rc, _, err = run(capsys, "patchify", *common, "--output-dir", out_dir)
    assert rc == 2
    assert f"volume 'cirrus_01' is not listed in {root / 'inventory.json'}" in err
    assert not out_dir.exists()
    rc, _, _ = run(capsys, "patchify", *common, "--slice-policy", "all", "--output-dir", out_dir)
    assert rc == 0


def test_evaluate_oracle_writes_reports(make_dataset, tmp_path, capsys):
    root, inventory, _ = make_dataset()
    out_dir = tmp_path / "out"
    rc, out, _ = run(
        capsys,
        "evaluate",
        "--config", native_config(tmp_path),
        "--data-root", root,
        "--output-dir", out_dir,
        "--backend", "oracle",
        "--folds", "2",
        "--seed", "0",
        "--jobs", "1",
    )
    assert rc == 0
    assert "| 2.5D | oracle_P |" in out
    assert "Human grader baseline: Dice 0.71." in out
    csv_path = out_dir / "reports" / "evaluate_2.5d_P.csv"
    md_path = out_dir / "reports" / "evaluate_2.5d_P.md"
    assert csv_path.exists() and md_path.exists()
    assert (out_dir / "reports" / "run_config.txt").exists()
    entries = load_report_csv(csv_path)
    # 2 vendors x 3 fluids x 2 folds
    assert len(entries) == 12
    assert all(e.dice == 1.0 for e in entries)
    # every table cell renders as 1.00
    for line in md_path.read_text().splitlines():
        if line.startswith("| 2.5D"):
            cells = [c.strip() for c in line.split("|")[3:-1]]
            assert cells and all(c == "1.00" for c in cells)


@pytest.mark.parametrize("mode", ["auto", "always", "never"])
def test_evaluate_fails_at_preprocess_on_nan_intensities_in_every_normalize_mode(
    make_dataset, tmp_path, capsys, mode
):
    root, _, _ = make_dataset(dims=(64, 64, 6))
    path = root / "images" / "cirrus_01.mhd"
    vol = read_volume(path)
    vol.voxels.reshape(-1)[::100][:100] = np.nan
    write_volume(vol, path)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(f"preprocess.target_vol = 64x64\ngrid.patch_size = 32\npreprocess.normalize = {mode}\n")
    rc, _, err = run(
        capsys, "evaluate", "--config", cfg, "--data-root", root, "--output-dir", tmp_path / "out",
        "--backend", "threshold", "--folds", "2", "--seed", "0", "--jobs", "1",
    )
    assert rc == 1
    assert "stage 'preprocess' failed for volume 'cirrus_01'" in err
    assert "contains non-finite intensities" in err


@pytest.mark.parametrize(
    "backend", ["threshold", "oracle", "external:{probs}/", "external:./probs/"]
)
def test_evaluate_model_column_is_the_recorded_backend(
    make_dataset, tmp_path, capsys, monkeypatch, backend
):
    root, _, truths = make_dataset()
    probs = tmp_path / "probs"
    probs.mkdir()
    for vid, truth in truths.items():
        prob = ProbVolume(probs=one_hot(truth.voxels), volume_id=vid)
        write_volume(prob, probs / f"{vid}_prob.mhd")
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "out"
    rc, _, err = run(
        capsys,
        "evaluate",
        "--config", native_config(tmp_path),
        "--data-root", root,
        "--output-dir", out_dir,
        "--backend", backend.format(probs=probs),
        "--folds", "2",
        "--jobs", "1",
    )
    assert rc == 0, err
    reports = out_dir / "reports"
    recorded = (reports / "run_config.txt").read_text()
    (line,) = [line for line in recorded.splitlines() if line.startswith("backend=")]
    models = {e.model for e in load_report_csv(reports / "evaluate_2.5d_P.csv")}
    assert models == {line.removeprefix("backend=")}


@pytest.mark.parametrize(
    "command, padded",
    [("evaluate", "labels"), ("preprocess", "labels"), ("patchify", "labels"), ("evaluate", "probs")],
)
def test_a_volume_of_another_size_than_its_image_fails_before_writing(
    make_dataset, tmp_path, capsys, command, padded
):
    """Labels or one-hot probabilities of cirrus_00 padded by 16 rows would
    otherwise be resized apart from the image, or cropped, and scored,
    written or filtered as if they matched."""
    root, _, truths = make_dataset()
    taller = np.pad(truths["cirrus_00"].voxels, ((0, 0), (0, 16), (0, 0)))
    if padded == "labels":
        write_volume(LabelVolume(taller), root / "labels" / "cirrus_00.mhd")
    probs = tmp_path / "probs"
    probs.mkdir()
    for vid, truth in truths.items():
        voxels = taller if padded == "probs" and vid == "cirrus_00" else truth.voxels
        write_volume(ProbVolume(one_hot(voxels)), probs / f"{vid}_prob.mhd")
    extra = {
        "evaluate": ["--backend", f"external:{probs}", "--folds", "2", "--jobs", "1"],
        "preprocess": [],
        "patchify": ["--volume", "cirrus_00"],
    }[command]
    out_dir = tmp_path / "out"
    rc, _, err = run(
        capsys, command, *extra,
        "--config", native_config(tmp_path), "--data-root", root, "--output-dir", out_dir,
    )
    message = {
        "labels": "labels of 'cirrus_00' are (96, 112, 4) (w, h, d), its image is (96, 96, 4)",
        "probs": "probability volume for 'cirrus_00' is (96, 112, 4) (w, h, d), "
        "not the working size (96, 96, 4)",
    }[padded]
    if command == "evaluate":
        stage = {"labels": "preprocess", "probs": "predict"}[padded]
        message = f"stage '{stage}' failed for volume 'cirrus_00': {message}"
    assert rc == 1
    assert message in err
    assert not [path for path in out_dir.rglob("*") if path.is_file()]


def test_evaluate_repeat_runs_byte_identical(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    cfg = native_config(tmp_path)
    texts = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        rc, _, _ = run(
            capsys,
            "evaluate",
            "--config", cfg,
            "--data-root", root,
            "--output-dir", out_dir,
            "--backend", "oracle",
            "--folds", "2",
            "--seed", "0",
        )
        assert rc == 0
        texts.append((out_dir / "reports" / "evaluate_2.5d_P.csv").read_bytes())
    assert texts[0] == texts[1]


def test_report_merges_variants_with_f_before_p(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    out_dir = tmp_path / "out"
    cfg = native_config(tmp_path)
    for variant in ("F", "P"):
        rc, _, _ = run(
            capsys,
            "evaluate",
            "--config", cfg,
            "--data-root", root,
            "--output-dir", out_dir,
            "--backend", "oracle",
            "--variant", variant,
            "--folds", "2",
            "--seed", "0",
        )
        assert rc == 0
    rc, out, _ = run(
        capsys,
        "report",
        out_dir / "reports" / "evaluate_2.5d_F.csv",
        out_dir / "reports" / "evaluate_2.5d_P.csv",
        "--output-dir", out_dir,
    )
    assert rc == 0
    assert (out_dir / "reports" / "report.csv").exists()
    md = (out_dir / "reports" / "report.md").read_text()
    rows = [line for line in md.splitlines() if line.startswith("| 2.5D")]
    assert [r.split("|")[2].strip() for r in rows] == ["oracle_F", "oracle_P"]
    merged = load_report_csv(out_dir / "reports" / "report.csv")
    assert len(merged) == 24


@pytest.mark.parametrize(
    "fold, n_volumes, message",
    [("1", "-1", "n_volumes must be >= 1, got -1"), ("1", "0", "n_volumes must be >= 1, got 0"),
     ("-1", "2", "fold must be >= 0, got -1"),
     ("1", "2", "variant must be one of ('F', 'P'), got 'p'"),
     ("1", "2", "fluid must be one of ('IRF', 'SRF', 'PED'), got 'GA'")],
)
def test_report_rejects_a_row_that_names_no_volumes_or_no_fold(
    tmp_path, capsys, fold, n_volumes, message
):
    """Weighted by its count, an IRF 0.6 row at n = -1 beside 0.8 at n = 2
    would render as a plausible 1.00; a variant or fluid outside the table's
    would render as a row or column of its own.  The message names the field
    a case corrupts."""
    variant = "p" if message.startswith("variant") else "P"
    fluid = "GA" if message.startswith("fluid") else "IRF"
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(
        "dimension,model,variant,vendor,fluid,dice,fold,n_volumes\n"
        "2.5D,threshold,P,Cirrus,IRF,0.8,0,2\n"
        f"2.5D,threshold,{variant},Cirrus,{fluid},0.6,{fold},{n_volumes}\n"
    )
    rc, _, err = run(capsys, "report", csv_path, "--output-dir", tmp_path / "out")
    assert rc == 1
    assert message in err
    assert not (tmp_path / "out").exists()


REPORT_HEADER = "dimension,model,variant,vendor,fluid,dice,fold,n_volumes\n"
REPORT_ROW = "2.5D,threshold,P,Cirrus,IRF,0.8,0,2\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("2.5D,threshold,P,Cirrus,SRF,abc,0,2", "column dice: could not convert string to float: 'abc'"),
        ("2.5D,threshold,P,Cirrus,SRF,0.6,0", "no cell for column n_volumes"),
        ("2.5D,threshold,P,Cirrus,SRF,0.6,0,2,7", "a cell past the last column, n_volumes"),
    ],
    ids=["unparsed-cell", "short-row", "ninth-cell"],
)
def test_report_names_the_file_line_and_column_of_a_malformed_row(tmp_path, capsys, row, message):
    """A cell that does not parse, a missing cell and an extra one each fail
    naming where they are; none is dropped or turned into a cell."""
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(REPORT_HEADER + REPORT_ROW + row + "\n")
    rc, _, err = run(capsys, "report", csv_path, "--output-dir", tmp_path / "out")
    assert rc == 1
    assert f"{csv_path}:3: {message}" in err
    assert not (tmp_path / "out").exists()


def test_report_refuses_the_same_csv_given_twice(tmp_path, capsys):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(REPORT_HEADER + REPORT_ROW)
    rc, _, err = run(capsys, "report", csv_path, csv_path, "--output-dir", tmp_path / "out")
    assert rc == 1
    assert f"{csv_path} and {csv_path} both hold 2.5D threshold_P Cirrus IRF fold 0" in err
    assert not (tmp_path / "out").exists()


def test_report_refuses_two_runs_that_fill_the_same_cells(make_dataset, tmp_path, capsys):
    """Runs that differ only in the denoiser would average into one
    threshold_P row; the first cell both fill is named with both files."""
    root, _, _ = make_dataset()
    csvs = []
    for denoiser in ("none", "gaussian"):
        out_dir = tmp_path / denoiser
        rc, _, _ = run(
            capsys,
            "evaluate",
            "--config", native_config(tmp_path),
            "--data-root", root,
            "--output-dir", out_dir,
            "--folds", "2",
            "--denoiser", denoiser,
        )
        assert rc == 0
        csvs.append(out_dir / "reports" / "evaluate_2.5d_P.csv")
    rc, _, err = run(capsys, "report", *csvs, "--output-dir", tmp_path / "merged")
    assert rc == 1
    assert f"{csvs[0]} and {csvs[1]} both hold 2.5D threshold_P Cirrus IRF fold 0" in err
    assert not (tmp_path / "merged").exists()


def test_missing_data_root_is_usage_error(tmp_path, capsys):
    rc, _, err = run(capsys, "folds", "--output-dir", tmp_path / "out")
    assert rc == 2
    assert err.startswith("error:")
    assert "--data-root" in err


def test_unknown_config_key_is_usage_error(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    cfg = tmp_path / "bad.cfg"
    for key in ("grid.pitch", "augment.seed"):
        cfg.write_text(f"{key} = 1\n")
        rc, _, err = run(
            capsys, "folds", "--config", cfg, "--data-root", root, "--output-dir", tmp_path / "o"
        )
        assert rc == 2
        assert f"unknown configuration key {key!r}" in err


def test_bad_config_value_is_usage_error(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    cfg = tmp_path / "bad.cfg"
    out_dir = tmp_path / "o"
    for key, value in (("variant", "Q"), ("training.shuffle_each_epoch", "perhaps")):
        cfg.write_text(f"{key} = {value}\n")
        rc, _, err = run(capsys, "folds", "--config", cfg, "--data-root", root, "--output-dir", out_dir)
        assert rc == 2
        assert key in err and value in err
        assert not (out_dir / "folds" / "run_config.txt").exists()


@pytest.mark.parametrize("flag, value", [("--jobs", "two"), ("--jobs", "-4"), ("--overlap", "1.5")])
def test_out_of_range_flag_is_usage_error(make_dataset, tmp_path, capsys, flag, value):
    root, _, _ = make_dataset()
    rc, _, err = run(
        capsys, "folds", "--data-root", root, "--output-dir", tmp_path / "o", flag, value
    )
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "key, value",
    [
        ("jobs", "-4"),
        ("grid.patch_size", "0"),
        ("grid.overlap", "1.0"),
        ("grid.close_radius", "-1"),
        ("folds.k", "1"),
        ("eval.aggregate", "median"),
        ("slice_policy", "never"),
        ("preprocess.denoiser", "bogus"),
    ],
)
def test_out_of_range_setting_names_its_key_before_writing(
    make_dataset, tmp_path, capsys, key, value
):
    root, _, _ = make_dataset()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    flag = next(k.flag for k in KEYS if k.name == key)
    out_dir = tmp_path / "out"
    common = ["--data-root", root, "--output-dir", out_dir]
    for setting in (["--config", cfg], [flag, value]):
        rc, _, err = run(capsys, "evaluate", *common, *setting)
        assert rc == 2
        assert f"{key} must" in err and value in err
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "key, value, denoiser",
    [
        ("preprocess.sigma", "-1.0", "gaussian"),
        ("preprocess.h", "0.0", "nlm"),
        ("preprocess.search_radius", "0", "nlm"),
        ("preprocess.patch_radius", "0", "nlm"),
        ("preprocess.normalize", "sometimes", "none"),
    ],
)
def test_out_of_range_preprocess_line_names_its_key_before_writing(
    make_dataset, tmp_path, capsys, key, value, denoiser
):
    """Settings with no flag, checked only with the denoiser that reads them."""
    root, _, _ = make_dataset()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"preprocess.denoiser = {denoiser}\n{key} = {value}\n")
    out_dir = tmp_path / "out"
    rc, _, err = run(capsys, "evaluate", "--data-root", root, "--output-dir", out_dir, "--config", cfg)
    assert rc == 2
    assert f"{key} must" in err and value in err
    assert not out_dir.exists()


def test_bad_flag_value_is_usage_error(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    rc, _, err = run(
        capsys,
        "folds",
        "--data-root", root,
        "--output-dir", tmp_path / "o",
        "--depth-mode", "4d",
    )
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("evaluate", "--fold", "3", "--fold 3 outside plan with k=3"),
        ("evaluate", "--fold", "-1", "--fold -1 outside plan with k=3"),
        ("patchify", "--slice", "4", "--slice 4 outside volume depth 4"),
        ("patchify", "--slice", "-1", "--slice -1 outside volume depth 4"),
    ],
)
def test_out_of_range_index_is_usage_error_before_writing(
    make_dataset, tmp_path, capsys, command, flag, value, message
):
    root, _, _ = make_dataset(n_per_vendor=3)
    out_dir = tmp_path / "out"
    extra = ["--volume", "cirrus_00"] if command == "patchify" else []
    rc, _, err = run(
        capsys,
        command,
        *extra,
        "--config", native_config(tmp_path),
        "--data-root", root,
        "--output-dir", out_dir,
        "--folds", "3",
        flag, value,
    )
    assert rc == 2
    assert message in err
    assert not out_dir.exists()


def test_patchify_slice_with_3d_depth_mode_is_usage_error_before_writing(
    make_dataset, tmp_path, capsys
):
    root, _, _ = make_dataset()
    out_dir = tmp_path / "out"
    rc, _, err = run(
        capsys,
        "patchify",
        "--volume", "cirrus_00",
        "--config", native_config(tmp_path),
        "--data-root", root,
        "--output-dir", out_dir,
        "--depth-mode", "3d",
        "--slice", "0",
    )
    assert rc == 2
    assert "--slice" in err and "--depth-mode 3d" in err
    assert not out_dir.exists()


def test_bad_backend_descriptor_is_usage_error(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    rc, _, err = run(
        capsys,
        "evaluate",
        "--config", native_config(tmp_path),
        "--data-root", root,
        "--output-dir", tmp_path / "o",
        "--backend", "magic",
    )
    assert rc == 2
    assert err.startswith("error:")


def test_missing_inventory_is_pipeline_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc, _, err = run(capsys, "folds", "--data-root", empty, "--output-dir", tmp_path / "o")
    assert rc == 1
    assert err.startswith("error:")


def test_env_var_supplies_data_root(make_dataset, tmp_path, capsys, monkeypatch):
    root, _, _ = make_dataset()
    monkeypatch.setenv(DATA_ROOT_ENV, str(root))
    out_dir = tmp_path / "out"
    rc, _, _ = run(capsys, "folds", "--output-dir", out_dir, "--folds", "2")
    assert rc == 0
    assert (out_dir / "folds" / "folds.json").exists()


def test_run_config_records_one_spelling_per_setting(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    copies = set()
    for depth_mode, backend in (("3D", "Oracle"), ("3d", "oracle"), ("3", "ORACLE")):
        out_dir = tmp_path / depth_mode
        rc, _, err = run(capsys, "folds", "--data-root", root, "--output-dir", out_dir,
                         "--folds", "2", "--depth-mode", depth_mode, "--backend", backend)
        assert rc == 0, err
        copies.add((out_dir / "folds" / "run_config.txt").read_text().replace(str(out_dir), "OUT"))
    (copy,) = copies
    assert "depth_mode=3d\n" in copy and "backend=oracle\n" in copy


def test_flag_overrides_config_file(make_dataset, tmp_path, capsys):
    root, _, _ = make_dataset()
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("folds.seed = 1\nfolds.k = 2\n")
    out_dir = tmp_path / "out"
    rc, _, _ = run(
        capsys,
        "folds",
        "--config", cfg,
        "--data-root", root,
        "--output-dir", out_dir,
        "--seed", "2",
    )
    assert rc == 0
    copy = (out_dir / "folds" / "run_config.txt").read_text()
    assert "folds.seed=2" in copy
    assert json.loads((out_dir / "folds" / "folds.json").read_text())["seed"] == 2


# Every subcommand's arguments as (flags, dest, help, default, required,
# nargs), in --help order; the key flags end every list.
_HELP = (("-h", "--help"), "help", "show this help message and exit", "==SUPPRESS==", False, 0)
_KEY_FLAGS = [
    (("--config",), "config", "flat key=value configuration file", None, False, None),
    (("--data-root",), "data_root", None, None, False, None),
    (("--output-dir",), "output_dir", None, None, False, None),
    (("--variant",), "variant", "F | P", None, False, None),
    (("--depth-mode",), "depth_mode", "2d | 2.5d | 3d", None, False, None),
    (("--backend",), "backend", "threshold | oracle | external:DIR", None, False, None),
    (("--jobs",), "jobs", "0 = all cores", None, False, None),
    (("--patch-size",), "grid.patch_size", None, None, False, None),
    (("--overlap",), "grid.overlap", None, None, False, None),
    (("--close-radius",), "grid.close_radius", None, None, False, None),
    (("--aggregate",), "eval.aggregate", "macro | micro", None, False, None),
    (("--folds",), "folds.k", "number of cross-validation folds", None, False, None),
    (("--seed",), "folds.seed", None, None, False, None),
    (("--slice-policy",), "slice_policy", "auto | diseased_only | all", None, False, None),
    (("--denoiser",), "preprocess.denoiser", "none | gaussian | nlm", None, False, None),
]
_SUBCOMMANDS = {
    "info": ("print vendor and geometry of volumes", [((), "paths", None, None, True, "+")]),
    "preprocess": ("resize/denoise every inventory volume", []),
    "folds": ("plan cross-validation folds", []),
    "patchify": (
        "extract overlapping patches to disk",
        [
            (("--volume",), "volume", "volume id to patchify", None, True, None),
            (("--slice",), "slice", "single slice index (default: policy-selected)", None, False, None),
        ],
    ),
    "stitch": (
        "stitch spilled patch predictions into a volume",
        [
            (("--volume",), "volume", "volume id for the output", None, True, None),
            (("--dims",), "dims", "target dims as WxHxD", None, True, None),
            (("--predictions",), "predictions", "prediction spill base paths", None, True, "+"),
        ],
    ),
    "evaluate": (
        "run the pipeline over cross-validation folds",
        [(("--fold",), "fold", "evaluate a single fold (default: all)", None, False, None)],
    ),
    "report": ("merge evaluate CSVs into one table", [((), "csvs", None, None, True, "+")]),
    "synth": (
        "write a synthetic phantom dataset",
        [
            (("--dims",), "dims", "volume dims as WxHxD", "128x128x8", False, None),
            (("--n-per-vendor",), "n_per_vendor", None, 3, False, None),
            (("--vendors",), "vendors", None, "Cirrus,Spectralis,Topcon", False, None),
            (("--n-blobs",), "n_blobs", None, 6, False, None),
        ],
    ),
}


def test_every_subcommand_keeps_its_flags_choices_and_help():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert [(c.dest, c.help) for c in subs._choices_actions] == [
        (name, text) for name, (text, _) in _SUBCOMMANDS.items()
    ]
    for name, parser in subs.choices.items():
        got = [
            (tuple(a.option_strings), a.dest, a.help, a.default, a.required, a.nargs)
            for a in parser._actions
        ]
        assert got == [_HELP, *_SUBCOMMANDS[name][1], *_KEY_FLAGS], name
        assert all(a.choices is None for a in parser._actions), name
