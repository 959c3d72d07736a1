"""Scoring, fold planning, phantoms, report rendering, and the runner."""

import hashlib
import json
import re
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octpipe.backends import (
    BANDS,
    TrainingConfig,
    external_backend,
    one_hot,
    oracle_backend,
    threshold_backend,
)
from octpipe.config import RunConfig
from octpipe.errors import FormatError, StageError, ValidationError
from octpipe.eval_harness import (
    BlobSpec,
    ConfusionCounts,
    FoldPlan,
    ReportEntry,
    closing_stable,
    confusion,
    dice,
    dice_volume,
    entry_sort_key,
    evaluate_volume,
    format_cell,
    load_inventory,
    load_report_csv,
    make_folds,
    parse_report_csv,
    random_phantom,
    render_csv,
    render_report,
    render_table,
    run_experiment,
    save_folds,
    synth_phantom,
)
from octpipe.eval_harness import metrics, runner
from octpipe.eval_harness.phantom import INTENSITY_BANDS, _paint_labels
from octpipe.eval_harness.runner import image_path, label_path, predict_volume
from octpipe.patch_engine import DepthMode, close_all, extract, grid_runs, labelize, plan_grid
from octpipe.preprocess import PreprocessConfig, resize_volume
from octpipe.volume_io import (
    FLUIDS,
    FluidClass,
    LabelVolume,
    OctVolume,
    ProbVolume,
    prob_path,
    write_volume,
)


# ---------------------------------------------------------------- metrics


def label_cube(values):
    return LabelVolume(voxels=np.asarray(values, dtype=np.uint8), volume_id="m")


def test_confusion_perfect_agreement():
    voxels = np.zeros((1, 10, 10), dtype=np.uint8)
    voxels.reshape(-1)[:40] = 1
    same = label_cube(voxels)
    counts = confusion(same, same, FluidClass.IRF)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (40, 0, 0, 60)


def test_confusion_total_miss():
    truth = np.zeros((1, 10, 10), dtype=np.uint8)
    truth.reshape(-1)[:12] = 2
    counts = confusion(label_cube(np.zeros((1, 10, 10))), label_cube(truth), FluidClass.SRF)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (0, 0, 12, 88)


def test_confusion_matches_exhaustive_tally():
    rng = np.random.default_rng(51)
    pred = label_cube(rng.integers(0, 4, size=(4, 16, 16)))
    truth = label_cube(rng.integers(0, 4, size=(4, 16, 16)))
    for cls in FLUIDS:
        tp = fp = fn = tn = 0
        for z in range(4):
            for y in range(16):
                for x in range(16):
                    p = pred.voxels[z, y, x] == cls
                    t = truth.voxels[z, y, x] == cls
                    if p and t:
                        tp += 1
                    elif p:
                        fp += 1
                    elif t:
                        fn += 1
                    else:
                        tn += 1
        counts = confusion(pred, truth, cls)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (tp, fp, fn, tn)
        assert counts.tp + counts.fp + counts.fn + counts.tn == 4 * 16 * 16


def tally_counts(pred, truth, cls) -> ConfusionCounts:
    """Counts of ``cls`` from one bincount of (prediction, truth) pairs."""
    pairs = pred.astype(np.intp).ravel() * 4 + truth.astype(np.intp).ravel()
    tally = np.bincount(pairs, minlength=16).reshape(4, 4)
    tp = int(tally[cls, cls])
    fp = int(tally[cls].sum()) - tp
    fn = int(tally[:, cls].sum()) - tp
    return ConfusionCounts(tp, fp, fn, pairs.size - tp - fp - fn)


@pytest.mark.parametrize(
    "shape",
    [
        (metrics.CHUNK - 1,),
        (metrics.CHUNK,),
        (metrics.CHUNK + 1,),
        (2, metrics.CHUNK // 2 - 1),
        (2, metrics.CHUNK // 2),
        (2, metrics.CHUNK // 2 + 1),
        (3, metrics.CHUNK + 7),
    ],
)
def test_confusion_matches_bincount_tally_around_chunk_size(shape):
    rng = np.random.default_rng(int(np.prod(shape)))
    pred = rng.integers(0, 4, size=shape, dtype=np.uint8)
    truth = rng.integers(0, 4, size=shape, dtype=np.uint8)
    for cls in FLUIDS:
        for layout in (truth, np.asfortranarray(truth)):
            assert confusion(pred, layout, cls) == tally_counts(pred, truth, cls)


def test_confusion_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        confusion(label_cube(np.zeros((1, 4, 4))), label_cube(np.zeros((1, 4, 5))),
                  FluidClass.IRF)


def test_confusion_counts_add():
    a = ConfusionCounts(1, 2, 3, 4)
    b = ConfusionCounts(10, 20, 30, 40)
    merged = a + b
    assert (merged.tp, merged.fp, merged.fn, merged.tn) == (11, 22, 33, 44)


def test_dice_arithmetic_and_convention():
    assert dice(ConfusionCounts(30, 10, 10, 0)) == 0.75
    assert dice(ConfusionCounts(0, 0, 0, 100)) == 1.0
    assert dice(ConfusionCounts(0, 5, 0, 95)) == 0.0


def test_dice_symmetric_and_bounded():
    rng = np.random.default_rng(53)
    for _ in range(50):
        pred = label_cube(rng.integers(0, 4, size=(2, 8, 8)))
        truth = label_cube(rng.integers(0, 4, size=(2, 8, 8)))
        for cls in FLUIDS:
            ab = dice(confusion(pred, truth, cls))
            ba = dice(confusion(truth, pred, cls))
            assert ab == ba
            assert 0.0 <= ab <= 1.0


def test_dice_volume_identity():
    rng = np.random.default_rng(55)
    labels = label_cube(rng.integers(0, 4, size=(2, 12, 12)))
    scores = dice_volume(labels, labels)
    assert set(scores) == set(FLUIDS)
    assert all(v == 1.0 for v in scores.values())


# ---------------------------------------------------------------- folds


def table_inventory():
    return {
        "Cirrus": [f"c{i:02d}" for i in range(24)],
        "Spectralis": [f"s{i:02d}" for i in range(24)],
        "Topcon": [f"t{i:02d}" for i in range(22)],
    }


def test_make_folds_published_counts():
    plan = make_folds(table_inventory(), 3, seed=0)
    cirrus = [len(fold["Cirrus"]) for fold in plan.test_sets]
    topcon = [len(fold["Topcon"]) for fold in plan.test_sets]
    assert cirrus == [8, 8, 8]
    assert topcon == [8, 8, 6]
    # the short Topcon fold leaves 16 training volumes from every vendor
    sizes = {
        vendor: sum(1 for vid in plan.train_ids(2) if vid.startswith(vendor[0].lower()))
        for vendor in ("Cirrus", "Spectralis", "Topcon")
    }
    assert sizes == {"Cirrus": 16, "Spectralis": 16, "Topcon": 16}


def test_make_folds_partition_invariants():
    inventory = table_inventory()
    everything = sorted(v for ids in inventory.values() for v in ids)
    for seed in range(10):
        plan = make_folds(inventory, 3, seed=seed)
        combined = []
        for fold in range(3):
            test = plan.test_ids(fold)
            train = plan.train_ids(fold)
            assert not set(test) & set(train)
            assert sorted(set(test) | set(train)) == everything
            combined.extend(test)
        assert sorted(combined) == everything


def test_make_folds_deterministic_and_seed_sensitive():
    inventory = table_inventory()
    assert make_folds(inventory, 3, 7) == make_folds(inventory, 3, 7)
    assert make_folds(inventory, 3, 7) != make_folds(inventory, 3, 8)


def test_make_folds_golden_plan():
    """One seed's plan, written out: the seeded shuffle of each vendor's
    sorted ids, cut front to back into chunks of 2, 2 and 1 (or 2, 1, 1)."""
    inventory = {
        "Topcon": [f"topcon_{i:02d}" for i in range(4)],
        "Cirrus": [f"cirrus_{i:02d}" for i in reversed(range(5))],
    }
    plan = make_folds(inventory, 3, seed=7)
    assert plan.test_sets == (
        {"Cirrus": ("cirrus_00", "cirrus_02"), "Topcon": ("topcon_00", "topcon_02")},
        {"Cirrus": ("cirrus_04", "cirrus_03"), "Topcon": ("topcon_03",)},
        {"Cirrus": ("cirrus_01",), "Topcon": ("topcon_01",)},
    )


def test_make_folds_vendor_streams_are_independent():
    base = table_inventory()
    plan_all = make_folds(base, 3, seed=4)
    plan_two = make_folds({k: base[k] for k in ("Cirrus", "Topcon")}, 3, seed=4)
    for fold in range(3):
        assert plan_all.test_sets[fold]["Cirrus"] == plan_two.test_sets[fold]["Cirrus"]
        assert plan_all.test_sets[fold]["Topcon"] == plan_two.test_sets[fold]["Topcon"]


def test_make_folds_errors():
    with pytest.raises(ValidationError):
        make_folds(table_inventory(), 1, 0)
    with pytest.raises(ValidationError):
        make_folds({"Cirrus": ["a", "b"]}, 3, 0)
    with pytest.raises(ValidationError):
        make_folds({"Cirrus": ["a", "b", "c"], "Topcon": ["a", "d", "e"]}, 2, 0)


def test_fold_plan_save_load_round_trip(tmp_path):
    plan = make_folds(table_inventory(), 3, seed=9)
    save_folds(plan, tmp_path / "folds.json")
    payload = json.loads((tmp_path / "folds.json").read_text())
    back = FoldPlan(
        k=payload["k"],
        seed=payload["seed"],
        test_sets=tuple(
            {vendor: tuple(ids) for vendor, ids in fold.items()} for fold in payload["folds"]
        ),
    )
    assert back == plan


# ---------------------------------------------------------------- phantom


def test_synth_phantom_empty_spec_is_background():
    vol, labels = synth_phantom((64, 64, 4), [], seed=1)
    assert labels.voxels.max() == 0
    assert vol.voxels.min() >= 0.02 and vol.voxels.max() <= 0.22


def test_synth_phantom_ellipsoid_count_matches_oracle():
    blob = BlobSpec(cls=FluidClass.IRF, center=(30, 30, 4), radii=(8, 8, 2))
    _, labels = synth_phantom((64, 64, 9), [blob], seed=2)
    expected = 0
    for z in range(9):
        for y in range(64):
            for x in range(64):
                if ((x - 30) / 8) ** 2 + ((y - 30) / 8) ** 2 + ((z - 4) / 2) ** 2 <= 1.0:
                    expected += 1
    assert int(np.count_nonzero(labels.voxels == 1)) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_paint_labels_equals_the_whole_volume_formula(data):
    """Each blob is painted inside its bounding box, which may cross the
    volume's border; that gives, byte for byte, the labels of evaluating
    every blob's ellipsoid over the whole volume in order."""
    width, height, depth = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24)), data.draw(st.integers(1, 8))
    blob = st.builds(
        BlobSpec,
        cls=st.sampled_from(FLUIDS),
        center=st.tuples(*(st.integers(-4, n + 4) for n in (width, height, depth))),
        radii=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4)),
    )
    blobs = data.draw(st.lists(blob, max_size=5))
    expected = np.zeros((depth, height, width), dtype=np.uint8)
    zs = np.arange(depth, dtype=np.float64)[:, None, None]
    ys = np.arange(height, dtype=np.float64)[None, :, None]
    xs = np.arange(width, dtype=np.float64)[None, None, :]
    for b in blobs:
        (cx, cy, cz), (rx, ry, rz) = b.center, b.radii
        expected[((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 + ((zs - cz) / rz) ** 2 <= 1.0] = int(b.cls)
    assert _paint_labels((width, height, depth), blobs).tobytes() == expected.tobytes()


@st.composite
def inside_blobs(draw, dims):
    """A blob of any fluid class whose box lies inside the (width, height, depth) ``dims``."""
    radii = tuple(draw(st.integers(1, min(12, (n - 1) // 2))) for n in dims)
    center = tuple(draw(st.integers(r, n - 1 - r)) for r, n in zip(radii, dims))
    return BlobSpec(cls=draw(st.sampled_from(FLUIDS)), center=center, radii=radii)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_synth_phantom_equals_the_whole_volume_draw(data):
    """Drawing one B-scan at a time continues the stream of one whole-volume
    draw per class: the intensities equal, byte for byte, each class's
    ``rng.uniform`` values written through its whole-volume mask in band
    order."""
    dims = data.draw(st.integers(64, 96)), data.draw(st.integers(64, 96)), data.draw(st.integers(4, 8))
    blobs = data.draw(st.lists(inside_blobs(dims), max_size=4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    vol, labels = synth_phantom(dims, blobs, seed=seed)
    expected_labels = _paint_labels(dims, blobs)
    rng = np.random.default_rng(seed)
    expected = np.empty(expected_labels.shape, dtype=np.float32)
    for cls, (lo, hi) in INTENSITY_BANDS.items():
        mask = expected_labels == int(cls)
        n = int(np.count_nonzero(mask))
        if n:
            expected[mask] = rng.uniform(lo, hi, size=n).astype(np.float32)
    assert labels.voxels.tobytes() == expected_labels.tobytes()
    assert vol.voxels.tobytes() == expected.tobytes()


def test_random_phantom_bytes_are_pinned():
    vol, labels = random_phantom((100, 90, 6), seed=7)
    assert hashlib.md5(vol.voxels.tobytes()).hexdigest() == "79b65729cb25dbfd090c5ad0de84c072"
    assert hashlib.md5(labels.voxels.tobytes()).hexdigest() == "cb27f654111931bd0808a629aeb95d9f"


def test_synth_phantom_peak_is_its_outputs_plus_plane_buffers():
    """A 512x512x16 phantom allocates its image and labels plus buffers the
    size of one B-scan: no intensity draw the size of the volume."""
    import tracemalloc

    dims = (512, 512, 16)
    blobs = [
        BlobSpec(cls=FluidClass.IRF, center=(100, 120, 5), radii=(25, 20, 4)),
        BlobSpec(cls=FluidClass.SRF, center=(300, 260, 8), radii=(24, 25, 6)),
        BlobSpec(cls=FluidClass.PED, center=(420, 400, 10), radii=(20, 12, 3)),
    ]
    tracemalloc.start()
    try:
        vol, labels = synth_phantom(dims, blobs, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = 512 * 512
    assert peak < vol.voxels.nbytes + labels.voxels.nbytes + 16 * plane, peak


def test_synth_phantom_deterministic():
    blob = BlobSpec(cls=FluidClass.SRF, center=(20, 20, 2), radii=(5, 5, 1))
    a_vol, a_lab = synth_phantom((64, 64, 5), [blob], seed=3)
    b_vol, b_lab = synth_phantom((64, 64, 5), [blob], seed=3)
    np.testing.assert_array_equal(a_vol.voxels, b_vol.voxels)
    np.testing.assert_array_equal(a_lab.voxels, b_lab.voxels)


def test_synth_phantom_bands_recoverable_by_threshold(small_phantom):
    vol, labels = small_phantom
    batch = extract(vol, plan_grid(vol.dims[:2], vol.dims[:2], 0.0, DepthMode.D3))
    (pred,) = threshold_backend().predict(batch, DepthMode.D3, vol.volume_id)
    np.testing.assert_array_equal(pred.argmax(axis=0), labels.voxels)


def test_synth_phantom_rejects_bad_requests():
    with pytest.raises(ValueError):
        synth_phantom((32, 64, 4), [], seed=0)
    with pytest.raises(ValueError):
        synth_phantom(
            (64, 64, 4),
            [BlobSpec(cls=FluidClass.IRF, center=(60, 32, 2), radii=(8, 4, 1))],
            seed=0,
        )
    with pytest.raises(ValueError):
        BlobSpec(cls=FluidClass.BACKGROUND, center=(10, 10, 2), radii=(2, 2, 1))
    with pytest.raises(ValueError):
        BlobSpec(cls=FluidClass.IRF, center=(10, 10, 2), radii=(0, 2, 1))


def test_random_phantom_is_closing_stable(small_phantom):
    _, labels = small_phantom
    assert closing_stable(labels, 2)
    np.testing.assert_array_equal(close_all(labels, 2).voxels, labels.voxels)


# ---------------------------------------------------------------- report


def entry(**kw):
    base = dict(dimension="2D", model="unet", variant="F", vendor="Cirrus",
                fluid="IRF", dice=0.5, fold=0, n_volumes=8)
    base.update(kw)
    return ReportEntry(**base)


def test_format_cell_half_up():
    assert format_cell(0.75) == "0.75"
    assert format_cell(0.745) == "0.75"
    assert format_cell(0.744) == "0.74"
    assert format_cell(2 / 3) == "0.67"
    assert format_cell(0.005) == "0.01"
    assert format_cell(1.0) == "1.00"
    assert format_cell(0.0) == "0.00"


def test_render_table_published_row_position():
    cells = {"IRF": 0.75, "SRF": 0.74, "PED": 0.68}
    entries = [entry(fluid=f, dice=v) for f, v in cells.items()]
    table = render_table(entries)
    lines = table.splitlines()
    assert lines[0] == "| Dimension | Model | Cirrus IRF | Cirrus SRF | Cirrus PED |"
    assert lines[2] == "| 2D | unet_F | 0.75 | 0.74 | 0.68 |"
    assert "Human grader baseline: Dice 0.71." in table


def test_render_table_missing_cells_and_variant_order():
    entries = [
        entry(variant="P", fluid="IRF", dice=0.6),
        entry(variant="F", fluid="IRF", dice=0.5),
        entry(variant="F", vendor="Topcon", fluid="SRF", dice=0.4),
    ]
    table = render_table(entries)
    lines = table.splitlines()
    f_row = next(l for l in lines if "unet_F" in l)
    p_row = next(l for l in lines if "unet_P" in l)
    assert lines.index(f_row) < lines.index(p_row)
    assert "—" in f_row and "—" in p_row


def test_render_table_groups_dimensions_in_order():
    entries = [
        entry(dimension="3D", model="segnet"),
        entry(dimension="2D", model="deeplabv3plus"),
        entry(dimension="2.5D", model="unet"),
    ]
    table = render_table(entries)
    rows = [l for l in table.splitlines() if l.startswith("| 2") or l.startswith("| 3")]
    assert [r.split(" | ")[0].lstrip("| ") for r in rows] == ["2D", "2.5D", "3D"]


def test_render_table_training_metadata_footer():
    table = render_table([entry()], training=TrainingConfig())
    assert "Training metadata:" in table
    assert "adam" in table


def test_csv_round_trip_is_exact_fixed_point():
    rng = np.random.default_rng(57)
    entries = [
        entry(vendor=v, fluid=f, dice=float(rng.random()), fold=k)
        for v in ("Cirrus", "Spectralis", "Topcon")
        for f in ("IRF", "SRF", "PED")
        for k in range(3)
    ]
    text = render_csv(entries)
    parsed = parse_report_csv(text)
    assert [e.dice for e in parsed] == [
        e.dice for e in sorted(entries, key=entry_sort_key)
    ]
    assert render_csv(parsed) == text


def test_csv_header_and_schema(tmp_path):
    text = render_csv([entry()])
    assert text.splitlines()[0] == "dimension,model,variant,vendor,fluid,dice,fold,n_volumes"
    (tmp_path / "r.csv").write_text(text)
    assert load_report_csv(tmp_path / "r.csv") == parse_report_csv(text)
    with pytest.raises(ValidationError):
        parse_report_csv("model,dice\nunet,0.5\n")


@pytest.mark.parametrize(
    "row, error, message",
    [
        ("2D,unet,F,Cirrus,IRF,abc,0,8", FormatError,
         "column dice: could not convert string to float: 'abc'"),
        ("2D,unet,F,Cirrus,IRF,0.5,,8", FormatError, "column fold: invalid literal for int()"),
        ("2D,unet,F,Cirrus,IRF,0.5,0", FormatError, "no cell for column n_volumes"),
        ("2D,unet,F,Cirrus,IRF,0.5,0,8,9", FormatError, "a cell past the last column, n_volumes"),
        ("2D,unet,F,Cirrus,IRF,1.5,0,8", ValidationError, "dice must lie in [0, 1], got 1.5"),
    ],
    ids=["unparsed-float", "empty-int", "short-row", "ninth-cell", "failed-check"],
)
def test_a_malformed_csv_row_is_named_by_file_line_and_column(tmp_path, row, error, message):
    """The bad row is the third line, after the header and one good row."""
    path = tmp_path / "r.csv"
    path.write_text(render_csv([entry()]) + row + "\n")
    with pytest.raises(error, match=re.escape(f"{path}:3: {message}")):
        load_report_csv(path)


def test_csv_blank_lines_hold_no_row():
    text = render_csv([entry(fluid="IRF"), entry(fluid="SRF")])
    header, first, second = text.splitlines()
    assert parse_report_csv(f"{header}\n\n{first}\n\n{second}\n") == parse_report_csv(text)


def test_report_entry_validation():
    with pytest.raises(ValidationError):
        entry(dice=1.5)
    with pytest.raises(ValidationError):
        entry(variant="X")
    with pytest.raises(ValidationError):
        entry(fluid="CNV")


def test_unknown_dimensions_and_vendors_sort_after_the_known_ones():
    """Names outside DepthMode and Vendor follow the known ones, in name
    order, though "0D" and "Bioptigen" sort first alphabetically."""
    entries = [
        entry(dimension=dimension, vendor=vendor)
        for dimension in ("4D", "3D", "0D", "2D")
        for vendor in ("Optovue", "Topcon", "Bioptigen", "Cirrus")
    ]
    dimensions = ["2D", "3D", "0D", "4D"]
    vendors = ["Cirrus", "Topcon", "Bioptigen", "Optovue"]
    table, text = render_report(entries)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [(d, v) for d in dimensions for v in vendors]
    lines = table.splitlines()
    header = lines[0].strip("| ").split(" | ")
    assert [cell.split()[0] for cell in header[2::3]] == vendors
    assert [line.split(" | ")[0].lstrip("| ") for line in lines[2:6]] == dimensions


@pytest.mark.parametrize("render", [render_table, render_csv])
def test_render_refuses_an_empty_entry_list(render):
    with pytest.raises(ValidationError, match="nothing to render: no report entries"):
        render([])


def test_render_report_returns_both_views():
    table, text = render_report([entry()])
    assert table.startswith("| Dimension")
    assert text.startswith("dimension,")


# ---------------------------------------------------------------- runner


def nat_config(root, **kw):
    """Run configuration pinned to the phantom's native resolution so scores stay exact."""
    base = dict(
        data_root=root,
        preprocess=PreprocessConfig(target_2d=(96, 96), target_vol=(96, 96)),
        depth_mode=DepthMode.D25,
        patch_size=32,
        overlap=0.5,
        close_radius=1,
        folds_k=2,
        seed=0,
    )
    base.update(kw)
    return RunConfig(**base)


def test_run_experiment_oracle_all_ones(make_dataset):
    root, inventory, _ = make_dataset()
    cfg = nat_config(root, backend="oracle")
    entries = run_experiment(cfg, fold=0)
    assert len(entries) == len(inventory) * 3
    assert all(e.dice == 1.0 for e in entries)
    assert {e.vendor for e in entries} == set(inventory)
    assert {e.fluid for e in entries} == {"IRF", "SRF", "PED"}
    assert all(e.model == "oracle" for e in entries)


def test_run_experiment_threshold_variants_complete(make_dataset):
    root, inventory, _ = make_dataset()
    rows = {}
    for variant in ("F", "P"):
        entries = run_experiment(nat_config(root, variant=variant), fold=1)
        assert {(e.vendor, e.fluid) for e in entries} == {
            (v, f) for v in inventory for f in ("IRF", "SRF", "PED")
        }
        assert all(e.variant == variant for e in entries)
        rows[variant] = entries
    # band-coded phantom at native resolution: both variants recover the truth
    assert all(e.dice == 1.0 for entries in rows.values() for e in entries)


def test_run_experiment_depth_modes_agree_on_oracle(make_dataset):
    root, _, _ = make_dataset(vendors=("Cirrus",), n_per_vendor=2)
    for mode in DepthMode:
        cfg = nat_config(root, depth_mode=mode, backend="oracle")
        entries = run_experiment(cfg, fold=0)
        assert all(e.dice == 1.0 for e in entries)
        assert all(e.dimension == mode.label for e in entries)


def test_run_experiment_external_matches_standalone_scoring(make_dataset, tmp_path):
    root, inventory, truths = make_dataset(vendors=("Cirrus",), n_per_vendor=2)
    prob_dir = tmp_path / "probs"
    cfg = nat_config(root, close_radius=0, backend=f"external:{prob_dir}")
    plan = make_folds(inventory, 2, cfg.seed)

    prob_dir.mkdir()
    rng = np.random.default_rng(61)
    for vid, truth in truths.items():
        noisy = one_hot(truth.voxels) * 0.7 + 0.3 * 0.25
        jitter = rng.random(noisy.shape).astype(np.float32) * 0.2
        raw = noisy + jitter
        probs = raw / raw.sum(axis=0, keepdims=True)
        write_volume(ProbVolume(probs=probs, volume_id=vid), prob_dir / f"{vid}_prob.mhd")

    entries = run_experiment(cfg, fold=0)
    assert all(e.model == f"external:{prob_dir}" for e in entries)

    from octpipe.volume_io import read_prob

    for vendor, ids in plan.test_sets[0].items():
        per_volume = []
        for vid in sorted(ids):
            prob = read_prob(prob_dir / f"{vid}_prob.mhd")
            per_volume.append(dice_volume(labelize(prob), truths[vid]))
        for cls in FLUIDS:
            expected = float(np.mean([scores[cls] for scores in per_volume]))
            got = next(
                e.dice for e in entries if e.vendor == vendor and e.fluid == cls.name
            )
            assert abs(got - expected) <= 1e-9


def test_run_experiment_micro_vs_macro(make_dataset, tmp_path):
    root, inventory, truths = make_dataset(vendors=("Cirrus",), n_per_vendor=4)
    plan = make_folds(inventory, 2, 0)
    fold = 0
    first, second = sorted(plan.test_sets[fold]["Cirrus"])

    prob_dir = tmp_path / "probs"
    prob_dir.mkdir()
    # first test volume scored perfectly, second predicted all background
    predictions = {}
    for vid, truth in truths.items():
        if vid == second:
            probs = np.zeros((4,) + truth.voxels.shape, dtype=np.float32)
            probs[0] = 1.0
        else:
            probs = one_hot(truth.voxels)
        predictions[vid] = labelize(ProbVolume(probs=probs, volume_id=vid))
        write_volume(ProbVolume(probs=probs, volume_id=vid), prob_dir / f"{vid}_prob.mhd")

    external = f"external:{prob_dir}"
    cfg_macro = nat_config(root, close_radius=0, aggregate="macro", backend=external)
    cfg_micro = nat_config(root, close_radius=0, aggregate="micro", backend=external)
    macro = run_experiment(cfg_macro, fold)
    micro = run_experiment(cfg_micro, fold)

    for cls in FLUIDS:
        pooled = confusion(predictions[first], truths[first], cls) + confusion(
            predictions[second], truths[second], cls
        )
        micro_value = next(e.dice for e in micro if e.fluid == cls.name)
        macro_value = next(e.dice for e in macro if e.fluid == cls.name)
        assert abs(micro_value - dice(pooled)) <= 1e-12
        per_volume = [
            dice(confusion(predictions[vid], truths[vid], cls)) for vid in (first, second)
        ]
        assert abs(macro_value - float(np.mean(per_volume))) <= 1e-12
        assert micro_value != macro_value


def test_run_experiment_macro_is_the_mean_of_three_distinct_scores(make_dataset, tmp_path):
    """A fold of three volumes scored 1, about 2/3 and 0 per fluid: the macro
    cell is their mean, which differs from their median."""
    root, inventory, truths = make_dataset(vendors=("Cirrus",), n_per_vendor=6)
    fold = 0
    perfect, halved, empty = sorted(make_folds(inventory, 2, 0).test_sets[fold]["Cirrus"])
    prob_dir = tmp_path / "probs"
    prob_dir.mkdir()
    predictions = {}
    for vid, truth in truths.items():
        labels = truth.voxels.copy()
        if vid == halved:  # every other voxel of each fluid goes to background
            for cls in FLUIDS:
                (where,) = np.nonzero(labels.ravel() == cls)
                labels.ravel()[where[::2]] = 0
        elif vid == empty:
            labels[:] = 0
        predictions[vid] = LabelVolume(voxels=labels, volume_id=vid)
        write_volume(ProbVolume(probs=one_hot(labels), volume_id=vid), prob_dir / f"{vid}_prob.mhd")

    cfg = nat_config(root, close_radius=0, aggregate="macro", backend=f"external:{prob_dir}")
    entries = run_experiment(cfg, fold)
    separated = False
    for cls in FLUIDS:
        per_volume = [
            dice(confusion(predictions[vid], truths[vid], cls)) for vid in (perfect, halved, empty)
        ]
        got = next(e.dice for e in entries if e.fluid == cls.name)
        assert abs(got - float(np.mean(per_volume))) <= 1e-12
        separated |= float(np.mean(per_volume)) != float(np.median(per_volume))
    assert separated


def test_evaluate_volume_tags_stage_failures(make_dataset):
    root, _, truths = make_dataset(vendors=("Cirrus",), n_per_vendor=2)
    vid = sorted(truths)[0]
    label_path(root, vid).unlink()
    cfg = nat_config(root, backend="oracle")
    with pytest.raises(StageError) as err:
        evaluate_volume(vid, cfg)
    assert err.value.stage == "read_labels"
    assert err.value.volume_id == vid


@pytest.mark.parametrize(
    "faults, stage, message",
    [
        (("image", "labels"), "read_volume", "images/{vid}.mhd: header ended before"),
        (("labels",), "read_labels", "labels/{vid}.mhd: header ended before"),
        (("taller labels", "nan image"), "preprocess", "labels of '{vid}' are (96, 112, 4) (w, h, d)"),
    ],
    ids=["unreadable-image-and-labels", "unreadable-labels", "size-mismatch-and-nan-image"],
)
def test_evaluate_volume_names_the_first_stage_of_several_faults(make_dataset, faults, stage, message):
    """``preprocess_pair`` reads the image before its labels and compares
    their sizes before it preprocesses the image, so the first fault in that
    order names the stage."""
    from octpipe.volume_io import OctVolume, read_volume

    root, _, truths = make_dataset(vendors=("Cirrus",), n_per_vendor=2)
    vid = sorted(truths)[0]
    image = root / "images" / f"{vid}.mhd"
    if "nan image" in faults:
        voxels = read_volume(image).voxels.copy()
        voxels[1, 2, 3] = np.nan
        write_volume(OctVolume(voxels, volume_id=vid), image)
    if "taller labels" in faults:
        taller = np.pad(truths[vid].voxels, ((0, 0), (0, 16), (0, 0)))
        write_volume(LabelVolume(taller), label_path(root, vid))
    for kind, path in (("image", image), ("labels", label_path(root, vid))):
        if kind in faults:
            path.write_text("NDims = 7\n")
    with pytest.raises(StageError, match=re.escape(message.format(vid=vid))) as err:
        evaluate_volume(vid, nat_config(root, backend="oracle"))
    assert (err.value.stage, err.value.volume_id) == (stage, vid)


@pytest.mark.parametrize("fault", ["missing", "invalid"])
def test_evaluate_volume_tags_a_bad_external_file_as_predict(make_dataset, tmp_path, fault):
    root, _, truths = make_dataset(vendors=("Cirrus",), n_per_vendor=2)
    vid = sorted(truths)[0]
    if fault == "invalid":  # channel sums of 0.8
        probs = np.full((4, *truths[vid].voxels.shape), 0.2, np.float32)
        write_volume(ProbVolume(probs, volume_id=vid), tmp_path / f"{vid}_prob.mhd")
    cfg = nat_config(root, backend=f"external:{tmp_path}")
    with pytest.raises(StageError, match=f"stage 'predict' failed for volume '{vid}'"):
        evaluate_volume(vid, cfg)


@pytest.mark.parametrize("variant", ["F", "P"])
@pytest.mark.parametrize("mode", list(DepthMode), ids=lambda mode: mode.value)
def test_a_backend_writing_into_its_batch_fails_predict_and_keeps_the_volume(
    make_dataset, monkeypatch, mode, variant
):
    """A batch is a read-only view of the preprocessed volume, so a backend
    that writes into it fails the predict stage; it can neither change the
    volume nor write into a copy unnoticed."""
    from octpipe.backends import Backend
    from octpipe.eval_harness import runner

    root, _, truths = make_dataset(vendors=("Cirrus",), n_per_vendor=2)
    vid = sorted(truths)[0]

    def writing_backend():
        threshold = threshold_backend()

        def predict(batch, mode, volume_id):
            batch.data[...] = 0.0
            return threshold.predict(batch, mode, volume_id)

        return Backend(predict)

    seen = {}
    predict_volume = runner.predict_volume

    def keep_input(vol, *args):
        seen["vol"], seen["before"] = vol, vol.voxels.copy()
        return predict_volume(vol, *args)

    monkeypatch.setattr(runner, "threshold_backend", writing_backend)
    monkeypatch.setattr(runner, "predict_volume", keep_input)
    cfg = nat_config(root, backend="threshold", depth_mode=mode, variant=variant)
    with pytest.raises(StageError, match="read-only") as err:
        evaluate_volume(vid, cfg)
    assert (err.value.stage, err.value.volume_id) == ("predict", vid)
    assert seen["vol"].voxels.tobytes() == seen["before"].tobytes()


def test_run_experiment_rejects_bad_fold(make_dataset):
    root, _, _ = make_dataset()
    with pytest.raises(ValidationError):
        run_experiment(nat_config(root, backend="oracle"), fold=5)


def test_load_inventory_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_inventory(tmp_path)
    (tmp_path / "inventory.json").write_text('["not", "a", "mapping"]')
    with pytest.raises(ValidationError):
        load_inventory(tmp_path)


def test_load_inventory_names_a_file_that_is_not_json(tmp_path):
    (tmp_path / "inventory.json").write_text('{"Cirrus": ["a"]\n"Topcon": ["b"]}')
    with pytest.raises(ValidationError, match=re.escape(str(tmp_path / "inventory.json"))):
        load_inventory(tmp_path)


def test_run_experiment_jobs_invariant(make_dataset):
    root, _, _ = make_dataset(vendors=("Cirrus",), n_per_vendor=2)
    base = run_experiment(nat_config(root, jobs=1), fold=0)
    threaded = run_experiment(nat_config(root, jobs=4), fold=0)
    assert [(e.vendor, e.fluid, e.dice) for e in base] == [
        (e.vendor, e.fluid, e.dice) for e in threaded
    ]


def test_evaluate_volume_counts_each_fluid_once(make_dataset, tmp_path, monkeypatch):
    from octpipe.eval_harness import metrics, runner

    root, _, truths = make_dataset(vendors=("Cirrus",), n_per_vendor=2)
    prob_dir = tmp_path / "probs"
    prob_dir.mkdir()
    rng = np.random.default_rng(62)
    for vid, truth in truths.items():
        raw = one_hot(truth.voxels) * 0.5 + rng.random((4,) + truth.voxels.shape, dtype=np.float32)
        probs = raw / raw.sum(axis=0, keepdims=True)
        write_volume(ProbVolume(probs=probs, volume_id=vid), prob_dir / f"{vid}_prob.mhd")

    calls = []

    def counted(*args):
        calls.append(args[2])
        return confusion(*args)

    # dice_volume reaches confusion through metrics, evaluate_volume through runner
    monkeypatch.setattr(metrics, "confusion", counted)
    monkeypatch.setattr(runner, "confusion", counted)
    seen = {}
    segment = runner.segment_volume
    monkeypatch.setattr(
        runner, "segment_volume",
        lambda vol, *a: seen.setdefault("pred", segment(vol, *a)),
    )
    cfg = nat_config(root, close_radius=0, backend=f"external:{prob_dir}")
    for vid, truth in truths.items():
        calls.clear()
        seen.clear()
        scores, counts = evaluate_volume(vid, cfg)
        assert sorted(calls) == sorted(FLUIDS)
        pred = seen["pred"]
        assert scores == dice_volume(pred, truth)
        assert counts == {cls: confusion(pred, truth, cls) for cls in FLUIDS}
        assert any(score < 1.0 for score in scores.values())


@pytest.mark.parametrize(
    "mode, variant",
    [(DepthMode.D25, "P"), (DepthMode.D3, "P"), (DepthMode.D3, "F")],
    ids=["2.5d", "3d", "3d-F"],
)
@pytest.mark.parametrize("jobs", [1, 2])
def test_predict_volume_peak_memory_stays_near_output_size(mode, variant, jobs):
    """Variant P at overlap 0.75 covers each voxel 9 times on average, so
    holding every patch prediction would cost about 9 output volumes.  In
    3D F the one prediction is the whole volume and becomes the output, so
    a second volume-sized array would double the peak."""
    import tracemalloc

    from octpipe.eval_harness.runner import predict_volume
    from octpipe.volume_io import OctVolume

    rng = np.random.default_rng(71)
    vol = OctVolume(rng.random((48, 48, 48), dtype=np.float32), volume_id="mem")
    cfg = RunConfig(depth_mode=mode, variant=variant, patch_size=16, overlap=0.75, jobs=jobs)
    backend = threshold_backend()
    tracemalloc.start()
    try:
        prob = predict_volume(vol, backend, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (3 if variant == "P" else 1.25) * prob.probs.nbytes


@pytest.mark.parametrize("mode", list(DepthMode))
def test_only_a_3d_stitch_opens_a_pool(monkeypatch, mode):
    """At ``jobs`` 3 a 2D or 2.5D ``predict_volume`` stitches on the calling
    thread and opens no pool in ``patch_engine``; a 3D one opens one pool of
    2, which with the calling thread splits by class the run that completes
    its grid."""
    from octpipe import patch_engine
    from octpipe.eval_harness.runner import predict_volume
    from octpipe.volume_io import OctVolume

    opened = []
    pool = patch_engine.ThreadPoolExecutor

    def counted(*args, **kwargs):
        opened.append(args)
        return pool(*args, **kwargs)

    monkeypatch.setattr(patch_engine, "ThreadPoolExecutor", counted)
    vol = OctVolume(np.random.default_rng(75).random((4, 32, 32), dtype=np.float32), volume_id="pool")
    cfg = RunConfig(depth_mode=mode, patch_size=16, overlap=0.5, jobs=3)
    predict_volume(vol, threshold_backend(), cfg)
    assert opened == ([(2,)] if mode is DepthMode.D3 else [])


def test_segment_volume_frees_the_probabilities_before_closing(monkeypatch):
    """Closing runs once the probability volume is gone, so the two are
    never alive together."""
    from octpipe.eval_harness import runner
    from octpipe.volume_io import OctVolume

    probs, alive = [], []
    predict = runner.predict_volume

    def predict_kept(*args):
        prob = predict(*args)
        probs.append(weakref.ref(prob))
        return prob

    def close_checked(labels, radius):
        alive.append(probs[0]() is not None)
        return close_all(labels, radius)

    monkeypatch.setattr(runner, "predict_volume", predict_kept)
    monkeypatch.setattr(runner, "close_all", close_checked)
    vol = OctVolume(np.random.default_rng(76).random((4, 32, 32), dtype=np.float32), volume_id="free")
    cfg = RunConfig(depth_mode=DepthMode.D25, patch_size=16, overlap=0.5, close_radius=1, jobs=1)
    runner.segment_volume(vol, threshold_backend(), cfg)
    assert alive == [False]


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_predict_volume_2_5d_peak_has_no_room_for_extracted_patches(jobs):
    """2.5D P on 64x64x16, patch 16, overlap 0.75: 13 runs of 13 patches per
    slice, whose predictions are 53 KB a run and 0.68 MB a slice, and whose
    slabs would be 0.52 MB a slice if copied.  Patches are views of the
    volume and each task is one run, so beyond the output only the run being
    stitched and the ``jobs + 1`` runs in flight are alive, plus slack: per
    predict thread, the slab copy of an edge slice (48 KB) and the backend's
    working buffers, and a fixed 256 KB.  Holding a slice's predictions per
    task, or copying a slice's patches, does not fit."""
    import tracemalloc

    from octpipe.eval_harness.runner import predict_volume
    from octpipe.volume_io import OctVolume

    vol = OctVolume(np.random.default_rng(74).random((16, 64, 64), dtype=np.float32), volume_id="mem")
    cfg = RunConfig(depth_mode=DepthMode.D25, variant="P", patch_size=16, overlap=0.75, jobs=jobs)
    run = 13 * 4 * 16 * 16 * 4  # bytes of one run's predictions
    assert [r.stop - r.start for r in grid_runs(cfg.grid((64, 64)))] == [13] * 13
    tracemalloc.start()
    try:
        output = predict_volume(vol, threshold_backend(), cfg).probs.nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < output + (jobs + 2) * run + jobs * 128 * 1024 + 256 * 1024


@pytest.mark.parametrize("mode", [DepthMode.D2, DepthMode.D25], ids=lambda mode: mode.value)
def test_planar_predict_volume_keeps_few_predictions_alive(mode):
    """70x50x6, patch 16, overlap 0.75: 15 x 10 anchors per slice, with an
    edge anchor on both axes, so 20 runs per slice.  Each predict call is one
    run, and when it starts at most ``jobs + 2`` earlier outputs are still
    alive: the ``jobs + 1`` in flight and the one being stitched.  Holding a
    slice's runs would keep 20 or more alive.  The probabilities are the
    same bytes at every ``jobs``."""
    from octpipe.backends import Backend
    from octpipe.eval_harness.runner import predict_volume
    from octpipe.volume_io import OctVolume

    vol = OctVolume(np.random.default_rng(77).random((6, 50, 70), dtype=np.float32), volume_id="live")
    assert len(plan_grid((70, 50), 16, 0.75).anchors) == 150
    outputs = set()
    for jobs in (1, 2, 3):
        predict = threshold_backend().predict
        refs, counts = [], []

        def counted(batch, depth_mode, volume_id):
            counts.append(sum(ref() is not None for ref in list(refs)))
            out = predict(batch, depth_mode, volume_id)
            refs.append(weakref.ref(out))
            return out

        cfg = RunConfig(depth_mode=mode, variant="P", patch_size=16, overlap=0.75, jobs=jobs)
        outputs.add(predict_volume(vol, Backend(counted), cfg).probs.tobytes())
        assert len(counts) == 6 * 20
        assert max(counts) <= jobs + 2, (jobs, max(counts))
    assert len(outputs) == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_external_3d_full_prediction_reads_negative_zero_as_zero(tmp_path, jobs):
    """3D F stitches the one window of the external backend's volume.  The
    result holds +0.0 where the file holds -0.0, as a sum into zeros gives,
    and the backend's read-only volume keeps its -0.0."""
    from octpipe.backends import external_backend
    from octpipe.eval_harness.runner import predict_volume
    from octpipe.volume_io import OctVolume

    rng = np.random.default_rng(29)
    probs = rng.random((4, 5, 12, 10), dtype=np.float32) + 0.5
    probs /= probs.sum(axis=0)
    probs[1:, 2, 3:7] = -0.0
    probs[0, 2, 3:7] = 1.0
    write_volume(ProbVolume(probs=probs, volume_id="z"), tmp_path / "z_prob.mhd")
    vol = OctVolume(np.zeros((5, 12, 10), dtype=np.float32), volume_id="z")
    cfg = RunConfig(depth_mode=DepthMode.D3, variant="F", jobs=jobs)
    backend = external_backend(tmp_path, "z", vol.dims)
    result = predict_volume(vol, backend, cfg).probs
    assert result.tobytes() == (np.zeros_like(probs) + probs).tobytes()
    assert not np.signbit(result).any()
    (window,) = backend.predict(extract(vol, cfg.grid(vol.dims[:2])), DepthMode.D3, "z")
    assert window.tobytes() == probs.tobytes()
    assert not window.flags.writeable and not np.shares_memory(window, result)


@pytest.mark.parametrize("backend_kind", ["threshold", "external"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_predict_volume_3d_peak_holds_no_block_past_its_row(tmp_path, backend_kind, jobs):
    """3D P on a 48-cube, patch 16, overlap 0.75: a grid of 81 blocks of
    (4, 48, 16, 16), each a ninth of the output.  A threshold block owns its
    memory and is summed as it arrives, so beyond the output only the
    ``jobs + 1`` blocks in flight and the one being built are alive, plus
    slack; holding even 9 of them would add up to 9 more.  An external block
    is a view of the volume the backend read when it was built (inside the
    traced region), so holding it until the grid's last block costs nothing
    and the peak is that volume plus the output."""
    import tracemalloc

    from octpipe.backends import external_backend
    from octpipe.eval_harness.runner import predict_volume
    from octpipe.volume_io import OctVolume

    rng = np.random.default_rng(71)
    vol = OctVolume(rng.random((48, 48, 48), dtype=np.float32), volume_id="mem")
    cfg = RunConfig(depth_mode=DepthMode.D3, patch_size=16, overlap=0.75, jobs=jobs)
    if backend_kind == "external":
        probs = rng.random((4, 48, 48, 48), dtype=np.float32) + 0.5
        probs /= probs.sum(axis=0)
        write_volume(ProbVolume(probs=probs, volume_id="mem"), tmp_path / "mem_prob.mhd")
        del probs

    def run():
        if backend_kind == "external":
            backend = external_backend(tmp_path, "mem", vol.dims)
        else:
            backend = threshold_backend()
        return predict_volume(vol, backend, cfg).probs.nbytes

    def traced():
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A cold path's traced peak falls by tens of KB over its first seven runs
    # while the interpreter fills its free lists and caches, by how much
    # depending on what ran before; later runs stay within a few KB.  So the
    # path is warmed six times before the one traced run, in any test order.
    for _ in range(6):
        run()
    output, peak = traced()
    block = 4 * 48 * 16 * 16 * 4  # bytes of one (4, 48, 16, 16) float32 block
    if backend_kind == "external":
        assert peak < 2 * output + block
    else:
        assert peak < output + (jobs + 3) * block


@pytest.mark.parametrize("stage", ["labelize", "confusion", "validate", "read_prob"])
def test_per_voxel_passes_peak_near_output_plus_one_slice(tmp_path, stage):
    """These passes work one slice (confusion: one chunk) at a time, so none
    holds a temporary the size of the volume: a (4, 16, 256, 256) float32
    volume is 16 MB, one slice of it 1 MB, its labels 1 MB."""
    import tracemalloc

    from octpipe.volume_io import read_prob

    rng = np.random.default_rng(73)
    probs = rng.random((4, 16, 256, 256), dtype=np.float32) + 0.5
    probs /= probs.sum(axis=0)
    prob = ProbVolume(probs=probs, volume_id="mem")
    labels = labelize(prob).voxels
    truth = rng.integers(0, 4, size=labels.shape, dtype=np.uint8)
    # a truth laid out unlike the prediction must not need a flat copy either
    truths = (truth, np.asfortranarray(truth))
    path = tmp_path / "mem_prob.mhd"
    write_volume(prob, path)
    run, output_bytes = {
        "labelize": (lambda: labelize(prob), labels.nbytes),
        "confusion": (lambda: [confusion(labels, t, FluidClass.SRF) for t in truths], 0),
        "validate": (prob.validate, 0),
        "read_prob": (lambda: read_prob(path), probs.nbytes),
    }[stage]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < output_bytes + probs[:, 0].nbytes


def test_full_3d_evaluate_volume_peak_holds_one_native_volume(tmp_path):
    """Oracle, variant F, 3D, gaussian: a 512x256x16 volume brought to
    128x128.  Its native labels are freed once resized, before the image is
    resized, and the image is denoised in place, so no stage holds more than
    the native image (8 MB), the working image (1 MB), the working truth
    (0.25 MB) and four float64 planes of the working height and the native
    width (0.5 MB each), the widest planes preprocessing allocates: the
    resize's row buffers.  The native labels (2 MB) do not fit beside them."""
    import tracemalloc

    (tmp_path / "images").mkdir()
    (tmp_path / "labels").mkdir()
    vol, labels = random_phantom((512, 256, 16), seed=77, n_blobs=4, volume_id="native")
    write_volume(vol, tmp_path / "images" / "native.mhd")
    write_volume(labels, label_path(tmp_path, "native"))
    cfg = RunConfig(
        data_root=tmp_path,
        preprocess=PreprocessConfig(target_vol=(128, 128), denoiser="gaussian"),
        depth_mode=DepthMode.D3,
        variant="F",
        backend="oracle",
        jobs=1,
    )
    evaluate_volume("native", cfg)  # warm the path: lazy imports and caches
    tracemalloc.start()
    try:
        scores, _ = evaluate_volume("native", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(value == 1.0 for value in scores.values())
    native, working = vol.voxels.nbytes, 16 * 128 * 128 * 4
    assert peak < native + working + working // 4 + 4 * 128 * 512 * 8


def test_predict_volume_3d_is_jobs_invariant():
    from octpipe.eval_harness.runner import predict_volume
    from octpipe.volume_io import OctVolume

    vol = OctVolume(np.random.default_rng(72).random((6, 40, 40), dtype=np.float32), volume_id="j")
    outputs = set()
    for jobs in (1, 2, 8):
        cfg = RunConfig(depth_mode=DepthMode.D3, patch_size=16, overlap=0.5, jobs=jobs)
        outputs.add(predict_volume(vol, threshold_backend(), cfg).probs.tobytes())
    assert len(outputs) == 1


# ---------------------------------------------------------------- the whole predict path


@st.composite
def predict_cases(draw):
    """A patch grid with an edge anchor on both axes (each side is the patch
    plus whole strides plus a remainder), the image it tiles, the run
    settings, the backend, and a native label size the oracle's truth is
    resized from."""
    patch = draw(st.integers(6, 14))
    overlap = draw(st.sampled_from([0.25, 0.5, 0.75]))
    stride = round(patch * (1 - overlap))
    w, h = (patch + draw(st.integers(0, 2)) * stride + draw(st.integers(1, stride - 1)) for _ in "wh")
    return dict(
        dims=(w, h, draw(st.integers(3, 5))),
        native=(draw(st.integers(w // 2, 2 * w)), draw(st.integers(h // 2, 2 * h))),
        patch_size=patch,
        overlap=overlap,
        depth_mode=draw(st.sampled_from(list(DepthMode))),
        variant=draw(st.sampled_from(["F", "P"])),
        backend=draw(st.sampled_from(["threshold", "oracle", "external"])),
        jobs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


def nearest_sources(src: int, dst: int) -> list[int]:
    """Source index of each output index: floor((i + 0.5) * src / dst)."""
    return [(2 * i + 1) * src // (2 * dst) for i in range(dst)]


@settings(max_examples=40, deadline=None)
@given(case=predict_cases())
def test_predict_path_equals_the_backend_reference_at_every_jobs(case):
    """``predict_volume`` of random intensities, every fifth exactly on a
    cut of ``BANDS``, equals, bit for bit, the one-hot of the threshold
    backend's intensity bands, the one-hot of the
    oracle's nearest-resized random truth, or the external backend's file of
    random quarter probabilities (whose means over any coverage are exact),
    and so is the same bytes at ``jobs`` 1, 2 and 3.  An oracle
    ``evaluate_volume`` of a closing-stable phantom at its minimum size
    scores Dice 1.0 for every fluid, as a per-voxel tally of its prediction
    against the truth does."""
    (w, h, d), (nw, nh) = case["dims"], case["native"]
    rng = np.random.default_rng(case["seed"])
    vol = OctVolume(rng.random((d, h, w), dtype=np.float32), volume_id="case")
    on_cuts = vol.voxels.reshape(-1)[::5]  # a cut itself falls in the band below it
    on_cuts[:] = np.resize(np.float32(BANDS), on_cuts.size)
    run = {key: case[key] for key in ("patch_size", "overlap", "depth_mode", "variant")}
    xs, ys = (sorted({anchor[i] for anchor in RunConfig(**run).grid((w, h)).anchors}) for i in (0, 1))
    if case["variant"] == "P":
        stride = round(case["patch_size"] * (1 - case["overlap"]))
        assert xs[-1] == w - case["patch_size"] and xs[-1] % stride != 0
        assert ys[-1] == h - case["patch_size"] and ys[-1] % stride != 0
    with tempfile.TemporaryDirectory() as tmp:
        if case["backend"] == "threshold":
            backend = threshold_backend()
            ref = one_hot(sum((vol.voxels > cut).astype(np.uint8) for cut in BANDS))
        elif case["backend"] == "oracle":
            native = rng.integers(0, 4, (d, nh, nw), dtype=np.uint8)
            backend = oracle_backend(resize_volume(LabelVolume(native), (w, h)))
            ref = one_hot(native[:, nearest_sources(nh, h)][:, :, nearest_sources(nw, w)])
        else:
            quarters = rng.multinomial(4, [0.25] * 4, size=(d, h, w)).astype(np.float32) / 4
            ref = np.moveaxis(quarters, -1, 0)
            write_volume(ProbVolume(ref, volume_id="case"), prob_path(tmp, "case"))
            backend = external_backend(tmp, "case", vol.dims)
        for jobs in (1, 2, 3):
            probs = predict_volume(vol, backend, RunConfig(**run, jobs=jobs)).probs
            assert probs.tobytes() == ref.tobytes(), jobs

        image, truth = random_phantom((64, 64, 4), seed=case["seed"], volume_id="ph")
        for path, volume in ((image_path(tmp, "ph"), image), (label_path(tmp, "ph"), truth)):
            path.parent.mkdir()
            write_volume(volume, path)
        cfg = RunConfig(
            **run, jobs=case["jobs"], data_root=tmp, backend="oracle",
            preprocess=PreprocessConfig(target_2d=(64, 64), target_vol=(64, 64)),
        )
        seen = {}
        with pytest.MonkeyPatch.context() as mp:
            segment = runner.segment_volume
            mp.setattr(runner, "segment_volume", lambda *a: seen.setdefault("pred", segment(*a)))
            scores, _ = evaluate_volume("ph", cfg)
    tally = np.bincount(4 * truth.voxels.ravel() + seen["pred"].voxels.ravel(), minlength=16)
    tally = tally.reshape(4, 4)  # [true class, predicted class]
    for cls in FLUIDS:
        marked = tally[cls].sum() + tally[:, cls].sum()  # a fluid in neither scores 1.0
        assert scores[cls] == (2 * tally[cls, cls] / marked if marked else 1.0) == 1.0
