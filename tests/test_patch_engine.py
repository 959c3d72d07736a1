"""Grid planning, patch extraction, stitching, closing, and disk spill."""

import dataclasses
import json
import re
import tempfile
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from octpipe.backends import external_backend, oracle_backend, threshold_backend
from octpipe.errors import CoverageError, FormatError, ValidationError
from octpipe.eval_harness import closing_stable
from octpipe.patch_engine import (
    DepthMode,
    PatchBatch,
    close_all,
    close_mask,
    extract,
    grid_runs,
    labelize,
    load_patches,
    load_predictions,
    plan_grid,
    save_patches,
    save_predictions,
    stitch,
    windows,
)
from octpipe.volume_io import FLUIDS, FluidClass, LabelVolume, OctVolume, ProbVolume, write_volume


def one_hot_patch(labels_plane):
    out = np.zeros((4,) + labels_plane.shape, dtype=np.float32)
    for c in range(4):
        out[c] = labels_plane == c
    return out


def make_volume(dims, seed=0):
    w, h, d = dims
    rng = np.random.default_rng(seed)
    return OctVolume(voxels=rng.random((d, h, w), dtype=np.float32),
                     spacing=None, volume_id="v")


def test_plan_grid_exact_fit_384():
    grid = plan_grid((384, 384), (128, 128), 0.75)
    assert grid.stride_x == 32 and grid.stride_y == 32
    xs = sorted({a[0] for a in grid.anchors})
    assert xs == list(range(0, 257, 32))
    assert len(grid.anchors) == 81


def test_plan_grid_residual_edge_572():
    grid = plan_grid((572, 572), (128, 128), 0.75)
    xs = sorted({a[0] for a in grid.anchors})
    assert xs == list(range(0, 417, 32)) + [444]
    assert len(xs) == 15
    assert len(grid.anchors) == 225


def test_plan_grid_single_anchor_when_patch_fills_image():
    for overlap in (0.0, 0.5, 0.75):
        grid = plan_grid((128, 128), (128, 128), overlap)
        assert list(grid.anchors) == [(0, 0)]


def test_plan_grid_rejects_oversized_patch_and_bad_overlap():
    with pytest.raises(ValueError):
        plan_grid((100, 100), (128, 128), 0.5)
    with pytest.raises(ValueError):
        plan_grid((256, 256), (128, 128), 1.0)
    with pytest.raises(ValueError):
        plan_grid((256, 256), (128, 128), -0.1)
    for patch in ((0, 16), (16, 0), (-1, 16)):
        with pytest.raises(ValueError, match=re.escape(f"patch dimensions must be positive, got {patch}")):
            plan_grid((64, 64), patch, 0.5)


def test_patch_batch_rejects_anchors_unlike_its_data():
    data = np.zeros((2, 1, 4, 4), dtype=np.float32)
    for anchors, rows in ((np.zeros((3, 3)), data), (np.zeros((2, 2)), data), (np.zeros((2, 3)), data[:, 0])):
        with pytest.raises(ValueError, match=re.escape(f"got {anchors.shape} and {rows.shape}")):
            PatchBatch(anchors.astype(np.intp), rows)


def test_extract_rejects_a_grid_planned_for_other_dims():
    vol = make_volume((32, 32, 2), seed=5)
    grid = plan_grid((32, 48), (16, 16), 0.5)
    with pytest.raises(ValueError, match=re.escape("grid was planned for image (32, 48), volume planes are (32, 32)")):
        extract(vol, grid, z=0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_plan_grid_full_coverage_random_geometries(data):
    w, h = data.draw(st.integers(1, 90)), data.draw(st.integers(1, 90))
    pw, ph = data.draw(st.integers(1, w)), data.draw(st.integers(1, h))
    overlap = data.draw(st.floats(0.0, 0.99))
    grid = plan_grid((w, h), (pw, ph), overlap)
    covered = np.zeros((h, w), dtype=bool)
    for x, y in grid.anchors:
        assert 0 <= x <= w - pw and 0 <= y <= h - ph
        covered[y : y + ph, x : x + pw] = True
    assert covered.all()
    assert list(grid.anchors) == sorted(set(grid.anchors), key=lambda a: (a[1], a[0]))
    assert grid.stride_x == max(1, round(pw * (1 - overlap)))
    assert grid.stride_y == max(1, round(ph * (1 - overlap)))
    xs, ys = sorted({x for x, _ in grid.anchors}), sorted({y for _, y in grid.anchors})
    assert len(grid.anchors) == len(xs) * len(ys)  # a lattice: every row ends at xs[-1]
    assert xs[-1] == w - pw and ys[-1] == h - ph


def test_interior_coverage_count_is_sixteen():
    grid = plan_grid((384, 384), (128, 128), 0.75)
    count = 0
    for x, y in grid.anchors:
        if x <= 200 < x + 128 and y <= 200 < y + 128:
            count += 1
    assert count == 16


def test_extract_d2_counts_and_content():
    vol = make_volume((384, 384, 4), seed=1)
    grid = plan_grid((384, 384), (128, 128), 0.75, DepthMode.D2)
    batch = extract(vol, grid, z=2)
    assert len(batch) == 81
    assert batch.data.shape == (81, 1, 128, 128)
    for (x, y, z), data in zip(batch.anchors, batch.data):
        assert z == 2
        np.testing.assert_array_equal(data[0], vol.voxels[2, y : y + 128, x : x + 128])


def test_extract_d25_edge_replication_and_center_plane():
    vol = make_volume((64, 64, 6), seed=2)
    slab_grid = plan_grid((64, 64), (32, 32), 0.5, DepthMode.D25)
    flat_grid = plan_grid((64, 64), (32, 32), 0.5, DepthMode.D2)
    at_edge = extract(vol, slab_grid, z=0)
    flat = extract(vol, flat_grid, z=0)
    assert at_edge.data.shape == (len(slab_grid.anchors), 3, 32, 32)
    for (x, y, _), slab, plane in zip(at_edge.anchors, at_edge.data, flat.data):
        # z=0 slab replicates the boundary: planes (0, 0, 1)
        np.testing.assert_array_equal(slab[0], slab[1])
        np.testing.assert_array_equal(slab[1], plane[0])
        np.testing.assert_array_equal(slab[2], vol.voxels[1, y : y + 32, x : x + 32])


def test_extract_d25_interior_slab():
    vol = make_volume((32, 32, 8), seed=3)
    grid = plan_grid((32, 32), (32, 32), 0.0, DepthMode.D25)
    (slab,) = extract(vol, grid, z=4).data
    assert slab.shape == (3, 32, 32)
    np.testing.assert_array_equal(slab, vol.voxels[3:6])


def test_extract_d25_edge_runs_equal_the_edge_replicated_slab():
    """At z = 0 and z = depth - 1 every run's batch, the whole grid's and
    that of the grid's rows below its first equal, bit for bit, their
    windows cut from the volume's three edge-replicated planes."""
    vol = make_volume((96, 80, 5), seed=6)
    grid = plan_grid((96, 80), (32, 24), 0.5, DepthMode.D25)
    below_first_row = slice(grid_runs(grid)[2].start, None)
    for z in (0, 4):
        slab = vol.voxels[np.clip([z - 1, z, z + 1], 0, 4)]
        for which in [*grid_runs(grid), slice(None), below_first_row]:
            expected = np.stack([slab[:, y : y + 24, x : x + 32] for x, y in grid.anchors[which]])
            part = extract(vol, grid, z, which)
            assert part.anchors.tolist() == [[x, y, z] for x, y in grid.anchors[which]]
            assert part.data.shape == expected.shape
            assert part.data.tobytes() == expected.tobytes()


def test_extract_d25_edge_peak_is_the_run_rows_of_three_planes():
    """A 2.5d run at the volume's first or last slice copies only the rows
    it spans from the three edge-replicated planes, not three whole planes."""
    import tracemalloc

    vol = make_volume((384, 384, 8), seed=7)
    grid = plan_grid((384, 384), 128, 0.75, DepthMode.D25)
    runs = grid_runs(grid)
    run = runs[len(runs) // 2]
    extract(vol, grid, 3, run)  # plans the run's cut
    for z in (0, 7):
        tracemalloc.start()
        try:
            extract(vol, grid, z, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 128 * 384 * 4 + (16 << 10), peak


def test_extract_d3_spans_full_depth():
    vol = make_volume((384, 384, 16), seed=4)
    grid = plan_grid((384, 384), (128, 128), 0.75, DepthMode.D3)
    batch = extract(vol, grid)
    assert len(batch) == 81
    assert batch.data.shape == (81, 16, 128, 128)
    assert (batch.anchors[:, 2] == 0).all()


def test_extract_rejects_out_of_range_z():
    vol = make_volume((32, 32, 4), seed=5)
    grid = plan_grid((32, 32), (16, 16), 0.5)
    with pytest.raises(IndexError):
        extract(vol, grid, z=4)


@st.composite
def batch_cases(draw):
    """A random volume, a grid on it in 2d, 2.5d or 3d, and the slices to cut."""
    width, height = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    depth = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(list(DepthMode)))
    patch = (draw(st.integers(1, width)), draw(st.integers(1, height)))
    grid = plan_grid((width, height), patch, draw(st.floats(0.0, 0.9)), mode)
    vol = make_volume((width, height, depth), seed=draw(st.integers(0, 2**16)))
    return vol, grid, sorted({0, draw(st.integers(0, depth - 1)), depth - 1})


def plain_patch(vol, grid, anchor, z):
    """The patch at ``anchor`` by plain slicing, with the slab's edge replication."""
    x, y = anchor
    depth = vol.voxels.shape[0]
    mode = grid.depth_mode
    if mode is DepthMode.D3:
        planes = range(depth)
    else:
        radius = 1 if mode is DepthMode.D25 else 0
        planes = [min(max(p, 0), depth - 1) for p in range(z - radius, z + radius + 1)]
    return np.stack([vol.voxels[p, y : y + grid.patch_h, x : x + grid.patch_w] for p in planes])


@settings(max_examples=100, deadline=None)
@given(batch_cases())
def test_extract_rows_equal_plain_slices(case):
    vol, grid, slices = case
    width, height = grid.image_dims
    assert (width - grid.patch_w, height - grid.patch_h) in grid.anchors  # edge-aligned anchor
    for z in slices:
        batch = extract(vol, grid, z)
        assert len(batch) == len(grid.anchors)
        z0 = 0 if grid.depth_mode is DepthMode.D3 else z
        for i, (x, y) in enumerate(grid.anchors):
            assert batch.anchors[i].tolist() == [x, y, z0]
            expected = plain_patch(vol, grid, (x, y), z)
            np.testing.assert_array_equal(batch.data[i], expected)
            one = extract(vol, grid, z, which=slice(i, i + 1))
            assert one.anchors.tolist() == [[x, y, z0]]
            np.testing.assert_array_equal(one.data[0], expected)
        # a run's batch is a read-only view: of the volume, or of the slab
        # copy where a 2.5d slab crosses the volume's edge
        in_volume = grid.depth_mode is not DepthMode.D25 or 0 < z < len(vol.voxels) - 1
        for run in grid_runs(grid):
            part = extract(vol, grid, z, which=run)
            assert part.data.tobytes() == batch.data[run].tobytes()
            assert np.shares_memory(part.data, vol.voxels) == in_volume
            assert not part.data.flags.writeable


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.data())
def test_grid_runs_split_each_row_into_its_lattice_and_edge_anchor(width, height, data):
    patch = (data.draw(st.integers(1, width)), data.draw(st.integers(1, height)))
    grid = plan_grid((width, height), patch, data.draw(st.floats(0.0, 0.95)))
    runs = grid_runs(grid)
    assert [a for run in runs for a in grid.anchors[run]] == list(grid.anchors)
    for run in runs:
        xs, ys = zip(*grid.anchors[run])
        assert len(set(ys)) == 1 and xs == tuple(range(xs[0], xs[-1] + 1, grid.stride_x))
    rows = len({y for _x, y in grid.anchors})
    edge = (width - grid.patch_w) % grid.stride_x != 0  # plan_grid appended an edge anchor
    assert len(runs) == rows * (1 + edge)


@settings(max_examples=60, deadline=None)
@given(case=batch_cases())
def test_backend_batch_rows_equal_single_patch_predictions(tmp_path_factory, case):
    vol, grid, slices = case
    mode = grid.depth_mode
    rng = np.random.default_rng(len(grid.anchors))
    truth = LabelVolume(rng.integers(0, 4, vol.voxels.shape, dtype=np.uint8), volume_id="v")
    raw = rng.random((4, *vol.voxels.shape)).astype(np.float32)
    prob_dir = tmp_path_factory.mktemp("probs")
    write_volume(ProbVolume(raw / raw.sum(axis=0), volume_id="v"), prob_dir / "v_prob.mhd")
    backends = (threshold_backend(), oracle_backend(truth), external_backend(prob_dir, "v", vol.dims))
    for z in slices:
        batch = extract(vol, grid, z)
        for backend in backends:
            out = backend.predict(batch, mode, "v")
            assert len(out) == len(batch)
            for i in range(len(batch)):
                single = PatchBatch(batch.anchors[i : i + 1], batch.data[i : i + 1])
                (expected,) = backend.predict(single, mode, "v")
                np.testing.assert_array_equal(out[i], expected)


def test_windows_single_view_gather_copy_and_bounds():
    volume = np.arange(2 * 6 * 8, dtype=np.float32).reshape(2, 6, 8)
    anchors = np.array([[1, 2, 1], [4, 0, 0]])
    one = windows(volume, anchors[:1], (3, 4))
    assert one.shape == (1, 2, 3, 4) and np.shares_memory(one, volume) and not one.flags.writeable
    both = windows(volume, anchors, (3, 4), at_z=True)
    assert both.shape == (2, 3, 4) and not np.shares_memory(both, volume)
    np.testing.assert_array_equal(both[0], volume[1, 2:5, 1:5])
    np.testing.assert_array_equal(both[1], volume[0, 0:3, 4:8])
    outside = (([5, 0, 0], False), ([0, 4, 0], False), ([-1, 0, 0], False), ([0, 0, 2], True))
    for bad, at_z in outside:
        with pytest.raises(IndexError, match=rf"window at \({bad[0]}, {bad[1]}, {bad[2]}\)"):
            windows(volume, np.array([[0, 0, 0], bad]), (3, 4), at_z)


def test_a_one_window_run_is_a_read_only_basic_slice():
    """One window is cut as a basic slice of the writeable array, so its
    base is the array itself and no strided-view wrapper stays alive with
    it; only the view is read-only.  Stitch's held-window rule
    (``base.size > size``) holds a window of a larger array, and not the
    window of a whole-volume (3D F) grid."""
    volume = np.arange(4 * 3 * 6 * 8, dtype=np.float32).reshape(4, 3, 6, 8).copy()
    for anchor, size, at_z in (([1, 2, 1], (3, 4), True), ([2, 1, 0], (4, 5), False), ([0, 0, 0], (6, 8), False)):
        (window,) = windows(volume, np.array([anchor]), size, at_z)
        assert window.base is volume and np.shares_memory(window, volume)
        assert not window.flags.writeable and volume.flags.writeable
        assert (window.base.size > window.size) == (size != (6, 8))


def test_extract_plans_each_cut_once_and_keeps_its_checks():
    """The anchors and run of ``extract(vol, grid, z, which)`` are worked out
    on the first call for a ``which``; later calls still check the plane
    size and z, give each batch its own anchors at its own z, and leave the
    grid equal to a freshly planned one.  A window outside the volume raises
    IndexError naming it, with its z, on every call."""
    vol = make_volume((40, 24, 5), seed=6)
    grid = plan_grid((40, 24), (16, 16), 0.75, DepthMode.D25)
    run = grid_runs(grid)[1]
    first = extract(vol, grid, 1, run)
    first.anchors[:] = -1
    for z in (3, 0):
        batch = extract(vol, grid, z, run)
        assert batch.anchors.tolist() == [[x, y, z] for x, y in grid.anchors[run]]
        assert batch.data.tobytes() == extract(vol, grid, z).data[run].tobytes()
    assert grid == plan_grid((40, 24), (16, 16), 0.75, DepthMode.D25)
    assert set(grid._cuts) == {run.indices(len(grid.anchors)), slice(None).indices(len(grid.anchors))}
    with pytest.raises(IndexError, match="slice index 5 outside volume depth 5"):
        extract(vol, grid, 5, run)
    with pytest.raises(ValueError, match="grid was planned for image"):
        extract(make_volume((40, 28, 5), seed=6), grid, 0, run)
    bad = dataclasses.replace(grid, anchors=grid.anchors + ((30, 0),))
    for z in (2, 4, 2):
        with pytest.raises(IndexError, match=rf"16x16 window at \(30, 0, {z}\) falls outside"):
            extract(vol, bad, z, slice(len(grid.anchors), None))


def test_extract_plans_agree_when_many_threads_fill_them_at_once():
    """Eight threads, more than the cores, extract every run of every slice
    of one fresh grid at once with a short switch interval; each batch
    equals the one a single thread cuts from another fresh grid."""
    import sys

    vol = make_volume((70, 50, 4), seed=7)
    tasks = [(z, run) for z in range(4) for run in grid_runs(plan_grid((70, 50), 16, 0.75, DepthMode.D25))]

    def cut(grid, task):
        batch = extract(vol, grid, *task)
        return batch.anchors.tobytes() + batch.data.tobytes()

    alone = plan_grid((70, 50), 16, 0.75, DepthMode.D25)
    expected = [cut(alone, task) for task in tasks]
    shared = plan_grid((70, 50), 16, 0.75, DepthMode.D25)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(cut, shared, task) for task in tasks]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def gathered_windows(array, anchors, size, at_z):
    """Reference: every (y, x) window through sliding_window_view, then one
    fancy-indexed gather of the anchors' windows."""
    from numpy.lib.stride_tricks import sliding_window_view

    x, y, z = np.asarray(anchors).T
    lead = array.ndim - 2
    view = np.moveaxis(sliding_window_view(array, size, axis=(-2, -1)), (lead, lead + 1), (0, 1))
    if at_z:
        return np.moveaxis(view, lead + 1, 2)[y, x, z]
    return view[y, x]


WINDOW_KINDS = ("any", "run", "two y", "mixed z", "unequal steps", "repeated x", "descending")


@st.composite
def window_cases(draw):
    """(array, anchors, size, at_z, kind, bad): 1 to 3 leading axes and
    in-bounds anchors of one ``kind``: 1 to 6 independent anchors ("any"),
    a run (one y and z, x from a start by one positive step), or a run
    broken by a second y, a second z or unequal steps (at one anchor or
    from one anchor on), a repeated x or descending x.  ``bad`` is None or the
    index of one anchor then moved out of bounds."""
    at_z = draw(st.booleans())
    lead = draw(st.lists(st.integers(1, 3), min_size=1 + at_z, max_size=3))
    kind = draw(st.sampled_from(WINDOW_KINDS))
    least = {"any": 1, "run": 1, "repeated x": 1, "unequal steps": 3}.get(kind, 2)  # anchors it needs
    height, width = draw(st.integers(1, 9)), draw(st.integers(least, 12))
    h, w = draw(st.integers(1, height)), draw(st.integers(1, width + 1 - least))
    array = np.arange(np.prod(lead) * height * width, dtype=np.float32).reshape(*lead, height, width)
    room = width - w  # the largest x
    n = draw(st.integers(least, min(room + 1, 6)))
    step = draw(st.integers(1, max(1, room // max(1, n - 1))))
    x = draw(st.integers(0, room - step * (n - 1))) + step * np.arange(n)
    y = np.full(n, draw(st.integers(0, height - h)))
    z = np.full(n, draw(st.integers(0, lead[-1] - 1)))
    single = draw(st.booleans())  # break one anchor (a middle one if n > 2), or every one from i on
    i = draw(st.integers(1, max(1, n - 1 - single))) if n > 1 else 0
    broken = slice(i, i + 1) if single else slice(i, None)
    if kind == "two y":
        assume(height > h)
        y[broken] = (y[0] + draw(st.integers(1, height - h))) % (height - h + 1)
    elif kind == "mixed z":
        assume(lead[-1] > 1)
        z[broken] = (z[0] + draw(st.integers(1, lead[-1] - 1))) % lead[-1]
    elif kind == "unequal steps":
        x[broken] += draw(st.sampled_from([-1, 1]))
        assume(x[-1] <= room and (np.diff(x) > 0).all())
    elif kind == "repeated x":
        x = np.insert(x, i, x[i - 1])
        y, z = np.resize(y, n + 1), np.resize(z, n + 1)
    elif kind == "descending":
        x = x[::-1]
    anchors = np.column_stack([x, y, z]).astype(np.intp)
    if kind == "any":
        anchors = np.array(draw(st.lists(
            st.tuples(st.integers(0, room), st.integers(0, height - h), st.integers(0, lead[-1] - 1)),
            min_size=1, max_size=6,
        )), dtype=np.intp)
    bad = draw(st.none() | st.integers(0, len(anchors) - 1))
    if bad is not None:
        axis = draw(st.sampled_from([0, 1, 2] if at_z else [0, 1]))
        limit = (width - w, height - h, lead[-1] - 1)[axis]
        anchors[bad, axis] = draw(st.sampled_from([-1 - anchors[bad, axis], limit + 1]))
    return array, anchors, (h, w), at_z, kind, bad


def middle_break(kind, anchors, at_z):
    """A case whose first and last anchors agree, so only a middle anchor
    breaks the run: its y, its z or the steps around it."""
    array = np.arange(2 * 3 * 4 * 9, dtype=np.float32).reshape(2, 3, 4, 9)
    return array, np.array(anchors, dtype=np.intp), (2, 3), at_z, kind, None


@settings(max_examples=300, deadline=None)
@given(case=window_cases())
@example(case=middle_break("two y", [[0, 0, 1], [2, 1, 1], [4, 0, 1]], False))
@example(case=middle_break("mixed z", [[0, 0, 1], [2, 0, 2], [4, 0, 1]], True))
@example(case=middle_break("unequal steps", [[0, 0, 1], [2, 0, 1], [5, 0, 1], [6, 0, 1]], False))
def test_windows_equal_the_sliding_window_gather(case):
    """A run of windows comes back as a read-only view of the array, and
    any other anchor set as a writeable copy; both equal the gather of the
    windows bit for bit.  A window out of bounds raises IndexError naming
    its anchor, whatever the kind."""
    array, anchors, size, at_z, kind, bad = case
    if bad is not None:
        h, w = size
        anchor = ", ".join(str(v) for v in anchors[bad])
        message = rf"{w}x{h} window at \({anchor}\) falls outside array of shape {re.escape(str(array.shape))}"
        with pytest.raises(IndexError, match=message):
            windows(array, anchors, size, at_z)
        return
    got = windows(array, anchors, size, at_z)
    expected = gathered_windows(array, anchors, size, at_z)
    assert got.shape == expected.shape and got.dtype == array.dtype
    assert got.tobytes() == expected.tobytes()
    if kind == "any":
        x, y, z = anchors.T.tolist()
        steps = {b - a for a, b in zip(x, x[1:])}
        view = len(set(y)) == 1 and (not at_z or len(set(z)) == 1) and len(steps) <= 1 and min(steps, default=1) > 0
    else:
        view = kind == "run" or (kind == "mixed z" and not at_z)  # z only counts with at_z
    assert np.shares_memory(got, array) == view
    assert got.flags.writeable != view


def test_depth_mode_parse_and_labels():
    """A mode reads from its value alone; the report spells it by its label."""
    for mode, value in ((DepthMode.D2, "2d"), (DepthMode.D25, "2.5d"), (DepthMode.D3, "3d")):
        assert DepthMode(value) is mode and mode.value == value
    assert [mode.label for mode in DepthMode] == ["2D", "2.5D", "3D"]
    assert not hasattr(DepthMode, "parse")
    for text in ("2", " 2D ", "2.5", "25d", "2.5D", "3", "3D", "4d"):
        with pytest.raises(ValueError, match=re.escape(f"{text!r} is not a valid DepthMode")):
            DepthMode(text)


def test_stitch_constant_consensus():
    grid = plan_grid((64, 64), (32, 32), 0.5)
    preds = []
    for x, y in grid.anchors:
        p = np.zeros((4, 32, 32), dtype=np.float32)
        p[0] = 1.0
        preds.append(((x, y, 0), p))
    prob = stitch(preds, grid, 1)
    np.testing.assert_array_equal(prob.probs[0], 1.0)
    prob.validate()


def test_stitch_mean_of_sixteen_interior_covers():
    grid = plan_grid((384, 384), (128, 128), 0.75)
    preds = []
    for x, y in grid.anchors:
        p = np.zeros((4, 128, 128), dtype=np.float32)
        p[1] = 1.0
        preds.append(((x, y, 0), p))
    prob = stitch(preds, grid, 1)
    assert prob.probs[1, 0, 200, 200] == 1.0
    np.testing.assert_allclose(prob.probs.sum(axis=0), 1.0, atol=1e-6)


def test_stitch_permutation_invariant_bitwise():
    rng = np.random.default_rng(7)
    grid = plan_grid((48, 48), (16, 16), 0.5)
    preds = []
    for z in range(2):
        for x, y in grid.anchors:
            raw = rng.random((4, 16, 16)).astype(np.float32)
            preds.append(((x, y, z), raw / raw.sum(axis=0, keepdims=True)))
    base = stitch(preds, grid, 2)
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(len(preds))
        again = stitch([preds[i] for i in order], grid, 2)
        np.testing.assert_array_equal(base.probs, again.probs)


def test_stitch_reports_uncovered_voxel():
    grid = plan_grid((32, 32), (16, 16), 0.0)
    preds = []
    for x, y in grid.anchors:
        p = np.zeros((4, 16, 16), dtype=np.float32)
        p[0] = 1.0
        preds.append(((x, y, 0), p))
    with pytest.raises(CoverageError) as err:
        stitch(preds[:-1], grid, 1)
    assert "voxel (x=16, y=16, z=0)" in str(err.value)
    with pytest.raises(CoverageError) as err:
        stitch(preds, grid, 2)  # z=1 never predicted
    assert "voxel (x=0, y=0, z=1)" in str(err.value)


def test_stitch_rejects_anchor_not_in_grid():
    grid = plan_grid((32, 32), (16, 16), 0.0)
    p = np.full((4, 16, 16), 0.25, dtype=np.float32)
    with pytest.raises(CoverageError):
        stitch([((3, 3, 0), p)], grid, 1)


def reference_stitch(pairs, grid, dims):
    """The plain algorithm: float32 sums in canonical (z, y, x) anchor order,
    divided by an int32 per-voxel count array."""
    width, height, depth = dims
    sums = np.zeros((4, depth, height, width), dtype=np.float32)
    counts = np.zeros((depth, height, width), dtype=np.int32)
    for (x, y, z), pred in sorted(pairs, key=lambda item: (item[0][2], item[0][1], item[0][0])):
        block = pred[:, None] if pred.ndim == 3 else pred
        nz, h, w = block.shape[1:]
        sums[:, z : z + nz, y : y + h, x : x + w] += block
        counts[z : z + nz, y : y + h, x : x + w] += 1
    assert counts.min() > 0
    return (sums / counts[None]).astype(np.float32)


@st.composite
def stitch_inputs(draw):
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 40))
    patch = (draw(st.integers(1, width)), draw(st.integers(1, height)))
    overlap = draw(st.floats(0.0, 0.95))
    depth = draw(st.integers(1, 4))
    full_depth = draw(st.booleans())
    grid = plan_grid((width, height), patch, overlap, DepthMode.D3 if full_depth else DepthMode.D2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pw, ph = patch
    if full_depth:
        keys = [(x, y, 0) for x, y in grid.anchors]
        shape = (4, depth, ph, pw)
    else:
        keys = [(x, y, z) for z in range(depth) for x, y in grid.anchors]
        shape = (4, ph, pw)
    storage = draw(st.sampled_from(["owned", "windows", "mixed", "memmap"]))
    if storage == "owned":
        preds = [rng.random(shape, dtype=np.float32) for _ in keys]
    else:
        # windows of one shared array, cut with a margin as the external
        # backend cuts them out of its cached volume (the held path)
        my, mx = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        source = rng.random((len(keys), *shape[:-2], ph + my, pw + mx), dtype=np.float32)
        if storage == "memmap":  # slices of a file mapping, whose own base is an mmap
            with tempfile.TemporaryFile() as file:  # the mapping keeps its own descriptor
                mapped = np.memmap(file, np.float32, "w+", shape=source.shape)
            mapped[:] = source
            source = mapped
        preds = [source[i, ..., my : my + ph, mx : mx + pw] for i in range(len(keys))]
        if storage == "mixed":
            owned = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
            preds = [p.copy() if own else p for p, own in zip(preds, owned)]
    pairs = list(zip(keys, preds))
    order = draw(st.permutations(range(len(pairs))))
    return grid, (width, height, depth), pairs, [pairs[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(stitch_inputs())
def test_stitch_matches_reference_in_any_order(case):
    grid, dims, pairs, shuffled = case
    expected = reference_stitch(pairs, grid, dims)
    assert stitch(iter(shuffled), grid, dims[2]).probs.tobytes() == expected.tobytes()


def lent(jobs):
    """A pool of ``jobs`` workers to lend to stitch, or none for None."""
    return nullcontext() if jobs is None else ThreadPoolExecutor(jobs)


@st.composite
def threaded_stitch_inputs(draw):
    """A grid with an edge anchor on some axis, in any depth mode, with owned
    or window predictions (or a mix), an arrival order and the worker count
    of the pool stitch borrows (None for no pool)."""
    mode = draw(st.sampled_from(list(DepthMode)))
    width, height = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    patch = (draw(st.integers(2, width - 1)), draw(st.integers(2, height - 1)))
    grid = plan_grid((width, height), patch, draw(st.floats(0.0, 0.9)), mode)
    xs, ys = ({anchor[axis] for anchor in grid.anchors} for axis in (0, 1))
    edge_x = max(xs) % grid.stride_x != 0
    edge_y = max(ys) % grid.stride_y != 0
    assume(edge_x or edge_y)  # the far edge needs an anchor off the stride lattice
    depth = draw(st.integers(1, 4))
    pw, ph = patch
    planes = depth if mode is DepthMode.D3 else 1
    zs = range(0, depth, planes)
    keys = [(x, y, z) for z in zs for x, y in grid.anchors]
    shape = (4, ph, pw) if planes == 1 else (4, planes, ph, pw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = rng.random((len(keys), *shape[:-2], ph + 1, pw + 2), dtype=np.float32)
    views = [source[i, ..., 1:, 1 : pw + 1] for i in range(len(keys))]
    owned = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    preds = [v.copy() if own else v for v, own in zip(views, owned)]
    pairs = list(zip(keys, preds))
    order = draw(st.permutations(range(len(pairs))))
    jobs = draw(st.none() | st.integers(1, 5))
    return grid, (width, height, depth), pairs, [pairs[i] for i in order], jobs


@settings(max_examples=150, deadline=None)
@given(threaded_stitch_inputs())
def test_stitch_is_bit_identical_at_every_jobs_and_order(case):
    grid, dims, pairs, shuffled, jobs = case
    threads = threading.active_count()
    expected = stitch(iter(pairs), grid, dims[2]).probs.tobytes()
    with lent(jobs) as pool:
        assert stitch(iter(shuffled), grid, dims[2], pool=pool).probs.tobytes() == expected
    assert threading.active_count() == threads


def test_stitch_errors_are_alike_at_every_jobs_and_leave_no_thread():
    """A repeated anchor and a wrong-shaped prediction arrive after earlier
    runs were summed, on a 3d grid after the run that completes it was
    summed on the lent pool; the message is the one stitch gives without a
    pool, and no thread is left once the pool is shut down."""
    grid = plan_grid((32, 32), (16, 16), 0.0)
    grid3 = plan_grid((32, 32), (16, 16), 0.0, DepthMode.D3)
    pairs = flat_pairs(grid, 1)
    pairs3 = [((x, y, 0), np.full((4, 1, 16, 16), 0.25, dtype=np.float32)) for x, y in grid3.anchors]
    wrong = ((16, 16, 0), np.full((4, 16, 8), 0.25, dtype=np.float32))
    cases = (
        (grid, pairs[:2] + pairs[1:], "prediction for anchor (16, 0, 0) arrived twice"),
        (grid, pairs[:3] + [wrong], "prediction at (16, 16, 0) has shape (4, 16, 8), expected (4, 16, 16) on a 2d grid"),
        (grid3, pairs3 + pairs3[:1], "prediction for anchor (0, 0, 0) arrived twice"),
    )
    threads = threading.active_count()
    for g, bad, message in cases:
        for jobs in (None, 1, 3):
            with lent(jobs) as pool, pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                stitch(iter(bad), g, 1, pool=pool)
            assert threading.active_count() == threads
    for g, good in ((grid, pairs), (grid3, pairs3)):
        for jobs in (None, 1, 3):
            with lent(jobs) as pool:
                assert stitch(iter(good), g, 1, pool=pool).probs.min() == 0.25
            assert threading.active_count() == threads


def flat_pairs(grid, depth, value=0.25):
    h, w = grid.patch_h, grid.patch_w
    return [
        ((x, y, z), np.full((4, h, w), value, dtype=np.float32))
        for z in range(depth)
        for x, y in grid.anchors
    ]


def test_stitch_rejects_anchor_z_outside_depth():
    grid = plan_grid((32, 32), (16, 16), 0.0)
    pairs = flat_pairs(grid, 1)
    for z in (-1, 1):
        (x, y, _), pred = pairs[0]
        with pytest.raises(ValidationError, match=f"anchor \\(0, 0, {z}\\)"):
            stitch(pairs[1:] + [((x, y, z), pred)], grid, 1)


def test_stitch_rejects_prediction_of_wrong_shape():
    grid = plan_grid((16, 16), (16, 16), 0.0)
    with pytest.raises(ValidationError, match="shape"):
        stitch([((0, 0, 0), np.full((4, 8, 8), 0.25, dtype=np.float32))], grid, 1)
    with pytest.raises(ValidationError, match="shape"):
        stitch([((0, 0, 0), np.full((3, 16, 16), 0.25, dtype=np.float32))], grid, 1)


def test_stitch_takes_the_prediction_shape_from_the_depth_mode():
    """2d/2.5d grids take one (4, h, w) map per slice, 3d grids one
    (4, depth, h, w) block at z = 0; anything else names its anchor."""
    d2, d3 = (plan_grid((16, 16), (16, 16), 0.0, mode) for mode in (DepthMode.D2, DepthMode.D3))
    block = np.full((4, 3, 16, 16), 0.25, dtype=np.float32)
    rejected = (
        (d2, (0, 0, 0), block, r"prediction at \(0, 0, 0\) has shape \(4, 3, 16, 16\)"),
        (d3, (0, 0, 0), block[:, :2], r"prediction at \(0, 0, 0\) has shape \(4, 2, 16, 16\)"),
        (d3, (0, 0, 1), block, r"anchor \(0, 0, 1\): 3d predictions anchor at z = 0"),
        (d3, (0, 0, 0), block[:, 0], r"prediction at \(0, 0, 0\) has shape \(4, 16, 16\)"),
    )
    for grid, anchor, pred, message in rejected:
        with pytest.raises(ValidationError, match=message):
            stitch([(anchor, pred)], grid, 3)
    expected = stitch([((0, 0, z), block[:, z]) for z in range(3)], d2, 3).probs
    np.testing.assert_array_equal(stitch([((0, 0, 0), block)], d3, 3).probs, expected)


def test_stitch_rejects_repeated_anchor():
    grid = plan_grid((32, 32), (16, 16), 0.0)
    pairs = flat_pairs(grid, 1)
    # once after the anchor was summed, once while it waits for an earlier one
    for repeated in (pairs[:2] + pairs[1:], pairs[1:2] + pairs[1:]):
        with pytest.raises(ValidationError, match="anchor \\(16, 0, 0\\) arrived twice"):
            stitch(repeated, grid, 1)


def test_stitch_rejects_non_finite_output():
    grid = plan_grid((32, 32), (16, 16), 0.5)
    pairs = flat_pairs(grid, 2)
    (anchor, pred) = pairs[-1]
    bad = pred.copy()
    bad[2, 3, 5] = np.nan
    pairs[-1] = (anchor, bad)
    x, y, z = anchor
    with pytest.raises(ValidationError, match=f"voxel \\(x={x + 5}, y={y + 3}, z={z}\\)"):
        stitch(pairs, grid, 2)


def test_stitch_names_missing_anchor_when_every_voxel_is_covered():
    grid = plan_grid((48, 48), (16, 16), 0.5)
    pairs = flat_pairs(grid, 1)
    missing = pairs.pop(grid.anchors.index((16, 16)))
    assert missing[0] == (16, 16, 0)
    with pytest.raises(CoverageError, match="anchor \\(16, 16, 0\\)"):
        stitch(pairs, grid, 1)


def test_stitch_names_missing_anchor_after_windows_held_for_its_row():
    """On a 3d grid, windows of one array wait for the end of the grid; the
    error still names the first anchor that never arrived, not the first one
    held."""
    grid = plan_grid((48, 48), (16, 16), 0.5, DepthMode.D3)
    source = np.full((len(grid.anchors), 4, 2, 16, 16), 0.25, dtype=np.float32)
    pairs = [((x, y, 0), source[i]) for i, (x, y) in enumerate(grid.anchors)]
    missing = pairs.pop(grid.anchors.index((16, 16)))
    assert grid.anchors.index((16, 16)) > grid.anchors.index((0, 16))  # (0, 16) is held
    with pytest.raises(CoverageError, match="anchor \\(16, 16, 0\\)"):
        stitch(pairs, grid, 2)
    assert stitch(pairs + [missing], grid, 2).probs.min() == 0.25


@pytest.mark.parametrize("mode", [DepthMode.D2, DepthMode.D25])
def test_stitch_frees_a_planar_window_before_its_grid_ends(mode):
    """On a one-plane grid a window of a larger array is summed as soon as
    the anchors before it are in, so its array is freed before the grid's
    last prediction arrives.  Only the prediction stitch has just taken may
    still be alive when the next one is made."""
    grid = plan_grid((48, 48), (16, 16), 0.5, mode)
    bases = []

    def pairs():
        for x, y in grid.anchors:
            assert all(base() is None for base in bases[:-1])
            source = np.full((4, 17, 18), 0.25, dtype=np.float32)
            bases.append(weakref.ref(source))
            yield (x, y, 0), source[:, 1:, 2:]
            del source

    for jobs in (None, 1, 3):
        bases.clear()
        with lent(jobs) as pool:
            assert stitch(pairs(), grid, 1, pool=pool).probs.min() == 0.25


def test_stitch_takes_over_a_whole_volume_3d_prediction():
    """A 3d grid of one image-sized patch has one block, the whole volume,
    covering each voxel once.  A writeable C-contiguous float32 block becomes
    the result, with -0.0 read as +0.0 as a sum into zeros gives; any other
    block is copied and left as it is."""
    grid = plan_grid((16, 16), (16, 16), 0.0, DepthMode.D3)
    block = np.random.default_rng(5).random((4, 3, 16, 16), dtype=np.float32)
    block[:, 1, 2] = -0.0
    expected = np.zeros_like(block) + block
    assert np.signbit(block).any() and not np.signbit(expected).any()
    owned = block.copy()
    prob = stitch([((0, 0, 0), owned)], grid, 3)
    assert prob.probs is owned
    assert prob.probs.tobytes() == expected.tobytes()
    read_only = block.copy()
    read_only.flags.writeable = False
    strided = np.repeat(block, 2, axis=-1)[..., ::2]
    for pred in (read_only, block.astype(np.float64), strided):
        before = pred.tobytes()
        prob = stitch([((0, 0, 0), pred)], grid, 3)
        assert not np.shares_memory(prob.probs, pred)
        assert prob.probs.tobytes() == expected.tobytes()
        assert pred.tobytes() == before


def test_stitch_whole_volume_3d_errors_keep_their_messages():
    grid = plan_grid((16, 16), (16, 16), 0.0, DepthMode.D3)

    def block():
        return np.full((4, 3, 16, 16), 0.25, dtype=np.float32)

    nan = block()
    nan[2, 1, 3, 5] = np.nan
    cases = (
        ([((0, 0, 0), block()[:, :2])], ValidationError,
         "prediction at (0, 0, 0) has shape (4, 2, 16, 16), expected (4, 3, 16, 16) on a 3d grid"),
        ([((0, 0, 0), block()), ((0, 0, 0), block())], ValidationError,
         "prediction for anchor (0, 0, 0) arrived twice"),
        ([((4, 0, 0), block())], CoverageError,
         "anchor (4, 0) is not part of the grid planned for image 16x16, patch 16x16, stride 16x16"),
        ([], CoverageError, "voxel (x=0, y=0, z=0) is covered by no patch"),
        ([((0, 0, 0), nan)], ValidationError,
         "stitched probability at voxel (x=5, y=3, z=1) is not finite"),
    )
    for pairs, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            stitch(pairs, grid, 3)


def test_labelize_rules():
    probs = np.zeros((4, 1, 1, 3), dtype=np.float32)
    probs[:, 0, 0, 0] = (0.7, 0.1, 0.1, 0.1)
    probs[:, 0, 0, 1] = (0.25, 0.25, 0.25, 0.25)
    probs[:, 0, 0, 2] = (0.1, 0.2, 0.5, 0.2)
    labels = labelize(ProbVolume(probs=probs, volume_id="l"))
    assert labels.voxels.dtype == np.uint8
    assert labels.voxels[0, 0].tolist() == [0, 0, 2]


# values from a small set, so ties between classes are common
tie_prone_probs = hnp.arrays(
    np.float32,
    st.tuples(st.just(4), st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)),
    elements=st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
)


@settings(max_examples=200, deadline=None)
@given(tie_prone_probs)
def test_labelize_equals_argmax(probs):
    labels = labelize(ProbVolume(probs=probs, volume_id="p")).voxels
    assert labels.dtype == np.uint8
    np.testing.assert_array_equal(labels, np.argmax(probs, axis=0).astype(np.uint8))


@pytest.mark.parametrize("cls", range(4))
def test_labelize_rejects_nan_naming_first_voxel(cls):
    probs = np.full((4, 3, 4, 5), 0.25, dtype=np.float32)
    probs[cls, 1, 2, 1] = np.nan
    probs[(cls + 1) % 4, 1, 3, 4] = np.nan
    probs[cls, 2, 0, 0] = np.nan
    with pytest.raises(ValidationError, match=r"voxel \(x=1, y=2, z=1\) of volume 'n' is NaN"):
        labelize(ProbVolume(probs=probs, volume_id="n"))


def test_labelize_infinity_picks_the_first_infinite_class():
    probs = np.full((4, 1, 1, 2), 0.25, dtype=np.float32)
    probs[[1, 3], 0, 0, 0] = np.inf
    probs[2, 0, 0, 1] = np.inf
    labels = labelize(ProbVolume(probs=probs, volume_id="i")).voxels
    assert labels[0, 0].tolist() == [1, 2] == np.argmax(probs, axis=0)[0, 0].tolist()


def brute_close(mask, radius):
    """Dilate then erode with a (2r+1) square, zero padding, plain loops."""
    h, w = mask.shape
    pad = radius
    grown = np.zeros((h + 2 * pad, w + 2 * pad), dtype=bool)
    src = np.zeros_like(grown)
    src[pad : pad + h, pad : pad + w] = mask
    for y in range(grown.shape[0]):
        for x in range(grown.shape[1]):
            y0, y1 = max(0, y - radius), min(grown.shape[0], y + radius + 1)
            x0, x1 = max(0, x - radius), min(grown.shape[1], x + radius + 1)
            grown[y, x] = src[y0:y1, x0:x1].any()
    shrunk = np.zeros_like(grown)
    for y in range(pad, pad + h):
        for x in range(pad, pad + w):
            window = grown[y - radius : y + radius + 1, x - radius : x + radius + 1]
            shrunk[y, x] = window.all()
    return shrunk[pad : pad + h, pad : pad + w]


def test_close_mask_solid_square_unchanged():
    voxels = np.zeros((1, 16, 16), dtype=np.uint8)
    voxels[0, 3:13, 3:13] = 1
    labels = LabelVolume(voxels=voxels, volume_id="sq")
    out = close_mask(labels, FluidClass.IRF, 1)
    np.testing.assert_array_equal(out.voxels, voxels)


def test_close_mask_fills_single_hole():
    voxels = np.zeros((1, 12, 12), dtype=np.uint8)
    voxels[0, 2:10, 2:10] = 2
    voxels[0, 5, 6] = 0
    labels = LabelVolume(voxels=voxels, volume_id="hole")
    out = close_mask(labels, FluidClass.SRF, 1)
    assert out.voxels[0, 5, 6] == 2
    expected = brute_close(voxels[0] == 2, 1)
    np.testing.assert_array_equal(out.voxels[0] == 2, expected)


def test_close_mask_matches_brute_force_oracle():
    rng = np.random.default_rng(33)
    for trial in range(20):
        radius = int(rng.integers(1, 4))
        mask = rng.random((14, 14)) < 0.3
        voxels = np.where(mask, np.uint8(FluidClass.PED), np.uint8(0))[None]
        out = close_mask(LabelVolume(voxels=voxels, volume_id=f"t{trial}"),
                         FluidClass.PED, radius)
        np.testing.assert_array_equal(out.voxels[0] == FluidClass.PED,
                                      brute_close(mask, radius))


def test_close_mask_idempotent_and_monotone():
    rng = np.random.default_rng(35)
    for trial in range(30):
        voxels = (rng.random((2, 10, 10)) < 0.25).astype(np.uint8) * 3
        labels = LabelVolume(voxels=voxels, volume_id=f"i{trial}")
        once = close_mask(labels, FluidClass.PED, 1)
        twice = close_mask(once, FluidClass.PED, 1)
        np.testing.assert_array_equal(once.voxels, twice.voxels)
        assert np.all((voxels == 3) <= (once.voxels == 3))


def test_close_mask_slices_are_independent():
    voxels = np.zeros((2, 12, 12), dtype=np.uint8)
    voxels[0, 2:10, 2:10] = 1
    voxels[0, 5, 5] = 0
    labels = LabelVolume(voxels=voxels, volume_id="sl")
    out = close_mask(labels, FluidClass.IRF, 1)
    assert out.voxels[0, 5, 5] == 1
    np.testing.assert_array_equal(out.voxels[1], 0)


def scipy_close(mask, radius):
    """scipy's binary_closing of the zero-padded mask, cropped back."""
    r = radius
    square = np.ones((2 * r + 1, 2 * r + 1), dtype=bool)
    return ndimage.binary_closing(np.pad(mask, r), structure=square)[r:-r, r:-r]


@st.composite
def closing_cases(draw):
    """Labels from 1x1 planes up, radius 1..3: all four classes mixed, one
    fluid on background, no fluid, all fluid, or a fluid frame on the border."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 14)), draw(st.integers(1, 14)))
    kind = draw(st.sampled_from(["mixed", "sparse", "empty", "full", "border"]))
    cls = draw(st.integers(1, 3))
    if kind == "mixed":
        voxels = draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 3)))
    else:
        mask = draw(hnp.arrays(np.bool_, shape)) if kind == "sparse" else np.full(shape, kind == "full")
        if kind == "border":
            mask[:, [0, -1]] = mask[:, :, [0, -1]] = True
        voxels = np.where(mask, np.uint8(cls), np.uint8(0))
    return voxels, draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(closing_cases(), st.sampled_from(list(FluidClass)[1:]))
def test_close_mask_matches_scipy_binary_closing(case, cls):
    voxels, radius = case
    before = voxels.copy()
    out = close_mask(LabelVolume(voxels=voxels, volume_id="p"), cls, radius).voxels
    expected = voxels.copy()
    for plane in expected:
        plane[scipy_close(plane == cls, radius)] = cls
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(voxels, before)


@settings(max_examples=200, deadline=None)
@given(closing_cases())
def test_close_all_matches_scipy_binary_closing_in_class_order(case):
    voxels, radius = case
    expected = voxels.copy()
    for cls in (FluidClass.IRF, FluidClass.SRF, FluidClass.PED):
        for plane in expected:
            plane[scipy_close(plane == cls, radius)] = cls
    out = close_all(LabelVolume(voxels=voxels, volume_id="p"), radius).voxels
    np.testing.assert_array_equal(out, expected)


def test_close_all_peak_is_one_label_copy_plus_plane_buffers():
    """A 384x384x49 volume closes into one copy of its labels; every other
    buffer is the size of a padded B-scan, so nothing the size of the volume
    is allocated twice."""
    import tracemalloc

    rng = np.random.default_rng(81)
    blocks = rng.integers(0, 4, size=(49, 48, 48), dtype=np.uint8)
    voxels = blocks.repeat(8, axis=1).repeat(8, axis=2)
    voxels[rng.random(voxels.shape) < 0.05] = 0  # holes for the closing to fill
    labels = LabelVolume(voxels=voxels, volume_id="mem")
    for radius in (1, 3):
        tracemalloc.start()
        try:
            close_all(labels, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plane = (384 + 2 * radius) ** 2
        assert peak < voxels.nbytes + 4 * plane


@settings(max_examples=200, deadline=None)
@given(closing_cases())
def test_closing_stable_means_no_fluid_closing_changes_the_labels(case):
    voxels, radius = case
    labels = LabelVolume(voxels=voxels, volume_id="p")
    reference = all(np.array_equal(close_mask(labels, c, radius).voxels, voxels) for c in FLUIDS)
    assert closing_stable(labels, radius) == reference


def test_closing_stable_peak_is_plane_buffers():
    """Checking a closing-stable 384x384x49 volume (so every fluid is closed)
    copies no labels: every buffer is the size of a padded B-scan."""
    import tracemalloc

    voxels = np.zeros((49, 384, 384), dtype=np.uint8)
    for cls, x in zip(FLUIDS, (20, 150, 280)):
        voxels[:, 100:300, x : x + 80] = cls
    labels = LabelVolume(voxels=voxels, volume_id="mem")
    for radius in (1, 3):
        tracemalloc.start()
        try:
            assert closing_stable(labels, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plane = (384 + 2 * radius) ** 2
        assert peak < 4 * plane, peak


def test_close_mask_rejects_background_and_bad_radius():
    labels = LabelVolume(voxels=np.zeros((1, 4, 4), dtype=np.uint8), volume_id="b")
    with pytest.raises(ValueError):
        close_mask(labels, FluidClass.BACKGROUND, 1)
    with pytest.raises(ValueError):
        close_mask(labels, FluidClass.IRF, 0)


def test_close_all_runs_every_fluid():
    voxels = np.zeros((1, 20, 20), dtype=np.uint8)
    for cls, offset in ((1, 1), (2, 8), (3, 14)):
        voxels[0, offset : offset + 5, 2:7] = cls
        voxels[0, offset + 2, 4] = 0
    labels = LabelVolume(voxels=voxels, volume_id="all")
    out = close_all(labels, 1)
    for cls, offset in ((1, 1), (2, 8), (3, 14)):
        assert out.voxels[0, offset + 2, 4] == cls


def test_oracle_round_trip_all_depth_modes():
    rng = np.random.default_rng(21)
    voxels = rng.integers(0, 4, size=(4, 48, 48), dtype=np.uint8)
    labels = LabelVolume(voxels=voxels, volume_id="rt")
    for mode in DepthMode:
        grid = plan_grid((48, 48), (16, 16), 0.5, mode)
        preds = []
        if mode is DepthMode.D3:
            for x, y in grid.anchors:
                stack = np.stack(
                    [one_hot_patch(voxels[z, y : y + 16, x : x + 16]) for z in range(4)],
                    axis=1,
                )
                preds.append(((x, y, 0), stack))
        else:
            for z in range(4):
                for x, y in grid.anchors:
                    preds.append(((x, y, z), one_hot_patch(voxels[z, y : y + 16, x : x + 16])))
        prob = stitch(preds, grid, 4)
        np.testing.assert_array_equal(labelize(prob).voxels, labels.voxels)


def test_patch_spill_round_trip(tmp_path):
    vol = make_volume((64, 64, 4), seed=9)
    grid = plan_grid((64, 64), (32, 32), 0.5, DepthMode.D25)
    batch = extract(vol, grid, z=1)
    save_patches(tmp_path / "batch", batch, grid, volume_id="v")
    loaded, loaded_grid, volume_id = load_patches(tmp_path / "batch")
    assert loaded_grid.anchors == grid.anchors
    assert loaded_grid.depth_mode is DepthMode.D25
    assert volume_id == "v"
    assert len(loaded) == len(batch)
    np.testing.assert_array_equal(loaded.anchors, batch.anchors)
    np.testing.assert_array_equal(loaded.data, batch.data)


def test_patch_sidecar_with_another_slab_radius_is_rejected(tmp_path):
    vol = make_volume((64, 64, 4), seed=9)
    grid = plan_grid((64, 64), (32, 32), 0.5, DepthMode.D25)
    save_patches(tmp_path / "batch", extract(vol, grid, z=1), grid, volume_id="v")
    sidecar = tmp_path / "batch.json"
    meta = json.loads(sidecar.read_text())
    assert meta["grid"]["depth_mode"] == {"kind": "2.5d", "radius": 1}
    meta["grid"]["depth_mode"]["radius"] = 2
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=re.escape(f"{sidecar} is not a valid patches sidecar")) as err:
        load_patches(tmp_path / "batch")
    assert "slab radius must be 1, got 2" in str(err.value)


def test_spills_refuse_an_empty_batch(tmp_path):
    grid = plan_grid((32, 32), (16, 16), 0.5)
    empty = PatchBatch(np.zeros((0, 3), dtype=np.intp), np.zeros((0, 1, 16, 16), dtype=np.float32))
    with pytest.raises(ValueError, match="refusing to spill an empty patches batch"):
        save_patches(tmp_path / "batch", empty, grid)
    with pytest.raises(ValueError, match="refusing to spill an empty predictions batch"):
        save_predictions(tmp_path / "pred", [])
    assert not list(tmp_path.iterdir())


def test_prediction_spill_round_trip(tmp_path):
    rng = np.random.default_rng(27)
    grid = plan_grid((32, 32), (16, 16), 0.5)
    preds = []
    for x, y in grid.anchors:
        raw = rng.random((4, 16, 16)).astype(np.float32)
        preds.append(((x, y, 0), raw / raw.sum(axis=0, keepdims=True)))
    save_predictions(tmp_path / "pred", preds)
    loaded = load_predictions(tmp_path / "pred")
    assert [a for a, _ in loaded] == [a for a, _ in preds]
    for (_, a), (_, b) in zip(preds, loaded):
        np.testing.assert_array_equal(a, b)
    base = stitch(preds, grid, 1)
    again = stitch(loaded, grid, 1)
    np.testing.assert_array_equal(base.probs, again.probs)


def test_spill_loaders_reject_other_kind_and_truncated_payload(tmp_path):
    vol = make_volume((64, 64, 4), seed=9)
    grid = plan_grid((64, 64), (32, 32), 0.5, DepthMode.D2)
    batch = extract(vol, grid, z=1)
    save_patches(tmp_path / "batch", batch, grid, volume_id="v")
    save_predictions(tmp_path / "pred", [(a, np.full((4, 32, 32), 0.25)) for a in batch.anchors.tolist()])
    with pytest.raises(FormatError, match="'patches', expected 'predictions'"):
        load_predictions(tmp_path / "batch")
    with pytest.raises(FormatError, match="'predictions', expected 'patches'"):
        load_patches(tmp_path / "pred")
    for base, load in ((tmp_path / "batch", load_patches), (tmp_path / "pred", load_predictions)):
        raw = base.with_suffix(".raw")
        whole = raw.stat().st_size
        raw.write_bytes(raw.read_bytes()[:-4])
        message = f"{base.with_suffix('.json')}: payload {raw} holds {whole - 4} bytes, expected {whole}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load(base)


def _drop(field):
    return lambda meta: {k: v for k, v in meta.items() if k != field}


@pytest.mark.parametrize(
    "spill, corrupt",
    [
        ("pred", lambda meta: "{not json"),
        ("pred", _drop("anchors")),
        ("pred", _drop("pred_shape")),
        ("pred", lambda meta: {**meta, "anchors": 5}),
        ("batch", _drop("grid")),
    ],
    ids=["bad-json", "no-anchors", "no-pred-shape", "anchors-not-a-list", "no-grid"],
)
def test_spill_loaders_name_a_malformed_sidecar(tmp_path, spill, corrupt):
    grid = plan_grid((32, 32), (16, 16), 0.5)
    batch = extract(make_volume((32, 32, 1)), grid)
    save_patches(tmp_path / "batch", batch, grid)
    save_predictions(tmp_path / "pred", [(a, np.full((4, 16, 16), 0.25)) for a in batch.anchors.tolist()])
    sidecar = tmp_path / f"{spill}.json"
    meta = corrupt(json.loads(sidecar.read_text()))
    sidecar.write_text(meta if isinstance(meta, str) else json.dumps(meta))
    load = load_predictions if spill == "pred" else load_patches
    with pytest.raises(FormatError, match=re.escape(str(sidecar))):
        load(tmp_path / spill)


@pytest.mark.parametrize(
    "anchor", [[0, 0], [0, 0, 0, 0], [0, 0.0, 0], [0, "0", 0], [0, True, 0], 7],
    ids=["two", "four", "float", "string", "bool", "not-a-list"],
)
def test_prediction_spill_anchor_must_be_three_integers(tmp_path, anchor):
    grid = plan_grid((32, 32), (16, 16), 0.5)
    save_predictions(tmp_path / "pred", [((x, y, 0), np.full((4, 16, 16), 0.25)) for x, y in grid.anchors])
    sidecar = tmp_path / "pred.json"
    meta = json.loads(sidecar.read_text())
    meta["anchors"][1] = anchor
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=re.escape(f"{sidecar}: anchor {anchor!r} is not three integers")):
        load_predictions(tmp_path / "pred")


@pytest.mark.parametrize(
    "field, value, message",
    [
        # int() would read these as a 1x32 patch, a 64-wide image and the slab radius
        ("patch", [True, 32], "grid.patch [True, 32] is not two integers"),
        ("patch", ["32", 32], "grid.patch ['32', 32] is not two integers"),
        ("image_dims", [64.9, 64], "grid.image_dims [64.9, 64] is not two integers"),
        ("radius", 1.0, "grid.depth_mode.radius 1.0 is not an integer"),
        ("radius", True, "grid.depth_mode.radius True is not an integer"),
    ],
    ids=["patch-bool", "patch-string", "image-dims-float", "radius-float", "radius-bool"],
)
def test_patch_spill_grid_integers_must_be_json_integers(tmp_path, field, value, message):
    vol = make_volume((64, 64, 4), seed=9)
    grid = plan_grid((64, 64), (32, 32), 0.5, DepthMode.D25)
    save_patches(tmp_path / "batch", extract(vol, grid, z=1), grid, volume_id="v")
    sidecar = tmp_path / "batch.json"
    meta = json.loads(sidecar.read_text())
    (meta["grid"]["depth_mode"] if field == "radius" else meta["grid"])[field] = value
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=re.escape(f"{sidecar}: {message}")):
        load_patches(tmp_path / "batch")


@pytest.mark.parametrize("base, load", [("batch", load_patches), ("pred", load_predictions)])
def test_spill_loaders_check_the_raw_size_before_reading(tmp_path, base, load):
    """An oversized raw file (64 MiB, sparse) is rejected by its size alone,
    without reading it into memory."""
    import tracemalloc

    grid = plan_grid((32, 32), (16, 16), 0.5)
    batch = extract(make_volume((32, 32, 1)), grid)
    save_patches(tmp_path / "batch", batch, grid)
    save_predictions(tmp_path / "pred", [(a, np.full((4, 16, 16), 0.25)) for a in batch.anchors.tolist()])
    raw = tmp_path / f"{base}.raw"
    message = f"{tmp_path / base}.json: payload {raw} holds {64 << 20} bytes, expected {raw.stat().st_size}"
    with open(raw, "r+b") as f:
        f.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=re.escape(message)):
            load(tmp_path / base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
