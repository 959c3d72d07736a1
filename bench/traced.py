"""Traced ``octpipe evaluate``: layer spans plus independent output checks.

    python3 bench/traced.py spans|memory OUT_JSON EXPECT -- evaluate ARGS...

``run.py`` starts this as a child process with ``src`` on ``PYTHONPATH``.  In
``spans`` mode it wraps each layer's public functions at the name their
caller looks them up by (``runner.stitch``, ``preprocess.resize_volume``,
...), and the backend's ``predict`` through the factories ``runner`` builds
its ``Backend`` with (``runner.threshold_backend``, ``runner.external_backend``
and ``runner.oracle_backend``).  Spans stay in memory and are written to OUT_JSON when
the run ends, together with the volumes whose outputs failed a check.  In
``memory`` mode it only records the tracemalloc peaks of ``predict_volume``
and ``stitch``, because tracemalloc would slow the timed spans.

EXPECT names the reference every stitched probability volume must equal bit
for bit, built here with plain numpy:

- ``bands``: one-hot of the input's intensity bands (cuts 0.25/0.5/0.75);
- ``exported``: the ``<id>_prob.raw`` file the benchmark exported;
- ``native-truth``: one-hot of the native label file, resized with
  half-pixel-centre nearest indices.

Averaging identical one-hot predictions is exact in float32, so equality is
the right test.  Checks run as ``bench.check`` spans, so their time can be
taken out of the layer times and of the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
from scipy import ndimage

from octpipe import backends, cli, preprocess, volume_io
from octpipe.eval_harness import metrics, runner
from octpipe.volume_io import LabelVolume, OctVolume

BAND_CUTS = (0.25, 0.5, 0.75)
RESIZE_TOL = 1e-5


class Tracer:
    """In-memory spans: [name, start, end, parent index, volume id, thread id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stacks: dict[int, list[int]] = {}
        self.main = threading.get_ident()
        self.lock = threading.Lock()
        self.volume = ""
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def count_max(self, name: str, value: float) -> None:
        with self.lock:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(result, args)`` runs outside the span."""

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self.stacks.setdefault(tid, [])
            # pool workers have no open span of their own: their parent is the
            # span the main thread is blocked in
            main_stack = self.stacks.get(self.main) or [None]
            parent = stack[-1] if stack else main_stack[-1]
            with self.lock:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.volume, tid])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if after is not None:
                after(result, args)
            return result

        return traced


class Checks:
    """Independent checks on the outputs of one traced evaluate run."""

    def __init__(self, tracer: Tracer, expect: str, data_root: Path, probs_dir: Path | None):
        self.tracer = tracer
        self.expect = expect
        self.data_root = data_root
        self.probs_dir = probs_dir
        self.failures: dict[str, list[str]] = {}
        self.tally_dice: dict[str, dict[str, float]] = {}
        self.truth: np.ndarray | None = None
        self.predict_input: np.ndarray | None = None

    def fail(self, why: str) -> None:
        self.failures.setdefault(self.tracer.volume, []).append(why)

    def keep_truth(self, result, args):
        self.truth = result[1].voxels

    def stitched(self, prob, args):
        probs = prob.probs
        ref = self._reference(probs.shape[1:])
        if ref.shape[-3:] != probs.shape[1:]:
            self.fail(f"stitched shape {probs.shape} does not match reference {ref.shape}")
            return
        for cls in range(probs.shape[0]):
            expected = ref[cls] if ref.ndim == 4 else ref == cls
            if not np.array_equal(probs[cls], expected):
                self.fail(f"stitched channel {cls} differs from the reference one-hot")
                return

    def _reference(self, shape) -> np.ndarray:
        """Reference labels (depth, h, w), or a one-hot (4, depth, h, w)."""
        vid = self.tracer.volume
        if self.expect == "bands":
            v = self.predict_input
            return sum((v > cut).astype(np.uint8) for cut in BAND_CUTS).astype(np.uint8)
        if self.expect == "exported":
            raw = np.fromfile(self.probs_dir / f"{vid}_prob.raw", dtype="<f4")
            return raw.reshape((-1,) + tuple(shape))
        if self.expect == "native-truth":
            mhd = self.data_root / "labels" / f"{vid}.mhd"
            w, h, d = _dim_size(mhd)
            native = np.fromfile(mhd.with_suffix(".raw"), dtype=np.uint8).reshape(d, h, w)
            return nearest_resize(native, shape[1:])
        raise ValueError(f"unknown reference kind {self.expect!r}")

    def resized(self, out, args):
        src = args[0]
        if isinstance(src, LabelVolume):
            extra = np.setdiff1d(np.unique(out.voxels), np.unique(src.voxels))
            if extra.size:
                self.fail(f"label resize introduced classes {extra.tolist()}")
            return
        if not isinstance(src, OctVolume):
            return
        depth, src_h, src_w = src.voxels.shape
        _, dst_h, dst_w = out.voxels.shape
        ys = (np.arange(dst_h) + 0.5) * (src_h / dst_h) - 0.5
        xs = (np.arange(dst_w) + 0.5) * (src_w / dst_w) - 0.5
        coords = np.stack(np.meshgrid(ys, xs, indexing="ij"))
        worst = 0.0
        for z in range(depth):
            ref = ndimage.map_coordinates(
                src.voxels[z].astype(np.float64), coords, order=1, mode="nearest"
            )
            worst = max(worst, float(np.abs(out.voxels[z] - ref).max()))
        if worst > RESIZE_TOL:
            self.fail(f"bilinear resize deviates from map_coordinates by {worst:.3g}")

    def scored(self, pred, args):
        """Dice per fluid from a per-voxel tally of (prediction, truth) pairs."""
        p = pred.voxels.astype(np.intp).ravel()
        t = self.truth.astype(np.intp).ravel()
        tally = np.bincount(p * 4 + t, minlength=16).reshape(4, 4)
        dice = {}
        for cls, name in ((1, "IRF"), (2, "SRF"), (3, "PED")):
            tp = int(tally[cls, cls])
            fp = int(tally[cls].sum()) - tp
            fn = int(tally[:, cls].sum()) - tp
            denom = 2 * tp + fp + fn
            dice[name] = 1.0 if denom == 0 else 2.0 * tp / denom
        self.tally_dice[self.tracer.volume] = dice


def nearest_resize(labels: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Resize (depth, h, w) labels to ``size`` = (h, w) by half-pixel-centre
    nearest indices."""
    (th, tw), (_, h, w) = size, labels.shape
    iy = (2 * np.arange(th) + 1) * h // (2 * th)
    ix = (2 * np.arange(tw) + 1) * w // (2 * tw)
    return labels[:, iy[:, None], ix[None, :]]


def closing_stable(labels: np.ndarray, radius: int) -> bool:
    """Whether closing every fluid's mask per B-scan with a square of side
    2 * radius + 1 leaves (depth, h, w) labels unchanged."""
    structure = np.ones((1, 2 * radius + 1, 2 * radius + 1), dtype=bool)
    pad = ((0, 0), (radius + 1, radius + 1), (radius + 1, radius + 1))
    for cls, box in enumerate(ndimage.find_objects(labels), start=1):
        if box is None:
            continue
        mask = np.pad(labels[box] == cls, pad)
        if not np.array_equal(ndimage.binary_closing(mask, structure=structure), mask):
            return False
    return True


def _dim_size(mhd: Path) -> tuple[int, ...]:
    for line in mhd.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "DimSize":
            return tuple(int(v) for v in value.split())
    raise ValueError(f"{mhd} has no DimSize")


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def install(tracer: Tracer, checks: Checks) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    w = tracer.wrap

    def c(check):
        # checks run as their own spans, so their time can be taken out
        return w("bench.check", check)

    def counted_predict(predict):
        def predict_and_count(patches, mode, volume_id):
            out = predict(patches, mode, volume_id)
            tracer.count("backends.predict_calls")
            tracer.count("backends.predicted_vox", sum(p.size // p.shape[0] for p in out))
            return out

        return w("backends.predict", predict_and_count)

    def traced_factory(factory):
        def make(*args):
            backend = factory(*args)
            return dataclasses.replace(backend, predict=counted_predict(backend.predict))

        return make

    runner.threshold_backend = traced_factory(runner.threshold_backend)
    runner.external_backend = traced_factory(runner.external_backend)
    runner.oracle_backend = traced_factory(runner.oracle_backend)

    evaluate_volume = w("runner.evaluate_volume", runner.evaluate_volume)

    def evaluate_volume_traced(volume_id, *args, **kwargs):
        tracer.volume = volume_id
        return evaluate_volume(volume_id, *args, **kwargs)

    runner.evaluate_volume = evaluate_volume_traced

    def nbytes(result, args):
        array = result.probs if hasattr(result, "probs") else result.voxels
        tracer.count("volume_io.read_bytes", array.nbytes)

    runner.read_volume = w("volume_io.read_volume", runner.read_volume, nbytes)
    runner.read_labels = w("volume_io.read_labels", runner.read_labels, nbytes)
    backends.read_prob = w("volume_io.read_prob", backends.read_prob, nbytes)
    volume_io.ProbVolume.validate = w("volume_io.validate", volume_io.ProbVolume.validate)

    def extracted(result, args):
        tracer.count("patch_engine.patches", len(result))

    runner.preprocess_pair = w("runner.preprocess_pair", runner.preprocess_pair, checks.keep_truth)
    resize = w("preprocess.resize_volume", preprocess.resize_volume, c(checks.resized))
    preprocess.resize_volume = resize
    runner.resize_volume = resize
    preprocess.denoise = w("preprocess.denoise", preprocess.denoise)

    predict_volume = w("runner.predict_volume", runner.predict_volume)

    def predict_volume_keeping_input(vol, *args, **kwargs):
        checks.predict_input = vol.voxels
        return predict_volume(vol, *args, **kwargs)

    runner.predict_volume = predict_volume_keeping_input
    runner.extract = w("patch_engine.extract", runner.extract, extracted)
    runner.stitch = w("patch_engine.stitch", runner.stitch, c(checks.stitched))
    runner.labelize = w("patch_engine.labelize", runner.labelize)
    runner.close_all = w("patch_engine.close_all", runner.close_all, c(checks.scored))
    runner.dice_volume = w("metrics.dice_volume", runner.dice_volume)

    def confusion_counted(confusion):
        def confusion_and_count(*args, **kwargs):
            tracer.count("metrics.confusion_calls")
            return confusion(*args, **kwargs)

        return w("metrics.confusion", confusion_and_count)

    metrics.confusion = confusion_counted(metrics.confusion)
    runner.confusion = confusion_counted(runner.confusion)


def install_memory(tracer: Tracer) -> None:
    """Peak traced memory of predict_volume and of stitch within it.

    tracemalloc slows every Python allocation, so this runs in its own
    evaluate, apart from the timed spans.
    """
    predict_volume = runner.predict_volume
    stitch = runner.stitch
    carried = 0  # predict_volume's peak from before stitch reset it

    def predict_volume_traced(*args, **kwargs):
        nonlocal carried
        tracemalloc.start()
        carried = 0
        try:
            return predict_volume(*args, **kwargs)
        finally:
            peak = max(carried, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            tracer.count_max("runner.predict_volume_peak_bytes", peak)

    def stitch_traced(*args, **kwargs):
        nonlocal carried
        carried = max(carried, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        try:
            return stitch(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            carried = max(carried, peak)
            tracer.count_max("patch_engine.stitch_peak_bytes", peak)

    runner.predict_volume = predict_volume_traced
    runner.stitch = stitch_traced


def main(argv: list[str]) -> int:
    mode, out_json, expect, sep, *evaluate_args = argv
    if mode not in ("spans", "memory") or sep != "--" or evaluate_args[:1] != ["evaluate"]:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    data_root = Path(_flag(evaluate_args, "--data-root"))
    descriptor = _flag(evaluate_args, "--backend") or ""
    probs_dir = Path(descriptor.partition(":")[2]) if descriptor.startswith("external:") else None
    tracer = Tracer()
    checks = Checks(tracer, expect, data_root, probs_dir)
    if mode == "spans":
        install(tracer, checks)
    else:
        install_memory(tracer)
    status = cli.main(evaluate_args)
    Path(out_json).write_text(
        json.dumps(
            {
                "spans": tracer.spans,
                "counters": tracer.counters,
                "failures": checks.failures,
                "tally_dice": checks.tally_dice,
            }
        )
    )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
