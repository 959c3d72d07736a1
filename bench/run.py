"""octpipe benchmark: ``octpipe evaluate`` on seeded phantom workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steady N --seed N [--workload NAME ...]

Run from the root of a source checkout: the program is imported from
``src/``.  One run builds the workload's inputs with the program's own
phantom synthesis and MetaImage writer (``setup_s``), then runs whole rounds
of ``python3 -m octpipe.cli evaluate`` in a fresh child process each, until
``--seconds`` have passed and the workload's least number of rounds is done.  Wall time and
peak RSS of each child are measured from outside.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 1`` a run makes one fold traced with tracemalloc, one
untraced round and one round traced with spans (``bench/traced.py``), and
reports the per-layer metrics instead.

``--steady N`` runs each workload N times on seeds N0..N0+N-1, prints the
median and quartiles of every end-to-end metric, then confirms the bounds in
``BENCHMARK.json`` on CONFIRM_SEEDS seeds that were not used to set them.

Every evaluated volume is one operation; on ``exchange-3d`` each exported
probability volume is one more.  A volume whose outputs fail a check counts
as failed.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STARTED = time.monotonic()
ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
MB = 1 << 20
RUN_DEADLINE_S = 170.0
CLOSE_RADIUS = 1
N_BLOBS = 6
FOLDS = 3
FLUIDS = ("IRF", "SRF", "PED")
CONFIRM_SEEDS = 3


class SetupError(Exception):
    """The seed gave inputs on which the output checks cannot hold."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    dims: tuple[int, int, int]
    vendors: tuple[str, ...]
    per_vendor: int
    args: tuple[str, ...]
    expect: str
    jobs: int
    rounds: int
    export: bool = False


# Each workload loads one layer heavily that another leaves idle:
# patch-2.5d is extract/predict/stitch bound and skips resize and denoise;
# full-3d-native is read/resize/gaussian/close/score bound with one patch per
# volume; exchange-3d adds MetaImage writes and the read_prob + validate path.
# patch-2.5d runs one job: two threads give it no speed-up, and on a shared
# 2-core machine their overlap varied so much (wall 12-16 s for 14.8-16.5 s
# of CPU) that its wall time could not be compared between runs.
# ``rounds`` is the least number of evaluates a run makes: the P workloads
# vary by about 10% from one evaluate to the next on a shared 2-core machine,
# so they take two; full-3d-native varies by about 2.5% and costs the most to
# set up, so one is enough.  Between runs the host drifts by 10-25% over
# minutes, more than a third round would smooth out.
WORKLOADS = {
    "patch-2.5d": Workload(
        dims=(384, 384, 49),
        vendors=("Spectralis", "Topcon"),
        per_vendor=3,
        args=("--backend", "threshold", "--variant", "P", "--depth-mode", "2.5d",
              "--patch-size", "128", "--overlap", "0.75"),
        expect="bands",
        jobs=1,
        rounds=2,
    ),
    "full-3d-native": Workload(
        dims=(512, 1024, 128),
        vendors=("Cirrus",),
        per_vendor=3,
        args=("--backend", "oracle", "--variant", "F", "--depth-mode", "3d",
              "--denoiser", "gaussian"),
        expect="native-truth",
        jobs=1,
        rounds=1,
    ),
    "exchange-3d": Workload(
        dims=(384, 384, 49),
        vendors=("Spectralis", "Topcon"),
        per_vendor=3,
        args=("--backend", "external:probs", "--variant", "P", "--depth-mode", "3d",
              "--patch-size", "128", "--overlap", "0.75"),
        expect="exported",
        jobs=nproc(),
        rounds=2,
        export=True,
    ),
}


class Run:
    """Inputs, operation tally and timings of one benchmark run."""

    def __init__(self, name: str, seed: int):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.data = WORK / "data"
        self.probs = WORK / "probs"
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.write_s = 0.0
        self.cells: dict[tuple[int, str], list[str]] = {}
        # first CSV line seen for each report cell, and the header
        self.first_report: dict[tuple[int, str, str] | str, str] = {}

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        from octpipe.eval_harness import make_folds, random_phantom
        from octpipe.volume_io import ProbVolume, write_volume

        def timed_write(volume, path: Path) -> None:
            start = time.perf_counter()
            write_volume(volume, path)
            self.write_s += time.perf_counter() - start

        for sub in ("images", "labels"):
            (self.data / sub).mkdir(parents=True)
        if self.wl.export:
            self.probs.mkdir()
        inventory: dict[str, list[str]] = {}
        for vendor in self.wl.vendors:
            for _ in range(self.wl.per_vendor):
                index = sum(len(ids) for ids in inventory.values())
                vid = f"{vendor.lower()}_{index:02d}"
                start = time.perf_counter()
                vol, labels = random_phantom(
                    self.wl.dims, seed=self.seed * 1000 + index, n_blobs=N_BLOBS,
                    close_radius=CLOSE_RADIUS, volume_id=vid,
                )
                timed_write(vol, self.data / "images" / f"{vid}.mhd")
                timed_write(labels, self.data / "labels" / f"{vid}.mhd")
                if self.wl.export:
                    onehot = labels.voxels[None] == np.arange(4, dtype=np.uint8)[:, None, None, None]
                    prob = ProbVolume(onehot.astype(np.float32), volume_id=vid)
                    timed_write(prob, self.probs / f"{vid}_prob.mhd")
                self.setup_s.append(time.perf_counter() - start)
                if self.wl.expect == "native-truth":
                    self._require_closing_stable(vid, labels.voxels)
                if self.wl.export:
                    self.attempted += 1
                    self.failed += not self._exported_ok(vid, prob.probs)
                    del prob
                inventory.setdefault(vendor, []).append(vid)
                del vol, labels
        (self.data / "inventory.json").write_text(json.dumps(inventory, indent=2) + "\n")
        plan = make_folds(inventory, FOLDS, self.seed)
        for fold in range(plan.k):
            for vendor, ids in plan.test_sets[fold].items():
                self.cells[(fold, vendor)] = sorted(ids)

    def _require_closing_stable(self, vid: str, native: np.ndarray) -> None:
        """The oracle scores Dice 1.0 only if the truth stays closing-stable
        after the program's nearest resize to working size."""
        from octpipe.preprocess import PreprocessConfig
        from traced import closing_stable, nearest_resize

        width, height = PreprocessConfig().target_vol
        if not closing_stable(nearest_resize(native, (height, width)), CLOSE_RADIUS):
            raise SetupError(
                f"seed {self.seed}: phantom {vid} is not closing-stable at radius "
                f"{CLOSE_RADIUS} once resized to {width}x{height}"
            )

    def _exported_ok(self, vid: str, written: np.ndarray) -> bool:
        """The exported file reads back bit-identical, with channel sums of 1."""
        header = (self.probs / f"{vid}_prob.mhd").read_text()
        w, h, d = self.wl.dims
        if f"DimSize = {w} {h} {d} 4\n" not in header or "ElementType = MET_FLOAT\n" not in header:
            return False
        back = np.fromfile(self.probs / f"{vid}_prob.raw", dtype="<f4")
        if back.size != written.size or not np.array_equal(back.reshape(written.shape), written):
            return False
        sums = back.reshape(written.shape).sum(axis=0, dtype=np.float64)
        return float(np.abs(sums - 1.0).max()) <= 1e-5

    # -- rounds ---------------------------------------------------------

    def evaluate_args(self, out: str, folds: tuple[int, ...]) -> list[str]:
        args = [
            "evaluate", "--data-root", "data", "--output-dir", out,
            *self.wl.args, "--folds", str(FOLDS), "--seed", str(self.seed),
            "--close-radius", str(CLOSE_RADIUS), "--jobs", str(self.wl.jobs),
        ]
        return args if len(folds) == FOLDS else args + ["--fold", str(folds[0])]

    def round(self, mode: str | None = None, folds: tuple[int, ...] = tuple(range(FOLDS))):
        """One evaluate of ``folds``, untraced or traced in ``mode`` (spans or
        memory); returns (wall s, peak RSS MB, trace or None)."""
        out = WORK / f"out_{mode}"
        trace_json = WORK / f"{mode}.json"
        shutil.rmtree(out, ignore_errors=True)
        args = self.evaluate_args(out.name, folds)
        if mode is None:
            cmd = [sys.executable, "-m", "octpipe.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "traced.py"), mode, str(trace_json),
                   self.wl.expect, "--", *args]
        wall, rss, status = run_child(cmd)
        cells = {key: ids for key, ids in self.cells.items() if key[0] in folds}
        everyone = {vid for ids in cells.values() for vid in ids}
        self.attempted += len(everyone)
        lines = self._report_lines(out) if status == 0 else None
        if lines is None:
            bad = everyone
        else:
            bad = self._check_report(lines, cells)
        trace = None
        if mode is not None and lines is not None:
            trace = json.loads(trace_json.read_text())
            bad |= set(trace["failures"])
            if mode == "spans":
                bad |= self._check_tally(lines, trace["tally_dice"])
        self.failed += len(bad)
        return wall, rss, trace

    @staticmethod
    def _report_lines(out: Path) -> list[str] | None:
        paths = list((out / "reports").glob("evaluate_*.csv"))
        return paths[0].read_bytes().decode().splitlines() if len(paths) == 1 else None

    def _check_report(self, lines: list[str], cells: dict) -> set[str]:
        """Volumes of any cell that is not exactly 1.0, is missing, or is not
        byte-identical to the first report of the same cell in this invocation."""
        if lines[0] != self.first_report.setdefault("header", lines[0]):
            return {vid for ids in cells.values() for vid in ids}
        bad: set[str] = set()
        seen = set()
        for line in lines[1:]:
            key = _cell(line)
            ids = cells.get(key[:2])
            if ids is None:
                return {vid for ids in cells.values() for vid in ids}
            seen.add(key)
            _dim, _model, _variant, _vendor, _fluid, value, _fold, n = next(csv.reader([line]))
            first = self.first_report.setdefault(key, line)
            if float(value) != 1.0 or int(n) != len(ids) or first != line:
                bad.update(ids)
        for (fold, vendor), ids in cells.items():
            if any((fold, vendor, fluid) not in seen for fluid in FLUIDS):
                bad.update(ids)
        return bad

    def _check_tally(self, lines: list[str], tally: dict[str, dict[str, float]]) -> set[str]:
        """Volumes whose CSV cell differs from the macro mean of tallied Dice."""
        bad: set[str] = set()
        for line in lines[1:]:
            fold, vendor, fluid = _cell(line)
            value = next(csv.reader([line]))[5]
            ids = self.cells[(fold, vendor)]
            if not all(vid in tally for vid in ids):
                bad.update(ids)
            elif float(value) != float(np.mean([tally[vid][fluid] for vid in ids])):
                bad.update(ids)
        return bad


def _cell(line: str) -> tuple[int, str, str]:
    """(fold, vendor, fluid) of one report CSV line."""
    row = next(csv.reader([line]))
    return int(row[6]), row[3], row[4]


def run_child(cmd: list[str]) -> tuple[float, float, int]:
    """Run ``cmd`` in WORK; returns (wall s, peak RSS MB, exit status).

    The child is killed if it outlives the run's deadline.  ``os.wait4``
    reaps it and gives its own peak RSS, which ``Popen.wait`` does not.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=WORK, env=env, stdout=subprocess.DEVNULL)
    killer = threading.Timer(max(1.0, RUN_DEADLINE_S - (time.monotonic() - STARTED)), proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_maxrss * 1024 / MB, proc.returncode


# -- per-layer metrics from spans ------------------------------------------


def _busy(spans, *names) -> float:
    return sum(end - start for name, start, end, *_ in spans if name in names)


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(
    trace: dict, peaks: dict, write_s: float, overhead_s: float
) -> dict[str, tuple[float, str]]:
    spans = trace["spans"]
    counters = trace["counters"]
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)

    def descendants(index):
        for child in children.get(index, []):
            yield child
            yield from descendants(child)

    def net(index):
        """Span duration without the benchmark's own checks inside it."""
        name, start, end, *_ = spans[index]
        return (end - start) - sum(
            spans[c][2] - spans[c][1] for c in descendants(index) if spans[c][0] == "bench.check"
        )

    predict_volume_s = self_s = 0.0
    per_volume = []
    for index, (name, start, end, *_rest) in enumerate(spans):
        if name == "runner.predict_volume":
            predict_volume_s += net(index)
            covered = _union((spans[c][1], spans[c][2]) for c in descendants(index))
            self_s += (end - start) - covered
        elif name == "runner.evaluate_volume":
            per_volume.append(net(index))
    dice_spans = {i for i, span in enumerate(spans) if span[0] == "metrics.dice_volume"}
    score_s = _busy(spans, "metrics.dice_volume") + sum(
        end - start
        for name, start, end, parent, *_ in spans
        if name == "metrics.confusion" and parent not in dice_spans
    )
    return {
        "volume_io.read_s": (_busy(spans, "volume_io.read_volume", "volume_io.read_labels",
                                   "volume_io.read_prob"), "s"),
        "volume_io.read_mb": (counters.get("volume_io.read_bytes", 0) / MB, "MB"),
        "volume_io.write_s": (write_s, "s"),
        "volume_io.validate_s": (_busy(spans, "volume_io.validate"), "s"),
        "preprocess.resize_s": (_busy(spans, "preprocess.resize_volume"), "s"),
        "preprocess.denoise_s": (_busy(spans, "preprocess.denoise"), "s"),
        "patch_engine.extract_s": (_busy(spans, "patch_engine.extract"), "s"),
        "patch_engine.patches": (counters.get("patch_engine.patches", 0), "count"),
        "patch_engine.stitch_s": (_busy(spans, "patch_engine.stitch"), "s"),
        "patch_engine.stitch_peak_mb": (peaks["patch_engine.stitch_peak_bytes"] / MB, "MB"),
        "patch_engine.labelize_s": (_busy(spans, "patch_engine.labelize"), "s"),
        "patch_engine.close_s": (_busy(spans, "patch_engine.close_all"), "s"),
        "backends.predict_s": (_busy(spans, "backends.predict"), "s"),
        "backends.predict_calls": (counters.get("backends.predict_calls", 0), "count"),
        "backends.predicted_mvox": (counters.get("backends.predicted_vox", 0) / 1e6, "Mvoxel"),
        "runner.predict_volume_s": (predict_volume_s, "s"),
        "runner.predict_volume_self_s": (self_s, "s"),
        "runner.predict_volume_peak_mb": (
            peaks["runner.predict_volume_peak_bytes"] / MB, "MB"),
        "runner.volume_s_p50": (statistics.median(per_volume) if per_volume else 0.0, "s"),
        "metrics.score_s": (score_s, "s"),
        "metrics.confusion_calls": (counters.get("metrics.confusion_calls", 0), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }


# -- one run -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        run = Run(name, seed)
        run.setup()
        if trace:
            # tracemalloc on one fold, apart from the timed spans; it goes
            # first so that the two timed evaluates both start warm
            _wall, _rss, memory = run.round("memory", folds=(0,))
            wall, _rss, _ = run.round()
            traced_wall, _rss, spans = run.round("spans")
            if spans is None or memory is None:
                metrics = {}
            else:
                overhead = traced_wall - _busy(spans["spans"], "bench.check") - wall
                metrics = layer_metrics(spans, memory["counters"], run.write_s, overhead)
        else:
            walls, rsss = [], []
            start = time.perf_counter()
            while len(walls) < run.wl.rounds or time.perf_counter() - start < seconds:
                wall, rss, _ = run.round()
                walls.append(wall)
                rsss.append(rss)
            metrics = {
                "setup_s": (statistics.median(run.setup_s), "s"),
                "evaluate_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (statistics.median(rsss), "MB"),
            }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


# -- steadiness mode ---------------------------------------------------------


def steady(names: list[str], seed: int, n: int, seconds: int) -> int:
    """Run each workload on n seeds, then confirm the bounds on fresh seeds.

    A metric passes when the quartile spread of its n values is within its
    bound and the median of the fresh runs is not worse than the first
    median by more than the bound.  ``margin`` marks spreads
    above a third of the bound.
    """
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True

    def collect(seeds, name):
        nonlocal ok
        results = []
        for s in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(s),
                   "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"  {name} seed {s}: exit {out.returncode}\n{out.stderr}", flush=True)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            print(f"  {name} seed {s}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                + f", failed {result['failed']}/{result['attempted']}", flush=True)
            results.append(result)
        return results

    for name in names:
        print(f"{name}: setting bounds on seeds {seed}..{seed + n - 1}", flush=True)
        first = collect(range(seed, seed + n), name)
        print(f"{name}: confirming on seeds {seed + n}..{seed + n + CONFIRM_SEEDS - 1}",
              flush=True)
        second = collect(range(seed + n, seed + n + CONFIRM_SEEDS), name)
        if len(first) < 2 or not second:
            ok = False
            continue
        for metric, bound in bounds.items():
            q1, med, q3 = statistics.quantiles([r["metrics"][metric]["value"] for r in first], n=4)
            spread = (q3 - q1) / med
            fresh = statistics.median(r["metrics"][metric]["value"] for r in second)
            drift = fresh / med - 1.0
            spread_ok = spread <= bound
            ok &= spread_ok and drift <= bound
            note = "margin" if spread > bound / 3 else ""
            print(f"  {metric:12s} median {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:.3f} {'ok' if spread_ok else 'WIDE'} {note:6s} "
                  f"fresh median {fresh:10.4f} drift {drift:+.3f} "
                  f"{'ok' if drift <= bound else 'WORSE'} (bound {bound})", flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", help="runs per workload")
    args = parser.parse_args(argv)
    if not (SRC / "octpipe" / "__init__.py").is_file():
        print(f"error: no octpipe sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.steady:
        names = args.workload or list(WORKLOADS)
        return steady(names, args.seed, args.steady, args.seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    try:
        result = run_workload(args.workload[0], args.seed, args.seconds, bool(args.trace))
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
