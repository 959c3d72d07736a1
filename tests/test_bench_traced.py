"""The per-layer bench harness still finds the names it wraps.

``bench/traced.py`` patches functions at the place ``runner`` looks them up.
A refactor that moves one of those names leaves the run working while the
layer's counters silently read 0, so this runs the harness end to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_traced_spans_run_counts_every_layer(make_dataset, tmp_path):
    root, _, _ = make_dataset()
    cfg = tmp_path / "native.cfg"
    cfg.write_text("preprocess.target_vol = 96x96\npreprocess.target_2d = 96x96\n")
    out_json = tmp_path / "spans.json"
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(REPO / "bench" / "traced.py"), "spans", str(out_json), "bands",
            "--", "evaluate",
            "--config", str(cfg),
            "--data-root", str(root),
            "--output-dir", str(tmp_path / "out"),
            "--backend", "threshold",
            "--variant", "P",
            "--depth-mode", "2.5d",
            "--patch-size", "32",
            "--overlap", "0.5",
            "--folds", "2",
            "--jobs", "1",
        ],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out_json.read_text())
    assert trace["failures"] == {}
    assert trace["counters"].get("backends.predict_calls", 0) > 0
    assert trace["counters"].get("metrics.confusion_calls", 0) > 0
