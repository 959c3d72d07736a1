"""Evaluation side of the toolkit: metrics, fold planning, experiment runner,
report rendering and synthetic phantom volumes."""

from .folds import FoldPlan, make_folds, save_folds
from .metrics import ConfusionCounts, confusion, dice, dice_volume
from .phantom import BlobSpec, closing_stable, random_phantom, synth_phantom
from .report import (
    ReportEntry,
    entry_sort_key,
    format_cell,
    load_report_csv,
    parse_report_csv,
    render_csv,
    render_report,
    render_table,
)
from .runner import (
    evaluate_volume,
    load_inventory,
    predict_volume,
    preprocess_pair,
    run_experiment,
    segment_volume,
)

__all__ = [
    "BlobSpec",
    "ConfusionCounts",
    "FoldPlan",
    "ReportEntry",
    "closing_stable",
    "confusion",
    "dice",
    "dice_volume",
    "entry_sort_key",
    "evaluate_volume",
    "format_cell",
    "load_inventory",
    "load_report_csv",
    "make_folds",
    "parse_report_csv",
    "predict_volume",
    "preprocess_pair",
    "random_phantom",
    "render_csv",
    "render_report",
    "render_table",
    "run_experiment",
    "save_folds",
    "segment_volume",
    "synth_phantom",
]
