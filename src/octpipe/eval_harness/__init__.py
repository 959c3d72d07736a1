"""Evaluation side of the toolkit: metrics, fold planning, experiment runner,
report rendering and synthetic phantom volumes."""

from types import ModuleType as _Module

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
)

# the imports above are the export list: every public name they bind but submodules
__all__ = sorted(
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _Module))
)
