"""Dice score tables: markdown rendering plus a full-precision CSV path.

The table groups rows by depth dimension (2D, 2.5D, 3D), then model, with the
full-image row (F) above the patch row (P), and one column per vendor/fluid
combination.  Cells show two decimals, rounded half up; the CSV keeps full
float precision and round-trips exactly through ``parse_report_csv``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from ..backends import TrainingConfig
from ..config import VARIANTS
from ..errors import ValidationError, check_fields
from ..patch_engine import DepthMode
from ..volume_io import FLUIDS, Vendor

HUMAN_BASELINE = 0.71
HUMAN_BASELINE_NOTE = f"Human grader baseline: Dice {HUMAN_BASELINE:.2f}."

MISSING_CELL = "—"

CSV_FIELDS = ("dimension", "model", "variant", "vendor", "fluid", "dice", "fold", "n_volumes")

DIMENSION_ORDER = tuple(mode.label for mode in DepthMode)
FLUID_ORDER = tuple(cls.name for cls in FLUIDS)
VENDOR_ORDER = tuple(vendor.value for vendor in Vendor)


@dataclass(frozen=True)
class ReportEntry:
    """One scored cell: a (dimension, model, variant) row against one
    (vendor, fluid) column, tagged with its fold and test-volume count."""

    dimension: str
    model: str
    variant: str = field(metadata={"choices": VARIANTS})
    vendor: str
    fluid: str = field(metadata={"choices": FLUID_ORDER})
    dice: float
    fold: int = field(metadata={"low": 0})
    n_volumes: int = field(metadata={"low": 1})

    def __post_init__(self):
        if not 0.0 <= self.dice <= 1.0:
            raise ValidationError(f"dice must lie in [0, 1], got {self.dice}")
        check_fields(self)


def _order(value: str, ordering: tuple[str, ...]) -> tuple[int, str]:
    if value in ordering:
        return (ordering.index(value), value)
    return (len(ordering), value)


def entry_sort_key(entry: ReportEntry):
    return (
        _order(entry.dimension, DIMENSION_ORDER),
        entry.model,
        _order(entry.variant, VARIANTS),
        _order(entry.vendor, VENDOR_ORDER),
        _order(entry.fluid, FLUID_ORDER),
        entry.fold,
    )


def format_cell(value: float) -> str:
    """Two decimals, half-up, matching the published table formatting."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _vendors_in(entries: list[ReportEntry]) -> list[str]:
    present = {e.vendor for e in entries}
    known = [v for v in VENDOR_ORDER if v in present]
    extra = sorted(present - set(VENDOR_ORDER))
    return known + extra


def _cell_value(cells: dict, key) -> float | None:
    """Volume-weighted mean when a cell accumulated entries from several folds."""
    got = cells.get(key)
    if not got:
        return None
    return float(sum(v * n for v, n in got) / sum(n for _v, n in got))


def render_table(entries: list[ReportEntry], training: TrainingConfig | None = None) -> str:
    """Markdown table over all entries, plus the human-baseline footer."""
    if not entries:
        raise ValidationError("nothing to render: no report entries")
    vendors = _vendors_in(entries)
    cells: dict = {}
    rows_seen: dict = {}
    for e in sorted(entries, key=entry_sort_key):
        row_key = (e.dimension, e.model, e.variant)
        rows_seen.setdefault(row_key, None)
        cells.setdefault((row_key, e.vendor, e.fluid), []).append((e.dice, e.n_volumes))

    header = ["Dimension", "Model"] + [f"{v} {f}" for v in vendors for f in FLUID_ORDER]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for dimension, model, variant in rows_seen:
        row = [dimension, f"{model}_{variant}"]
        for vendor in vendors:
            for fluid in FLUID_ORDER:
                value = _cell_value(cells, ((dimension, model, variant), vendor, fluid))
                row.append(MISSING_CELL if value is None else format_cell(value))
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append(HUMAN_BASELINE_NOTE)
    if training is not None:
        lines.append(f"Training metadata: {training.summary()}")
    lines.append("")
    return "\n".join(lines)


def render_csv(entries: list[ReportEntry]) -> str:
    """Canonically sorted CSV with full-precision Dice values."""
    if not entries:
        raise ValidationError("nothing to render: no report entries")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for e in sorted(entries, key=entry_sort_key):
        writer.writerow(
            [e.dimension, e.model, e.variant, e.vendor, e.fluid, repr(float(e.dice)), e.fold, e.n_volumes]
        )
    return buf.getvalue()


def render_report(
    entries: list[ReportEntry], training: TrainingConfig | None = None
) -> tuple[str, str]:
    """(markdown table, CSV) for one entry set."""
    return render_table(entries, training), render_csv(entries)


def parse_report_csv(text: str) -> list[ReportEntry]:
    """Inverse of render_csv; values parse back to the exact stored floats."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_FIELDS:
        raise ValidationError(
            f"unexpected CSV header {reader.fieldnames}, want {list(CSV_FIELDS)}"
        )
    entries = []
    for row in reader:
        entries.append(
            ReportEntry(
                dimension=row["dimension"],
                model=row["model"],
                variant=row["variant"],
                vendor=row["vendor"],
                fluid=row["fluid"],
                dice=float(row["dice"]),
                fold=int(row["fold"]),
                n_volumes=int(row["n_volumes"]),
            )
        )
    return entries


def load_report_csv(path: str | Path) -> list[ReportEntry]:
    return parse_report_csv(Path(path).read_text())
