"""Dice score tables: markdown rendering plus a full-precision CSV path.

The table groups rows by depth dimension (2D, 2.5D, 3D), then model, with the
full-image row (F) above the patch row (P), and one column per vendor/fluid
combination.  Cells show two decimals, rounded half up; the CSV keeps full
float precision and round-trips exactly through ``parse_report_csv``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import get_type_hints

from ..backends import TrainingConfig
from ..config import CODECS, VARIANTS
from ..errors import FormatError, ValidationError, check_fields
from ..patch_engine import DepthMode
from ..volume_io import FLUIDS, Vendor

HUMAN_BASELINE = 0.71
HUMAN_BASELINE_NOTE = f"Human grader baseline: Dice {HUMAN_BASELINE:.2f}."

MISSING_CELL = "—"

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


CSV_FIELDS = tuple(f.name for f in fields(ReportEntry))
# each column's (parser, renderer): the codec of its field's type, as for a setting
_CODECS = {name: CODECS[kind] for name, kind in get_type_hints(ReportEntry).items()}


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
    return str(Decimal(_CODECS["dice"][1](value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


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
        writer.writerow([render(getattr(e, name)) for name, (_, render) in _CODECS.items()])
    return buf.getvalue()


def render_report(
    entries: list[ReportEntry], training: TrainingConfig | None = None
) -> tuple[str, str]:
    """(markdown table, CSV) for one entry set."""
    return render_table(entries, training), render_csv(entries)


def parse_report_csv(text: str, origin: str = "<csv>") -> list[ReportEntry]:
    """Inverse of render_csv; values parse back to the exact stored floats.
    A row with a missing or extra cell, or a cell its column's codec cannot
    parse, raises FormatError naming ``origin``, the line and the column; a
    failed ReportEntry check keeps its message after the same prefix."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_FIELDS:
        raise ValidationError(f"{origin}: unexpected CSV header {header}, want {list(CSV_FIELDS)}")
    entries = []
    for row in filter(None, reader):  # a blank line holds no row
        where = f"{origin}:{reader.line_num}"
        if len(row) < len(CSV_FIELDS):
            raise FormatError(f"{where}: no cell for column {CSV_FIELDS[len(row)]}")
        if len(row) > len(CSV_FIELDS):
            raise FormatError(f"{where}: a cell past the last column, {CSV_FIELDS[-1]}")
        values = {}
        for cell, (name, (parse, _)) in zip(row, _CODECS.items()):
            try:
                values[name] = parse(cell)
            except ValueError as exc:
                raise FormatError(f"{where}: column {name}: {exc}") from exc
        try:
            entries.append(ReportEntry(**values))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    return entries


def load_report_csv(path: str | Path) -> list[ReportEntry]:
    return parse_report_csv(Path(path).read_text(), origin=str(path))


def load_report_csvs(paths: list[str | Path]) -> list[ReportEntry]:
    """The rows of every CSV in ``paths``.  A table cell's fold may come
    from one row only, so two rows with one ``entry_sort_key`` raise
    ValidationError naming both files and the cell."""
    entries, source = [], {}
    for path in paths:
        for e in load_report_csv(path):
            if (key := entry_sort_key(e)) in source:
                cell = f"{e.dimension} {e.model}_{e.variant} {e.vendor} {e.fluid} fold {e.fold}"
                raise ValidationError(f"{source[key]} and {path} both hold {cell}")
            source[key] = path
            entries.append(e)
    return entries
