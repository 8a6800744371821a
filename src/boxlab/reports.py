"""Model-comparison report arithmetic and plain-text/CSV rendering helpers.

A report row carries the measured quantities (mAP, mAP@50, average recall,
latency); FPS and F1 are derived, never stored: ``DerivedModelStats.fps`` is
``1000/latency_ms``, rounded only where a table displays it, and ``f1`` is the
harmonic mean of mAP and average recall. Comparisons against a named baseline
are plain percent changes ``100*(x - b)/b``; against a zero baseline the
change is None (``n/a`` in a table, ``null`` in JSON).
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import UnknownBaselineError, ValidationError, reject_duplicates
from .evaluation import f1 as _harmonic_f1

__all__ = [
    "ModelReportRow",
    "DerivedModelStats",
    "percent_change",
    "derive_report_stats",
    "class_percent_changes",
    "render_table",
    "rows_to_csv",
]


@dataclass(frozen=True)
class ModelReportRow:
    model: str
    map_all: float
    map_50: float
    average_recall: float
    latency_ms: float

    def __post_init__(self) -> None:
        if self.latency_ms <= 0.0:
            raise ValidationError(f"latency_ms: must be positive, got {self.latency_ms}")

    @property
    def f1(self) -> float:
        return _harmonic_f1(self.map_all, self.average_recall)


@dataclass(frozen=True)
class DerivedModelStats:
    """Per-model derived quantities; ``fps`` is ``1000/latency_ms``, unrounded."""

    model: str
    fps: float
    f1: float
    map_pct_change: float | None  # None against a zero baseline, as are the other two
    map_50_pct_change: float | None
    recall_pct_change: float | None


def percent_change(value: float, baseline: float) -> float:
    """``100 * (value - baseline) / baseline``; raises ``ValidationError`` unless it is finite."""
    if baseline == 0.0:
        raise ValidationError("percent change is undefined against a zero baseline")
    change = 100.0 * (value - baseline) / baseline
    if not math.isfinite(change):
        raise ValidationError(f"percent change of {value!r} against {baseline!r} is not finite")
    return change


def _percent_change_of(what: str, value: float, baseline: float) -> float | None:
    """:func:`percent_change`, with ``what`` (the model and field) named in its error; None
    against a zero baseline, where a report shows the one change as n/a."""
    if baseline == 0.0:
        return None
    try:
        return percent_change(value, baseline)
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None


def _check_rate(what: str, value: float) -> None:
    """Raise ``ValidationError`` naming ``what`` unless ``value`` is in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{what}: expected a value in [0, 1], got {value!r}")


def derive_report_stats(
    rows: Sequence[ModelReportRow], baseline: str
) -> list[DerivedModelStats]:
    """Derived comparisons for every row against the named baseline row; model names must be
    unique, mAP, mAP@50 and AR in [0, 1] (checked after the row's percent changes) and fps
    finite. F1 is computed only once the row has passed those checks."""
    reject_duplicates("", "model", {"models": [row.model for row in rows]})
    by_name = {row.model: row for row in rows}
    if baseline not in by_name:
        raise UnknownBaselineError(
            f"baseline {baseline!r} not among models {sorted(by_name)}"
        )
    base = by_name[baseline]
    stats = []
    rates = ("map_all", "map_50", "average_recall")
    for i, row in enumerate(rows):
        changes = [
            _percent_change_of(f"model {row.model!r} {field}", getattr(row, field), getattr(base, field))
            for field in rates
        ]
        for field in rates:
            _check_rate(f"models[{i}].{field}", getattr(row, field))
        fps = 1000.0 / row.latency_ms
        if not math.isfinite(fps):
            raise ValidationError(f"models[{i}].latency_ms: 1000/latency_ms is not finite, got {row.latency_ms!r}")
        stats.append(DerivedModelStats(row.model, fps, row.f1, *changes))
    return stats


def class_percent_changes(
    per_class: Mapping[str, Mapping[str, float]], baseline: str
) -> dict[str, dict[str, float | None]]:
    """Percent change per (class, model) vs the baseline model's value for that class
    (None where that value is 0).

    ``per_class`` maps class name -> model name -> metric value; every value
    must be in [0, 1] (checked after that class's percent changes).
    """
    out: dict[str, dict[str, float]] = {}
    for class_name, per_model in per_class.items():
        if baseline not in per_model:
            raise UnknownBaselineError(
                f"baseline {baseline!r} missing for class {class_name!r}"
            )
        base = per_model[baseline]
        out[class_name] = {
            model: _percent_change_of(f"class {class_name!r} model {model!r}", value, base)
            for model, value in per_model.items()
            if model != baseline
        }
        for model, value in per_model.items():
            _check_rate(f"class {class_name!r} model {model!r}", value)
    return out


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width plain-text table; all cells must already be strings."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def rows_to_csv(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")
