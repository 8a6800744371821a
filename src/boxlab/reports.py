"""Model-comparison report arithmetic and plain-text/CSV rendering helpers.

A report row carries the measured quantities (mAP, mAP@50, average recall,
latency); FPS and F1 are derived, never stored: ``DerivedModelStats.fps`` is
``1000/latency_ms``, rounded only where a table displays it, and ``f1`` is the
harmonic mean of mAP and average recall. Comparisons against a named baseline
are plain percent changes ``100*(x - b)/b``.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import UnknownBaselineError, ValidationError
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
            raise ValidationError(f"latency_ms must be positive, got {self.latency_ms}")

    @property
    def f1(self) -> float:
        return _harmonic_f1(self.map_all, self.average_recall)


@dataclass(frozen=True)
class DerivedModelStats:
    """Per-model derived quantities; ``fps`` is ``1000/latency_ms``, unrounded."""

    model: str
    fps: float
    f1: float
    map_pct_change: float
    map_50_pct_change: float
    recall_pct_change: float


def percent_change(value: float, baseline: float) -> float:
    """``100 * (value - baseline) / baseline``."""
    if baseline == 0.0:
        raise ValidationError("percent change is undefined against a zero baseline")
    return 100.0 * (value - baseline) / baseline


def derive_report_stats(
    rows: Sequence[ModelReportRow], baseline: str
) -> list[DerivedModelStats]:
    """Derived comparisons for every row against the named baseline row."""
    by_name = {row.model: row for row in rows}
    if baseline not in by_name:
        raise UnknownBaselineError(
            f"baseline {baseline!r} not among models {sorted(by_name)}"
        )
    base = by_name[baseline]
    return [
        DerivedModelStats(
            model=row.model,
            fps=1000.0 / row.latency_ms,
            f1=row.f1,
            map_pct_change=percent_change(row.map_all, base.map_all),
            map_50_pct_change=percent_change(row.map_50, base.map_50),
            recall_pct_change=percent_change(row.average_recall, base.average_recall),
        )
        for row in rows
    ]


def class_percent_changes(
    per_class: Mapping[str, Mapping[str, float]], baseline: str
) -> dict[str, dict[str, float]]:
    """Percent change per (class, model) vs the baseline model's value for that class.

    ``per_class`` maps class name -> model name -> metric value.
    """
    out: dict[str, dict[str, float]] = {}
    for class_name, per_model in per_class.items():
        if baseline not in per_model:
            raise UnknownBaselineError(
                f"baseline {baseline!r} missing for class {class_name!r}"
            )
        base = per_model[baseline]
        out[class_name] = {
            model: percent_change(value, base)
            for model, value in per_model.items()
            if model != baseline
        }
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
