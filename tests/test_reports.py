import json
import pathlib

import pytest

from boxlab.errors import DuplicateIdError, UnknownBaselineError, ValidationError
from boxlab.reports import (
    ModelReportRow,
    class_percent_changes,
    derive_report_stats,
    percent_change,
    render_table,
    rows_to_csv,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _published_rows():
    doc = json.loads((FIXTURES / "published_metrics.json").read_text())
    rows = [
        ModelReportRow(
            model=rec["model"],
            map_all=rec["map_all"],
            map_50=rec["map_50"],
            average_recall=rec["average_recall"],
            latency_ms=rec["latency_ms"],
        )
        for rec in doc["models"]
    ]
    return rows, doc


class TestModelReportRow:
    def test_f1_is_harmonic_mean(self):
        row = ModelReportRow("m", 0.9408, 0.9428, 0.973, 59.5)
        assert row.f1 == pytest.approx(0.9566, abs=1e-4)

    def test_published_rows_reproduce_f1_and_fps(self):
        rows, doc = _published_rows()
        for row, rec in zip(rows, doc["models"]):
            assert row.f1 == pytest.approx(rec["f1"], abs=1e-4)
            assert 1000.0 / row.latency_ms == pytest.approx(rec["fps"], abs=0.05)

    def test_latency_must_be_positive(self):
        with pytest.raises(ValidationError):
            ModelReportRow("m", 0.9, 0.9, 0.9, 0.0)


class TestPercentChange:
    def test_headline_class_boosts(self):
        assert percent_change(0.399, 0.291) == pytest.approx(37.11, abs=0.005)
        assert percent_change(0.403, 0.296) == pytest.approx(36.15, abs=0.005)

    def test_sign(self):
        assert percent_change(0.5, 1.0) == -50.0

    def test_zero_baseline(self):
        with pytest.raises(ValidationError):
            percent_change(1.0, 0.0)

    @pytest.mark.parametrize("value, baseline", [(1e308, 1e-300), (-1e308, 1e-300), (1e308, -1e-300)])
    def test_overflow_rejected(self, value, baseline):
        with pytest.raises(ValidationError, match="is not finite"):
            percent_change(value, baseline)


class TestDeriveReportStats:
    def test_fps_full_precision(self):
        rows, doc = _published_rows()
        stats = derive_report_stats(rows, "mBaseline")
        for stat, rec in zip(stats, doc["models"]):
            assert stat.fps == pytest.approx(rec["fps"], abs=0.05)

    def test_baseline_has_zero_change(self):
        rows, _ = _published_rows()
        stats = {s.model: s for s in derive_report_stats(rows, "mBaseline")}
        assert stats["mBaseline"].map_pct_change == 0.0

    def test_unknown_baseline(self):
        rows, _ = _published_rows()
        with pytest.raises(UnknownBaselineError):
            derive_report_stats(rows, "mNothing")

    def test_overflowed_change_names_model_and_field(self):
        rows = [ModelReportRow("b", 0.5, 0.5, 1e-300, 10.0), ModelReportRow("huge", 0.5, 0.5, 1e308, 10.0)]
        with pytest.raises(ValidationError) as err:
            derive_report_stats(rows, "b")
        assert str(err.value) == "model 'huge' average_recall: percent change of 1e+308 against 1e-300 is not finite"

    @pytest.mark.parametrize(
        "row, message",
        [
            (ModelReportRow("b", 1e308, 0.5, 1e308, 1e-320), "models[0].map_all: expected a value in [0, 1], got 1e+308"),
            (ModelReportRow("b", 0.5, -0.0001, 0.5, 10.0), "models[0].map_50: expected a value in [0, 1], got -0.0001"),
            (ModelReportRow("b", 0.5, 0.5, 1.5, 10.0), "models[0].average_recall: expected a value in [0, 1], got 1.5"),
            (ModelReportRow("b", 0.5, 0.5, 0.5, 1e-320),
             "models[0].latency_ms: 1000/latency_ms is not finite, got 1e-320"),
        ],
    )
    def test_out_of_range_values_rejected(self, row, message):
        with pytest.raises(ValidationError) as err:
            derive_report_stats([row], "b")
        assert str(err.value) == message

    def test_out_of_range_value_names_its_row(self):
        rows = [ModelReportRow("b", 0.5, 0.5, 0.5, 10.0), ModelReportRow("c", 0.5, 0.5, 0.5, 10.0),
                ModelReportRow("d", 1.0000000000000002, 0.5, 0.5, 10.0)]
        with pytest.raises(ValidationError) as err:
            derive_report_stats(rows, "c")
        assert str(err.value) == "models[2].map_all: expected a value in [0, 1], got 1.0000000000000002"

    def test_range_bounds_accepted(self):
        rows = [ModelReportRow("b", 1.0, 1.0, 1.0, 1e-300), ModelReportRow("c", 0.0, 0.0, 0.0, 1e300)]
        stats = derive_report_stats(rows, "b")
        assert [s.map_pct_change for s in stats] == [0.0, -100.0]
        assert stats[0].fps == 1e303

    def test_zero_baseline_change_is_none(self):
        rows = [ModelReportRow("b", 0.0, 0.5, 0.5, 10.0), ModelReportRow("c", 0.25, 0.0, 0.75, 10.0)]
        stats = derive_report_stats(rows, "b")
        assert [(s.map_pct_change, s.map_50_pct_change, s.recall_pct_change) for s in stats] == [
            (None, 0.0, 0.0),
            (None, -100.0, 50.0),
        ]

    def test_zero_baseline_keeps_other_errors(self):
        rows = [ModelReportRow("b", 0.0, 0.5, 0.5, 10.0), ModelReportRow("c", 0.0, 0.5, 1.5, 10.0)]
        with pytest.raises(ValidationError) as err:
            derive_report_stats(rows, "b")
        assert str(err.value) == "models[1].average_recall: expected a value in [0, 1], got 1.5"

    def test_duplicate_model_names_rejected(self):
        rows = [ModelReportRow(name, 0.5, 0.5, 0.5, 10.0) for name in ("b", "c", "b", "c", "b")]
        with pytest.raises(DuplicateIdError) as err:
            derive_report_stats(rows, "c")
        assert str(err.value) == (
            "models[2]: duplicate model 'b' (first at models[0]); "
            "models[3]: duplicate model 'c' (first at models[1]); "
            "models[4]: duplicate model 'b' (first at models[0])"
        )


class TestClassPercentChanges:
    def test_headline_cp_boosts_from_fixture(self):
        _, doc = _published_rows()
        changes_all = class_percent_changes(doc["per_class"]["map_all"], "mBaseline")
        changes_50 = class_percent_changes(doc["per_class"]["map_50"], "mBaseline")
        assert changes_all["CP"]["mL1"] == pytest.approx(37.11, abs=0.005)
        assert changes_50["CP"]["mL1"] == pytest.approx(36.15, abs=0.005)

    def test_missing_baseline_for_class(self):
        with pytest.raises(UnknownBaselineError):
            class_percent_changes({"CP": {"mL1": 0.4}}, "mBaseline")

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"CP": {"b": 0.5, "mL1": 1.5}}, "class 'CP' model 'mL1': expected a value in [0, 1], got 1.5"),
            ({"CP": {"b": -0.5, "mL1": 0.5}}, "class 'CP' model 'b': expected a value in [0, 1], got -0.5"),
            ({"CP": {"b": 0.5}, "KD": {"b": 2.0}}, "class 'KD' model 'b': expected a value in [0, 1], got 2.0"),
        ],
    )
    def test_out_of_range_value_names_class_and_model(self, table, message):
        with pytest.raises(ValidationError) as err:
            class_percent_changes(table, "b")
        assert str(err.value) == message

    def test_zero_baseline_change_is_none(self):
        changes = class_percent_changes({"CP": {"b": 0.0, "mL1": 0.4, "mIoU": 0.0}, "KD": {"b": 0.5, "mL1": 0.6}}, "b")
        assert changes == {"CP": {"mL1": None, "mIoU": None}, "KD": {"mL1": pytest.approx(20.0)}}

    def test_overflowed_change_names_class_and_model(self):
        with pytest.raises(ValidationError) as err:
            class_percent_changes({"CP": {"b": 1e-300, "mL1": 1e308}}, "b")
        assert str(err.value) == "class 'CP' model 'mL1': percent change of 1e+308 against 1e-300 is not finite"


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert lines[1].startswith("-")

    def test_rows_to_csv(self):
        text = rows_to_csv(["x", "y"], [["1", "hello, world"]])
        assert text.splitlines() == ["x,y", '1,"hello, world"']
