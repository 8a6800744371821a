import argparse
import contextlib
import copy
import csv
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import MISSING, asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import cli
from boxlab.augment import sample_plan, AugmentParams
from boxlab.cli import Output, _render, main
from boxlab.coco_io import SplitSpec
from boxlab.descent import DescentConfig
from boxlab.evaluation import DEFAULT_IOU_THRESHOLDS, EvalConfig
from boxlab.proposals import AnchorConfig
from helpers import parse_plan_lines, strict_loads

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture()
def dataset(tmp_path):
    gt = {
        "images": [
            {"id": 1, "width": 100, "height": 100, "file_name": "a.jpg"},
            {"id": 2, "width": 100, "height": 100, "file_name": "b.jpg"},
        ],
        "categories": [{"id": 1, "name": "alpha"}, {"id": 2, "name": "beta"}],
        "annotations": [
            {"image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20]},
            {"image_id": 1, "category_id": 2, "bbox": [50, 50, 10, 10]},
            {"image_id": 2, "category_id": 1, "bbox": [5, 5, 30, 30]},
        ],
    }
    pred = [
        {"image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "score": 0.95},
        {"image_id": 1, "category_id": 2, "bbox": [50, 50, 10, 10], "score": 0.9},
        {"image_id": 2, "category_id": 1, "bbox": [5, 5, 30, 30], "score": 0.85},
    ]
    gt_path = tmp_path / "gt.json"
    pred_path = tmp_path / "pred.json"
    gt_path.write_text(json.dumps(gt))
    pred_path.write_text(json.dumps(pred))
    return str(gt_path), str(pred_path)


@pytest.mark.parametrize(
    "fmt, with_csv, built",
    [("json", True, ["doc"]), ("csv", True, ["csv"]), ("table", True, ["table"]), ("csv", False, ["table"])],
)
def test_render_builds_only_the_printed_format(fmt, with_csv, built):
    calls = []

    def field(name, value):
        return lambda: calls.append(name) or value

    csv_field = field("csv", (["h"], [["x"]])) if with_csv else None
    out = Output(doc=field("doc", {"h": "x"}), table=field("table", [(None, ["h"], [["x"]])]), csv=csv_field)
    assert _render(out, fmt) == {"json": '{\n  "h": "x"\n}', "csv": "h\nx", "table": "h\n-\nx"}[fmt]
    assert calls == built


# The config each subcommand builds, and the fields it reads from a spec string: the flag and,
# unless the flag is required, how its default parses.
CONFIG_COMMANDS = {
    "evaluate": (EvalConfig, {"iou_thresholds": ("--iou-thresholds", cli._parse_thresholds)}),
    "split": (SplitSpec, {}),
    "convergence": (DescentConfig, {}),
    "anchors": (AnchorConfig, {"aspect_ratios": ("--ratios", lambda spec: cli._parse_list(spec, "--ratios", float)),
                               "strides": ("--strides", lambda spec: cli._parse_list(spec, "--strides", int))}),
    "augment-plan": (AugmentParams, {"image_width": ("--image-size", None), "image_height": ("--image-size", None)}),
}


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
def test_each_config_field_is_a_flag_with_the_config_default(command):
    cls, from_specs = CONFIG_COMMANDS[command]
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    by_dest = {a.dest: a for a in actions}
    by_flag = {flag: a for a in actions for flag in a.option_strings}
    for field in fields(cls):
        if field.name in from_specs:
            flag, parse = from_specs[field.name]
            action = by_flag[flag]
            assert action.required if parse is None else parse(action.default) == field.default, field.name
            continue
        action = by_dest[field.name]  # a KeyError here: the field has no flag
        if field.default is MISSING:
            assert action.required, field.name
        elif action.option_strings == ["--backtracking", "--no-backtracking"]:
            assert (action.default, field.default) == (True, False)  # the one CLI default that differs
        else:
            assert (action.default, type(action.default)) == (field.default, type(field.default)), field.name


def test_default_threshold_spec_parses_to_the_default_thresholds():
    args = cli.build_parser().parse_args(["evaluate", "gt.json", "pred.json"])
    assert cli._parse_thresholds(args.iou_thresholds) == DEFAULT_IOU_THRESHOLDS


class TestEvaluateCommand:
    def test_perfect_predictions_table(self, dataset, capsys):
        gt, pred = dataset
        assert main(["evaluate", gt, pred]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out
        assert out.count("1.0000") >= 10  # every metric cell is 1

    def test_json_format_and_sidecar_match(self, dataset, capsys, tmp_path):
        gt, pred = dataset
        sidecar = tmp_path / "report.json"
        assert main(["evaluate", gt, pred, "--format", "json", "--json-output", str(sidecar)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert json.loads(sidecar.read_text()) == doc
        assert doc["map_all"] == 1.0
        assert doc["f1"] == 1.0
        assert len(doc["per_class"]) == 2
        assert len(doc["per_class"][0]["ap_per_threshold"]) == 10

    def test_table_and_json_contain_identical_numbers(self, dataset, capsys):
        gt, pred = dataset
        # a partial-credit detection set: move one box to IoU 0.6
        pred_doc = [
            {"image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 12], "score": 0.95},
            {"image_id": 1, "category_id": 2, "bbox": [50, 50, 10, 10], "score": 0.9},
        ]
        pred_path = pathlib.Path(pred).with_name("partial.json")
        pred_path.write_text(json.dumps(pred_doc))
        assert main(["evaluate", gt, str(pred_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["evaluate", gt, str(pred_path), "--format", "table"]) == 0
        table = capsys.readouterr().out
        for rec in doc["per_class"]:
            assert f"{rec['ap']:.4f}" in table
            assert f"{rec['ap_50']:.4f}" in table
        for key in ("map_all", "map_50", "average_recall", "f1"):
            assert f"{doc[key]:.4f}" in table

    def test_custom_thresholds(self, dataset, capsys):
        gt, pred = dataset
        assert main(["evaluate", gt, pred, "--iou-thresholds", "0.5,0.75", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["iou_thresholds"] == [0.5, 0.75]

    @pytest.mark.parametrize("spec, reason", [
        ("0.5:0.95:1e-300", "more than 1,000 thresholds"),
        ("0.5:0.95:1e-12", "more than 1,000 thresholds"),
        ("0.5:inf:0.1", "must be finite"),
        ("nan:0.9:0.1", "must be finite"),
    ])
    def test_endless_threshold_range_exit_1(self, dataset, capsys, spec, reason):
        gt, pred = dataset
        assert main(["evaluate", gt, pred, "--iou-thresholds", spec]) == 1
        err = capsys.readouterr().err
        assert f"bad --iou-thresholds {spec!r}" in err and reason in err

    @pytest.mark.parametrize("flags, message", [
        (["--max-dets", "0"], "max_detections_per_image must be positive"),
        (["--iou-thresholds", "0.5,0.4"], "iou_thresholds must be strictly increasing"),
        # Named no flag before: "iou_thresholds must be strictly increasing within (0, 1), got ()".
        (["--iou-thresholds", "0.5:0.4:0.1"], "error: bad --iou-thresholds '0.5:0.4:0.1': the range is empty\n"),
    ])
    def test_bad_flag_exits_1_before_reading_either_file(self, tmp_path, monkeypatch, capsys, flags, message):
        missing = [str(tmp_path / "gt.json"), str(tmp_path / "pred.json")]
        assert main(["evaluate", *missing, *flags]) == 1  # a missing file alone exits 2
        assert message in capsys.readouterr().err
        calls = []
        monkeypatch.setattr(cli, "load_manifest", lambda *args: calls.append("load_manifest"))
        monkeypatch.setattr(cli, "load_predictions", lambda *args: calls.append("load_predictions"))
        assert main(["evaluate", *missing, *flags]) == 1
        assert calls == []

    def test_threshold_range_up_to_the_bound(self):
        assert cli._parse_thresholds("0.50:0.95:0.05") == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
        assert cli._parse_thresholds("0:0.999:0.001") == tuple(round(k * 0.001, 10) for k in range(1000))

    @pytest.mark.parametrize("spec, ap_50", [("0.4999999999,0.5", 0.0), ("0.4999999999", None)])
    def test_map_50_is_read_at_exactly_half(self, tmp_path, capsys, spec, ap_50):
        # The one prediction has IoU 0.49999999995: a TP at 0.4999999999 and an FP at 0.5. Matching
        # 0.5 within 1e-9 read mAP@0.50 from 0.4999999999 (1.0), also when 0.5 was not a threshold.
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({
            "images": [{"id": 1, "width": 10, "height": 10, "file_name": "a.jpg"}],
            "categories": [{"id": 1, "name": "alpha"}],
            "annotations": [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1]}],
        }))
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 0.49999999995, 1], "score": 1}]))
        assert main(["evaluate", str(gt), str(pred), "--iou-thresholds", spec, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["per_class"][0]["ap_per_threshold"] == [1.0, 0.0][: len(spec.split(","))]
        assert doc["per_class"][0]["ap_50"] == ap_50
        assert doc["map_50"] == ap_50

    def test_map_50_absent_without_half_threshold(self, dataset, capsys):
        gt, pred = dataset
        args = ["evaluate", gt, pred, "--iou-thresholds", "0.9"]
        assert main(args + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["map_50"] is None
        assert [rec["ap_50"] for rec in doc["per_class"]] == [None, None]
        assert doc["map_all"] == 1.0
        assert main(args + ["--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][3] == "mAP@0.50"
        assert [row[3] for row in rows[1:]] == ["n/a"] * 3
        assert main(args) == 0
        table = capsys.readouterr().out
        assert table.count("n/a") == 3

    def test_nan_image_width_exit_2(self, dataset, capsys, tmp_path):
        _, pred = dataset
        bad = tmp_path / "nan_gt.json"
        bad.write_text(
            '{"images": [{"id": 1, "width": NaN, "height": 100}], '
            '"categories": [{"id": 1, "name": "alpha"}], '
            '"annotations": [{"image_id": 1, "category_id": 1, "bbox": [500, 10, 20, 20]}]}'
        )
        assert main(["evaluate", str(bad), pred]) == 2
        assert "images[0].width: expected a finite number" in capsys.readouterr().err

    def test_missing_file_exit_2(self, dataset, capsys):
        _, pred = dataset
        assert main(["evaluate", "/nonexistent.json", pred]) == 2
        assert "error" in capsys.readouterr().err

    def test_dangling_prediction_exit_1(self, dataset, capsys, tmp_path):
        gt, _ = dataset
        bad = tmp_path / "bad_pred.json"
        bad.write_text(json.dumps([{"image_id": 9, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5}]))
        assert main(["evaluate", gt, str(bad)]) == 1

    def test_malformed_json_exit_2(self, dataset, tmp_path):
        gt, _ = dataset
        broken = tmp_path / "broken.json"
        broken.write_text("[{,]")
        assert main(["evaluate", gt, str(broken)]) == 2

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ('[{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1' + "0" * 400 + ', 1], "score": 0.5}]', 2,
             "predictions[0].bbox[2]: expected a finite number, got an integer too large for a float"),
            ('[{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 1' + "0" * 400 + "}]", 2,
             "predictions[0].score: expected a finite number, got an integer too large for a float"),
            ('[{"image_id": 1, "category_id": 1, "bbox": [1e308, 0, 1e308, 1], "score": 0.5}]', 1,
             "{pred}: predictions[0]: bbox (1e+308, 0.0, 1e+308, 1.0) has a corner that is not finite"),
            ('[{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5, "image_id": 2}]', 2,
             "{pred}: duplicate key 'image_id' in a JSON object"),
        ],
        ids=["huge_bbox_int", "huge_score_int", "overflowing_corner", "duplicate_key"],
    )
    def test_bad_prediction_named_without_traceback(self, dataset, tmp_path, capsys, text, code, message):
        gt, _ = dataset
        pred = tmp_path / "bad_pred.json"
        pred.write_text(text)
        assert main(["evaluate", gt, str(pred)]) == code
        captured = capsys.readouterr()
        assert captured.err == "error: " + message.replace("{pred}", str(pred)) + "\n"
        assert captured.out == ""

    @pytest.mark.parametrize("which", ["gt", "pred"])
    def test_deep_nesting_exit_2(self, dataset, tmp_path, capsys, which):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        gt, pred = dataset
        assert main(["evaluate", *([str(deep), pred] if which == "gt" else [gt, str(deep)])]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {deep}: JSON nested too deeply to parse\n"
        assert captured.out == ""

    def test_overflowing_ground_truth_area_exit_1(self, tmp_path, capsys):
        # A perfect prediction of this box used to score mAP 0.0000 with exit 0.
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({
            "images": [{"id": 1, "width": 1e308, "height": 1e308}],
            "categories": [{"id": 1, "name": "alpha"}],
            "annotations": [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1e300, 1e300]}],
        }))
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1e300, 1e300], "score": 0.9}]))
        assert main(["evaluate", str(gt), str(pred)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {gt}: annotations[0]: bbox (0.0, 0.0, 1e+300, 1e+300) has an area as corners that is not finite\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("section, value", [("annotations", 5), ("images", {"a": 1}), ("categories", "x")])
    def test_section_not_a_list_exit_2(self, dataset, tmp_path, capsys, section, value):
        _, pred = dataset
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({section: value}))
        assert main(["evaluate", str(gt), pred]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {gt}: {section}: expected a list, got {type(value).__name__}\n"
        assert captured.out == ""

    def test_huge_integer_image_height_exit_2(self, dataset, tmp_path, capsys):
        _, pred = dataset
        gt = tmp_path / "gt.json"
        gt.write_text('{"images": [{"id": 1, "width": 100, "height": 1' + "0" * 400 + '}], "categories": []}')
        assert main(["evaluate", str(gt), pred]) == 2
        assert capsys.readouterr().err == (
            "error: images[0].height: expected a finite number, got an integer too large for a float\n"
        )


class TestSplitCommand:
    def test_json_partition(self, dataset, capsys):
        gt, _ = dataset
        assert main([
            "split", gt, "--train-frac", "0.5", "--val-frac", "0.5", "--test-frac", "0",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["train"] + doc["val"] + doc["test"]) == [1, 2]

    def test_csv_format(self, dataset, capsys):
        gt, _ = dataset
        assert main([
            "split", gt, "--train-frac", "1", "--val-frac", "0", "--test-frac", "0",
            "--format", "csv",
        ]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["image_id", "subset"]
        assert {r[1] for r in rows[1:]} == {"train"}

    def test_deterministic_across_runs(self, dataset, capsys):
        gt, _ = dataset
        args = ["split", gt, "--train-frac", "0.5", "--val-frac", "0.25",
                "--test-frac", "0.25", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_bad_fractions_exit_1(self, dataset):
        gt, _ = dataset
        assert main([
            "split", gt, "--train-frac", "0.9", "--val-frac", "0.9", "--test-frac", "0",
        ]) == 1

    def test_halves_of_three_images(self, tmp_path, capsys):
        # Both halves of 3 round to 2; val takes 2 and test the 1 left (this used to exit 1).
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"images": [{"id": i, "width": 8, "height": 8} for i in (1, 2, 3)],
                                  "categories": [], "annotations": []}))
        assert main(["split", str(gt), "--train-frac", "0", "--val-frac", "0.5", "--test-frac", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (len(doc["train"]), len(doc["val"]), len(doc["test"])) == (0, 2, 1)

    @pytest.mark.parametrize("flag", ["--train-frac", "--val-frac", "--test-frac"])
    def test_nan_fraction_exit_1(self, dataset, capsys, flag):
        # A NaN train fraction used to give an empty train list, a NaN test fraction a traceback.
        fracs = {"--train-frac": "0.5", "--val-frac": "0.5", "--test-frac": "0", flag: "nan"}
        assert main(["split", dataset[0], *(tok for pair in fracs.items() for tok in pair)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag[2:].replace('-', '_')} must be finite, got nan\n"
        assert captured.out == ""


class TestConvergenceCommand:
    def test_csv_trials(self, capsys):
        assert main([
            "convergence", "--trials", "30", "--losses", "iou,giou", "--seed", "2",
            "--lr", "3.0", "--max-iters", "300", "--no-backtracking", "--format", "csv",
        ]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["trial", "loss_kind", "converged", "iterations", "final_iou"]
        assert len(rows) == 1 + 2 * 30

    def test_json_summary(self, capsys):
        assert main([
            "convergence", "--trials", "30", "--losses", "iou", "--seed", "2",
            "--max-iters", "100", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["iou"]["convergence_rate"] == 0.0
        assert doc["summary"]["iou"]["median_iterations"] is None
        assert len(doc["trials"]) == 30

    def test_unknown_loss_exit_1(self):
        assert main(["convergence", "--trials", "30", "--losses", "l2"]) == 1

    def test_empty_loss_list_exit_1(self, capsys):
        assert main(["convergence", "--losses", ",,"]) == 1
        assert capsys.readouterr().err == "error: loss_kinds must not be empty\n"

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exit_1(self, lr, capsys):
        assert main(["convergence", "--trials", "2", "--lr", lr]) == 1
        assert capsys.readouterr().err == f"error: learning_rate must be positive and finite, got {lr}\n"

    @pytest.mark.parametrize("loss", ["diou", "ciou"])
    def test_overflowing_center_distance(self, loss, capsys):
        # Every step of 1e200/2**k moves the center by about 1e193, whose square
        # overflows: `drx ** 2` used to end in an OverflowError traceback.
        argv = ["convergence", "--trials", "30", "--losses", loss, "--lr", "1e200", "--max-iters", "20",
                "--seed", "3", "--format", "csv"]
        assert main(argv) == 0  # backtracking rejects each overflowing candidate, so no trial moves
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert len(rows) == 30 and all(row[2:] == ["0", "", "0.0"] for row in rows)
        assert main(argv + ["--no-backtracking"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DIoU undefined: the squared center distance overflows (")


class TestAnchorsCommand:
    def test_explicit_feature_sizes_csv(self, capsys):
        assert main([
            "anchors", "--feature-sizes", "1x2", "--strides", "16", "--format", "csv",
        ]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1 + 1 * 2 * 3
        assert rows[1][:4] == ["0", "16", "0", "0"]

    def test_image_size_mode_counts(self, capsys):
        assert main(["anchors", "--image-size", "64x32", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # strides 4,8,16,32 -> (8x16 + 4x8 + 2x4 + 1x2) cells, 3 ratios each
        expected = 3 * (8 * 16 + 4 * 8 + 2 * 4 + 1 * 2)
        assert len(doc) == expected

    def test_base_anchor_box(self, capsys):
        assert main([
            "anchors", "--feature-sizes", "1x1", "--strides", "16",
            "--ratios", "1.0", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["box"] == [-56.0, -56.0, 72.0, 72.0]

    def test_requires_a_size_argument(self):
        assert main(["anchors"]) == 1

    @pytest.mark.parametrize(
        "flag, value", [("--ratios", "a,1"), ("--ratios", "1,,2"), ("--strides", "4,x"), ("--strides", "4.5")]
    )
    def test_unparsable_list_exit_1(self, flag, value, capsys):
        assert main(["anchors", "--image-size", "64x32", flag, value]) == 1
        err = capsys.readouterr().err
        assert f"bad {flag} {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--image-size", "8x8", "--ratios", "nan"], "aspect ratios must be positive and finite, got (nan,)"),
            (["--image-size", "8x8", "--ratios", "1,inf"], "aspect ratios must be positive and finite, got (1.0, inf)"),
            (["--image-size", "8x0"], "bad --image-size '8x0': sizes must be positive"),
            (["--feature-sizes", "2x-1", "--strides", "8"], "bad --feature-sizes '2x-1': sizes must be positive"),
            # Timed out before: about 10**15 anchors.
            (["--image-size", "99999999x99999999"],
             "bad --image-size '99999999x99999999': tiles more than the limit of 4,000,000 anchors"),
            # ceil(height / stride) overflowed a float before.
            (["--image-size", f"1x{10**400}"], f"bad --image-size '1x{10**400}': tiles more than the limit of 4,000,000 anchors"),
            (["--feature-sizes", "1x1,2000x1000", "--strides", "4,8"],
             "bad --feature-sizes '1x1,2000x1000': tiles more than the limit of 4,000,000 anchors"),
            # An OverflowError traceback before.
            (["--image-size", "8x8", "--scale", str(10**310)],
             f"scale * stride must fit a float, got scale {10**310} and stride 4"),
            # Box rejected the first anchor before, naming no field.
            (["--feature-sizes", "1x1", "--strides", "1", "--scale", str(10**200), "--ratios", "1e300"],
             f"aspect_ratios: ratio 1e+300 at stride 1 and scale {10**200} gives a non-finite anchor half-extent (inf, 5e+49)"),
            # Exited 0 before, tiling the feature sizes and ignoring --image-size. Checked before either flag is
            # parsed, so unparsable values get the same message.
            (["--image-size", "4x4", "--feature-sizes", "1x1,1x1,1x1,1x1"], "give one of --image-size or --feature-sizes, not both"),
            (["--image-size", "8x0", "--feature-sizes", "junk"], "give one of --image-size or --feature-sizes, not both"),
            # An empty size was taken for an absent one: "one of --image-size or --feature-sizes is required".
            (["--feature-sizes", ""], "bad --feature-sizes '': expected two integers like 640x360"),
            (["--image-size", ""], "bad --image-size '': expected two integers like 640x360"),
        ],
    )
    def test_out_of_range_values_exit_1(self, args, message, capsys):
        assert main(["anchors", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_overflowing_extent_names_stride_and_size(self, capsys):
        # Box rejected the first anchor past the float range before, naming no flag.
        stride = str(10**308)
        assert main(["anchors", "--feature-sizes", "1x2", "--strides", stride, "--scale", "1", "--ratios", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: stride {stride} with feature size 1x2 (level 0) puts anchor extents past the "
                                "float range: the far corner is (inf, 1e+308)\n")
        assert captured.out == ""

    def test_anchor_cap_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_MAX_ANCHORS", 6)
        assert main(["anchors", "--feature-sizes", "1x2", "--strides", "16", "--format", "csv"]) == 0
        assert main(["anchors", "--feature-sizes", "1x1,1x2", "--strides", "8,16"]) == 1
        assert capsys.readouterr().err == "error: bad --feature-sizes '1x1,1x2': tiles more than the limit of 6 anchors\n"

    def test_closed_pipe_exits_2_quietly(self):
        # About 3 MB of CSV, past the pipe buffer, so a write meets the closed pipe. It
        # printed "error: [Errno 32] Broken pipe" before.
        proc = subprocess.Popen(
            [sys.executable, "-m", "boxlab", "anchors", "--image-size", "640x360", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_source_tree_env(),
        )
        try:
            assert proc.stdout.readline() == b"level,stride,row,col,x_min,y_min,x_max,y_max\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()


@pytest.mark.parametrize("module", ["boxlab", "boxlab.cli"])
def test_module_entry_points_run_main(module):
    # ``python -m boxlab`` runs __main__.py and ``python -m boxlab.cli`` the module's own guard;
    # the in-process tests call main() and reach neither.
    result = subprocess.run([sys.executable, "-m", module, "--help"], capture_output=True, env=_source_tree_env(),
                            timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith(b"usage: boxlab ")
    assert result.stderr == b""


def _source_tree_env() -> dict[str, str]:
    """The environment for a child interpreter that imports boxlab from this checkout's src/."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestAugmentPlanCommand:
    def test_matches_library_plan(self, capsys):
        assert main(["augment-plan", "--images", "4", "--seed", "9", "--image-size", "360x640"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        parsed = parse_plan_lines(lines)
        expected = sample_plan(AugmentParams(image_width=360, image_height=640), 4, seed=9)
        assert parsed == asdict(expected)

    def test_output_file(self, tmp_path):
        out = tmp_path / "plan.csv"
        assert main([
            "augment-plan", "--images", "2", "--seed", "1", "--image-size", "100x100",
            "--output", str(out),
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_huge_image_size_exits_1(self, capsys):
        # An OverflowError traceback before.
        assert main(["augment-plan", "--images", "2", f"--image-size=1x{10**400}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: image_height must be finite, got {10**400}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("delta", ["1", "5"])
    def test_scale_delta_of_one_or_more_exits_1(self, delta, capsys):
        # A delta of 5 used to write 5 of 20 scales at or below 0.
        assert main(["augment-plan", "--images", "20", "--image-size", "8x8", "--max-scale-delta", delta]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: max_scale_delta must be in [0, 1), got {float(delta)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--max-shift-frac", "nan", "max_shift_frac"),
            ("--max-shift-frac", "inf", "max_shift_frac"),
            ("--max-scale-delta", "-inf", "max_scale_delta"),
            ("--max-rotate-deg", "nan", "max_rotate_deg"),
            ("--flip-prob", "nan", "flip_prob"),
        ],
    )
    def test_non_finite_bound_exits_1(self, flag, value, field, capsys):
        assert main(["augment-plan", "--images", "2", "--image-size", "10x10", f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {field} must be finite, got {float(value)}\n"
        assert captured.out == ""


class TestReportCommand:
    def test_table_contains_derived_values(self, capsys):
        assert main(["report", str(FIXTURES / "published_metrics.json"), "--baseline", "mBaseline"]) == 0
        out = capsys.readouterr().out
        assert "18.0" in out       # mBaseline fps
        assert "0.9566" in out     # mL1 F1 recomputed
        assert "+37.11" in out     # CP boost at the broad-threshold metric
        assert "+36.15" in out     # CP boost at IoU 0.50

    def test_json_values(self, capsys):
        assert main([
            "report", str(FIXTURES / "published_metrics.json"),
            "--baseline", "mBaseline", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_model = {rec["model"]: rec for rec in doc["models"]}
        assert by_model["mL1"]["f1"] == pytest.approx(0.9566, abs=1e-4)
        assert by_model["mGIoU"]["fps"] == pytest.approx(15.0, abs=0.05)
        assert doc["class_pct_changes"]["map_all"]["CP"]["mL1"] == pytest.approx(37.11, abs=0.005)

    def test_unknown_baseline_exit_1(self):
        assert main(["report", str(FIXTURES / "published_metrics.json"), "--baseline", "nope"]) == 1

    @pytest.mark.parametrize(
        "models, message",
        [
            ([("b", 1e-300), ("huge", 1e308)],
             "model 'huge' map_all: percent change of 1e+308 against 1e-300 is not finite"),
            ([("b", 0.5), ("b", 0.8)], "models[1]: duplicate model 'b' (first at models[0])"),
        ],
    )
    def test_bad_comparison_exit_1(self, models, message, tmp_path, capsys):
        doc = {"models": [
            {"model": name, "map_all": m, "map_50": 0.5, "average_recall": 0.5, "latency_ms": 10.0}
            for name, m in models
        ]}
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--baseline", "b", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["models"][0].update(map_all=1e308, average_recall=1e308, latency_ms=1e-320),
             "models[0].map_all: expected a value in [0, 1], got 1e+308"),
            (lambda doc: doc["models"][3].update(map_50=1.2), "models[3].map_50: expected a value in [0, 1], got 1.2"),
            (lambda doc: doc["models"][1].update(average_recall=-0.25),
             "models[1].average_recall: expected a value in [0, 1], got -0.25"),
            (lambda doc: doc["models"][2].update(latency_ms=1e-320),
             "models[2].latency_ms: 1000/latency_ms is not finite, got 1e-320"),
            (lambda doc: doc["models"][1].update(map_all=-1, average_recall=1),  # an F1 of 0/0 if computed first
             "models[1].map_all: expected a value in [0, 1], got -1.0"),
            (lambda doc: doc["per_class"]["map_50"]["CP"].update(mIoU=36.9),
             "per_class.map_50: class 'CP' model 'mIoU': expected a value in [0, 1], got 36.9"),
            (lambda doc: doc["per_class"]["map_all"]["KD"].update(mBaseline=-0.0001),
             "per_class.map_all: class 'KD' model 'mBaseline': expected a value in [0, 1], got -0.0001"),
        ],
    )
    def test_out_of_range_metrics_exit_1(self, edit, message, tmp_path, capsys):
        doc = json.loads((FIXTURES / "published_metrics.json").read_text())
        edit(doc)
        bad = tmp_path / "metrics.json"
        bad.write_text(json.dumps(doc))
        assert main(["report", str(bad), "--baseline", "mBaseline", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("section, kind", [([], "list"), (False, "bool"), (0, "int"), ("", "str")])
    def test_falsy_non_object_per_class_exit_2(self, section, kind, tmp_path, capsys):
        # A falsy section was read as empty with exit 0; only an absent or null one is.
        doc = json.loads((FIXTURES / "published_metrics.json").read_text())
        bad = tmp_path / "metrics.json"
        bad.write_text(json.dumps({**doc, "per_class": section}))
        assert main(["report", str(bad), "--baseline", "mBaseline"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: per_class: expected an object, got {kind}\n"
        assert captured.out == ""

    def test_absent_or_null_per_class_is_empty(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "published_metrics.json").read_text())
        outputs = []
        for section in ({}, {"per_class": None}, {"per_class": {}}):
            path = tmp_path / "metrics.json"
            path.write_text(json.dumps({"models": doc["models"], **section}))
            assert main(["report", str(path), "--baseline", "mBaseline", "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_zero_baseline_change_is_na(self, tmp_path, capsys):
        doc = {
            "models": [
                {"model": "b", "map_all": 0.0, "map_50": 0.5, "average_recall": 0.5, "latency_ms": 10.0},
                {"model": "c", "map_all": 0.25, "map_50": 0.75, "average_recall": 0.5, "latency_ms": 20.0},
            ],
            "per_class": {"map_all": {"CP": {"b": 0.0, "c": 0.5}, "KD": {"b": 0.5, "c": 0.25}}},
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--baseline", "b"]) == 0
        assert capsys.readouterr().out == (
            "model  mAP     mAP@0.50  AR      F1      latency_ms  fps    mAP_change_%\n"
            "-----  ------  --------  ------  ------  ----------  -----  ------------\n"
            "b      0.0000  0.5000    0.5000  0.0000  10.0        100.0  n/a\n"
            "c      0.2500  0.7500    0.5000  0.3333  20.0        50.0   n/a\n"
            "\n"
            "percent change vs b (map_all)\n"
            "class  model  change_%\n"
            "-----  -----  --------\n"
            "CP     c      n/a\n"
            "KD     c      -50.00\n"
        )
        assert main(["report", str(path), "--baseline", "b", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [m["map_pct_change"] for m in out["models"]] == [None, None]
        assert [m["map_50_pct_change"] for m in out["models"]] == [0.0, 50.0]
        assert out["class_pct_changes"] == {"map_all": {"CP": {"c": None}, "KD": {"c": -50.0}}}

    def test_nonpositive_latency_names_the_record(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "published_metrics.json").read_text())
        doc["models"][1]["latency_ms"] = -3
        bad = tmp_path / "metrics.json"
        bad.write_text(json.dumps(doc))
        assert main(["report", str(bad), "--baseline", "mBaseline"]) == 1
        assert capsys.readouterr().err == "error: models[1].latency_ms: must be positive, got -3.0\n"

    def test_duplicate_key_exit_2(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "published_metrics.json").read_text())
        text = json.dumps(doc).replace('"CP": {', '"CP": {"mL1": 0.5, "mL1": 0.9, ', 1)
        bad = tmp_path / "metrics.json"
        bad.write_text(text)
        assert main(["report", str(bad), "--baseline", "mBaseline"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: duplicate key 'mL1' in a JSON object\n"
        assert captured.out == ""

    def test_deep_nesting_exit_2(self, tmp_path, capsys):
        deep = tmp_path / "metrics.json"
        deep.write_text('{"models": ' + "[" * 200_000 + "]" * 200_000 + "}")
        assert main(["report", str(deep), "--baseline", "mBaseline"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {deep}: JSON nested too deeply to parse\n"
        assert captured.out == ""

    def test_malformed_metrics_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["report", str(bad), "--baseline", "x"]) == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["models"][1].update(latency_ms=float("nan")),
             "models[1].latency_ms: expected a finite number, got nan"),
            (lambda doc: doc["models"][0].update(map_all=float("inf")),
             "models[0].map_all: expected a finite number, got inf"),
            (lambda doc: doc["models"][2].update(average_recall="0.9"),
             "models[2].average_recall: expected a number, got '0.9'"),
            (lambda doc: doc["per_class"]["map_all"]["AK47"].update(mL1="0.3"),
             "per_class.map_all.AK47.mL1: expected a number, got '0.3'"),
            (lambda doc: doc["per_class"]["map_50"]["CP"].update(mIoU=float("-inf")),
             "per_class.map_50.CP.mIoU: expected a finite number, got -inf"),
            (lambda doc: doc.update(per_class=[{"AK47": {"mL1": 0.9}}]), "per_class: expected an object, got list"),
            (lambda doc: doc["per_class"].update(map_all=[1, 2]), "per_class.map_all: expected an object, got list"),
            (lambda doc: doc["per_class"]["map_all"].update(KD=0.5), "per_class.map_all.KD: expected an object, got float"),
            # A model name went through str() before: ["a"] printed as the model "['a']" with exit 0,
            # null became a model named None, and 7 beside "7" was reported as a duplicate model '7'.
            (lambda doc: doc["models"][0].update(model=["a"]), "models[0].model: expected a string, got ['a']"),
            (lambda doc: doc["models"][2].update(model=None), "models[2].model: expected a string, got None"),
            (lambda doc: doc["models"][0].update(model="7") or doc["models"][1].update(model=7),
             "models[1].model: expected a string, got 7"),
        ],
    )
    def test_bad_metric_values_exit_2(self, edit, message, tmp_path, capsys):
        doc = json.loads((FIXTURES / "published_metrics.json").read_text())
        edit(doc)
        bad = tmp_path / "metrics.json"
        bad.write_text(json.dumps(doc))
        assert main(["report", str(bad), "--baseline", "mBaseline", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


# --- fuzzed input files: every run ends in exit 0, 1 or 2, never in a traceback ---------

def _mostly(good, bad, odds=30):
    """``good``, but ``bad`` one time in ``odds`` (shrinking goes toward ``good``): most runs get
    deep, and every layer still sees junk."""
    return st.integers(1, odds).flatmap(lambda k: bad if k == odds else good)


# Typed values that the semantic checks reject (negative, subnormal, overflowing), and junk that the
# strict type checks reject (NaN, Infinity, integers no float holds, bools, strings, null).
_number = st.sampled_from([0, 0.5, 1.0, 2, 8.0, -1.0, 1e-200, 1e308])
_junk = st.one_of(st.floats(), st.sampled_from([10**400, 2**70, None, True]), st.text(max_size=2))
_value = _mostly(_number, _junk)
_id = _mostly(st.integers(1, 2), st.one_of(st.integers(0, 3), _junk))
_bbox = _mostly(st.lists(_value, min_size=4, max_size=4), st.one_of(st.lists(_value, max_size=5), _junk))


def _records(fields):
    """Lists of records with every field; now and then a record lacks fields or is another JSON value."""
    record = _mostly(st.fixed_dictionaries(fields), st.one_of(st.fixed_dictionaries({}, optional=fields), _junk))
    return _mostly(st.lists(record, max_size=4), _junk, odds=10)


def _section(valid, fields):
    """A valid section half the time, so that annotations and predictions are often evaluated."""
    return _mostly(st.just(valid), _records(fields), odds=2)


_box_fields = {"image_id": _id, "category_id": _id, "bbox": _bbox}
_gt_docs = _mostly(
    st.fixed_dictionaries({
        "images": _section([{"id": 1, "width": 8, "height": 8}, {"id": 2, "width": 50, "height": 50}],
                           {"id": _id, "width": _value, "height": _value}),
        "categories": _section([{"id": 1, "name": "a"}, {"id": 2, "name": "b"}],
                               {"id": _id, "name": st.text(max_size=2)}),
        "annotations": _records(_box_fields),
    }),
    _junk,
    odds=10,
)
_pred_docs = _records({**_box_fields, "score": _value})
_rate = _mostly(st.sampled_from([0.0, 1.0, -1.0]), _value, odds=4)  # mAP -1 beside AR 1: an F1 of 0/0
_metrics_docs = _mostly(
    st.fixed_dictionaries({
        "models": _records({
            "model": _mostly(st.sampled_from(["m0", "m1", "m2", "m3"]), st.sampled_from([["m0"], None, 0, 1.5, True])),
            **{key: _rate for key in ("map_all", "map_50", "average_recall")},
            "latency_ms": _mostly(st.sampled_from([10, 0.5]), _value, odds=4),
        }),
        "per_class": st.dictionaries(st.sampled_from(["map_all", "map_50"]), st.dictionaries(
            st.sampled_from(["A", "B"]), st.dictionaries(st.sampled_from(["m0", "m1"]), _rate, max_size=2), max_size=2
        ), max_size=2),
    }),
    _junk,
    odds=10,
)


# Flags of `anchors`: at most 32x32 cells per level, 4 levels and 4 ratios, so no run tiles more than
# 16,384 anchors, far under the CLI's cap; junk values stop in parsing or validation.
_anchor_size = _mostly(st.builds("{}x{}".format, st.integers(1, 32), st.integers(1, 32)),
                       st.sampled_from(["0x5", "8x", "ax3", "-2x4", "3x4x5", "", "1e3x2"]))
_anchor_ratios = st.lists(_mostly(st.sampled_from([0.5, 1.0, 2.0, 0.3, 3.3]), st.floats()), min_size=1, max_size=4)
_anchor_strides = _mostly(
    st.lists(st.integers(1, 64), min_size=1, max_size=4, unique=True).map(sorted).map(lambda s: ",".join(map(str, s))),
    st.sampled_from(["0", "8,8", "16,8", "4.5", "", str(10**308), str(10**400), f"1,{4 * 10**307}"]),
)
_anchor_scale = _mostly(st.integers(1, 16), st.sampled_from([0, -1, 10**200, 10**310]))


# Flags of `split` and `augment-plan`: any float, any integer seed, and a few sizes (a plan has
# at most 40 images).
_fraction = _mostly(st.sampled_from(["0", "0.25", "0.5", "1"]), st.floats().map(repr), odds=4)
_seed = _mostly(st.integers(0, 2**32), st.one_of(st.integers(), st.sampled_from([-1, 2**64, 10**400])), odds=4)
_bound = _mostly(st.sampled_from(["0", "0.1", "0.5", "1", "45"]),
                 st.one_of(st.sampled_from(["-1", "2", "180", "9e307", "1e308"]), st.floats().map(repr)), odds=8)
# `--iou-thresholds`: lists and ranges, and ranges that never end (a non-finite bound, a tiny step).
_thresholds = _mostly(
    st.sampled_from(["0.5", "0.5,0.75", "0.50:0.95:0.05"]),
    st.one_of(st.sampled_from(["0.5:0.95:1e-300", "0.5:0.95:1e-12", "0.5:inf:0.1", "nan:0.9:0.1", "0.5:0.5:1e-300",
                               "0.9:0.5:0.1", "0.5:0.95:0", "0.5:0.95", "a:b:c"]),
              st.tuples(st.floats(), st.floats(), st.floats()).map(lambda t: ":".join(map(repr, t)))),
    odds=4,
)
_image_size = _mostly(st.builds("{}x{}".format, st.integers(1, 4096), st.integers(1, 4096)),
                      st.sampled_from(["0x5", "8x", "ax3", "-2x4", "3x4x5", "", f"1x{10**400}", f"{2**64}x1"]), odds=4)


def _exit_code(argv, docs):
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            (pathlib.Path(tmp) / name).write_text(json.dumps(doc))
        return main([arg.format(dir=tmp) for arg in argv])


class TestFuzzedInputExitCodes:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(gt=_gt_docs, pred=_pred_docs, thresholds=_thresholds)
    def test_evaluate(self, gt, pred, thresholds):
        argv = ["evaluate", "{dir}/gt.json", "{dir}/pred.json", f"--iou-thresholds={thresholds}", "--format", "json"]
        assert _exit_code(argv, {"gt.json": gt, "pred.json": pred}) in (0, 1, 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(metrics=_metrics_docs)
    def test_report(self, metrics):
        assert _exit_code(["report", "{dir}/metrics.json", "--baseline", "m0"], {"metrics.json": metrics}) in (0, 1, 2)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        lr=st.floats(1e-300, 1e308),
        max_iters=st.integers(0, 50),
        success_iou=_mostly(st.floats(0.0, 1.0, exclude_min=True), st.floats(), odds=10),
        parameterization=st.sampled_from(["corner", "center"]),
        backtracking=st.sampled_from(["--backtracking", "--no-backtracking"]),
    )
    def test_convergence(self, lr, max_iters, success_iou, parameterization, backtracking):
        argv = ["convergence", "--trials", "30", "--losses", "l1,iou,giou,diou,ciou", "--lr", repr(lr),
                "--max-iters", str(max_iters), f"--success-iou={success_iou!r}",
                "--parameterization", parameterization, backtracking, "--format", "csv", "--output", "{dir}/out.csv"]
        assert _exit_code(argv, {}) in (0, 1, 2)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        image_size=st.booleans(),
        sizes=st.lists(_anchor_size, min_size=1, max_size=4),
        scale=_anchor_scale,
        ratios=_anchor_ratios,
        strides=_anchor_strides,
    )
    def test_anchors(self, image_size, sizes, scale, ratios, strides):
        size_flags = ["--image-size", sizes[0]] if image_size else ["--feature-sizes", ",".join(sizes)]
        argv = ["anchors", *size_flags, "--scale", str(scale), "--ratios", ",".join(map(repr, ratios)),
                "--strides", strides, "--format", "csv", "--output", "{dir}/out.csv"]
        assert _exit_code(argv, {}) in (0, 1, 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(gt=_mostly(st.just({"images": [{"id": i, "width": 8, "height": 8} for i in range(1, 6)], "categories": [],
                               "annotations": []}), _gt_docs, odds=4),
           fracs=st.tuples(_fraction, _fraction, _fraction), seed=_seed,
           fmt=st.sampled_from(["table", "json", "csv"]))
    def test_split(self, gt, fracs, seed, fmt):
        train, val, test = fracs
        argv = ["split", "{dir}/gt.json", f"--train-frac={train}", f"--val-frac={val}", f"--test-frac={test}",
                f"--seed={seed}", "--format", fmt, "--output", "{dir}/out"]
        assert _exit_code(argv, {"gt.json": gt}) in (0, 1, 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(images=_mostly(st.integers(0, 40), st.integers(-3, -1), odds=10), seed=_seed, image_size=_image_size,
           bounds=st.tuples(*[_bound] * 5))
    def test_augment_plan(self, images, seed, image_size, bounds):
        flags = ["--flip-prob", "--max-shift-frac", "--max-scale-delta", "--max-rotate-deg", "--ssr-prob"]
        with tempfile.TemporaryDirectory() as tmp:
            plan = pathlib.Path(tmp) / "plan.csv"
            code = main(["augment-plan", f"--images={images}", f"--seed={seed}", f"--image-size={image_size}",
                         *(f"{flag}={value}" for flag, value in zip(flags, bounds)), "--output", str(plan)])
            if code == 0:  # and never a plan of non-finite magnitudes or of scales that are not positive
                decisions = parse_plan_lines(plan.read_text().splitlines())["decisions"]
                assert all(math.isfinite(d[k]) for d in decisions for k in ("dx", "dy", "scale", "angle_deg"))
                assert all(d["scale"] > 0.0 for d in decisions)
        assert code in (0, 1, 2)


class _Obj(list):
    """A JSON object as a list of ``[key, value]`` pairs, so that a key may repeat."""


def _dump(node) -> str:
    if isinstance(node, _Obj):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dump(value)}" for key, value in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_dump, node)) + "]"
    return json.dumps(node)  # NaN and Infinity as the json module writes them, 10**400 as its digits


_ADVERSARIAL = [1e308, -1e308, 5e-324, 1e-300, 10**400, -(10**400), 2**63, 0, 1, 2, -1, 0.5, 1.0, 1.5, 100, True,
                False, None, "", "x", float("nan"), float("inf"), [], [1, 2], [[0, 0, 1, 1]]]


def _mutate(doc, rng: random.Random) -> None:
    """One edit in place: an adversarial or nested value, a duplicated record, a repeated or a deleted key."""
    slots, objects, lists = [], [], []  # (container, index) of every value; every object; every array

    def walk(node):
        if isinstance(node, list):
            (objects if isinstance(node, _Obj) else lists).append(node)
            for i, item in enumerate(node):
                slots.append((item, 1) if isinstance(node, _Obj) else (node, i))
                walk(item[1] if isinstance(node, _Obj) else item)

    walk(doc)
    edit = rng.choice(["value", "value", "nest", "duplicate", "repeat", "delete"])
    if edit == "duplicate" and any(lists):
        records = rng.choice([r for r in lists if r])
        records.insert(rng.randrange(len(records) + 1), copy.deepcopy(rng.choice(records)))
    elif edit in ("repeat", "delete") and any(objects):
        obj = rng.choice([o for o in objects if o])
        if edit == "delete":
            del obj[rng.randrange(len(obj))]
        else:
            obj.insert(rng.randrange(len(obj) + 1), [rng.choice(obj)[0], copy.deepcopy(rng.choice(_ADVERSARIAL))])
    elif slots:
        container, index = rng.choice(slots)
        nested = _Obj([["k", container[index]]]) if rng.random() < 0.5 else [container[index]]
        container[index] = nested if edit == "nest" else copy.deepcopy(rng.choice(_ADVERSARIAL))


def test_mutated_golden_inputs_exit_cleanly(tmp_path):
    """Seeded edits of the golden gt.json, pred.json and published_metrics.json texts: every run of evaluate,
    split or report exits 0, 1 or 2 without a traceback, and every exit-0 JSON output parses strictly."""
    sources = {name: (FIXTURES / source).read_text() for name, source in
               [("gt", "cli_golden/gt.json"), ("pred", "cli_golden/pred.json"), ("metrics", "published_metrics.json")]}
    commands = [
        (["evaluate", "{gt}", "{pred}", "--format", "json"], ["gt", "pred"]),
        (["evaluate", "{gt}", "{pred}", "--iou-thresholds", "0.5", "--format", "json"], ["pred"]),
        (["split", "{gt}", "--train-frac", "0.5", "--val-frac", "0.25", "--test-frac", "0.25", "--format", "json"],
         ["gt"]),
        (["report", "{metrics}", "--baseline", "mBaseline", "--format", "json"], ["metrics"]),
    ]
    paths = {name: str(tmp_path / f"{name}.json") for name in sources}
    rng = random.Random(2103)
    codes = {}
    deadline = time.monotonic() + 3.0
    for run in range(800):
        if time.monotonic() > deadline:
            break
        argv, names = commands[run % len(commands)]
        mutated = rng.choice(names)
        for name, text in sources.items():
            doc = json.loads(text, object_pairs_hook=lambda pairs: _Obj(map(list, pairs)))
            for _ in range(rng.randint(1, 3) if name == mutated else 0):
                _mutate(doc, rng)
            pathlib.Path(paths[name]).write_text(_dump(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
        where = f"run {run}: {argv[0]} exited {code}: {err.getvalue()!r}"
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), where
        if code == 0:
            strict_loads(out.getvalue())
        codes[code] = codes.get(code, 0) + 1
    assert set(codes) == {0, 1, 2}, codes
