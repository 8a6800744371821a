"""Byte-for-byte golden outputs of every ``boxlab`` command and format.

Each case runs ``main`` in-process and compares stdout, and any file named by
``--output`` or ``--json-output``, with the bytes stored under
``fixtures/cli_golden/``. The parser's options are snapshotted too, so a flag
that changes its default (or leaks one subcommand's default into another)
fails here. Regenerate the expected files only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib

import pytest

from boxlab.cli import FORMATS, build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "cli_golden"
METRICS = GOLDEN.parent / "published_metrics.json"

EVALUATE = ["evaluate", "{gt}", "{pred}"]
COMMANDS = {
    "evaluate": EVALUATE,
    "split": ["split", "{gt}", "--train-frac", "0.5", "--val-frac", "0.25", "--test-frac", "0.25", "--seed", "3"],
    # CIoU is left out: math.atan may differ by one ulp between libms.
    "convergence": ["convergence", "--trials", "30", "--losses", "iou,giou,diou", "--max-iters", "40", "--seed", "4",
                    "--lr", "3.0", "--success-iou", "0.3"],
    "anchors": ["anchors", "--image-size", "24x16"],
    "report": ["report", "{metrics}", "--baseline", "mBaseline"],
}

CASES = {f"{name}_{fmt}": argv + ["--format", fmt] for name, argv in COMMANDS.items() for fmt in FORMATS}
CASES.update({f"{name}_default": argv for name, argv in COMMANDS.items()})
CASES.update(
    {
        "evaluate_iou90_table": EVALUATE + ["--iou-thresholds", "0.9"],
        "evaluate_iou90_csv": EVALUATE + ["--iou-thresholds", "0.9", "--format", "csv"],
        "evaluate_iou90_json": EVALUATE + ["--iou-thresholds", "0.9", "--format", "json"],
        "evaluate_empty_classes_table": EVALUATE + ["--include-empty-classes"],
        "evaluate_empty_classes_json": EVALUATE + ["--include-empty-classes", "--format", "json"],
        "evaluate_max_dets_1_csv": EVALUATE + ["--max-dets", "1", "--format", "csv"],
        "evaluate_files": EVALUATE + ["--format", "csv", "--output", "{out}", "--json-output", "{sidecar}"],
        "evaluate_sidecar_table": EVALUATE + ["--iou-thresholds", "0.5,0.75", "--json-output", "{sidecar}"],
        # L1 and the default success IoU of 0.9.
        "convergence_l1_giou_csv": ["convergence", "--trials", "30", "--losses", "l1,giou", "--lr", "3.0",
                                    "--max-iters", "100", "--seed", "5", "--format", "csv"],
        # One step size per round, and the center step (CIoU left out, as above).
        "convergence_no_backtracking_csv": ["convergence", "--trials", "30", "--losses", "l1,iou,giou,diou",
                                            "--no-backtracking", "--lr", "3.0", "--max-iters", "60", "--seed", "6",
                                            "--success-iou", "0.5", "--format", "csv"],
        "convergence_center_csv": ["convergence", "--trials", "30", "--losses", "l1,iou,giou,diou",
                                   "--parameterization", "center", "--lr", "3.0", "--max-iters", "60", "--seed", "7",
                                   "--success-iou", "0.5", "--format", "csv"],
        "anchors_feature_sizes_csv": ["anchors", "--feature-sizes", "2x3,1x2", "--strides", "8,16", "--ratios",
                                      "0.5,1", "--format", "csv"],
        "anchors_output_json": COMMANDS["anchors"] + ["--format", "json", "--output", "{out}"],
        "report_output_table": COMMANDS["report"] + ["--output", "{out}"],
        "augment_plan": ["augment-plan", "--images", "5", "--seed", "9", "--image-size", "360x640"],
        "augment_plan_output": ["augment-plan", "--images", "3", "--seed", "2", "--image-size", "100x80",
                                "--output", "{out}"],
    }
)


def run_case(argv: list[str], tmp: pathlib.Path) -> dict[str, bytes]:
    """Run one case; returns the produced bytes keyed by golden-file suffix."""
    paths = {"gt": GOLDEN / "gt.json", "pred": GOLDEN / "pred.json", "metrics": METRICS,
             "out": tmp / "out.txt", "sidecar": tmp / "sidecar.json"}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([tok.format(**paths) for tok in argv])
    assert code == 0
    produced = {"stdout": buf.getvalue().encode("utf-8")}
    for key in ("out", "sidecar"):
        if "{" + key + "}" in argv:
            produced[key] = paths[key].read_bytes()
    return produced


def parser_options() -> dict:
    """Every subcommand's options with their defaults, choices and required flags."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [
            {"flags": a.option_strings or [a.dest], "default": repr(a.default),
             "choices": list(a.choices) if a.choices else None, "required": a.required}
            for a in parser._actions
        ]
        for name, parser in sub.choices.items()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    produced = run_case(CASES[name], tmp_path)
    expected = {p.suffix[1:]: p.read_bytes() for p in GOLDEN.glob(f"{name}.*")}
    assert produced == expected


def test_parser_options_match_golden():
    expected = json.loads((GOLDEN / "parser_options.json").read_text(encoding="utf-8"))
    assert parser_options() == expected


if __name__ == "__main__":
    import tempfile

    for old in GOLDEN.glob("*"):
        if old.name not in ("gt.json", "pred.json"):
            old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            for suffix, data in run_case(argv, pathlib.Path(tmp)).items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)
    (GOLDEN / "parser_options.json").write_text(json.dumps(parser_options(), indent=1) + "\n", encoding="utf-8")
