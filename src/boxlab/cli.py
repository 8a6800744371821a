"""Command-line interface.

Subcommands: ``evaluate``, ``split``, ``convergence``, ``anchors``,
``augment-plan``, ``report``. All configuration arrives via flags (no
environment variables); output goes to stdout unless ``--output`` is given.
Exit status is 0 on success, 1 on validation failures, 2 on I/O or parse
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Sequence

from .augment import AugmentParams, plan_to_lines, sample_plan
from .coco_io import SplitSpec, load_manifest, load_predictions, split_dataset
from .descent import DescentConfig, PairSampler, convergence_study, trial_csv_rows
from .errors import BoxlabError, ParseError, ValidationError
from .evaluation import EvalConfig, evaluate
from .losses import LossKind
from .proposals import AnchorConfig, generate_anchors
from .reports import (
    ModelReportRow,
    class_percent_changes,
    derive_report_stats,
    render_table,
    rows_to_csv,
)

FORMATS = ("table", "csv", "json")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _parse_thresholds(spec: str) -> tuple[float, ...]:
    """Parse '0.5,0.75' or '0.50:0.95:0.05' into a threshold tuple."""
    try:
        if ":" in spec:
            start_s, stop_s, step_s = spec.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if step <= 0:
                raise ValueError("step must be positive")
            values = []
            k = 0
            while True:
                v = round(start + k * step, 10)
                if v > stop + 1e-9:
                    break
                values.append(v)
                k += 1
            return tuple(values)
        return tuple(float(tok) for tok in spec.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad --iou-thresholds {spec!r}: {exc}") from exc


def _parse_list(spec: str, flag: str, convert: Callable[[str], Any]) -> tuple[Any, ...]:
    """Parse a comma list such as '0.5,1,2' with ``convert`` applied to each item."""
    try:
        return tuple(convert(tok) for tok in spec.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad {flag} {spec!r}: {exc}") from exc


def _parse_pair(spec: str, flag: str) -> tuple[int, int]:
    try:
        a, b = spec.lower().split("x")
        return int(a), int(b)
    except ValueError as exc:
        raise ValidationError(f"bad {flag} {spec!r}: expected two integers like 640x360") from exc


def _parse_losses(spec: str) -> list[LossKind]:
    try:
        return [LossKind(tok.strip().lower()) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(
            f"bad --losses {spec!r}: choose from {[k.value for k in LossKind]}"
        ) from exc


def _round4(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.4f}"


# --- evaluate -------------------------------------------------------------


def _eval_tables(report: Any, names: dict[int, str], thresholds: tuple[float, ...]):
    span = f"mAP@[{thresholds[0]:.2f}:{thresholds[-1]:.2f}]" if len(thresholds) > 1 else (
        f"mAP@{thresholds[0]:.2f}"
    )
    class_headers = ["class", "name", span, "mAP@0.50", "avg_recall"]
    class_rows = []
    for class_id, res in report.per_class.items():
        mean_recall = sum(res.recall_per_threshold) / len(res.recall_per_threshold)
        class_rows.append(
            [
                str(class_id),
                names.get(class_id, ""),
                _round4(res.ap_all),
                _round4(res.ap_50),
                _round4(mean_recall),
            ]
        )
    summary_headers = [span, "mAP@0.50", "AR", "F1"]
    summary_row = [
        _round4(report.map_all),
        _round4(report.map_50),
        _round4(report.average_recall),
        _round4(report.f1),
    ]
    return class_headers, class_rows, summary_headers, summary_row


def _eval_json_doc(report: Any, names: dict[int, str], cfg: EvalConfig) -> dict:
    return {
        "config": {
            "iou_thresholds": list(cfg.iou_thresholds),
            "max_detections_per_image": cfg.max_detections_per_image,
            "recall_samples": cfg.recall_samples,
            "include_gt_free_classes": cfg.include_gt_free_classes,
        },
        "per_class": [
            {
                "class_id": class_id,
                "name": names.get(class_id, ""),
                "ap_per_threshold": list(res.ap_per_threshold),
                "recall_per_threshold": list(res.recall_per_threshold),
                "ap": res.ap_all,
                "ap_50": res.ap_50,
                "num_ground_truths": res.num_ground_truths,
            }
            for class_id, res in report.per_class.items()
        ],
        "map_all": report.map_all,
        "map_50": report.map_50,
        "average_recall": report.average_recall,
        "f1": report.f1,
    }


def cmd_evaluate(args: argparse.Namespace) -> None:
    manifest = load_manifest(args.gt)
    detections = load_predictions(args.pred, manifest)
    cfg = EvalConfig(
        iou_thresholds=_parse_thresholds(args.iou_thresholds),
        max_detections_per_image=args.max_dets,
        include_gt_free_classes=args.include_empty_classes,
    )
    report = evaluate(detections, manifest.annotations, cfg)
    names = manifest.category_names()

    if args.json_output:
        with open(args.json_output, "w", encoding="utf-8") as fh:
            json.dump(_eval_json_doc(report, names, cfg), fh, indent=2)

    if args.format == "json":
        _emit(json.dumps(_eval_json_doc(report, names, cfg), indent=2), args.output)
        return
    ch, cr, sh, srow = _eval_tables(report, names, cfg.iou_thresholds)
    if args.format == "csv":
        rows = [r + [""] for r in cr]
        rows.append(["all", "(class mean)", srow[0], srow[1], srow[2], srow[3]])
        _emit(rows_to_csv(ch + ["f1"], rows), args.output)
        return
    _emit(render_table(ch, cr) + "\n\n" + render_table(sh, [srow]), args.output)


# --- split ----------------------------------------------------------------


def cmd_split(args: argparse.Namespace) -> None:
    manifest = load_manifest(args.manifest)
    spec = SplitSpec(
        train_frac=args.train_frac,
        val_frac=args.val_frac,
        test_frac=args.test_frac,
        seed=args.seed,
    )
    split = split_dataset(manifest, spec)
    if args.format == "json":
        doc = {"train": list(split.train), "val": list(split.val), "test": list(split.test)}
        _emit(json.dumps(doc, indent=2), args.output)
    elif args.format == "csv":
        rows = [[str(i), subset] for subset in ("train", "val", "test") for i in getattr(split, subset)]
        _emit(rows_to_csv(["image_id", "subset"], rows), args.output)
    else:
        rows = [[subset, str(len(getattr(split, subset)))] for subset in ("train", "val", "test")]
        _emit(render_table(["subset", "images"], rows), args.output)


# --- convergence ----------------------------------------------------------


def cmd_convergence(args: argparse.Namespace) -> None:
    cfg = DescentConfig(
        loss_kind=LossKind.L1,  # overridden per studied kind
        learning_rate=args.lr,
        max_iters=args.max_iters,
        success_iou=args.success_iou,
        parameterization=args.parameterization,
        backtracking=args.backtracking,
    )
    study = convergence_study(
        trials=args.trials,
        loss_kinds=_parse_losses(args.losses),
        sampler=PairSampler(seed=args.seed),
        cfg=cfg,
    )
    summary_rows = [
        [
            s.loss_kind.value,
            str(s.trials),
            f"{s.convergence_rate:.3f}",
            "inf" if math.isinf(s.median_iterations) else f"{s.median_iterations:.1f}",
        ]
        for s in study.summary.values()
    ]
    if args.format == "csv":
        rows = trial_csv_rows(study)
        _emit(rows_to_csv(rows[0], rows[1:]), args.output)
    elif args.format == "json":
        doc = {
            "summary": {
                s.loss_kind.value: {
                    "trials": s.trials,
                    "convergence_rate": s.convergence_rate,
                    "median_iterations": None
                    if math.isinf(s.median_iterations)
                    else s.median_iterations,
                }
                for s in study.summary.values()
            },
            "trials": [
                {
                    "trial": r.trial,
                    "loss_kind": r.loss_kind.value,
                    "converged": r.converged,
                    "iterations": r.iterations,
                    "final_iou": r.final_iou,
                }
                for r in study.records
            ],
        }
        _emit(json.dumps(doc, indent=2), args.output)
    else:
        _emit(
            render_table(["loss", "trials", "convergence_rate", "median_iterations"], summary_rows),
            args.output,
        )


# --- anchors --------------------------------------------------------------


def cmd_anchors(args: argparse.Namespace) -> None:
    cfg = AnchorConfig(
        scale=args.scale,
        aspect_ratios=_parse_list(args.ratios, "--ratios", float),
        strides=_parse_list(args.strides, "--strides", int),
    )
    if args.feature_sizes:
        feature_sizes = [_parse_pair(tok, "--feature-sizes") for tok in args.feature_sizes.split(",")]
    elif args.image_size:
        width, height = _parse_pair(args.image_size, "--image-size")
        feature_sizes = [(math.ceil(height / s), math.ceil(width / s)) for s in cfg.strides]
    else:
        raise ValidationError("one of --image-size or --feature-sizes is required")
    anchors = generate_anchors(cfg, feature_sizes)

    headers = ["level", "stride", "row", "col", "x_min", "y_min", "x_max", "y_max"]
    if args.format == "json":
        doc = [
            {
                "level": a.level,
                "stride": cfg.strides[a.level],
                "row": a.cell[0],
                "col": a.cell[1],
                "box": list(a.box.as_tuple()),
            }
            for a in anchors
        ]
        _emit(json.dumps(doc, indent=2), args.output)
        return
    rows = [
        [
            str(a.level),
            str(cfg.strides[a.level]),
            str(a.cell[0]),
            str(a.cell[1]),
            *(f"{c:.3f}" for c in a.box.as_tuple()),
        ]
        for a in anchors
    ]
    if args.format == "csv":
        _emit(rows_to_csv(headers, rows), args.output)
    else:
        _emit(render_table(headers, rows), args.output)


# --- augment-plan ---------------------------------------------------------


def cmd_augment_plan(args: argparse.Namespace) -> None:
    width, height = _parse_pair(args.image_size, "--image-size")
    params = AugmentParams(
        image_width=width,
        image_height=height,
        flip_prob=args.flip_prob,
        max_shift_frac=args.max_shift_frac,
        max_scale_delta=args.max_scale_delta,
        max_rotate_deg=args.max_rotate_deg,
        shift_scale_rotate_prob=args.ssr_prob,
    )
    plan = sample_plan(params, args.images, args.seed)
    _emit("\n".join(plan_to_lines(plan)), args.output)


# --- report ---------------------------------------------------------------


def _load_metrics_doc(path: str) -> tuple[list[ModelReportRow], dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(doc, dict) or "models" not in doc:
        raise ParseError(f"{path}: expected an object with a 'models' list")
    rows = []
    for i, rec in enumerate(doc["models"]):
        try:
            rows.append(
                ModelReportRow(
                    model=str(rec["model"]),
                    map_all=float(rec["map_all"]),
                    map_50=float(rec["map_50"]),
                    average_recall=float(rec["average_recall"]),
                    latency_ms=float(rec["latency_ms"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: models[{i}]: {exc}") from exc
    return rows, doc.get("per_class", {}) or {}


def cmd_report(args: argparse.Namespace) -> None:
    rows, per_class = _load_metrics_doc(args.metrics)
    stats = derive_report_stats(rows, args.baseline)
    class_changes = {
        metric: class_percent_changes(table, args.baseline) for metric, table in per_class.items()
    }

    if args.format == "json":
        doc = {
            "baseline": args.baseline,
            "models": [
                {
                    "model": s.model,
                    "fps": s.fps,
                    "f1": s.f1,
                    "map_pct_change": s.map_pct_change,
                    "map_50_pct_change": s.map_50_pct_change,
                    "recall_pct_change": s.recall_pct_change,
                }
                for s in stats
            ],
            "class_pct_changes": class_changes,
        }
        _emit(json.dumps(doc, indent=2), args.output)
        return

    by_name = {row.model: row for row in rows}
    model_headers = ["model", "mAP", "mAP@0.50", "AR", "F1", "latency_ms", "fps", "mAP_change_%"]
    model_rows = [
        [
            s.model,
            _round4(by_name[s.model].map_all),
            _round4(by_name[s.model].map_50),
            _round4(by_name[s.model].average_recall),
            _round4(s.f1),
            f"{by_name[s.model].latency_ms:.1f}",
            f"{s.fps:.1f}",
            f"{s.map_pct_change:+.2f}",
        ]
        for s in stats
    ]
    sections = [render_table(model_headers, model_rows)]
    for metric, changes in class_changes.items():
        change_rows = [
            [class_name, model, f"{pct:+.2f}"]
            for class_name, per_model in sorted(changes.items())
            for model, pct in sorted(per_model.items())
        ]
        sections.append(
            f"percent change vs {args.baseline} ({metric})\n"
            + render_table(["class", "model", "change_%"], change_rows)
        )
    text = "\n\n".join(sections)
    if args.format == "csv":
        _emit(rows_to_csv(model_headers, model_rows), args.output)
    else:
        _emit(text, args.output)


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxlab",
        description="Bounding-box losses, proposal geometry, and detection metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score predictions against COCO-layout ground truth")
    p.add_argument("gt", help="ground-truth JSON (images/categories/annotations)")
    p.add_argument("pred", help="predictions JSON (flat list)")
    p.add_argument("--iou-thresholds", default="0.50:0.95:0.05", help="comma list or start:stop:step")
    p.add_argument("--max-dets", type=int, default=100, help="per-image detection cap")
    p.add_argument(
        "--include-empty-classes",
        action="store_true",
        help="aggregate classes that have detections but no ground truths (as AP 0)",
    )
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--output", default=None)
    p.add_argument("--json-output", default=None, help="also write the full-precision JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("split", help="deterministic train/val/test split of a manifest")
    p.add_argument("manifest")
    p.add_argument("--train-frac", type=float, required=True)
    p.add_argument("--val-frac", type=float, required=True)
    p.add_argument("--test-frac", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=FORMATS, default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("convergence", help="gradient-descent convergence study over the losses")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--losses", default="iou,giou,diou", help="comma list: l1,iou,giou,diou,ciou")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--success-iou", type=float, default=0.9)
    p.add_argument("--parameterization", choices=("corner", "center"), default="corner")
    p.add_argument("--backtracking", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("anchors", help="dump generated pyramid anchors")
    p.add_argument("--image-size", default=None, help="WIDTHxHEIGHT; feature sizes are ceil(dim/stride)")
    p.add_argument("--feature-sizes", default=None, help="explicit HEIGHTxWIDTH per level, comma-separated")
    p.add_argument("--scale", type=int, default=8)
    p.add_argument("--ratios", default="0.5,1.0,2.0")
    p.add_argument("--strides", default="4,8,16,32")
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("augment-plan", help="sample a reproducible geometric augmentation plan")
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", required=True, help="WIDTHxHEIGHT")
    p.add_argument("--flip-prob", type=float, default=0.5)
    p.add_argument("--max-shift-frac", type=float, default=0.0625)
    p.add_argument("--max-scale-delta", type=float, default=0.1)
    p.add_argument("--max-rotate-deg", type=float, default=45.0)
    p.add_argument("--ssr-prob", type=float, default=1.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_augment_plan)

    p = sub.add_parser("report", help="derived comparisons (fps, F1, percent changes) from a metrics file")
    p.add_argument("metrics", help="JSON: {models: [...], per_class: {metric: {class: {model: value}}}}")
    p.add_argument("--baseline", required=True)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoxlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
