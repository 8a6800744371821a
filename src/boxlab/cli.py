"""Command-line interface.

Subcommands: ``evaluate``, ``split``, ``convergence``, ``anchors``,
``augment-plan``, ``report``. All configuration arrives via flags (no
environment variables); output goes to stdout unless ``--output`` is given.
Exit status is 0 on success, 1 on validation failures, 2 on I/O or parse
failures.

Each command computes its result and returns it as an ``Output`` (plain text
for ``augment-plan``); ``main`` renders it in the ``--format`` asked for and
writes it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Sequence

from .augment import AugmentParams, plan_to_lines, sample_plan
from .coco_io import SplitSpec, _field, _number, _read_json, _string, load_manifest, load_predictions, split_dataset
from .descent import DescentConfig, convergence_study, trial_csv_rows
from .errors import BoxlabError, ParseError, ValidationError
from .evaluation import RECALL_SAMPLES, EvalConfig, evaluate
from .geometry import _sum_in_order
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

# One table of the text format: (caption or None, headers, rows of string cells).
Section = tuple[str | None, list[str], list[list[str]]]


@dataclass(frozen=True)
class Output:
    """A command's result. Each field builds one format and is called only if that format is printed."""

    doc: Callable[[], Any]
    table: Callable[[], list[Section]]
    csv: Callable[[], tuple[list[str], list[list[str]]]] | None = None  # None: the first table section


def _render(out: Output, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(out.doc(), indent=2)
    if fmt == "csv":
        return rows_to_csv(*(out.csv() if out.csv else out.table()[0][1:]))
    return "\n\n".join(
        (f"{caption}\n" if caption else "") + render_table(headers, rows)
        for caption, headers, rows in out.table()
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# Most thresholds one --iou-thresholds range may hold; COCO uses 10.
_MAX_THRESHOLDS = 1_000


def _parse_thresholds(spec: str) -> tuple[float, ...]:
    """Parse '0.5,0.75' or '0.50:0.95:0.05' into a threshold tuple."""
    try:
        if ":" in spec:
            start_s, stop_s, step_s = spec.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("start, stop and step must be finite")
            if step <= 0:
                raise ValueError("step must be positive")
            values = []
            for k in range(_MAX_THRESHOLDS + 1):
                v = round(start + k * step, 10)
                if v > stop + 1e-9:
                    if not values:
                        raise ValueError("the range is empty")
                    return tuple(values)
                values.append(v)
            raise ValueError(f"the range holds more than {_MAX_THRESHOLDS:,} thresholds")
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
        a, b = (int(tok) for tok in spec.lower().split("x"))
    except ValueError as exc:
        raise ValidationError(f"bad {flag} {spec!r}: expected two integers like 640x360") from exc
    if a <= 0 or b <= 0:
        raise ValidationError(f"bad {flag} {spec!r}: sizes must be positive")
    return a, b


def _parse_losses(spec: str) -> list[LossKind]:
    try:
        return [LossKind(tok.strip().lower()) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(
            f"bad --losses {spec!r}: choose from {[k.value for k in LossKind]}"
        ) from exc


def _config(cls: type, args: argparse.Namespace, **parsed: Any) -> Any:
    """``cls`` built from the flags named after its fields; ``parsed`` holds the fields read from spec strings."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if f.name not in parsed}, **parsed)


def _round4(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.4f}"


def _signed2(x: float | None) -> str:
    return "n/a" if x is None else f"{x:+.2f}"


# --- evaluate -------------------------------------------------------------


def cmd_evaluate(args: argparse.Namespace) -> Output:
    cfg = _config(EvalConfig, args, iou_thresholds=_parse_thresholds(args.iou_thresholds))
    manifest = load_manifest(args.gt)
    detections = load_predictions(args.pred, manifest)
    report = evaluate(detections, manifest.annotations, cfg)
    names = manifest.category_names()

    def doc() -> dict:
        return {
            "config": {
                "iou_thresholds": list(cfg.iou_thresholds),
                "max_detections_per_image": cfg.max_detections_per_image,
                "recall_samples": RECALL_SAMPLES,
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

    def table() -> list[Section]:
        t = cfg.iou_thresholds
        span = f"mAP@[{t[0]:.2f}:{t[-1]:.2f}]" if len(t) > 1 else f"mAP@{t[0]:.2f}"
        class_rows = [
            [
                str(class_id),
                names.get(class_id, ""),
                _round4(res.ap_all),
                _round4(res.ap_50),
                _round4(_sum_in_order(res.recall_per_threshold) / len(res.recall_per_threshold)),
            ]
            for class_id, res in report.per_class.items()
        ]
        summary_row = [_round4(x) for x in (report.map_all, report.map_50, report.average_recall, report.f1)]
        return [
            (None, ["class", "name", span, "mAP@0.50", "avg_recall"], class_rows),
            (None, [span, "mAP@0.50", "AR", "F1"], [summary_row]),
        ]

    def csv() -> tuple[list[str], list[list[str]]]:
        """The per-class rows plus an ``all`` row holding the summary, under one header."""
        (_, headers, rows), (_, _, [summary]) = table()
        return headers + ["f1"], [row + [""] for row in rows] + [["all", "(class mean)", *summary]]

    if args.json_output:
        with open(args.json_output, "w", encoding="utf-8") as fh:
            json.dump(doc(), fh, indent=2)
    return Output(doc, table, csv)


# --- split ----------------------------------------------------------------


def cmd_split(args: argparse.Namespace) -> Output:
    manifest = load_manifest(args.manifest)
    split = split_dataset(manifest, _config(SplitSpec, args))
    subsets = {"train": split.train, "val": split.val, "test": split.test}
    return Output(
        doc=lambda: {name: list(ids) for name, ids in subsets.items()},
        table=lambda: [
            (None, ["subset", "images"], [[name, str(len(ids))] for name, ids in subsets.items()])
        ],
        csv=lambda: (["image_id", "subset"], [[str(i), name] for name, ids in subsets.items() for i in ids]),
    )


# --- convergence ----------------------------------------------------------


def cmd_convergence(args: argparse.Namespace) -> Output:
    cfg = _config(DescentConfig, args)
    study = convergence_study(trials=args.trials, loss_kinds=_parse_losses(args.losses), seed=args.seed, cfg=cfg)

    def doc() -> dict:
        return {
            "summary": {
                s.loss_kind.value: {
                    "trials": s.trials,
                    "convergence_rate": s.convergence_rate,
                    "median_iterations": None if math.isinf(s.median_iterations) else s.median_iterations,
                }
                for s in study.summary.values()
            },
            "trials": [{**asdict(r), "loss_kind": r.loss_kind.value} for r in study.records],
        }

    def table() -> list[Section]:
        rows = [
            [
                s.loss_kind.value,
                str(s.trials),
                f"{s.convergence_rate:.3f}",
                "inf" if math.isinf(s.median_iterations) else f"{s.median_iterations:.1f}",
            ]
            for s in study.summary.values()
        ]
        return [(None, ["loss", "trials", "convergence_rate", "median_iterations"], rows)]

    def csv() -> tuple[list[str], list[list[str]]]:
        headers, *rows = trial_csv_rows(study)
        return headers, rows

    return Output(doc, table, csv)


# --- anchors --------------------------------------------------------------


# Most anchors one ``anchors`` run tiles, checked before any tiling. A 3840x2160 image
# at the default pyramid tiles 2,065,680.
_MAX_ANCHORS = 4_000_000


def cmd_anchors(args: argparse.Namespace) -> Output:
    if args.image_size is not None and args.feature_sizes is not None:
        raise ValidationError("give one of --image-size or --feature-sizes, not both")
    cfg = _config(
        AnchorConfig, args,
        aspect_ratios=_parse_list(args.ratios, "--ratios", float),
        strides=_parse_list(args.strides, "--strides", int),
    )
    if args.feature_sizes is not None:
        flag, spec = "--feature-sizes", args.feature_sizes
        feature_sizes = [_parse_pair(tok, flag) for tok in spec.split(",")]
    elif args.image_size is not None:
        flag, spec = "--image-size", args.image_size
        width, height = _parse_pair(spec, flag)
        feature_sizes = [(-(-height // s), -(-width // s)) for s in cfg.strides]  # exact ceil, any size
    else:
        raise ValidationError("one of --image-size or --feature-sizes is required")
    if sum(h * w for h, w in feature_sizes) * len(cfg.aspect_ratios) > _MAX_ANCHORS:
        raise ValidationError(f"bad {flag} {spec!r}: tiles more than the limit of {_MAX_ANCHORS:,} anchors")
    anchors = generate_anchors(cfg, feature_sizes)

    def doc() -> list[dict]:
        return [
            {
                "level": a.level,
                "stride": cfg.strides[a.level],
                "row": a.cell[0],
                "col": a.cell[1],
                "box": list(a.box.as_tuple()),
            }
            for a in anchors
        ]

    def table() -> list[Section]:
        rows = [
            [str(a.level), str(cfg.strides[a.level]), str(a.cell[0]), str(a.cell[1]),
             *(f"{c:.3f}" for c in a.box.as_tuple())]
            for a in anchors
        ]
        return [(None, ["level", "stride", "row", "col", "x_min", "y_min", "x_max", "y_max"], rows)]

    return Output(doc, table)


# --- augment-plan ---------------------------------------------------------


def cmd_augment_plan(args: argparse.Namespace) -> str:
    width, height = _parse_pair(args.image_size, "--image-size")
    plan = sample_plan(_config(AugmentParams, args, image_width=width, image_height=height), args.images, args.seed)
    return "\n".join(plan_to_lines(plan))


# --- report ---------------------------------------------------------------


def _object(value: Any, context: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{context}: expected an object, got {type(value).__name__}")
    return value


def _load_metrics_doc(path: str) -> tuple[list[ModelReportRow], dict]:
    """Read a metrics file under the COCO reader's rules; every value used must be a finite number."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("models"), list):
        raise ParseError(f"{path}: expected an object with a 'models' list")
    rows = []
    for i, rec in enumerate(doc["models"]):
        ctx = f"models[{i}]"
        values = (_number(rec, key, ctx) for key in ("map_all", "map_50", "average_recall", "latency_ms"))
        try:
            rows.append(ModelReportRow(_string(_field(rec, "model", ctx), f"{ctx}.model"), *values))
        except ValidationError as exc:  # the row's own check names only the field
            raise ValidationError(f"{ctx}.{exc}") from None
    per_class: dict[str, dict] = {}
    section = doc.get("per_class")  # only an absent or null section is empty
    for metric, table in _object({} if section is None else section, "per_class").items():
        per_class[metric] = {}
        for name, per_model in _object(table, f"per_class.{metric}").items():
            ctx = f"per_class.{metric}.{name}"
            per_class[metric][name] = {m: _number(per_model, m, ctx) for m in _object(per_model, ctx)}
    return rows, per_class


def cmd_report(args: argparse.Namespace) -> Output:
    rows, per_class = _load_metrics_doc(args.metrics)
    stats = derive_report_stats(rows, args.baseline)
    class_changes = {}
    for metric, table in per_class.items():
        try:
            class_changes[metric] = class_percent_changes(table, args.baseline)
        except ValidationError as exc:
            raise type(exc)(f"per_class.{metric}: {exc}") from None

    def doc() -> dict:
        return {
            "baseline": args.baseline,
            "models": [asdict(s) for s in stats],
            "class_pct_changes": class_changes,
        }

    def table() -> list[Section]:
        model_rows = [
            [
                s.model,
                _round4(row.map_all),
                _round4(row.map_50),
                _round4(row.average_recall),
                _round4(s.f1),
                f"{row.latency_ms:.1f}",
                f"{s.fps:.1f}",
                _signed2(s.map_pct_change),
            ]
            for row, s in zip(rows, stats)
        ]
        model_headers = ["model", "mAP", "mAP@0.50", "AR", "F1", "latency_ms", "fps", "mAP_change_%"]
        sections: list[Section] = [(None, model_headers, model_rows)]
        for metric, changes in class_changes.items():
            change_rows = [
                [class_name, model, _signed2(pct)]
                for class_name, per_model in sorted(changes.items())
                for model, pct in sorted(per_model.items())
            ]
            caption = f"percent change vs {args.baseline} ({metric})"
            sections.append((caption, ["class", "model", "change_%"], change_rows))
        return sections

    return Output(doc, table)


# --- parser ---------------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser, default_format: str = "table") -> None:
    p.add_argument("--format", choices=FORMATS, default=default_format)
    p.add_argument("--output", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # One parser for every call: a parser is a reference cycle that only the
    # cyclic garbage collector frees, so one per call piles up in a process
    # that calls main() many times.
    parser = argparse.ArgumentParser(
        prog="boxlab",
        description="Bounding-box losses, proposal geometry, and detection metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score predictions against COCO-layout ground truth")
    p.add_argument("gt", help="ground-truth JSON (images/categories/annotations)")
    p.add_argument("pred", help="predictions JSON (flat list)")
    p.add_argument("--iou-thresholds", default="0.50:0.95:0.05", help="comma list or start:stop:step")
    p.add_argument("--max-dets", dest="max_detections_per_image", metavar="MAX_DETS", type=int,
                   default=EvalConfig.max_detections_per_image, help="detection cap per (class, image)")
    p.add_argument("--include-empty-classes", dest="include_gt_free_classes", action="store_true",
                   help="aggregate classes that have detections but no ground truths (as AP 0)")
    _add_output_flags(p)
    p.add_argument("--json-output", default=None, help="also write the full-precision JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("split", help="deterministic train/val/test split of a manifest")
    p.add_argument("manifest")
    p.add_argument("--train-frac", type=float, required=True)
    p.add_argument("--val-frac", type=float, required=True)
    p.add_argument("--test-frac", type=float, required=True)
    p.add_argument("--seed", type=int, default=SplitSpec.seed)
    _add_output_flags(p, default_format="json")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("convergence", help="gradient-descent convergence study over the losses")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--losses", default="iou,giou,diou", help="comma list: l1,iou,giou,diou,ciou")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=DescentConfig.learning_rate)
    p.add_argument("--max-iters", type=int, default=DescentConfig.max_iters)
    p.add_argument("--success-iou", type=float, default=DescentConfig.success_iou)
    p.add_argument("--parameterization", choices=("corner", "center"), default=DescentConfig.parameterization)
    p.add_argument("--backtracking", action=argparse.BooleanOptionalAction, default=True)  # the library's is off
    _add_output_flags(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("anchors", help="dump generated pyramid anchors")
    p.add_argument("--image-size", default=None, help="WIDTHxHEIGHT; feature sizes are ceil(dim/stride)")
    p.add_argument("--feature-sizes", default=None, help="explicit HEIGHTxWIDTH per level, comma-separated")
    p.add_argument("--scale", type=int, default=AnchorConfig.scale)
    p.add_argument("--ratios", default=",".join(map(str, AnchorConfig.aspect_ratios)))
    p.add_argument("--strides", default=",".join(map(str, AnchorConfig.strides)))
    _add_output_flags(p)
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("augment-plan", help="sample a reproducible geometric augmentation plan")
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", required=True, help="WIDTHxHEIGHT")
    p.add_argument("--flip-prob", type=float, default=AugmentParams.flip_prob)
    p.add_argument("--max-shift-frac", type=float, default=AugmentParams.max_shift_frac)
    p.add_argument("--max-scale-delta", type=float, default=AugmentParams.max_scale_delta)
    p.add_argument("--max-rotate-deg", type=float, default=AugmentParams.max_rotate_deg)
    p.add_argument("--ssr-prob", dest="shift_scale_rotate_prob", metavar="SSR_PROB", type=float,
                   default=AugmentParams.shift_scale_rotate_prob)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_augment_plan)

    p = sub.add_parser("report", help="derived comparisons (fps, F1, percent changes) from a metrics file")
    p.add_argument("metrics", help="JSON: {models: [...], per_class: {metric: {class: {model: value}}}}")
    p.add_argument("--baseline", required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
        _emit(out if isinstance(out, str) else _render(out, args.format), args.output)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoxlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
