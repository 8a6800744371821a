"""COCO-style detection metrics: greedy matching, interpolated AP, mAP/AR/F1.

Each class is evaluated with the structure of COCOeval (Lin et al.,
"Microsoft COCO: Common Objects in Context", ECCV 2014): set up once, then
match once per threshold.

1. set-up, once per (class, image) slice: visit detections in descending
   score order (ties broken by input index) and cap them at
   ``max_detections_per_image``. For each kept detection, compute its IoU
   with every ground truth of the slice exactly once and keep the
   overlapping ones as its candidate row, sorted by descending IoU (equal
   IoUs: lower ground-truth index first). The class's kept detections are
   also ranked globally by score, once;
2. one matching pass per IoU threshold: each detection, in score order,
   takes the first still-unmatched ground truth in its row, and the walk
   stops at the first IoU below the threshold. This is greedy matching to
   the unmatched ground truth with the highest IoU >= threshold;
3. the TP flags in global rank order give both the cumulative
   precision/recall curve and the maximum achieved recall. AP is the mean
   of interpolated precision (max precision at recall >= r) at
   ``recall_samples`` evenly spaced recall points in [0, 1].

Candidate rows are held for one slice at a time. ``match_detections``,
``average_precision`` and ``max_achieved_recall`` are thin wrappers over the
same core for a single slice or threshold.

Aggregation takes unweighted class means: mAP over per-class APs, average
recall over (class, threshold) maximum achieved recalls, and F1 as the
harmonic mean of the two. mAP@0.50 exists only when 0.5 is one of the
thresholds; otherwise ``ap_50`` and ``map_50`` are None. A detection whose
class never appears in the ground truth is a false positive for its own
class; such ground-truth-free classes carry AP 0 and are skipped from
aggregation unless ``EvalConfig.include_gt_free_classes`` is set.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import EmptyEvaluationError, InvalidBoxError, ValidationError
from .geometry import Box, area, iou

__all__ = [
    "DEFAULT_IOU_THRESHOLDS",
    "Detection",
    "GroundTruthAnnotation",
    "EvalConfig",
    "PerClassResult",
    "EvalReport",
    "match_detections",
    "average_precision",
    "max_achieved_recall",
    "evaluate",
    "aggregate",
    "f1",
]

# 0.50 to 0.95 in 0.05 increments; built from integer hundredths so each
# threshold is the exact float literal (0.6, not 0.6000000000000001).
DEFAULT_IOU_THRESHOLDS: tuple[float, ...] = tuple(i / 100 for i in range(50, 100, 5))


@dataclass(frozen=True)
class Detection:
    """One predicted box with class label and confidence."""

    image_id: Hashable
    class_id: Hashable
    box: Box
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"detection score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class GroundTruthAnnotation:
    """One labeled box; must have positive area."""

    image_id: Hashable
    class_id: Hashable
    box: Box

    def __post_init__(self) -> None:
        if area(self.box) <= 0.0:
            raise InvalidBoxError(
                f"ground-truth box must have positive area, got {self.box.as_tuple()}"
            )


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    max_detections_per_image: int = 100
    recall_samples: int = 101
    include_gt_free_classes: bool = False

    def __post_init__(self) -> None:
        ts = self.iou_thresholds
        if not ts or any(not 0.0 < t < 1.0 for t in ts) or any(
            b <= a for a, b in zip(ts, ts[1:])
        ):
            raise ValidationError(
                f"iou_thresholds must be strictly increasing within (0, 1), got {ts}"
            )
        if self.max_detections_per_image <= 0:
            raise ValidationError("max_detections_per_image must be positive")
        if self.recall_samples < 2:
            raise ValidationError("recall_samples must be at least 2")


@dataclass(frozen=True)
class PerClassResult:
    """AP and best recall per IoU threshold for one class."""

    class_id: Hashable
    ap_per_threshold: tuple[float, ...]
    recall_per_threshold: tuple[float, ...]
    ap_all: float
    ap_50: float | None  # None when 0.5 is not among the IoU thresholds
    num_ground_truths: int


@dataclass(frozen=True)
class EvalReport:
    """Per-class results plus the class-mean aggregates."""

    per_class: dict[Hashable, PerClassResult]
    map_all: float
    map_50: float | None  # None when 0.5 is not among the IoU thresholds
    average_recall: float
    f1: float


def f1(precision_like: float, recall_like: float) -> float:
    """Harmonic mean ``2pr/(p+r)``; defined as 0 when both inputs are 0."""
    if precision_like == 0.0 and recall_like == 0.0:
        return 0.0
    return 2.0 * precision_like * recall_like / (precision_like + recall_like)


def _candidate_row(box: Box, gts: Sequence[GroundTruthAnnotation]) -> list[tuple[float, int]]:
    """The ground truths ``box`` overlaps, as ``(-iou, index)`` pairs, best first.

    Each pair's IoU is computed exactly once. Sorting puts the higher IoU
    first and, on equal IoU, the lower ground-truth index: the matching
    tie-break. Zero-IoU pairs are left out because no threshold matches them.
    """
    row = []
    for j, gt in enumerate(gts):
        overlap = iou(box, gt.box)
        if overlap > 0.0:
            row.append((-overlap, j))
    row.sort()
    return row


def _match_rows(
    rows: Sequence[list[tuple[float, int]]], n_gt: int, t: float
) -> tuple[list[bool], list[bool]]:
    """One greedy pass at threshold ``t`` over candidate rows in score order.

    Each detection takes the first still-unmatched ground truth in its row;
    the walk stops at the first IoU below ``t``.

    Returns:
        (tp flags aligned to ``rows``, matched flags per ground-truth index).
    """
    matched = [False] * n_gt
    flags = []
    for row in rows:
        hit = False
        for neg_overlap, j in row:
            if -neg_overlap < t:
                break
            if not matched[j]:
                matched[j] = hit = True
                break
        flags.append(hit)
    return flags, matched


def match_detections(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthAnnotation],
    t: float,
) -> tuple[list[bool], list[bool]]:
    """Greedy TP/FP matching for one (class, image) slice.

    Detections are visited in descending score order (ties broken by lower
    input index). A detection is a true positive iff some still-unmatched
    ground truth has IoU >= ``t``; among those the highest IoU wins (equal
    IoUs go to the lower ground-truth index), and each ground truth matches
    at most once.

    Returns:
        (tp flags aligned to the detection input order,
         matched flags aligned to the ground-truth input order).
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    flags, matched = _match_rows([_candidate_row(dets[i].box, gts) for i in order], len(gts), t)
    tp_flags = [False] * len(dets)
    for i, flag in zip(order, flags):
        tp_flags[i] = flag
    return tp_flags, matched


def _ranked_flags_per_threshold(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthAnnotation],
    thresholds: Sequence[float],
    max_detections_per_image: int,
) -> list[list[bool]]:
    """TP flags for one class across all images, one list per threshold.

    Each list is in global score-rank order. The per-image cap applies before
    matching, and capped-out detections are dropped from the ranking. Each
    slice's candidate rows serve every threshold and are then dropped; the
    ranking is built once.
    """
    by_image: dict[Hashable, list[int]] = defaultdict(list)
    for i, det in enumerate(dets):
        by_image[det.image_id].append(i)
    gts_by_image: dict[Hashable, list[GroundTruthAnnotation]] = defaultdict(list)
    for gt in gts:
        gts_by_image[gt.image_id].append(gt)

    def rank(i: int) -> tuple[float, int]:
        return (-dets[i].score, i)

    tp = [[False] * len(dets) for _ in thresholds]
    kept: list[int] = []
    for image_id, indices in by_image.items():
        indices.sort(key=rank)
        del indices[max_detections_per_image:]
        image_gts = gts_by_image.get(image_id, [])
        rows = [_candidate_row(dets[i].box, image_gts) for i in indices]
        for tp_at_t, t in zip(tp, thresholds):
            flags, _ = _match_rows(rows, len(image_gts), t)
            for i, flag in zip(indices, flags):
                tp_at_t[i] = flag
        kept.extend(indices)
    kept.sort(key=rank)
    return [[tp_at_t[i] for i in kept] for tp_at_t in tp]


def _interpolated_ap(flags: Sequence[bool], n_gt: int, recall_samples: int) -> float:
    """AP from TP flags in score-rank order; 0.0 when there are no detections."""
    if not flags:
        return 0.0
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    for k, flag in enumerate(flags, start=1):
        tp += int(flag)
        precisions.append(tp / k)
        recalls.append(tp / n_gt)

    # Interpolated precision: max precision over ranks with recall >= r.
    max_prec_from = precisions.copy()
    for k in range(len(max_prec_from) - 2, -1, -1):
        max_prec_from[k] = max(max_prec_from[k], max_prec_from[k + 1])

    total = 0.0
    denom = recall_samples - 1
    for j in range(recall_samples):
        r = j / denom
        k = bisect_left(recalls, r)
        if k < len(recalls):
            total += max_prec_from[k]
    return total / recall_samples


def _class_metrics(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthAnnotation],
    thresholds: Sequence[float],
    cfg: EvalConfig,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(AP, max achieved recall) per threshold for one class, from one set of flags.

    Both are 0.0 when the class has no ground truths (whether it is skipped
    from aggregation in that case is the aggregator's policy decision).
    """
    n_gt = len(gts)
    if n_gt == 0:
        zeros = (0.0,) * len(thresholds)
        return zeros, zeros
    per_threshold = _ranked_flags_per_threshold(dets, gts, thresholds, cfg.max_detections_per_image)
    aps = tuple(_interpolated_ap(flags, n_gt, cfg.recall_samples) for flags in per_threshold)
    recalls = tuple(sum(flags) / n_gt for flags in per_threshold)
    return aps, recalls


def average_precision(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthAnnotation],
    t: float,
    cfg: EvalConfig = EvalConfig(),
) -> float:
    """Interpolated AP for one class across all images at one IoU threshold.

    Returns 0.0 when the class has no ground truths (whether it is skipped
    from aggregation in that case is the aggregator's policy decision).
    """
    return _class_metrics(dets, gts, (t,), cfg)[0][0]


def max_achieved_recall(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthAnnotation],
    t: float,
    cfg: EvalConfig = EvalConfig(),
) -> float:
    """Best recall reachable with at most ``max_detections_per_image`` detections."""
    return _class_metrics(dets, gts, (t,), cfg)[1][0]


def _class_key(c: Hashable) -> tuple[bool, object]:
    # Deterministic class ordering even for mixed int/str ids.
    return (isinstance(c, str), c)


def evaluate(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthAnnotation],
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Full evaluation: per-class AP/recall at every threshold, then aggregates."""
    classes = {gt.class_id for gt in gts}
    if cfg.include_gt_free_classes:
        classes |= {det.class_id for det in dets}

    dets_by_class: dict[Hashable, list[Detection]] = defaultdict(list)
    for det in dets:
        dets_by_class[det.class_id].append(det)
    gts_by_class: dict[Hashable, list[GroundTruthAnnotation]] = defaultdict(list)
    for gt in gts:
        gts_by_class[gt.class_id].append(gt)

    ap50_index = _ap50_index(cfg.iou_thresholds)
    results = []
    for class_id in sorted(classes, key=_class_key):
        class_gts = gts_by_class.get(class_id, [])
        aps, recalls = _class_metrics(
            dets_by_class.get(class_id, []), class_gts, cfg.iou_thresholds, cfg
        )
        results.append(
            PerClassResult(
                class_id=class_id,
                ap_per_threshold=aps,
                recall_per_threshold=recalls,
                ap_all=sum(aps) / len(aps),
                ap_50=None if ap50_index is None else aps[ap50_index],
                num_ground_truths=len(class_gts),
            )
        )
    return aggregate(results)


def _ap50_index(thresholds: tuple[float, ...]) -> int | None:
    for i, t in enumerate(thresholds):
        if math.isclose(t, 0.5, abs_tol=1e-9):
            return i
    return None


def aggregate(per_class: Sequence[PerClassResult]) -> EvalReport:
    """Unweighted class means: mAP, mAP@50, AR over (class, threshold), and F1.

    ``map_50`` is None when any class lacks an AP at IoU 0.5.
    """
    if not per_class:
        raise EmptyEvaluationError("no class produced an evaluable result")
    n = len(per_class)
    map_all = sum(r.ap_all for r in per_class) / n
    ap_50s = [r.ap_50 for r in per_class]
    map_50 = None if None in ap_50s else sum(ap_50s) / n
    recall_values = [rec for r in per_class for rec in r.recall_per_threshold]
    average_recall = sum(recall_values) / len(recall_values)
    return EvalReport(
        per_class={r.class_id: r for r in per_class},
        map_all=map_all,
        map_50=map_50,
        average_recall=average_recall,
        f1=f1(map_all, average_recall),
    )
