"""COCO-style detection metrics: greedy matching, interpolated AP, mAP/AR/F1.

Each class is evaluated with the structure of COCOeval (Lin et al.,
"Microsoft COCO: Common Objects in Context", ECCV 2014), on arrays:

1. set-up, once per class: rank its detections by descending score (ties
   broken by input index) and keep at most ``max_detections_per_image`` per
   image. One join gives every same-image (kept detection, ground truth)
   pair one IoU; the pairs with IoU > 0 are sorted by (detection rank,
   -IoU, ground-truth index);
2. greedy matching over that pair table at each IoU threshold: each
   detection, in rank order, takes its first ground truth with IoU >= the
   threshold still unmatched at it (the highest IoU, equal IoUs going to the
   lower index). One walk serves up to 62 thresholds, each side carrying a
   bitmask of the thresholds it is matched at;
3. the (kept detection, threshold) TP flags in rank order give, in one
   pass over every threshold, the cumulative precision/recall curves and
   the maximum achieved recalls. AP is the mean of interpolated
   precision (max precision at recall >= r) at ``RECALL_SAMPLES`` (101)
   evenly spaced recall points in [0, 1], COCOeval's fixed grid.

``BoxColumns`` inputs (what the COCO loaders return) are used as they are;
any other sequence is converted to columns once. ``match_detections``,
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

import functools
import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import EmptyEvaluationError, InvalidBoxError, ValidationError
from .geometry import Box, _sum_in_order, area, iou, iou_array  # noqa: F401  (iou: bench/tracing.py rebinds this name)

__all__ = [
    "DEFAULT_IOU_THRESHOLDS",
    "RECALL_SAMPLES",
    "Detection",
    "GroundTruthAnnotation",
    "BoxColumns",
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
RECALL_SAMPLES = 101  # recall points 0, 0.01, ..., 1 of the interpolated AP


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
    """One labeled box; must have positive, finite area (past 1e308 its IoU with itself is NaN)."""

    image_id: Hashable
    class_id: Hashable
    box: Box

    def __post_init__(self) -> None:
        if not 0.0 < area(self.box) < math.inf:
            raise InvalidBoxError(
                f"ground-truth box must have positive, finite area, got {self.box.as_tuple()}"
            )


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    max_detections_per_image: int = 100
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
    """Harmonic mean ``2pr/(p+r)``; defined as 0 when both inputs are 0.

    Raises ``ValidationError`` naming both inputs unless each lies in [0, 1].
    """
    if not (0.0 <= precision_like <= 1.0 and 0.0 <= recall_like <= 1.0):  # NaN fails this too
        raise ValidationError(f"F1 needs values in [0, 1], got {precision_like!r} and {recall_like!r}")
    if precision_like == 0.0 and recall_like == 0.0:
        return 0.0
    return 2.0 * precision_like * recall_like / (precision_like + recall_like)


class Columns(Sequence):
    """A sequence stored as columns: a subclass builds item ``i`` in ``_row(i)``. A slice
    gives a tuple of items, and it equals a list or tuple of them (or other columns)."""

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        return self._row(i)

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, (Columns, list, tuple)) else NotImplemented


class BoxColumns(Columns):
    """Detections (or ground truths, when ``scores`` is None) as arrays: ``image``
    and ``cls`` code into the ``image_ids`` and ``class_ids`` tables, ``boxes`` is
    (N, 4) corner-form float64, ``scores`` (N,). Items are ``Detection``
    (``GroundTruthAnnotation``) values.
    """

    def __init__(self, image_ids, class_ids, image, cls, boxes, scores=None) -> None:
        self.image_ids, self.class_ids = tuple(image_ids), tuple(class_ids)
        self.image, self.cls, self.boxes, self.scores = image, cls, boxes, scores

    def __len__(self) -> int:
        return len(self.image)

    def _row(self, i):
        ids = (self.image_ids[self.image[i]], self.class_ids[self.cls[i]], Box(*self.boxes[i].tolist()))
        return GroundTruthAnnotation(*ids) if self.scores is None else Detection(*ids, float(self.scores[i]))


def _coded(dets: Sequence, gts: Sequence):
    """The detections as (image codes, class codes, (N, 4) boxes, scores), the
    ground truths as (image codes, class codes, boxes), and the class id of
    each class code. Ids are coded alike on both sides: ``BoxColumns`` are
    re-coded through their id tables, each distinct table once (the COCO loaders
    share theirs), and other sequences converted once.
    """
    codes: tuple[dict, dict] = ({}, {})  # image id -> code, class id -> code
    recode = functools.cache(  # the codes of id table ``table`` in ``codes[k]``, once per distinct table
        lambda table, k: np.array([codes[k].setdefault(v, len(codes[k])) for v in table], np.intp)
    )
    coded = []
    for items, scored in ((gts, False), (dets, True)):
        if isinstance(items, BoxColumns):
            image, cls = recode(items.image_ids, 0)[items.image], recode(items.class_ids, 1)[items.cls]
            coded.append((image, cls, items.boxes, items.scores))
            continue
        image = np.array([codes[0].setdefault(x.image_id, len(codes[0])) for x in items], np.intp)
        cls = np.array([codes[1].setdefault(x.class_id, len(codes[1])) for x in items], np.intp)
        boxes = np.array([x.box.as_tuple() for x in items], np.float64).reshape(-1, 4)
        coded.append((image, cls, boxes, np.array([x.score for x in items], np.float64) if scored else None))
    return coded[1], coded[0][:3], tuple(codes[1])


_BLOCK = 62  # thresholds per walk, so that ``1 << n`` and every mask fit an int64


def _match(dets, gts, thresholds, cap: int):
    """Greedy matching of (image codes, boxes, scores) detections against
    (image codes, boxes) ground truths at every threshold, one ``iou_array``
    over every same-image pair and one walk of the pairs per block of
    ``_BLOCK`` thresholds.

    Returns:
        (input indices of the kept detections in rank order, their (n_kept, T)
         uint8 TP flags, the ground truths' (n_gt, T) matched flags in input order).
    """
    (d_img, d_boxes, d_scores), (g_img, g_boxes) = dets, gts
    rank = np.argsort(-d_scores, kind="stable")
    by_image = np.argsort(d_img[rank], kind="stable")
    grouped = d_img[rank][by_image]
    position = np.empty(len(rank), dtype=np.intp)
    position[by_image] = np.arange(len(rank)) - np.searchsorted(grouped, grouped)
    kept = rank[position < cap]

    g_order = np.argsort(g_img, kind="stable")
    lo = np.searchsorted(g_img[g_order], d_img[kept], "left")
    counts = np.searchsorted(g_img[g_order], d_img[kept], "right") - lo
    det = np.repeat(np.arange(len(kept)), counts)
    gt = g_order[np.arange(len(det)) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
    overlap = iou_array(np.take(d_boxes, kept[det], axis=0), np.take(g_boxes, gt, axis=0))
    hit = overlap > 0.0
    det, gt, overlap = det[hit], gt[hit], overlap[hit]
    # (rank, -IoU, ground-truth index): the tie-break. The join lists each detection's pairs in
    # ascending ground-truth index (``g_order`` is stable), and ``lexsort`` is stable too.
    table = np.lexsort((-overlap, det))
    det, gt, overlap = det[table], gt[table], overlap[table]

    # A pair matches at the thresholds <= its IoU where neither side is matched
    # yet: bit k of a mask stands for threshold ``first + k`` of the block.
    levels = np.searchsorted(thresholds, overlap, "right")
    tp = np.empty((len(kept), len(thresholds)), np.uint8)
    matched = np.empty((len(g_img), len(thresholds)), np.uint8)
    for first in range(0, len(thresholds), _BLOCK):
        n = min(_BLOCK, len(thresholds) - first)
        done, taken = [0] * len(kept), [0] * len(g_img)
        above = levels > first
        masks = (1 << np.minimum(levels[above] - first, n)) - 1
        for d, g, m in zip(det[above].tolist(), gt[above].tolist(), masks.tolist()):
            free = m & ~(done[d] | taken[g])
            done[d] |= free
            taken[g] |= free
        bits = np.arange(n)
        tp[:, first:first + n] = np.array(done, np.int64).reshape(-1, 1) >> bits & 1
        matched[:, first:first + n] = np.array(taken, np.int64).reshape(-1, 1) >> bits & 1
    return kept, tp, matched


def _class_metrics(dets, gts, thresholds, cfg: EvalConfig):
    """(AP, max achieved recall) per threshold for one class, from one matching.

    AP is 0.0 when there are no detections. Both are 0.0 when the class has no
    ground truths (whether it is skipped from aggregation in that case is the
    aggregator's policy decision).
    """
    n_gt = len(gts[0])
    if n_gt == 0:
        zeros = (0.0,) * len(thresholds)
        return zeros, zeros
    _, tp, _ = _match(dets, gts, thresholds, cfg.max_detections_per_image)
    hits = np.cumsum(tp, axis=0)
    # Interpolated precision: max precision over ranks with recall >= r.
    max_prec_from = np.maximum.accumulate((hits / np.arange(1, len(tp) + 1).reshape(-1, 1))[::-1])[::-1]
    recall, grid = hits / n_gt, np.arange(RECALL_SAMPLES) / (RECALL_SAMPLES - 1)
    aps = []
    for k in range(len(thresholds)):
        at = np.searchsorted(recall[:, k], grid)
        aps.append(_sum_in_order(max_prec_from[at[at < len(tp)], k].tolist()) / RECALL_SAMPLES)  # np.sum's order changes bits
    return tuple(aps), tuple(int(s) / n_gt for s in tp.sum(axis=0, dtype=np.int64).tolist())


def _one_class(dets, gts, t: float, cfg: EvalConfig):
    """``_class_metrics`` at threshold ``t`` of all the records, whatever their class ids."""
    (d_img, _, d_boxes, d_scores), (g_img, _, g_boxes), _ = _coded(dets, gts)
    return _class_metrics((d_img, d_boxes, d_scores), (g_img, g_boxes), (t,), cfg)


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
    (_, _, d_boxes, d_scores), (_, _, g_boxes), _ = _coded(dets, gts)
    one_image = np.zeros(len(d_boxes), np.intp), np.zeros(len(g_boxes), np.intp)  # image ids are not compared
    kept, tp, matched = _match((one_image[0], d_boxes, d_scores), (one_image[1], g_boxes), (t,), len(d_boxes))
    tp_flags = np.zeros(len(d_boxes), dtype=bool)
    tp_flags[kept] = tp[:, 0]
    return tp_flags.tolist(), matched[:, 0].astype(bool).tolist()


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
    return _one_class(dets, gts, t, cfg)[0][0]


def max_achieved_recall(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthAnnotation],
    t: float,
    cfg: EvalConfig = EvalConfig(),
) -> float:
    """Best recall reachable with at most ``max_detections_per_image`` detections."""
    return _one_class(dets, gts, t, cfg)[1][0]


def _class_key(c: Hashable) -> tuple[bool, object]:
    # Deterministic class ordering even for mixed int/str ids.
    return (isinstance(c, str), c)


def evaluate(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthAnnotation],
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Full evaluation: per-class AP/recall at every threshold, then aggregates."""
    (d_img, d_cls, d_boxes, d_scores), (g_img, g_cls, g_boxes), class_ids = _coded(dets, gts)
    classes = set(g_cls.tolist()) | set(d_cls.tolist() if cfg.include_gt_free_classes else ())

    ap50_index = cfg.iou_thresholds.index(0.5) if 0.5 in cfg.iou_thresholds else None
    results = []
    for c in sorted(classes, key=lambda c: _class_key(class_ids[c])):
        dm, gm = d_cls == c, g_cls == c
        aps, recalls = _class_metrics(
            (d_img[dm], d_boxes[dm], d_scores[dm]), (g_img[gm], g_boxes[gm]), cfg.iou_thresholds, cfg
        )
        results.append(
            PerClassResult(
                class_id=class_ids[c],
                ap_per_threshold=aps,
                recall_per_threshold=recalls,
                ap_all=_sum_in_order(aps) / len(aps),
                ap_50=None if ap50_index is None else aps[ap50_index],
                num_ground_truths=int(gm.sum()),
            )
        )
    return aggregate(results)


def aggregate(per_class: Sequence[PerClassResult]) -> EvalReport:
    """Unweighted class means: mAP, mAP@50, AR over (class, threshold), and F1.

    ``map_50`` is None when any class lacks an AP at IoU 0.5.
    """
    if not per_class:
        raise EmptyEvaluationError("no class produced an evaluable result")
    n = len(per_class)
    map_all = _sum_in_order(r.ap_all for r in per_class) / n
    ap_50s = [r.ap_50 for r in per_class]
    map_50 = None if None in ap_50s else _sum_in_order(ap_50s) / n
    recall_values = [rec for r in per_class for rec in r.recall_per_threshold]
    average_recall = _sum_in_order(recall_values) / len(recall_values)
    return EvalReport(
        per_class={r.class_id: r for r in per_class},
        map_all=map_all,
        map_50=map_50,
        average_recall=average_recall,
        f1=f1(map_all, average_recall),
    )
