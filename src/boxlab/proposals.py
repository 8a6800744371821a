"""Proposal-stage algorithms: anchor generation, box-delta coding, NMS, assignment.

Anchors follow the classic pyramid recipe: one scale, several aspect ratios,
one anchor set per feature-map cell, base side = stride * scale, and
area-preserving ratio enumeration (width = base*sqrt(r), height = base/sqrt(r)).
Anchors are not clipped to image bounds; clipping policy belongs to callers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from math import inf
from typing import Sequence

import numpy as np

from .errors import InvalidBoxError, ValidationError
from .geometry import Box, iou_array

__all__ = [
    "AnchorConfig",
    "Anchor",
    "BoxDelta",
    "ScoredBox",
    "ProposalAssignment",
    "generate_anchors",
    "encode_delta",
    "decode_delta",
    "nms",
    "assign_proposals",
]


@dataclass(frozen=True)
class AnchorConfig:
    """Pyramid anchor specification: one scale, three ratios, four strides by default."""

    scale: int = 8
    aspect_ratios: tuple[float, ...] = (0.5, 1.0, 2.0)
    strides: tuple[int, ...] = (4, 8, 16, 32)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValidationError(f"anchor scale must be positive, got {self.scale}")
        if not self.aspect_ratios or not all(0 < r < math.inf for r in self.aspect_ratios):
            raise ValidationError(f"aspect ratios must be positive and finite, got {self.aspect_ratios}")
        if (
            not self.strides
            or any(s <= 0 for s in self.strides)
            or any(b <= a for a, b in zip(self.strides, self.strides[1:]))
        ):
            raise ValidationError(
                f"strides must be strictly increasing positive integers, got {self.strides}"
            )
        for stride in self.strides:
            try:
                halves = self._half_extents(stride)
            except OverflowError:
                raise ValidationError(
                    f"scale * stride must fit a float, got scale {self.scale} and stride {stride}"
                ) from None
            for r, (hw, hh) in zip(self.aspect_ratios, halves):
                if not (hw < inf and hh < inf):  # NaN fails too
                    raise ValidationError(
                        f"aspect_ratios: ratio {r} at stride {stride} and scale {self.scale} "
                        f"gives a non-finite anchor half-extent {(hw, hh)}"
                    )

    def _half_extents(self, stride: int) -> list[tuple[float, float]]:
        """(half width, half height) per aspect ratio of the anchors at ``stride``."""
        base = float(stride * self.scale)
        return [(base * math.sqrt(r) / 2, base / math.sqrt(r) / 2) for r in self.aspect_ratios]


@dataclass(frozen=True, slots=True)
class Anchor:
    """A generated anchor: its box, pyramid level, and (row, col) feature cell."""

    box: Box
    level: int
    cell: tuple[int, int]


@dataclass(frozen=True)
class BoxDelta:
    """Center offsets normalized by anchor size plus log width/height ratios."""

    tx: float
    ty: float
    tw: float
    th: float


@dataclass(frozen=True)
class ScoredBox:
    box: Box
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class ProposalAssignment:
    """Label for one proposal: positive iff its best ground-truth IoU exceeds the threshold."""

    proposal_index: int
    positive: bool
    gt_index: int | None
    iou: float


def generate_anchors(
    cfg: AnchorConfig, feature_sizes: Sequence[tuple[int, int]]
) -> list[Anchor]:
    """Tile anchors over each pyramid level.

    Args:
        cfg: anchor specification; ``feature_sizes`` must supply one
            (height, width) pair per stride.
        feature_sizes: positive feature-map sizes, finest level first.

    Returns:
        Anchors ordered by (level, row, col, ratio); exactly
        ``sum(H*W*len(ratios))`` of them. Each anchor at cell (row, col) on a
        level with stride s is centered at ((col+0.5)*s, (row+0.5)*s) with
        area (s*scale)^2 regardless of ratio.
    """
    if len(feature_sizes) != len(cfg.strides):
        raise ValidationError(
            f"expected {len(cfg.strides)} feature sizes (one per stride), "
            f"got {len(feature_sizes)}"
        )
    anchors: list[Anchor] = []
    for level, (stride, (height, width)) in enumerate(zip(cfg.strides, feature_sizes)):
        if height <= 0 or width <= 0:
            raise ValidationError(f"feature size of level {level} must be positive, got {height}x{width}")
        halves = cfg._half_extents(stride)
        # The last column's and last row's far extents are the largest; when they are finite,
        # every extent of the level is finite and each anchor's min <= max.
        far_x = (width - 0.5) * stride + max(hw for hw, _ in halves)
        far_y = (height - 0.5) * stride + max(hh for _, hh in halves)
        if not (far_x < inf and far_y < inf):
            raise ValidationError(
                f"stride {stride} with feature size {height}x{width} (level {level}) puts anchor extents "
                f"past the float range: the far corner is {(far_x, far_y)}"
            )
        n = width * len(halves)
        # (min, max) extents per ratio, computed once per column and once per row.
        centers = [(c + 0.5) * stride for c in range(width)]
        x0s = [cx - hw for cx in centers for hw, _ in halves]
        x1s = [cx + hw for cx in centers for hw, _ in halves]
        for row in range(height):
            cy = (row + 0.5) * stride
            y0s = [cy - hh for _, hh in halves]
            y1s = [cy + hh for _, hh in halves]
            columns = (x0s, y0s * width, x1s, y1s * width)
            cells = [cell for col in range(width) for cell in repeat((row, col), len(halves))]
            anchors += _build(Anchor, (_build(Box, columns, n), repeat(level, n), cells), n)
    return anchors


def _build(cls, columns, n: int) -> list:
    """``n`` instances of the frozen slotted dataclass ``cls``, slot j of instance i set to
    ``columns[j][i]`` through the slot descriptor: neither ``__init__`` nor ``__post_init__`` runs."""
    objs = list(map(object.__new__, repeat(cls, n)))
    for name, column in zip(cls.__slots__, columns):
        deque(map(getattr(cls, name).__set__, objs, column), 0)
    return objs


def encode_delta(anchor: Box, target: Box) -> BoxDelta:
    """Encode ``target`` relative to ``anchor``: normalized center shift + log size ratio."""
    (acx, acy), aw, ah = anchor.center(), anchor.width, anchor.height
    if aw <= 0.0 or ah <= 0.0:
        raise InvalidBoxError(f"anchor must have positive extents, got {anchor.as_tuple()}")
    (tcx, tcy), tw, th = target.center(), target.width, target.height
    if tw <= 0.0 or th <= 0.0:
        raise InvalidBoxError(f"target must have positive extents, got {target.as_tuple()}")
    return BoxDelta(
        tx=(tcx - acx) / aw,
        ty=(tcy - acy) / ah,
        tw=math.log(tw / aw),
        th=math.log(th / ah),
    )


def decode_delta(anchor: Box, delta: BoxDelta) -> Box:
    """Invert :func:`encode_delta`."""
    x0, y0, x1, y1 = anchor.x_min, anchor.y_min, anchor.x_max, anchor.y_max
    aw, ah = x1 - x0, y1 - y0
    if aw <= 0.0 or ah <= 0.0:
        raise InvalidBoxError(f"anchor must have positive extents, got {anchor.as_tuple()}")
    cx = (x0 + x1) / 2.0 + delta.tx * aw
    cy = (y0 + y1) / 2.0 + delta.ty * ah
    w = aw * math.exp(delta.tw)
    h = ah * math.exp(delta.th)
    return Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _boxes_array(boxes: Sequence[Box]) -> np.ndarray:
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


# Sorted rows per block in nms. A block meets the k boxes kept so far in one (64, k)
# IoU matrix and its own survivors in one (64, 64) matrix: 0.5 MB of float64 at k = 1,000.
_NMS_BLOCK = 64


def nms(
    candidates: Sequence[ScoredBox],
    iou_threshold: float = 0.7,
    max_keep: int = 1000,
) -> list[int]:
    """Greedy non-maximum suppression.

    Candidates are visited in descending score order (ties broken by lower
    input index); each visited box is kept unless its IoU with an already-kept
    box exceeds ``iou_threshold`` (strictly). At most ``max_keep`` indices are
    returned, in the visit order. A pair of zero-area boxes counts as overlap 0.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValidationError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    if max_keep <= 0:
        raise ValidationError(f"max_keep must be positive, got {max_keep}")
    n = len(candidates)
    scores = np.array([c.score for c in candidates], dtype=np.float64)
    order = np.lexsort((np.arange(n), -scores))
    boxes = _boxes_array([c.box for c in candidates])[order]

    keep: list[int] = []
    kept = np.empty((0, 4))  # boxes of ``keep``, in visit order
    for start in range(0, n, _NMS_BLOCK):
        block = boxes[start : start + _NMS_BLOCK]
        # Only a box kept earlier can suppress a row, so rows any of them overlaps are dropped first.
        suppressed = (iou_array(block[:, None], kept[None]) > iou_threshold).any(axis=1)
        rows = start + np.flatnonzero(~suppressed)
        survivors = boxes[rows]
        overlaps = iou_array(survivors[:, None], survivors[None]) > iou_threshold
        alive = np.ones(len(rows), dtype=bool)
        for j, i in enumerate(rows.tolist()):
            if not alive[j]:
                continue
            keep.append(int(order[i]))
            if len(keep) >= max_keep:
                return keep
            alive[j + 1 :] &= ~overlaps[j, j + 1 :]
        kept = np.concatenate((kept, survivors[alive]))
    return keep


def assign_proposals(
    proposals: Sequence[Box],
    gts: Sequence[Box],
    pos_threshold: float = 0.5,
) -> list[ProposalAssignment]:
    """Label each proposal against the ground-truth set.

    A proposal is positive iff its maximum IoU over ground truths exceeds
    ``pos_threshold`` (strictly). The argmax ground-truth index is recorded for
    every proposal that has one (ties go to the lower index); with no ground
    truths every proposal is negative with ``gt_index=None`` and IoU 0.
    """
    if not 0.0 < pos_threshold < 1.0:
        raise ValidationError(f"pos_threshold must be in (0, 1), got {pos_threshold}")
    if not gts:
        return [
            ProposalAssignment(i, positive=False, gt_index=None, iou=0.0)
            for i in range(len(proposals))
        ]
    ious = iou_array(_boxes_array(proposals)[:, None], _boxes_array(gts)[None])
    best = ious.argmax(axis=1).tolist()
    best_ious = ious.max(axis=1).tolist()
    return [
        ProposalAssignment(i, positive=v > pos_threshold, gt_index=g, iou=v)
        for i, (g, v) in enumerate(zip(best, best_ious))
    ]
