"""Proposal-stage algorithms: anchor generation, box-delta coding, NMS, assignment.

Anchors follow the classic pyramid recipe: one scale, several aspect ratios,
one anchor set per feature-map cell, base side = stride * scale, and
area-preserving ratio enumeration (width = base*sqrt(r), height = base/sqrt(r)).
Anchors are not clipped to image bounds; clipping policy belongs to callers.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from math import inf
from operator import attrgetter

import numpy as np

from .errors import InvalidBoxError, ValidationError
from .geometry import Box, iou_array

__all__ = [
    "AnchorConfig",
    "Anchor",
    "AnchorSet",
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


@dataclass(frozen=True, slots=True)
class BoxDelta:
    """Center offsets normalized by anchor size plus log width/height ratios."""

    tx: float
    ty: float
    tw: float
    th: float


@dataclass(frozen=True, slots=True)
class ScoredBox:
    box: Box
    score: float

    def __init__(self, box: Box, score: float) -> None:
        # Sets the slots directly: the frozen dataclass ``__init__`` costs twice as much, once per NMS candidate.
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"score must be in [0, 1], got {score}")
        _set_scored_box(self, box)
        _set_score(self, score)


@dataclass(frozen=True, slots=True)
class ProposalAssignment:
    """Label for one proposal: positive iff its best ground-truth IoU exceeds the threshold."""

    proposal_index: int
    positive: bool
    gt_index: int | None
    iou: float


# Anchors, decoded boxes, scored boxes and assignments are built through the slot descriptors, not __init__.
_new = object.__new__
_set_x_min, _set_y_min, _set_x_max, _set_y_max = (getattr(Box, name).__set__ for name in Box.__slots__)
_set_box, _set_level, _set_cell = (getattr(Anchor, name).__set__ for name in Anchor.__slots__)
_set_scored_box, _set_score = (getattr(ScoredBox, name).__set__ for name in ScoredBox.__slots__)
_set_assignment = [getattr(ProposalAssignment, name).__set__ for name in ProposalAssignment.__slots__]


class AnchorSet(Sequence[Anchor]):
    """Anchors as six flat columns, one item per anchor: ``x_min``, ``y_min``, ``x_max``, ``y_max``,
    ``level`` and ``cell``. Each index builds a new ``Anchor(Box)``, equal at every call, whose floats
    and cell tuple are the columns' objects; a slice is an ``AnchorSet``."""

    __slots__ = ("x_min", "y_min", "x_max", "y_max", "level", "cell")

    def __init__(self, x_min: list, y_min: list, x_max: list, y_max: list, level: list, cell: list) -> None:
        self.x_min, self.y_min, self.x_max, self.y_max, self.level, self.cell = x_min, y_min, x_max, y_max, level, cell

    def __len__(self) -> int:
        return len(self.level)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return AnchorSet(*(getattr(self, name)[i] for name in AnchorSet.__slots__))
        box, anchor = _new(Box), _new(Anchor)
        _set_x_min(box, self.x_min[i])
        _set_y_min(box, self.y_min[i])
        _set_x_max(box, self.x_max[i])
        _set_y_max(box, self.y_max[i])
        _set_box(anchor, box)
        _set_level(anchor, self.level[i])
        _set_cell(anchor, self.cell[i])
        return anchor


def generate_anchors(cfg: AnchorConfig, feature_sizes: Sequence[tuple[int, int]]) -> AnchorSet:
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
    anchors = AnchorSet([], [], [], [], [], [])
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
        # (min, max) extents per ratio, computed once per column and once per row.
        centers = [(c + 0.5) * stride for c in range(width)]
        anchors.x_min += [cx - hw for cx in centers for hw, _ in halves] * height
        anchors.x_max += [cx + hw for cx in centers for hw, _ in halves] * height
        anchors.level += [level] * (height * width * len(halves))
        for row in range(height):
            cy = (row + 0.5) * stride
            anchors.y_min += [cy - hh for _, hh in halves] * width
            anchors.y_max += [cy + hh for _, hh in halves] * width
            cells = list(zip(repeat(row, width), range(width)))  # one tuple per cell, shared by its anchors
            anchors.cell += chain.from_iterable(zip(*[cells] * len(halves)))
    return anchors


def encode_delta(anchor: Box, target: Box) -> BoxDelta:
    """Encode ``target`` relative to ``anchor``: normalized center shift + log size ratio.

    Raises ``InvalidBoxError`` on a non-positive extent, and naming both boxes when a component
    would not be finite (a size ratio past the float range, or one whose log is -inf).
    """
    (acx, acy), aw, ah = anchor.center(), anchor.width, anchor.height
    if aw <= 0.0 or ah <= 0.0:
        raise InvalidBoxError(f"anchor must have positive extents, got {anchor.as_tuple()}")
    (tcx, tcy), tw, th = target.center(), target.width, target.height
    if tw <= 0.0 or th <= 0.0:
        raise InvalidBoxError(f"target must have positive extents, got {target.as_tuple()}")
    tx, ty, rw, rh = (tcx - acx) / aw, (tcy - acy) / ah, tw / aw, th / ah
    if not (-inf < tx < inf and -inf < ty < inf and 0.0 < rw < inf and 0.0 < rh < inf):
        raise InvalidBoxError(f"target {target.as_tuple()} on anchor {anchor.as_tuple()} encodes to a non-finite delta")
    return BoxDelta(tx, ty, math.log(rw), math.log(rh))


def decode_delta(anchor: Box, delta: BoxDelta) -> Box:
    """Invert :func:`encode_delta`.

    A delta that decodes to no valid box (``tw`` or ``th`` above about 709.78, say) raises
    ``InvalidBoxError`` naming the delta, the anchor and the box's own error.
    """
    x0, y0, x1, y1 = anchor.x_min, anchor.y_min, anchor.x_max, anchor.y_max
    aw, ah = x1 - x0, y1 - y0
    if aw <= 0.0 or ah <= 0.0:
        raise InvalidBoxError(f"anchor must have positive extents, got {anchor.as_tuple()}")
    cx = (x0 + x1) / 2.0 + delta.tx * aw
    cy = (y0 + y1) / 2.0 + delta.ty * ah
    try:
        hw = aw * math.exp(delta.tw) / 2
        hh = ah * math.exp(delta.th) / 2
        x0, y0, x1, y1 = cx - hw, cy - hh, cx + hw, cy + hh
        if -inf < x0 <= x1 < inf and -inf < y0 <= y1 < inf:  # Box.__post_init__'s check
            box = _new(Box)
            _set_x_min(box, x0)
            _set_y_min(box, y0)
            _set_x_max(box, x1)
            _set_y_max(box, y1)
            return box
        return Box(x0, y0, x1, y1)  # raises the box's own error
    except (OverflowError, InvalidBoxError) as err:  # math.exp raises OverflowError past the float range
        raise InvalidBoxError(f"{delta} on anchor {anchor.as_tuple()} decodes to no box: {err}") from None


_corners = attrgetter("x_min", "y_min", "x_max", "y_max")


def _boxes_array(boxes: Iterable[Box]) -> np.ndarray:
    return np.fromiter(chain.from_iterable(map(_corners, boxes)), np.float64).reshape(-1, 4)


# Sorted rows per block in nms. A block meets the k boxes kept so far and itself in one
# (64, k + 64) IoU matrix: 0.5 MB of float64 at k = 1,000.
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
    scores = np.fromiter(map(attrgetter("score"), candidates), np.float64, n)
    order = np.lexsort((np.arange(n), -scores))
    boxes = _boxes_array(map(attrgetter("box"), candidates))[order]
    order = order.tolist()

    keep: list[int] = []
    kept = np.empty((0, 4))  # boxes of ``keep``, in visit order
    for start in range(0, n, _NMS_BLOCK):
        block, k = boxes[start : start + _NMS_BLOCK], len(kept)
        over = iou_array(block[:, None], np.concatenate((kept, block))[None]) > iou_threshold
        # Only a box kept earlier can suppress a row, so rows any of them overlaps are dropped first;
        # the rest are settled among themselves on their square of the same matrix, each row of it
        # an int whose bit m is set when that row overlaps free row m.
        free = np.flatnonzero(~over[:, :k].any(axis=1))
        square = np.packbits(over[free[:, None], k + free], axis=1, bitorder="little")
        suppressed, kept_rows = 0, []
        for j, (i, row) in enumerate(zip(free.tolist(), map(int.from_bytes, square, repeat("little")))):
            if suppressed >> j & 1:
                continue
            keep.append(order[start + i])
            if len(keep) >= max_keep:
                return keep
            kept_rows.append(i)
            suppressed |= row
        kept = np.concatenate((kept, block[kept_rows]))
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
    n = len(proposals)
    if gts:
        ious = iou_array(_boxes_array(proposals)[:, None], _boxes_array(gts)[None])
        best_ious = ious.max(axis=1)
        columns = (best_ious > pos_threshold).tolist(), ious.argmax(axis=1).tolist(), best_ious.tolist()
    else:
        columns = [False] * n, [None] * n, [0.0] * n
    records = list(map(_new, repeat(ProposalAssignment, n)))
    for set_field, column in zip(_set_assignment, (range(n), *columns)):
        deque(map(set_field, records, column), 0)  # runs the setter on every record, keeps nothing
    return records
