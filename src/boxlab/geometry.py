"""Axis-aligned box primitives and IoU.

Boxes are corner-form ``(x_min, y_min, x_max, y_max)`` in continuous pixel
coordinates; width is ``x_max - x_min`` with no "+1" pixel convention.
Everything here is a pure function over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import InvalidBoxError, UndefinedOverlapError

__all__ = [
    "Box",
    "area",
    "intersection_area",
    "iou",
    "iou_array",
]


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned rectangle. Zero-area boxes are allowed, negative extents are not."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        # One chain passes every valid box; NaN fails every comparison.
        if not (-inf < self.x_min <= self.x_max < inf and -inf < self.y_min <= self.y_max < inf):
            coords = (self.x_min, self.y_min, self.x_max, self.y_max)
            if not all(-inf < c < inf for c in coords):
                raise InvalidBoxError(f"box coordinates must be finite, got {coords}")
            raise InvalidBoxError(f"box extents must be non-negative, got {coords}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def center(self) -> tuple[float, float]:
        return (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


def area(b: Box) -> float:
    return b.width * b.height


def intersection_area(a: Box, b: Box) -> float:
    """Overlap area; boxes that merely touch along an edge intersect with area 0."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: Box, b: Box) -> float:
    """Intersection over union, in [0, 1].

    Raises:
        UndefinedOverlapError: if both boxes have zero area (0/0 usually means
            corrupt data, so it is surfaced rather than silently returned as 0).
    """
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter
    if union <= 0.0:
        raise UndefinedOverlapError(
            f"IoU undefined: both boxes have zero area ({a.as_tuple()}, {b.as_tuple()})"
        )
    return inter / union


def iou_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoUs of (..., 4) corner-form float64 boxes, broadcast against each other:
    ``iou_array(a[:, None], b[None])`` is the (N, M) matrix of every pair, and
    equal shapes give one IoU per row.

    Unlike :func:`iou`, a pair whose union is empty (two zero-area boxes) or
    NaN (areas past 1e308) gets 0 instead of raising: NMS, proposal assignment
    and matching treat it as no overlap.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an area past 1e308 is inf, its union may be NaN
        iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
        area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
        union = area_a + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter
        return np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
