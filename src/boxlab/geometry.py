"""Axis-aligned box primitives and pairwise geometric quantities.

Boxes are corner-form ``(x_min, y_min, x_max, y_max)`` in continuous pixel
coordinates; width is ``x_max - x_min`` with no "+1" pixel convention.
Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidBoxError, UndefinedOverlapError

__all__ = [
    "Box",
    "area",
    "intersection_area",
    "union_area",
    "iou",
    "enclosing_box",
    "center_distance_sq",
    "enclosing_diag_sq",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle. Zero-area boxes are allowed, negative extents are not."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(c) for c in coords):
            raise InvalidBoxError(f"box coordinates must be finite, got {coords}")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise InvalidBoxError(f"box extents must be non-negative, got {coords}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def center(self) -> tuple[float, float]:
        return (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0

    def translate(self, dx: float, dy: float) -> "Box":
        return Box(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)

    def scale(self, s: float) -> "Box":
        """Scale about the origin by a positive factor."""
        if s <= 0:
            raise InvalidBoxError(f"scale factor must be positive, got {s}")
        return Box(self.x_min * s, self.y_min * s, self.x_max * s, self.y_max * s)

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


def union_area(a: Box, b: Box) -> float:
    return area(a) + area(b) - intersection_area(a, b)


def iou(a: Box, b: Box) -> float:
    """Intersection over union, in [0, 1].

    Raises:
        UndefinedOverlapError: if both boxes have zero area (0/0 usually means
            corrupt data, so it is surfaced rather than silently returned as 0).
    """
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter  # union_area's expression, reusing the intersection
    if union <= 0.0:
        raise UndefinedOverlapError(
            f"IoU undefined: both boxes have zero area ({a.as_tuple()}, {b.as_tuple()})"
        )
    return inter / union


def enclosing_box(a: Box, b: Box) -> Box:
    """Smallest axis-aligned box containing both inputs."""
    return Box(
        min(a.x_min, b.x_min),
        min(a.y_min, b.y_min),
        max(a.x_max, b.x_max),
        max(a.y_max, b.y_max),
    )


def center_distance_sq(a: Box, b: Box) -> float:
    """Squared Euclidean distance between box centroids."""
    ax, ay = a.center()
    bx, by = b.center()
    return (ax - bx) ** 2 + (ay - by) ** 2


def enclosing_diag_sq(a: Box, b: Box) -> float:
    """Squared diagonal of the smallest box covering both inputs."""
    hull = enclosing_box(a, b)
    return hull.width**2 + hull.height**2

