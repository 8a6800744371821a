"""Geometric augmentation as box-coordinate transforms plus plan sampling.

Only the transforms that move boxes live here: horizontal flip and the
combined shift/scale/rotate. Rotation maps a box to the axis-aligned hull of
its rotated corners, so boxes inflate under rotation. The pixel-level
settings an augmentation pipeline would also carry (brightness/contrast,
RGB/HSV shifts, channel shuffle, blur) never move a box and are deliberately
not represented beyond this note.

A sampled plan is a pure function of (params, image count, seed): one
decision record per image, serializable to a line-oriented text format for
reproducibility audits.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, fields
from typing import Sequence

from .errors import ValidationError
from .geometry import Box

__all__ = [
    "AugmentParams",
    "ImageAugment",
    "AugmentPlan",
    "flip_box_h",
    "shift_scale_rotate_box",
    "apply_image_augment",
    "sample_plan",
    "plan_to_lines",
]

MIN_KEPT_BOX_AREA = 1.0  # square pixels; clipped boxes below this are dropped


@dataclass(frozen=True)
class AugmentParams:
    """Geometric sampling bounds; shift is a fraction of the image dimension."""

    image_width: float
    image_height: float
    flip_prob: float = 0.5
    max_shift_frac: float = 0.0625
    max_scale_delta: float = 0.1
    max_rotate_deg: float = 45.0
    shift_scale_rotate_prob: float = 1.0

    def __post_init__(self) -> None:
        # NaN passes every range check below, an infinite bound samples NaN, and an int past the
        # float range fails at its first float operation.
        for name in _PARAM_FIELDS:
            if not -sys.float_info.max <= (value := getattr(self, name)) <= sys.float_info.max:
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValidationError("image dimensions must be positive")
        for name in ("flip_prob", "shift_scale_rotate_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {p}")
        if self.max_shift_frac < 0:
            raise ValidationError(f"max_shift_frac must be non-negative, got {self.max_shift_frac}")
        # sample_plan draws scales from [1 - delta, 1 + delta]: at 1 or more some are 0 or below.
        if not 0.0 <= self.max_scale_delta < 1.0:
            raise ValidationError(f"max_scale_delta must be in [0, 1), got {self.max_scale_delta}")
        if not 0.0 <= self.max_rotate_deg < 180.0:
            raise ValidationError(f"max_rotate_deg must be in [0, 180), got {self.max_rotate_deg}")
        # sample_plan draws shifts from [-frac*size, frac*size] with random.uniform, which adds the
        # interval's width to its low end: the width must be finite.
        size = max(self.image_width, self.image_height)
        if not 2.0 * self.max_shift_frac * size < math.inf:
            raise ValidationError(
                f"max_shift_frac {self.max_shift_frac} at image size {size} gives a shift range past the float range"
            )


@dataclass(frozen=True)
class ImageAugment:
    """One image's sampled decisions; magnitudes are stored even when unused."""

    flip: bool
    apply_ssr: bool
    dx: float
    dy: float
    scale: float
    angle_deg: float


@dataclass(frozen=True)
class AugmentPlan:
    seed: int
    params: AugmentParams
    decisions: tuple[ImageAugment, ...]


def flip_box_h(b: Box, image_width: float) -> Box:
    """Reflect a box across the vertical image axis; area and y-extent unchanged."""
    return Box(image_width - b.x_max, b.y_min, image_width - b.x_min, b.y_max)


def shift_scale_rotate_box(
    b: Box,
    dx: float,
    dy: float,
    s: float,
    angle_deg: float,
    image_width: float,
    image_height: float,
) -> Box | None:
    """Transform a box's corners about the image center and take their hull.

    Corners are scaled by ``s`` and rotated by ``angle_deg`` about the image
    center (counter-clockwise in mathematical axes), then translated by
    (dx, dy). The result is the axis-aligned hull of the four transformed
    corners, intersected with the image; it is dropped (returns None) if the
    clipped area falls below one square pixel.
    """
    if abs(angle_deg) > 180.0:
        raise ValidationError(f"|angle_deg| must be <= 180, got {angle_deg}")
    cx = image_width / 2.0
    cy = image_height / 2.0
    theta = math.radians(angle_deg)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)

    xs = []
    ys = []
    for x, y in (
        (b.x_min, b.y_min),
        (b.x_max, b.y_min),
        (b.x_max, b.y_max),
        (b.x_min, b.y_max),
    ):
        rx = (x - cx) * s
        ry = (y - cy) * s
        xs.append(cx + dx + rx * cos_t - ry * sin_t)
        ys.append(cy + dy + rx * sin_t + ry * cos_t)

    hull = Box(min(xs), min(ys), max(xs), max(ys))
    x_min = min(max(hull.x_min, 0.0), image_width)
    y_min = min(max(hull.y_min, 0.0), image_height)
    x_max = min(max(hull.x_max, 0.0), image_width)
    y_max = min(max(hull.y_max, 0.0), image_height)
    clipped = Box(x_min, y_min, x_max, y_max)
    if clipped.width * clipped.height < MIN_KEPT_BOX_AREA:
        return None
    return clipped


def apply_image_augment(
    decision: ImageAugment,
    params: AugmentParams,
    boxes: Sequence[Box],
) -> tuple[list[Box], list[int]]:
    """Apply one image's decisions (flip first, then shift/scale/rotate) to its boxes.

    Shift/scale/rotate always clips to the image. Returns the surviving boxes
    in input order plus the indices of boxes dropped by clipping.
    """
    kept: list[Box] = []
    dropped: list[int] = []
    for i, box in enumerate(boxes):
        out: Box | None = box
        if decision.flip:
            out = flip_box_h(out, params.image_width)
        if decision.apply_ssr:
            out = shift_scale_rotate_box(
                out,
                decision.dx,
                decision.dy,
                decision.scale,
                decision.angle_deg,
                params.image_width,
                params.image_height,
            )
        if out is None:
            dropped.append(i)
        else:
            kept.append(out)
    return kept, dropped


def sample_plan(params: AugmentParams, n_images: int, seed: int) -> AugmentPlan:
    """Sample one decision record per image; identical seeds give identical plans."""
    if n_images < 0:
        raise ValidationError(f"n_images must be non-negative, got {n_images}")
    rng = random.Random(seed)
    max_dx = params.max_shift_frac * params.image_width
    max_dy = params.max_shift_frac * params.image_height
    decisions = []
    for _ in range(n_images):
        decisions.append(
            ImageAugment(
                flip=rng.random() < params.flip_prob,
                apply_ssr=rng.random() < params.shift_scale_rotate_prob,
                dx=rng.uniform(-max_dx, max_dx),
                dy=rng.uniform(-max_dy, max_dy),
                scale=rng.uniform(1.0 - params.max_scale_delta, 1.0 + params.max_scale_delta),
                angle_deg=rng.uniform(-params.max_rotate_deg, params.max_rotate_deg),
            )
        )
    return AugmentPlan(seed=seed, params=params, decisions=tuple(decisions))


_PARAM_FIELDS = tuple(f.name for f in fields(AugmentParams))


def plan_to_lines(plan: AugmentPlan) -> list[str]:
    """Serialize: one header line, then one CSV line per image (full precision)."""
    header = "# seed=%d %s" % (
        plan.seed,
        " ".join(f"{name}={getattr(plan.params, name)!r}" for name in _PARAM_FIELDS),
    )
    lines = [header, "image,flip,apply_ssr,dx,dy,scale,angle_deg"]
    for i, d in enumerate(plan.decisions):
        lines.append(
            f"{i},{int(d.flip)},{int(d.apply_ssr)},{d.dx!r},{d.dy!r},{d.scale!r},{d.angle_deg!r}"
        )
    return lines

