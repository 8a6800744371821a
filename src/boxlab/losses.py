"""Bounding-box regression losses with values and analytic gradients.

Five losses over a (ground-truth, predicted) box pair, each returning the
scalar value together with the gradient with respect to the predicted box
corners ``(x_min, y_min, x_max, y_max)``:

* L1      — mean absolute corner difference, range [0, inf)
* IoU     — ``1 - IoU``, range [0, 1]; gradient is exactly zero for
            disjoint pairs (the loss is locally constant there)
* GIoU    — adds the enclosing-box gap penalty ``(C - U)/C``, range [0, 2];
            stays informative for disjoint pairs
* DIoU    — adds the normalized squared center distance ``rho^2/c^2``,
            range [0, 2)
* CIoU    — DIoU plus an aspect-ratio consistency term ``alpha*V``, active
            only when IoU >= 0.5 (below that it equals DIoU exactly)

Gradient conventions, all measure-zero configurations:
* L1 uses subgradient 0 at coordinate ties.
* The IoU family uses the one-sided non-overlap expression at the exact
  overlap boundary (touching edges), and treats min/max argument ties as
  resolved toward the ground-truth side.
* CIoU's trade-off weight ``alpha`` is held constant under differentiation
  (no ``dalpha/dpred`` term), the convention of blended-penalty losses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateAspectError, UndefinedOverlapError
from .geometry import Box

__all__ = [
    "GradVec",
    "LossKind",
    "LossResult",
    "CiouInternals",
    "loss_l1",
    "loss_iou",
    "loss_giou",
    "loss_diou",
    "loss_ciou",
    "ciou_internals",
    "loss",
    "finite_diff_gradient",
]

GradVec = tuple[float, float, float, float]

_FOUR_OVER_PI_SQ = 4.0 / math.pi**2


class LossKind(enum.Enum):
    """The five regression losses; values double as CLI spellings."""

    L1 = "l1"
    IOU = "iou"
    GIOU = "giou"
    DIOU = "diou"
    CIOU = "ciou"


@dataclass(frozen=True)
class LossResult:
    """Loss value plus gradient with respect to the predicted box corners."""

    value: float
    gradient: GradVec


@dataclass(frozen=True)
class CiouInternals:
    """Aspect-consistency term ``v`` and trade-off weight ``alpha`` of CIoU."""

    v: float
    alpha: float


def _iou_terms(gt, pred):
    """IoU and union with their gradients w.r.t. the predicted corners.

    Returns ``(iou, union, d_iou, d_union)``. Disjoint and edge-touching
    pairs take the non-overlap branch: intersection 0 with zero gradient.
    """
    gx1, gy1, gx2, gy2 = gt.x_min, gt.y_min, gt.x_max, gt.y_max
    px1, py1, px2, py2 = pred.x_min, pred.y_min, pred.x_max, pred.y_max
    pw = px2 - px1
    ph = py2 - py1

    # d(area_p) = (-ph, -pw, ph, pw)
    area_p = pw * ph
    area_g = (gx2 - gx1) * (gy2 - gy1)

    iw = min(gx2, px2) - max(gx1, px1)
    ih = min(gy2, py2) - max(gy1, py1)
    if iw > 0.0 and ih > 0.0:
        inter = iw * ih
        di1 = ih * (-1.0 if px1 > gx1 else 0.0)
        di2 = iw * (-1.0 if py1 > gy1 else 0.0)
        di3 = ih * (1.0 if px2 < gx2 else 0.0)
        di4 = iw * (1.0 if py2 < gy2 else 0.0)
    else:
        inter = 0.0
        di1 = di2 = di3 = di4 = 0.0

    union = area_p + area_g - inter
    if union <= 0.0:
        raise UndefinedOverlapError(
            f"IoU undefined: both boxes have zero area ({gt.as_tuple()}, {pred.as_tuple()})"
        )
    du1 = -ph - di1
    du2 = -pw - di2
    du3 = ph - di3
    du4 = pw - di4
    iou = inter / union
    usq = union * union
    d_iou = (
        (di1 * union - inter * du1) / usq,
        (di2 * union - inter * du2) / usq,
        (di3 * union - inter * du3) / usq,
        (di4 * union - inter * du4) / usq,
    )
    return iou, union, d_iou, (du1, du2, du3, du4)


def _hull_terms(gt, pred):
    """Enclosing-box width/height and ``(dew/dx1, deh/dy1, dew/dx2, deh/dy2)``;
    the cross derivatives (ew by y, eh by x) are zero."""
    gx1, gy1, gx2, gy2 = gt.x_min, gt.y_min, gt.x_max, gt.y_max
    px1, py1, px2, py2 = pred.x_min, pred.y_min, pred.x_max, pred.y_max
    ew = max(gx2, px2) - min(gx1, px1)
    eh = max(gy2, py2) - min(gy1, py1)
    d_hull: GradVec = (
        -1.0 if px1 < gx1 else 0.0,
        -1.0 if py1 < gy1 else 0.0,
        1.0 if px2 > gx2 else 0.0,
        1.0 if py2 > gy2 else 0.0,
    )
    return ew, eh, d_hull


def loss_l1(gt: Box, pred: Box) -> LossResult:
    """Mean absolute difference over the four corner coordinates."""
    g = gt.as_tuple()
    p = pred.as_tuple()
    value = sum(abs(gi - pi) for gi, pi in zip(g, p)) / 4.0
    gradient = tuple((1.0 if pi > gi else -1.0 if pi < gi else 0.0) / 4.0 for gi, pi in zip(g, p))
    return LossResult(value, gradient)


def loss_iou(gt: Box, pred: Box) -> LossResult:
    """``1 - IoU``; locally constant (zero gradient) when the boxes are disjoint."""
    iou, _, (d1, d2, d3, d4), _ = _iou_terms(gt, pred)
    return LossResult(1.0 - iou, (-d1, -d2, -d3, -d4))


def loss_giou(gt: Box, pred: Box) -> LossResult:
    """``1 - IoU + (C - U)/C`` where C is the enclosing-box area."""
    iou, union, (di1, di2, di3, di4), (du1, du2, du3, du4) = _iou_terms(gt, pred)
    ew, eh, (h1, h2, h3, h4) = _hull_terms(gt, pred)
    c_area = ew * eh
    dc1, dc2, dc3, dc4 = eh * h1, ew * h2, eh * h3, ew * h4
    csq = c_area * c_area
    # d[(C - U)/C] = d[1 - U/C] = -(dU*C - U*dC)/C^2
    value = 1.0 - iou + (c_area - union) / c_area
    gradient = (
        -di1 - (du1 * c_area - union * dc1) / csq,
        -di2 - (du2 * c_area - union * dc2) / csq,
        -di3 - (du3 * c_area - union * dc3) / csq,
        -di4 - (du4 * c_area - union * dc4) / csq,
    )
    return LossResult(value, gradient)


def _diou_terms(gt, pred):
    """DIoU value and gradient, plus the IoU (reused by CIoU)."""
    iou, _, (di1, di2, di3, di4), _ = _iou_terms(gt, pred)
    ew, eh, (h1, h2, h3, h4) = _hull_terms(gt, pred)

    gcx = (gt.x_min + gt.x_max) / 2.0
    gcy = (gt.y_min + gt.y_max) / 2.0
    pcx = (pred.x_min + pred.x_max) / 2.0
    pcy = (pred.y_min + pred.y_max) / 2.0
    # Each corner moves its center coordinate by 1/2: d(rho2)/dx = (pcx - gcx).
    drx = pcx - gcx
    dry = pcy - gcy
    rho2 = drx ** 2 + dry ** 2

    c2 = ew * ew + eh * eh
    dc1, dc2, dc3, dc4 = 2.0 * ew * h1, 2.0 * eh * h2, 2.0 * ew * h3, 2.0 * eh * h4

    c2sq = c2 * c2
    value = 1.0 - iou + rho2 / c2
    gradient = (
        -di1 + (drx * c2 - rho2 * dc1) / c2sq,
        -di2 + (dry * c2 - rho2 * dc2) / c2sq,
        -di3 + (drx * c2 - rho2 * dc3) / c2sq,
        -di4 + (dry * c2 - rho2 * dc4) / c2sq,
    )
    return value, gradient, iou


def loss_diou(gt: Box, pred: Box) -> LossResult:
    """``1 - IoU + rho^2/c^2``; equals the IoU loss when the centroids coincide."""
    value, gradient, _ = _diou_terms(gt, pred)
    return LossResult(value, gradient)


def _aspect_terms(gt, pred):
    """Aspect-consistency term ``V = (4/pi^2)(atan(wg/hg) - atan(wp/hp))^2`` and its gradient."""
    if gt.width <= 0.0 or gt.height <= 0.0 or pred.width <= 0.0 or pred.height <= 0.0:
        raise DegenerateAspectError(
            "aspect-ratio term requires positive width and height for both boxes, "
            f"got gt={gt.as_tuple()} pred={pred.as_tuple()}"
        )
    pw = pred.width
    ph = pred.height
    t = math.atan(gt.width / gt.height) - math.atan(pw / ph)
    v = _FOUR_OVER_PI_SQ * t * t
    # d atan(pw/ph) = (ph*dpw - pw*dph)/(pw^2 + ph^2)
    common = 2.0 * _FOUR_OVER_PI_SQ * t / (pw * pw + ph * ph)
    d_v: GradVec = (common * ph, -common * pw, -common * ph, common * pw)
    return v, d_v


def _ciou_alpha(iou: float, v: float) -> float:
    """CIoU's trade-off weight ``V/((1 - IoU) + V)``, or 0 when IoU < 0.5."""
    if iou >= 0.5:
        denom = (1.0 - iou) + v
        if denom > 0.0:
            return v / denom
    return 0.0


def ciou_internals(gt: Box, pred: Box) -> CiouInternals:
    """The ``(v, alpha)`` pair of the CIoU loss; ``alpha`` is 0 whenever IoU < 0.5."""
    _, _, iou = _diou_terms(gt, pred)
    v, _ = _aspect_terms(gt, pred)
    return CiouInternals(v=v, alpha=_ciou_alpha(iou, v))


def loss_ciou(gt: Box, pred: Box) -> LossResult:
    """DIoU plus ``alpha*V``; reverts to DIoU exactly when IoU < 0.5.

    ``alpha = V/((1 - IoU) + V)`` for IoU >= 0.5 and 0 otherwise, and is held
    constant under differentiation, so the gradient is ``grad_DIoU + alpha*dV``.
    Raises DegenerateAspectError if either box has zero width or height.
    """
    diou_value, (g1, g2, g3, g4), iou = _diou_terms(gt, pred)
    v, (dv1, dv2, dv3, dv4) = _aspect_terms(gt, pred)
    alpha = _ciou_alpha(iou, v)
    value = diou_value + alpha * v
    return LossResult(value, (g1 + alpha * dv1, g2 + alpha * dv2, g3 + alpha * dv3, g4 + alpha * dv4))


_DISPATCH = {
    LossKind.L1: loss_l1,
    LossKind.IOU: loss_iou,
    LossKind.GIOU: loss_giou,
    LossKind.DIOU: loss_diou,
    LossKind.CIOU: loss_ciou,
}


def loss(kind: LossKind, gt: Box, pred: Box) -> LossResult:
    """Dispatch to the loss named by ``kind``."""
    return _DISPATCH[kind](gt, pred)


def finite_diff_gradient(kind: LossKind, gt: Box, pred: Box, h: float = 1e-5) -> GradVec:
    """Central-difference gradient, a numerical check on the analytic one.

    The predicted box must sit at least ``2h`` away from any non-differentiable
    configuration (coordinate ties for L1, the overlap boundary and min/max
    argument ties for the IoU family, the IoU = 0.5 gate for CIoU).

    For CIoU this differences the function the reported gradient actually
    differentiates — DIoU plus ``alpha*V`` with ``alpha`` frozen at the center
    point — since ``alpha`` is held constant by convention; differencing the
    raw value would pick up the ``V*dalpha`` term that convention drops.
    """
    if kind is LossKind.CIOU:
        frozen_alpha = ciou_internals(gt, pred).alpha

        def f(q: Box) -> float:
            return loss_diou(gt, q).value + frozen_alpha * _aspect_terms(gt, q)[0]

    else:
        fn = _DISPATCH[kind]

        def f(q: Box) -> float:
            return fn(gt, q).value

    base = pred.as_tuple()
    grad = []
    for i in range(4):
        hi = list(base)
        lo = list(base)
        hi[i] += h
        lo[i] -= h
        grad.append((f(Box(*hi)) - f(Box(*lo))) / (2.0 * h))
    return tuple(grad)
