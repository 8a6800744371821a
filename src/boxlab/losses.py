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
    gx1, gy1, gx2, gy2 = gt.as_tuple()
    px1, py1, px2, py2 = pred.as_tuple()
    pw = px2 - px1
    ph = py2 - py1

    d_area_p = (-ph, -pw, ph, pw)
    area_p = pw * ph
    area_g = (gx2 - gx1) * (gy2 - gy1)

    iw = min(gx2, px2) - max(gx1, px1)
    ih = min(gy2, py2) - max(gy1, py1)
    if iw > 0.0 and ih > 0.0:
        inter = iw * ih
        d_inter = (
            ih * (-1.0 if px1 > gx1 else 0.0),
            iw * (-1.0 if py1 > gy1 else 0.0),
            ih * (1.0 if px2 < gx2 else 0.0),
            iw * (1.0 if py2 < gy2 else 0.0),
        )
    else:
        inter = 0.0
        d_inter = (0.0, 0.0, 0.0, 0.0)

    union = area_p + area_g - inter
    if union <= 0.0:
        raise UndefinedOverlapError(
            f"IoU undefined: both boxes have zero area ({gt.as_tuple()}, {pred.as_tuple()})"
        )
    d_union = tuple(dp - di for dp, di in zip(d_area_p, d_inter))
    iou = inter / union
    usq = union * union
    d_iou = tuple((di * union - inter * du) / usq for di, du in zip(d_inter, d_union))
    return iou, union, d_iou, d_union


def _hull_terms(gt, pred):
    """Enclosing-box width/height and their gradients w.r.t. the predicted corners."""
    gx1, gy1, gx2, gy2 = gt.as_tuple()
    px1, py1, px2, py2 = pred.as_tuple()
    ew = max(gx2, px2) - min(gx1, px1)
    eh = max(gy2, py2) - min(gy1, py1)
    d_ew: GradVec = (
        -1.0 if px1 < gx1 else 0.0,
        0.0,
        1.0 if px2 > gx2 else 0.0,
        0.0,
    )
    d_eh: GradVec = (
        0.0,
        -1.0 if py1 < gy1 else 0.0,
        0.0,
        1.0 if py2 > gy2 else 0.0,
    )
    return ew, eh, d_ew, d_eh


def loss_l1(gt: Box, pred: Box) -> LossResult:
    """Mean absolute difference over the four corner coordinates."""
    g = gt.as_tuple()
    p = pred.as_tuple()
    value = sum(abs(gi - pi) for gi, pi in zip(g, p)) / 4.0
    gradient = tuple((1.0 if pi > gi else -1.0 if pi < gi else 0.0) / 4.0 for gi, pi in zip(g, p))
    return LossResult(value, gradient)


def loss_iou(gt: Box, pred: Box) -> LossResult:
    """``1 - IoU``; locally constant (zero gradient) when the boxes are disjoint."""
    iou, _, d_iou, _ = _iou_terms(gt, pred)
    return LossResult(1.0 - iou, tuple(-d for d in d_iou))


def loss_giou(gt: Box, pred: Box) -> LossResult:
    """``1 - IoU + (C - U)/C`` where C is the enclosing-box area."""
    iou, union, d_iou, d_union = _iou_terms(gt, pred)
    ew, eh, d_ew, d_eh = _hull_terms(gt, pred)
    c_area = ew * eh
    d_c = (eh * d_ew[0], ew * d_eh[1], eh * d_ew[2], ew * d_eh[3])
    csq = c_area * c_area
    # d[(C - U)/C] = d[1 - U/C] = -(dU*C - U*dC)/C^2
    value = 1.0 - iou + (c_area - union) / c_area
    gradient = tuple(
        -di - (du * c_area - union * dc) / csq for di, du, dc in zip(d_iou, d_union, d_c)
    )
    return LossResult(value, gradient)


def _diou_terms(gt, pred):
    """DIoU value and gradient, plus the IoU (reused by CIoU)."""
    iou, _, d_iou, _ = _iou_terms(gt, pred)
    ew, eh, d_ew, d_eh = _hull_terms(gt, pred)

    gcx, gcy = gt.center()
    pcx, pcy = pred.center()
    rho2 = (pcx - gcx) ** 2 + (pcy - gcy) ** 2
    # Each corner moves its center coordinate by 1/2: d(rho2)/dx = (pcx - gcx).
    d_rho2 = (pcx - gcx, pcy - gcy, pcx - gcx, pcy - gcy)

    c2 = ew * ew + eh * eh
    d_c2 = (2.0 * ew * d_ew[0], 2.0 * eh * d_eh[1], 2.0 * ew * d_ew[2], 2.0 * eh * d_eh[3])

    c2sq = c2 * c2
    value = 1.0 - iou + rho2 / c2
    gradient = tuple(
        -di + (dr * c2 - rho2 * dc) / c2sq for di, dr, dc in zip(d_iou, d_rho2, d_c2)
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
    diou_value, diou_grad, iou = _diou_terms(gt, pred)
    v, d_v = _aspect_terms(gt, pred)
    alpha = _ciou_alpha(iou, v)
    value = diou_value + alpha * v
    gradient = tuple(dg + alpha * dv for dg, dv in zip(diou_grad, d_v))
    return LossResult(value, gradient)


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
