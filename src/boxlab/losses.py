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

import numpy as np

from .errors import DegenerateAspectError, UndefinedOverlapError, ValidationError
from .geometry import Box, _overlap, _sum_in_order

__all__ = [
    "GradVec",
    "LossKind",
    "LossResult",
    "loss",
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


# The members as plain globals: on Python 3.11 each ``LossKind.X`` lookup costs about 0.1 µs.
_L1, _IOU, _GIOU, _DIOU = LossKind.L1, LossKind.IOU, LossKind.GIOU, LossKind.DIOU


@dataclass(frozen=True)
class LossResult:
    """Loss value plus gradient with respect to the predicted box corners."""

    value: float
    gradient: GradVec


def _underflow(what: str, gt: Box, pred: Box) -> UndefinedOverlapError:
    """The error for a squared denominator that underflows to 0 on tiny positive boxes."""
    return UndefinedOverlapError(f"{what} underflows to 0 ({gt.as_tuple()}, {pred.as_tuple()})")


def loss(kind: LossKind, gt: Box, pred: Box) -> LossResult:
    """The loss named by ``kind`` and its gradient, for ``pred`` against ``gt``.

    The IoU family walks the lane kernel's chain and returns once ``kind``'s
    terms are in: ``1 - IoU``, then ``+ (C - U)/C`` for GIoU, or ``+ rho^2/c^2``
    for DIoU and CIoU, then ``+ alpha*V`` for CIoU. A ``kind`` that is not a
    LossKind raises ValidationError, and CIoU raises DegenerateAspectError if
    either box has zero width or height.
    """
    if kind is _L1:  # mean absolute difference over the four corner coordinates
        g = gt.as_tuple()
        p = pred.as_tuple()
        value = _sum_in_order(abs(gi - pi) for gi, pi in zip(g, p)) / 4.0
        gradient = tuple((1.0 if pi > gi else -1.0 if pi < gi else 0.0) / 4.0 for gi, pi in zip(g, p))
        return LossResult(value, gradient)
    if not isinstance(kind, LossKind):
        raise ValidationError(f"unknown loss kind {kind!r}: expected a LossKind")

    # 1 - IoU, locally constant (zero gradient) when the boxes are disjoint. Disjoint
    # and edge-touching pairs take the non-overlap branch: intersection 0, di = 0.
    gx1, gy1, gx2, gy2 = gt.x_min, gt.y_min, gt.x_max, gt.y_max
    px1, py1, px2, py2 = pred.x_min, pred.y_min, pred.x_max, pred.y_max
    pw = px2 - px1
    ph = py2 - py1
    iw, ih, union = _overlap(gt, pred)
    inter = iw * ih
    if iw > 0.0:  # the di stay +0.0 when the extents were zeroed: -1.0 * 0.0 would be -0.0
        di1 = ih * (-1.0 if px1 > gx1 else 0.0)
        di2 = iw * (-1.0 if py1 > gy1 else 0.0)
        di3 = ih * (1.0 if px2 < gx2 else 0.0)
        di4 = iw * (1.0 if py2 < gy2 else 0.0)
    else:
        di1 = di2 = di3 = di4 = 0.0
    # d(area_p) = (-ph, -pw, ph, pw)
    du1 = -ph - di1
    du2 = -pw - di2
    du3 = ph - di3
    du4 = pw - di4
    iou = inter / union
    usq = union * union
    if usq == 0.0:
        raise _underflow("IoU undefined: the squared union", gt, pred)
    # dq = d(IoU) = (dI*U - I*dU)/U^2
    dq1 = (di1 * union - inter * du1) / usq
    dq2 = (di2 * union - inter * du2) / usq
    dq3 = (di3 * union - inter * du3) / usq
    dq4 = (di4 * union - inter * du4) / usq
    if kind is _IOU:
        return LossResult(1.0 - iou, (-dq1, -dq2, -dq3, -dq4))

    # The enclosing box's width and height, and (dew/dx1, deh/dy1, dew/dx2, deh/dy2);
    # the cross derivatives (ew by y, eh by x) are zero.
    ew = max(gx2, px2) - min(gx1, px1)
    eh = max(gy2, py2) - min(gy1, py1)
    h1 = -1.0 if px1 < gx1 else 0.0
    h2 = -1.0 if py1 < gy1 else 0.0
    h3 = 1.0 if px2 > gx2 else 0.0
    h4 = 1.0 if py2 > gy2 else 0.0
    if kind is _GIOU:  # + (C - U)/C, where C is the enclosing-box area
        c_area = ew * eh
        dc1, dc2, dc3, dc4 = eh * h1, ew * h2, eh * h3, ew * h4
        csq = c_area * c_area
        if csq == 0.0:
            raise _underflow("GIoU undefined: the squared enclosing-box area", gt, pred)
        # d[(C - U)/C] = d[1 - U/C] = -(dU*C - U*dC)/C^2
        value = 1.0 - iou + (c_area - union) / c_area
        gradient = (
            -dq1 - (du1 * c_area - union * dc1) / csq,
            -dq2 - (du2 * c_area - union * dc2) / csq,
            -dq3 - (du3 * c_area - union * dc3) / csq,
            -dq4 - (du4 * c_area - union * dc4) / csq,
        )
        return LossResult(value, gradient)

    # DIoU and CIoU: + rho^2/c^2, the squared center distance over the squared
    # enclosing-box diagonal; equal to the IoU loss when the centroids coincide.
    # Each corner moves its center coordinate by 1/2: d(rho2)/dx = (pcx - gcx).
    drx = (px1 + px2) / 2.0 - (gx1 + gx2) / 2.0
    dry = (py1 + py2) / 2.0 - (gy1 + gy2) / 2.0
    try:
        rho2 = drx ** 2 + dry ** 2
    except OverflowError:  # finite inputs only: inf ** 2 is inf without an error
        raise ValidationError(
            f"DIoU undefined: the squared center distance overflows ({gt.as_tuple()}, {pred.as_tuple()})"
        ) from None
    c2 = ew * ew + eh * eh
    dc1, dc2, dc3, dc4 = 2.0 * ew * h1, 2.0 * eh * h2, 2.0 * ew * h3, 2.0 * eh * h4
    c2sq = c2 * c2  # nonzero wherever usq is: c2 >= 2*ew*eh >= 2*union
    value = 1.0 - iou + rho2 / c2
    g1 = -dq1 + (drx * c2 - rho2 * dc1) / c2sq
    g2 = -dq2 + (dry * c2 - rho2 * dc2) / c2sq
    g3 = -dq3 + (drx * c2 - rho2 * dc3) / c2sq
    g4 = -dq4 + (dry * c2 - rho2 * dc4) / c2sq
    if kind is _DIOU:
        return LossResult(value, (g1, g2, g3, g4))

    # CIoU: + alpha*V, with the aspect-consistency term V = (4/pi^2)(atan(wg/hg) - atan(wp/hp))^2.
    # alpha = V/((1 - IoU) + V) at IoU >= 0.5 and 0 below, held constant under differentiation.
    if gt.width <= 0.0 or gt.height <= 0.0 or pw <= 0.0 or ph <= 0.0:
        raise DegenerateAspectError(
            "aspect-ratio term requires positive width and height for both boxes, "
            f"got gt={gt.as_tuple()} pred={pred.as_tuple()}"
        )
    # d atan(pw/ph) = (ph*dpw - pw*dph)/(pw^2 + ph^2)
    diag_sq = pw * pw + ph * ph
    if diag_sq == 0.0:
        raise _underflow("CIoU undefined: the predicted box's squared diagonal", gt, pred)
    alpha = 0.0
    if iou >= 0.5:  # V (and its two atan calls) counts only at or above the gate
        t = math.atan(gt.width / gt.height) - math.atan(pw / ph)
        v = _FOUR_OVER_PI_SQ * t * t
        denom = (1.0 - iou) + v
        if denom > 0.0:
            alpha = v / denom
    if alpha == 0.0:  # DIoU exactly: 0 times an overflowed dV (a tiny predicted diagonal) is NaN
        return LossResult(value, (g1, g2, g3, g4))
    common = 2.0 * _FOUR_OVER_PI_SQ * t / diag_sq
    dv1, dv2, dv3, dv4 = common * ph, -common * pw, -common * ph, common * pw
    return LossResult(value + alpha * v, (g1 + alpha * dv1, g2 + alpha * dv2, g3 + alpha * dv3, g4 + alpha * dv4))


# --- lanes ----------------------------------------------------------------
# The losses of many (gt, pred) pairs at once, for descent's lockstep study.
# Each expression is the scalar one in the same order, so every value is the
# scalar's bit for bit; a gradient component may differ only in the sign of a
# zero. Python's ``d ** 2`` is ``np.float_power(d, 2.0)`` (numpy's ``** 2`` is
# ``d*d``, which rounds differently from libm ``pow``), and CIoU's ``atan``
# stays ``math.atan``, called only where the aspect term counts (IoU >= 0.5).
#
# A lane's code is its kind's index in ``_LANE_KINDS``. In this order the lanes
# that need a term are a prefix of code-sorted lanes: the IoU terms the first
# four kinds, the enclosing box the first three, the center distance the first
# two and the aspect term CIoU alone; L1 is the suffix.
_LANE_KINDS = (LossKind.CIOU, LossKind.DIOU, LossKind.GIOU, LossKind.IOU, LossKind.L1)
_D_EXTENT = np.array([[-1.0], [-1.0], [1.0], [1.0]])  # d(width or height)/d(each corner)
_D_V_SIGN = np.array([[1.0], [-1.0], [-1.0], [1.0]])
_HWHW = np.array([1, 0, 1, 0])  # (w, h).take(_HWHW, 0) is (h, w, h, w), one per corner
_WHWH = np.array([0, 1, 0, 1])


def _lane_values(codes: np.ndarray, gt: np.ndarray, pred: np.ndarray):
    """The value pass of the lane kernel: ``(value (N,), raises (N,), terms)``, where lane
    ``i`` is kind ``_LANE_KINDS[codes[i]]`` of ``gt[:, i]`` against ``pred[:, i]`` ((4, N)
    float64 corner rows). ``codes`` must be sorted: each term is then computed once, on
    the prefix of lanes that needs it. ``raises`` is True exactly where the scalar loss
    raises, and elsewhere value is the scalar one. ``terms`` holds the run ends and the
    terms ``_lane_gradient`` reads; each term's length is its run's end (None if empty).
    """
    n = len(codes)
    c, d, g, i = ends = np.searchsorted(codes, [1, 2, 3, 4]).tolist()  # the ends of the CIoU ... IoU runs
    value = np.empty(n)
    raises = np.zeros(n, bool)
    iwh = inter = union = usq = pwh = ewh = c_area = csq = dr = rho2 = c2 = t = diag_sq = alpha = None
    # A block with no lanes is skipped: numpy calls on empty slices still cost.
    with np.errstate(all="ignore"):  # the raising lanes' values are never read
        if i:  # 1 - IoU; disjoint and edge-touching pairs have extents (0, 0)
            iwh = np.minimum(gt[2:, :i], pred[2:, :i]) - np.maximum(gt[:2, :i], pred[:2, :i])
            iwh = np.where((iwh[0] > 0.0) & (iwh[1] > 0.0), iwh, 0.0)
            inter = iwh[0] * iwh[1]
            pwh = pred[2:, :i] - pred[:2, :i]
            union = pwh[0] * pwh[1] + (gt[2, :i] - gt[0, :i]) * (gt[3, :i] - gt[1, :i]) - inter
            usq = union * union
            raises[:i] = (union <= 0.0) | (usq == 0.0)
            iou = inter / union
            value[:i] = 1.0 - iou
        if g:  # the enclosing box
            ewh = np.maximum(gt[2:, :g], pred[2:, :g]) - np.minimum(gt[:2, :g], pred[:2, :g])
        if g > d:  # GIoU: + (C - U)/C; C covers the whole hull prefix, to be gathered like the other terms
            c_area = ewh[0] * ewh[1]
            csq = c_area * c_area
            raises[d:g] |= csq[d:] == 0.0
            value[d:g] += (c_area[d:] - union[d:g]) / c_area[d:]
        if d:  # DIoU and CIoU: + rho^2/c^2
            dr = (pred[:2, :d] + pred[2:, :d]) / 2.0 - (gt[:2, :d] + gt[2:, :d]) / 2.0  # (drx, dry)
            dr_sq = np.float_power(dr, 2.0)
            raises[:d] |= (np.isinf(dr_sq) & np.isfinite(dr)).any(0)  # where Python's ** raises OverflowError
            rho2 = dr_sq[0] + dr_sq[1]
            c2 = ewh[0, :d] * ewh[0, :d] + ewh[1, :d] * ewh[1, :d]
            value[:d] += rho2 / c2
        if c:  # CIoU: + alpha*V
            gwh = gt[2:, :c] - gt[:2, :c]
            pw, ph = pwh[:, :c]
            diag_sq = pw * pw + ph * ph
            raises[:c] |= (gwh <= 0.0).any(0) | (pwh[:, :c] <= 0.0).any(0) | (diag_sq == 0.0)
            # Below IoU 0.5 alpha is 0 and the value and gradient are DIoU's, so t (with
            # its two atan calls) is computed only at or above the gate, and is 0 elsewhere.
            gate = ~raises[:c] & (iou[:c] >= 0.5)
            t = np.zeros(c)
            for j, a, b, w, h in zip(np.flatnonzero(gate).tolist(), *(x[gate].tolist() for x in (*gwh, pw, ph))):
                t[j] = math.atan(a / b) - math.atan(w / h)
            v = _FOUR_OVER_PI_SQ * t * t
            denom = (1.0 - iou[:c]) + v
            alpha = np.where(gate & (denom > 0.0), v / denom, 0.0)
            value[:c] += alpha * v
        if i < n:  # L1
            a = np.abs(gt[:, i:] - pred[:, i:])
            value[i:] = (a[0] + a[1] + a[2] + a[3]) / 4.0
    return value, raises, (ends, (iwh, inter, union, usq, pwh, ewh, c_area, csq, dr, rho2, c2, t, diag_sq, alpha))


def _lane_gradient(gt: np.ndarray, pred: np.ndarray, terms, rows) -> np.ndarray:
    """The gradient pass: the (4, M) gradient of the value pass's lanes ``rows`` (M sorted
    indices; all of them, with no gather, if None), whose boxes are ``gt`` and ``pred``.
    It gathers their ``terms`` and applies ``loss``'s gradient expressions in its order."""
    ends, terms = terms
    if rows is not None:  # a prefix of the value pass's lanes is a prefix of ``rows`` too
        new = np.searchsorted(rows, ends).tolist()
        cut = dict(zip(ends, new))  # a term's length is its run's end; x.take(r, -1) is x[..., r] at less call cost
        ends, terms = new, [x if x is None else x.take(rows[: cut[x.shape[-1]]], -1) for x in terms]
    c, d, g, i = ends
    iwh, inter, union, usq, pwh, ewh, c_area, csq, dr, rho2, c2, t, diag_sq, alpha = terms
    gradient = np.empty((4, n := pred.shape[1]))
    with np.errstate(all="ignore"):  # the raising lanes' gradients are never read
        if i:  # -d(IoU) = -(dI*U - I*dU)/U^2
            # How far each pred corner lies outside gt's: negative inside (px1 > gx1, ..., py2 < gy2)
            # and positive outside (px1 < gx1, ..., py2 > gy2), exactly where those comparisons hold.
            out = (pred[:, :i] - gt[:, :i]) * _D_EXTENT
            # di1 = ih * (-1.0 if px1 > gx1 else 0.0), ..., di4 = iw * (1.0 if py2 < gy2 else 0.0)
            d_inter = iwh.take(_HWHW, 0) * np.where(out < 0.0, _D_EXTENT, 0.0)
            d_union = pwh.take(_HWHW, 0) * _D_EXTENT - d_inter  # (-ph - di1, -pw - di2, ph - di3, pw - di4)
            np.negative((d_inter * union - inter * d_union) / usq, out=gradient[:, :i])
        if g:  # (dew/dx1, deh/dy1, dew/dx2, deh/dy2); the cross derivatives are zero
            d_hull = np.where(out[:, :g] > 0.0, _D_EXTENT, 0.0)
        if g > d:  # GIoU: -(dU*C - U*dC)/C^2
            d_c = ewh[:, d:].take(_HWHW, 0) * d_hull[:, d:]
            gradient[:, d:g] -= (d_union[:, d:g] * c_area[d:] - union[d:g] * d_c) / csq[d:]
        if d:  # DIoU and CIoU: (d(rho2)*c2 - rho2*d(c2))/c2^2
            d_c2 = (2.0 * ewh[:, :d]).take(_WHWH, 0) * d_hull[:, :d]
            gradient[:, :d] += (dr.take(_WHWH, 0) * c2 - rho2 * d_c2) / (c2 * c2)  # nonzero wherever usq is
        if c:  # CIoU: alpha*dV
            common = 2.0 * _FOUR_OVER_PI_SQ * t / diag_sq
            d_v = common * pwh[:, :c].take(_HWHW, 0) * _D_V_SIGN  # (common*ph, -common*pw, -common*ph, common*pw)
            gradient[:, :c] += alpha * d_v
        if i < n:  # L1
            gradient[:, i:] = np.where(pred[:, i:] > gt[:, i:], 0.25, np.where(pred[:, i:] < gt[:, i:], -0.25, 0.0))
    return gradient
