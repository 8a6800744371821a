"""Independent oracles and samplers shared by the module and acceptance tests.

Everything here is deliberately naive and self-contained: no imports from the
package's computational internals, so these implementations stay independent
of the code paths they check.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from fractions import Fraction

from boxlab.geometry import Box
from boxlab.losses import LossKind, loss

Tup4 = tuple[float, float, float, float]


# --- plain IoU used by the oracles (own code, no package calls) ------------


def tuple_iou(a: Tup4, b: Tup4) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = iw * ih if (iw > 0 and ih > 0) else 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return inter / union


# --- rasterization oracle ---------------------------------------------------


def raster_iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> Fraction:
    """IoU of integer-corner boxes by counting unit grid cells, as an exact rational."""
    x0 = min(a[0], b[0])
    y0 = min(a[1], b[1])
    x1 = max(a[2], b[2])
    y1 = max(a[3], b[3])
    inter = 0
    union = 0
    for x in range(x0, x1):
        for y in range(y0, y1):
            in_a = a[0] <= x < a[2] and a[1] <= y < a[3]
            in_b = b[0] <= x < b[2] and b[1] <= y < b[3]
            inter += in_a and in_b
            union += in_a or in_b
    return Fraction(inter, union)


# --- brute-force NMS oracle -------------------------------------------------


def brute_force_nms(
    boxes: list[Tup4], scores: list[float], threshold: float, max_keep: int
) -> list[int]:
    """Reference greedy NMS: O(n^2) scans, kept boxes suppress, strict '>'."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if len(kept) >= max_keep:
            break
        if all(tuple_iou(boxes[i], boxes[j]) <= threshold for j in kept):
            kept.append(i)
    return kept


def iou_matrix(boxes: list[Tup4]) -> list[list[float]]:
    """Dense pairwise IoU table so one instance can be replayed at many thresholds."""
    n = len(boxes)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = tuple_iou(boxes[i], boxes[j])
            matrix[i][j] = value
            matrix[j][i] = value
    return matrix


def brute_force_nms_from_matrix(
    matrix: list[list[float]], scores: list[float], threshold: float, max_keep: int
) -> list[int]:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if len(kept) >= max_keep:
            break
        row = matrix[i]
        if all(row[j] <= threshold for j in kept):
            kept.append(i)
    return kept


# --- naive PR-curve AP oracle ------------------------------------------------


def naive_average_precision(
    dets: list[tuple[int, Tup4, float]],
    gts: list[tuple[int, Tup4]],
    threshold: float,
    max_per_image: int = 100,
    samples: int = 101,
) -> float:
    """AP for one class from quadratic scans: greedy per-image matching,
    explicit cumulative curve, explicit interpolation at each recall point.

    ``dets`` are (image_id, box, score) triples; ``gts`` are (image_id, box).
    """
    n_gt = len(gts)
    if n_gt == 0:
        return 0.0

    image_ids = {d[0] for d in dets}
    ranked: list[tuple[float, int, bool]] = []
    for image_id in image_ids:
        det_indices = [i for i, d in enumerate(dets) if d[0] == image_id]
        det_indices.sort(key=lambda i: (-dets[i][2], i))
        det_indices = det_indices[:max_per_image]
        gt_indices = [j for j, g in enumerate(gts) if g[0] == image_id]
        taken: set[int] = set()
        for i in det_indices:
            best_j = None
            best_iou = 0.0
            for j in gt_indices:
                if j in taken:
                    continue
                overlap = tuple_iou(dets[i][1], gts[j][1])
                if overlap >= threshold and overlap > best_iou:
                    best_j = j
                    best_iou = overlap
            if best_j is not None:
                taken.add(best_j)
            ranked.append((-dets[i][2], i, best_j is not None))
    ranked.sort()
    flags = [tp for _, _, tp in ranked]

    cum_tp = []
    running = 0
    for flag in flags:
        running += int(flag)
        cum_tp.append(running)

    total = 0.0
    for j in range(samples):
        r = j / (samples - 1)
        best_prec = 0.0
        for k in range(len(flags)):
            if cum_tp[k] / n_gt >= r:
                best_prec = max(best_prec, cum_tp[k] / (k + 1))
        total += best_prec
    return total / samples


def naive_max_recall(
    dets: list[tuple[int, Tup4, float]],
    gts: list[tuple[int, Tup4]],
    threshold: float,
    max_per_image: int = 100,
) -> float:
    """Final recall of the same naive matching, for AR cross-checks."""
    n_gt = len(gts)
    if n_gt == 0:
        return 0.0
    image_ids = {d[0] for d in dets}
    matched = 0
    for image_id in image_ids:
        det_indices = [i for i, d in enumerate(dets) if d[0] == image_id]
        det_indices.sort(key=lambda i: (-dets[i][2], i))
        det_indices = det_indices[:max_per_image]
        gt_indices = [j for j, g in enumerate(gts) if g[0] == image_id]
        taken: set[int] = set()
        for i in det_indices:
            best_j = None
            best_iou = 0.0
            for j in gt_indices:
                if j in taken:
                    continue
                overlap = tuple_iou(dets[i][1], gts[j][1])
                if overlap >= threshold and overlap > best_iou:
                    best_j = j
                    best_iou = overlap
            if best_j is not None:
                taken.add(best_j)
                matched += 1
    return matched / n_gt


# --- CIoU's aspect term and central differences ------------------------------


def ciou_aspect(gt: Tup4, pred: Tup4) -> tuple[float, float]:
    """CIoU's ``(alpha, V)`` from the definition: ``V = (4/pi^2)(atan(wg/hg) - atan(wp/hp))^2``
    and ``alpha = V/((1 - IoU) + V)`` at IoU >= 0.5, else 0."""
    t = math.atan((gt[2] - gt[0]) / (gt[3] - gt[1])) - math.atan((pred[2] - pred[0]) / (pred[3] - pred[1]))
    v = 4.0 / math.pi**2 * t * t
    overlap = tuple_iou(gt, pred)
    if overlap < 0.5 or (1.0 - overlap) + v <= 0.0:
        return 0.0, v
    return v / ((1.0 - overlap) + v), v


def finite_diff_gradient(kind: LossKind, gt: Box, pred: Box, h: float = 1e-5) -> tuple[float, ...]:
    """Central-difference gradient, a numerical check on the analytic one.

    The predicted box must sit at least ``2h`` away from any non-differentiable
    configuration (coordinate ties for L1, the overlap boundary and min/max
    argument ties for the IoU family, the IoU = 0.5 gate for CIoU).

    For CIoU this differences the function the reported gradient actually
    differentiates, DIoU plus ``alpha*V`` with ``alpha`` frozen at the center
    point, since ``alpha`` is held constant by convention; differencing the
    raw value would pick up the ``V*dalpha`` term that convention drops.
    """
    if kind is LossKind.CIOU:
        frozen_alpha, _ = ciou_aspect(gt.as_tuple(), pred.as_tuple())

        def f(q: Box) -> float:
            return loss(LossKind.DIOU, gt, q).value + frozen_alpha * ciou_aspect(gt.as_tuple(), q.as_tuple())[1]

    else:

        def f(q: Box) -> float:
            return loss(kind, gt, q).value

    base = pred.as_tuple()
    grad = []
    for i in range(4):
        hi = list(base)
        lo = list(base)
        hi[i] += h
        lo[i] -= h
        grad.append((f(Box(*hi)) - f(Box(*lo))) / (2.0 * h))
    return tuple(grad)


# --- samplers ----------------------------------------------------------------


def sample_box(
    rng: random.Random,
    coord_range: tuple[float, float] = (0.0, 10.0),
    size_range: tuple[float, float] = (0.5, 4.0),
) -> Box:
    lo, hi = coord_range
    w = rng.uniform(*size_range)
    h = rng.uniform(*size_range)
    x = rng.uniform(lo, hi - w)
    y = rng.uniform(lo, hi - h)
    return Box(x, y, x + w, y + h)


def sample_disjoint_pair(rng: random.Random) -> tuple[Box, Box]:
    while True:
        a = sample_box(rng)
        b = sample_box(rng)
        iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
        ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
        if iw < -1e-6 or ih < -1e-6:
            return a, b


def _clean_for_fd(gt: Box, pred: Box, kind: LossKind, margin: float) -> bool:
    g = gt.as_tuple()
    p = pred.as_tuple()
    if kind is LossKind.L1:
        return all(abs(gi - pi) > margin for gi, pi in zip(g, p))
    # Away from every min/max argument tie.
    if any(abs(gi - pi) <= margin for gi, pi in zip(g, p)):
        return False
    # Away from the overlap boundary on either axis.
    iw = min(g[2], p[2]) - max(g[0], p[0])
    ih = min(g[3], p[3]) - max(g[1], p[1])
    if abs(iw) <= margin or abs(ih) <= margin:
        return False
    if kind is LossKind.CIOU:
        # Away from the alpha gate at IoU = 0.5.
        inter = iw * ih if (iw > 0 and ih > 0) else 0.0
        union = (g[2] - g[0]) * (g[3] - g[1]) + (p[2] - p[0]) * (p[3] - p[1]) - inter
        if abs(inter / union - 0.5) <= margin:
            return False
    return True


def sample_clean_pair(
    rng: random.Random, kind: LossKind, margin: float = 1e-2
) -> tuple[Box, Box]:
    """A (gt, pred) pair at least ``margin`` away from non-differentiable configs."""
    while True:
        gt = sample_box(rng)
        pred = sample_box(rng)
        if _clean_for_fd(gt, pred, kind, margin):
            return gt, pred


def rows_digest(rows: list[list[str]]) -> str:
    """sha256 of string rows, one comma-joined line per row: pins a study's CSV bit for bit."""
    return hashlib.sha256("\n".join(map(",".join, rows)).encode()).hexdigest()


# --- anchor tiling and box augmentation oracles (plain tuples, no package calls) ---------


def anchor_tiling(
    scale: int, ratios: tuple[float, ...], strides: tuple[int, ...], feature_sizes: list[tuple[int, int]]
) -> list[tuple[int, tuple[int, int], Tup4]]:
    """Pyramid anchors as (level, (row, col), corners), in (level, row, col, ratio) order.

    From the recipe alone: the anchor of ratio r at cell (row, col) of the level with
    stride s is centered at ((col + 1/2) s, (row + 1/2) s), and its width w and height h
    solve w * h = (s * scale)^2 and w / h = r.
    """
    anchors = []
    for level, (stride, (rows, cols)) in enumerate(zip(strides, feature_sizes)):
        area = float(stride * scale) ** 2
        for row in range(rows):
            for col in range(cols):
                cx, cy = (col + 0.5) * stride, (row + 0.5) * stride
                for r in ratios:
                    w, h = math.sqrt(area * r), math.sqrt(area / r)
                    anchors.append((level, (row, col), (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)))
    return anchors


def augment_oracle(
    flip: bool, ssr: tuple[float, float, float, float] | None, width: float, height: float, boxes: list[Tup4]
) -> tuple[list[Tup4], list[int]]:
    """(kept boxes, dropped indices) of one image's augmentation, on complex numbers.

    A flip reflects x across width / 2. Then, if ``ssr`` = (dx, dy, scale, angle in
    degrees) is given, each corner z moves to c + scale * e^(i angle) * (z - c) + dx + i dy
    about the image center c; the box becomes the hull of its four corners, clipped to
    the image, and is dropped if the clipped area is below one square pixel.
    """
    kept, dropped = [], []
    center = complex(width / 2, height / 2)
    for i, (x1, y1, x2, y2) in enumerate(boxes):
        if flip:
            x1, x2 = width - x2, width - x1
        if ssr is not None:
            dx, dy, scale, angle = ssr
            turn = scale * cmath.exp(1j * math.radians(angle))
            corners = [center + turn * (complex(x, y) - center) + complex(dx, dy) for x in (x1, x2) for y in (y1, y2)]
            xs = [min(max(z.real, 0.0), width) for z in corners]
            ys = [min(max(z.imag, 0.0), height) for z in corners]
            x1, y1, x2, y2 = min(xs), min(ys), max(xs), max(ys)
            if (x2 - x1) * (y2 - y1) < 1.0:
                dropped.append(i)
                continue
        kept.append((x1, y1, x2, y2))
    return kept, dropped


# --- augment plan reader (the plan file format alone, no package calls) -------


def parse_plan_lines(lines: list[str]) -> dict:
    """A plan as ``boxlab augment-plan`` writes it, read back as ``dataclasses.asdict`` of the plan.

    The first line is ``# seed=<int>`` followed by ``<param>=<float>`` tokens, the
    second the column names, then one ``image,flip,apply_ssr,dx,dy,scale,angle_deg``
    row per image, numbered from 0, with flags 0 or 1.
    """
    header, columns, *rows = lines
    assert header.startswith("# seed="), header
    assert columns == "image,flip,apply_ssr,dx,dy,scale,angle_deg", columns
    seed, *params = header[2:].split()
    decisions = []
    for i, row in enumerate(rows):
        image, flip, apply_ssr, *magnitudes = row.split(",")
        assert int(image) == i and flip in ("0", "1") and apply_ssr in ("0", "1") and len(magnitudes) == 4, row
        decisions.append({
            "flip": flip == "1",
            "apply_ssr": apply_ssr == "1",
            **dict(zip(("dx", "dy", "scale", "angle_deg"), map(float, magnitudes))),
        })
    return {
        "seed": int(seed.removeprefix("seed=")),
        "params": {name: float(value) for name, value in (token.split("=", 1) for token in params)},
        "decisions": tuple(decisions),
    }


# --- strict JSON reading (stdlib json and a naive hook, no package calls) -----


class RepeatedKey(Exception):
    """Raised by ``naive_unique_pairs``; its one argument is the key that repeats."""


def naive_unique_pairs(pairs: list) -> dict:
    """``json`` object hook: raise ``RepeatedKey`` for the first key that an earlier pair of the object holds."""
    seen = []
    for key, _ in pairs:
        if key in seen:
            raise RepeatedKey(key)
        seen.append(key)
    return dict(pairs)


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_loads(text: str):
    """``json.loads`` that refuses a repeated key (``RepeatedKey``) and NaN or Infinity (``ValueError``)."""
    return json.loads(text, object_pairs_hook=naive_unique_pairs, parse_constant=_no_constant)
