"""Independent reference implementations that the benchmark checks outputs against.

Nothing here imports boxlab. Each function restates one documented boxlab
behaviour in the plainest code that is still fast enough to run on every
benchmark run: greedy per-image matching with a 101-point PR-curve AP,
brute-force greedy NMS, IoU-argmax proposal assignment, box-delta coding,
pyramid anchor tiling and the flip / shift-scale-rotate box transforms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import defaultdict

Tup4 = tuple[float, float, float, float]

TOL = 1e-9


def tuple_iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = iw * ih if (iw > 0 and ih > 0) else 0.0
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- evaluation ----------------------------------------------------------------


def _corner(bbox) -> Tup4:
    x, y, w, h = (float(v) for v in bbox)
    return (x, y, x + w, y + h)


def eval_expected(gt_doc: dict, preds: list, thresholds, max_dets: int = 100, samples: int = 101) -> dict:
    """Per-class AP and max recall at each threshold, plus the class-mean aggregates.

    Greedy matching per (class, image): detections by descending score (ties
    to the earlier detection of that class in file order), capped at
    ``max_dets``; each takes the unmatched ground truth with the highest IoU
    >= t (ties to the earlier ground truth).
    """
    gts_by_class = defaultdict(lambda: defaultdict(list))
    n_gt = defaultdict(int)
    for ann in gt_doc["annotations"]:
        gts_by_class[ann["category_id"]][ann["image_id"]].append(_corner(ann["bbox"]))
        n_gt[ann["category_id"]] += 1
    dets_by_class = defaultdict(lambda: defaultdict(list))
    class_index = defaultdict(int)
    for p in preds:
        c = p["category_id"]
        dets_by_class[c][p["image_id"]].append((-float(p["score"]), class_index[c], _corner(p["bbox"])))
        class_index[c] += 1

    per_class = {}
    for c in sorted(n_gt):
        # ranked[t] collects (-score, index, is_tp) over all images.
        ranked = [[] for _ in thresholds]
        for image_id, dets in dets_by_class[c].items():
            dets = sorted(dets)[:max_dets]
            gts = gts_by_class[c].get(image_id, [])
            overlaps = [[tuple_iou(d[2], g) for g in gts] for d in dets]
            for ti, t in enumerate(thresholds):
                taken = [False] * len(gts)
                for d, row in zip(dets, overlaps):
                    best_j, best = -1, 0.0
                    for j, ov in enumerate(row):
                        if not taken[j] and ov >= t and ov > best:
                            best_j, best = j, ov
                    if best_j >= 0:
                        taken[best_j] = True
                    ranked[ti].append((d[0], d[1], best_j >= 0))
        aps, recalls = [], []
        for flags in ranked:
            flags.sort()
            aps.append(_interpolated_ap([f[2] for f in flags], n_gt[c], samples))
            recalls.append(sum(f[2] for f in flags) / n_gt[c])
        per_class[c] = {"ap_per_threshold": aps, "recall_per_threshold": recalls, "num_ground_truths": n_gt[c]}

    n = len(per_class)
    map_all = sum(sum(r["ap_per_threshold"]) / len(thresholds) for r in per_class.values()) / n
    all_recalls = [v for r in per_class.values() for v in r["recall_per_threshold"]]
    return {"per_class": per_class, "map_all": map_all, "average_recall": sum(all_recalls) / len(all_recalls)}


def _interpolated_ap(flags: list[bool], n_gt: int, samples: int) -> float:
    """Mean over recall points r of the best precision at any rank with recall >= r."""
    precision, recall, tp = [], [], 0
    for k, flag in enumerate(flags, start=1):
        tp += flag
        precision.append(tp / k)
        recall.append(tp / n_gt)
    # Recall never decreases with rank, so "best precision at recall >= r" is a
    # running maximum taken from the last rank back.
    best_from = precision[:]
    for k in range(len(best_from) - 2, -1, -1):
        best_from[k] = max(best_from[k], best_from[k + 1])
    total, k = 0.0, 0
    for j in range(samples):
        r = j / (samples - 1)
        while k < len(recall) and recall[k] < r:
            k += 1
        if k < len(recall):
            total += best_from[k]
    return total / samples


def check_eval_output(text: str, expected: dict) -> list[str]:
    """Problems found in one ``boxlab evaluate --format json`` stdout."""
    try:
        return _eval_problems(json.loads(text), expected)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"stdout is not the evaluate JSON report: {exc!r}"]


def _eval_problems(doc: dict, expected: dict) -> list[str]:
    problems = []
    for key in ("map_all", "average_recall"):
        if not close(doc.get(key, math.nan), expected[key]):
            problems.append(f"{key} {doc.get(key)!r} != oracle {expected[key]!r}")
    got = {row["class_id"]: row for row in doc.get("per_class", [])}
    if sorted(got) != sorted(expected["per_class"]):
        problems.append(f"classes {sorted(got)} != oracle {sorted(expected['per_class'])}")
        return problems
    for c, want in expected["per_class"].items():
        row = got[c]
        for key in ("ap_per_threshold", "recall_per_threshold"):
            if len(row[key]) != len(want[key]) or not all(map(close, row[key], want[key])):
                problems.append(f"class {c} {key} differs from the oracle")
        if row["num_ground_truths"] != want["num_ground_truths"]:
            problems.append(f"class {c} num_ground_truths differs from the oracle")
    return problems


def eval_pair_counts(gt_doc: dict, preds: list, max_dets: int = 100) -> tuple[int, int]:
    """(distinct (det, gt) pairs after the per-(class, image) cap, detections cut by the cap)."""
    n_gts = defaultdict(int)
    n_dets = defaultdict(int)
    for ann in gt_doc["annotations"]:
        n_gts[(ann["category_id"], ann["image_id"])] += 1
    for p in preds:
        n_dets[(p["category_id"], p["image_id"])] += 1
    pairs = sum(min(n, max_dets) * n_gts.get(key, 0) for key, n in n_dets.items())
    capped = sum(max(0, n - max_dets) for n in n_dets.values())
    return pairs, capped


# --- convergence study ---------------------------------------------------------


def check_descent_csv(text: str, trials: int, losses: list[str], success_iou: float) -> list[str]:
    """Shape of the per-trial CSV, a trial converging exactly when its final IoU
    reaches ``success_iou``, and the IoU loss never converging from disjoint starts."""
    try:
        return _descent_problems(list(csv.reader(io.StringIO(text))), trials, losses, success_iou)
    except (ValueError, IndexError) as exc:
        return [f"per-trial CSV is malformed: {exc!r}"]


def _descent_problems(rows: list[list[str]], trials: int, losses: list[str], success_iou: float) -> list[str]:
    if not rows or rows[0] != ["trial", "loss_kind", "converged", "iterations", "final_iou"]:
        return ["per-trial CSV header is wrong"]
    body = rows[1:]
    problems = []
    want = sorted((kind, t) for kind in losses for t in range(trials))
    if sorted((r[1], int(r[0])) for r in body) != want:
        problems.append("per-trial CSV does not hold one row per (loss, trial)")
    iou_converged = sum(1 for r in body if r[1] == "iou" and r[2] != "0")
    if "iou" in losses and iou_converged:
        problems.append(f"IoU loss converged in {iou_converged} trials; disjoint starts have zero gradient")
    for r in body:
        converged = r[2] == "1"
        final_iou = float(r[4])
        if converged != (r[3] != "") or converged != (final_iou >= success_iou) or not 0.0 <= final_iou <= 1.0:
            problems.append(f"inconsistent row {r}")
            break
    return problems


# --- proposals and augmentation --------------------------------------------------


class AnchorLayout:
    """Pyramid anchor tiling: order (level, row, col, ratio), side stride*scale."""

    def __init__(self, width: int, height: int, scale: int = 8, ratios=(0.5, 1.0, 2.0), strides=(4, 8, 16, 32)):
        self.scale = scale
        self.ratios = ratios
        self.strides = strides
        self.feature_sizes = [(math.ceil(height / s), math.ceil(width / s)) for s in strides]
        self._offsets = []
        total = 0
        for rows, cols in self.feature_sizes:
            self._offsets.append(total)
            total += rows * cols * len(ratios)
        self.count = total

    def index(self, level: int, row: int, col: int, ratio: int) -> int:
        cols = self.feature_sizes[level][1]
        return self._offsets[level] + (row * cols + col) * len(self.ratios) + ratio

    def box(self, i: int) -> Tup4:
        level = max(l for l, off in enumerate(self._offsets) if off <= i)
        cell, ratio = divmod(i - self._offsets[level], len(self.ratios))
        row, col = divmod(cell, self.feature_sizes[level][1])
        stride = self.strides[level]
        base = float(stride * self.scale)
        w = base * math.sqrt(self.ratios[ratio])
        h = base / math.sqrt(self.ratios[ratio])
        cx, cy = (col + 0.5) * stride, (row + 0.5) * stride
        return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)

    def boxes(self) -> list[Tup4]:
        return [self.box(i) for i in range(self.count)]


def encode(anchor, target) -> Tup4:
    aw, ah = anchor[2] - anchor[0], anchor[3] - anchor[1]
    tw, th = target[2] - target[0], target[3] - target[1]
    return (
        ((target[0] + target[2]) / 2 - (anchor[0] + anchor[2]) / 2) / aw,
        ((target[1] + target[3]) / 2 - (anchor[1] + anchor[3]) / 2) / ah,
        math.log(tw / aw),
        math.log(th / ah),
    )


def decode(anchor, delta) -> Tup4:
    aw, ah = anchor[2] - anchor[0], anchor[3] - anchor[1]
    cx = (anchor[0] + anchor[2]) / 2 + delta[0] * aw
    cy = (anchor[1] + anchor[3]) / 2 + delta[1] * ah
    w, h = aw * math.exp(delta[2]), ah * math.exp(delta[3])
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def sample_decision(rng: random.Random, width: float, height: float) -> dict:
    """One image's augmentation, at boxlab's default sampling bounds."""
    return {
        "flip": rng.random() < 0.5,
        "apply_ssr": True,
        "dx": rng.uniform(-0.0625 * width, 0.0625 * width),
        "dy": rng.uniform(-0.0625 * height, 0.0625 * height),
        "scale": rng.uniform(0.9, 1.1),
        "angle_deg": rng.uniform(-45.0, 45.0),
    }


def augment_boxes(decision: dict, width: float, height: float, boxes) -> tuple[list[list[float]], list[int]]:
    """Flip, then scale/rotate about the image center, shift, take the hull, clip,
    and drop boxes whose clipped area is below one square pixel."""
    kept, dropped = [], []
    theta = math.radians(decision["angle_deg"])
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cx, cy = width / 2.0, height / 2.0
    for i, (x1, y1, x2, y2) in enumerate(boxes):
        if decision["flip"]:
            x1, x2 = width - x2, width - x1
        if decision["apply_ssr"]:
            s = decision["scale"]
            xs, ys = [], []
            for x, y in ((x1, y1), (x2, y1), (x2, y2), (x1, y2)):
                rx, ry = (x - cx) * s, (y - cy) * s
                xs.append(cx + decision["dx"] + rx * cos_t - ry * sin_t)
                ys.append(cy + decision["dy"] + rx * sin_t + ry * cos_t)
            x1 = min(max(min(xs), 0.0), width)
            y1 = min(max(min(ys), 0.0), height)
            x2 = min(max(max(xs), 0.0), width)
            y2 = min(max(max(ys), 0.0), height)
            if (x2 - x1) * (y2 - y1) < 1.0:
                dropped.append(i)
                continue
        kept.append([x1, y1, x2, y2])
    return kept, dropped


def brute_force_nms(boxes, scores, threshold: float, max_keep: int) -> list[int]:
    """Greedy NMS by plain scans: a box is kept unless IoU with a kept box is > threshold."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        if len(kept) >= max_keep:
            break
        if all(tuple_iou(boxes[i], boxes[j]) <= threshold for j in kept):
            kept.append(i)
    return kept


def naive_assign(proposals, gts, threshold: float) -> list[tuple[bool, int | None, float]]:
    """(positive, argmax gt index with ties to the lower index, best IoU) per proposal."""
    out = []
    for p in proposals:
        if not gts:
            out.append((False, None, 0.0))
            continue
        best_j, best = 0, tuple_iou(p, gts[0])
        for j in range(1, len(gts)):
            ov = tuple_iou(p, gts[j])
            if ov > best:
                best_j, best = j, ov
        out.append((best > threshold, best_j, best))
    return out


def check_pipeline_image(dump: dict, image: dict, layout: AnchorLayout, params: dict) -> list[str]:
    """Problems in one image's recorded pipeline outputs."""
    problems = []
    kept = dump["kept_gts"]
    if dump["dropped"] != image["expected_dropped"] or len(kept) != len(image["expected_kept"]) or not all(
        close(a, b) for got, want in zip(kept, image["expected_kept"]) for a, b in zip(got, want)
    ):
        problems.append("augmented ground truths differ from the oracle transform")
    anchors = [layout.box(a) for a in image["anchor_idx"]]
    for box, anchor, delta in zip(dump["decoded"], anchors, image["deltas"]):
        if not all(close(a, b) for a, b in zip(box, decode(anchor, delta))):
            problems.append("decoded box differs from the oracle decode")
            break
    want_keep = brute_force_nms(dump["decoded"], image["scores"], params["nms_iou"], params["max_keep"])
    if dump["keep"] != want_keep:
        problems.append("NMS kept indices differ from brute-force NMS")
    proposals = [dump["decoded"][k] for k in dump["keep"]]
    want_assign = naive_assign(proposals, kept, params["pos_iou"])
    for got, want in zip(dump["assign"], want_assign):
        if got[0] != want[0] or got[1] != want[1] or not close(got[2], want[2]):
            problems.append("assignment differs from the naive IoU argmax")
            break
    if len(dump["assign"]) != len(want_assign):
        problems.append("assignment count differs from the proposal count")
    return problems


def check_anchors(count: int, sample: dict, layout: AnchorLayout) -> list[str]:
    problems = []
    if count != layout.count:
        problems.append(f"{count} anchors, expected {layout.count}")
    for i, box in sample.items():
        if not all(close(a, b) for a, b in zip(box, layout.box(int(i)))):
            problems.append(f"anchor {i} differs from the tiling formula")
    return problems
