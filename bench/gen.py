"""Seeded input generators for the benchmark workloads.

Nothing here imports boxlab: the program under test sees only the files this
module writes. The same (workload, seed, size) always gives byte-identical
inputs.
"""

from __future__ import annotations

import json
import math
import os
import random

import oracles

IMAGE_W, IMAGE_H = 640, 360

# Parameters of each workload at full size. "tiny" shrinks every count so the
# smoke test can run all workloads in a few seconds.
PARAMS = {
    "eval-dense": {
        "images": 50,
        "gts_per_image": 50,
        "classes": 5,
        "dets_per_gt": 2,
        "background_per_image": 20,
        "box_side": [16, 120],
        "iou_thresholds": None,
    },
    "eval-sparse": {
        "images": 20_000,
        "gts_per_image": 1,
        "classes": 5,
        "dets_per_gt": 1,
        "background_per_image": 1,
        "box_side": [16, 160],
        "iou_thresholds": "0.5",
    },
    "descent-study": {
        "trials": 30,
        "losses": "iou,giou,diou,ciou",
        "lr": 3.0,
        "max_iters": 100,
        "success_iou": 0.9,
    },
    "proposal-pipeline": {
        "pool_images": 60,
        "images_per_op": 20,
        "gts_per_image": [3, 15],
        "gt_side": [24, 200],
        "deltas_per_image": 1000,
        "nms_iou": 0.7,
        "max_keep": 300,
        "pos_iou": 0.5,
    },
}

TINY = {
    "eval-dense": {"images": 4, "gts_per_image": 6},
    "eval-sparse": {"images": 50},
    "descent-study": {"losses": "iou,diou"},
    "proposal-pipeline": {"pool_images": 4, "images_per_op": 2, "deltas_per_image": 60},
}


def params_for(workload: str, size: str) -> dict:
    params = dict(PARAMS[workload])
    if size == "tiny":
        params.update(TINY[workload])
    return params


def generate(workload: str, seed: int, size: str, out_dir: str) -> dict:
    """Write the workload's inputs under ``out_dir``; return the job description."""
    params = params_for(workload, size)
    rng = random.Random(f"{workload}:{seed}")
    if workload.startswith("eval-"):
        files, records = _eval_inputs(params, rng, out_dir)
    elif workload == "descent-study":
        # The program samples its own trial pairs from --seed; no file.
        files = {}
        records = params["trials"] * len(params["losses"].split(","))
    else:
        files, records = _pipeline_inputs(params, rng, out_dir)
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "files": files,
        "input_records": records,
        "input_bytes": sum(os.path.getsize(p) for p in files.values()),
    }


def _box(rng: random.Random, side: list[float]) -> tuple[float, float, float, float]:
    w = rng.uniform(*side)
    h = rng.uniform(*side)
    x = rng.uniform(0.0, IMAGE_W - w)
    y = rng.uniform(0.0, IMAGE_H - h)
    return x, y, w, h


def _jittered(rng: random.Random, x: float, y: float, w: float, h: float) -> list[float]:
    """A detection near a ground truth: each corner moves by ~8% of the side."""
    x1 = min(max(x + rng.gauss(0.0, 0.08 * w), 0.0), IMAGE_W - 2.0)
    y1 = min(max(y + rng.gauss(0.0, 0.08 * h), 0.0), IMAGE_H - 2.0)
    x2 = min(max(x + w + rng.gauss(0.0, 0.08 * w), x1 + 1.0), IMAGE_W)
    y2 = min(max(y + h + rng.gauss(0.0, 0.08 * h), y1 + 1.0), IMAGE_H)
    return [x1, y1, x2 - x1, y2 - y1]


def eval_docs(params: dict, rng: random.Random) -> tuple[dict, list]:
    """The ground-truth manifest and the detections of an eval workload."""
    images, annotations, predictions = [], [], []
    classes = params["classes"]
    for image_id in range(1, params["images"] + 1):
        images.append({"id": image_id, "width": IMAGE_W, "height": IMAGE_H, "file_name": f"{image_id:06d}.jpg"})
        for _ in range(params["gts_per_image"]):
            class_id = rng.randint(1, classes)
            x, y, w, h = _box(rng, params["box_side"])
            annotations.append(
                {"id": len(annotations) + 1, "image_id": image_id, "category_id": class_id, "bbox": [x, y, w, h]}
            )
            for _ in range(params["dets_per_gt"]):
                predictions.append(
                    {
                        "image_id": image_id,
                        "category_id": class_id,
                        "bbox": _jittered(rng, x, y, w, h),
                        "score": rng.uniform(0.3, 1.0),
                    }
                )
        for _ in range(params["background_per_image"]):
            predictions.append(
                {
                    "image_id": image_id,
                    "category_id": rng.randint(1, classes),
                    "bbox": list(_box(rng, params["box_side"])),
                    "score": rng.uniform(0.0, 0.6),
                }
            )
    # Detections arrive shuffled, as a detector's output files do.
    rng.shuffle(predictions)
    doc = {
        "images": images,
        "categories": [{"id": c, "name": f"class{c}"} for c in range(1, classes + 1)],
        "annotations": annotations,
    }
    return doc, predictions


def _eval_inputs(params: dict, rng: random.Random, out_dir: str) -> tuple[dict, int]:
    doc, predictions = eval_docs(params, rng)
    files = {"gt": os.path.join(out_dir, "gt.json"), "pred": os.path.join(out_dir, "pred.json")}
    with open(files["gt"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with open(files["pred"], "w", encoding="utf-8") as fh:
        json.dump(predictions, fh)
    return files, len(doc["images"]) + len(doc["categories"]) + len(doc["annotations"]) + len(predictions)


def _aimed_anchor(gt: tuple[float, float, float, float], layout: oracles.AnchorLayout) -> int:
    """Index of the anchor whose level, ratio and cell best fit the box."""
    gw, gh = gt[2] - gt[0], gt[3] - gt[1]
    cx, cy = (gt[0] + gt[2]) / 2.0, (gt[1] + gt[3]) / 2.0
    side = math.sqrt(gw * gh)
    level = min(range(len(layout.strides)), key=lambda l: abs(math.log(side / (layout.strides[l] * layout.scale))))
    ratio = min(range(len(layout.ratios)), key=lambda r: abs(math.log((gw / gh) / layout.ratios[r])))
    stride = layout.strides[level]
    rows, cols = layout.feature_sizes[level]
    row = min(max(int(cy // stride), 0), rows - 1)
    col = min(max(int(cx // stride), 0), cols - 1)
    return layout.index(level, row, col, ratio)


def _pipeline_inputs(params: dict, rng: random.Random, out_dir: str) -> tuple[dict, int]:
    layout = oracles.AnchorLayout(IMAGE_W, IMAGE_H)
    anchors = layout.boxes()
    images = []
    for _ in range(params["pool_images"]):
        gts = []
        for _ in range(rng.randint(*params["gts_per_image"])):
            x, y, w, h = _box(rng, params["gt_side"])
            gts.append([x, y, x + w, y + h])
        decision = oracles.sample_decision(rng, IMAGE_W, IMAGE_H)
        kept, dropped = oracles.augment_boxes(decision, IMAGE_W, IMAGE_H, gts)
        anchor_idx, deltas, scores = [], [], []
        for k in range(params["deltas_per_image"]):
            if kept and k % 2 == 0:
                # Half the deltas point at an augmented ground truth, with noise.
                gt = kept[rng.randrange(len(kept))]
                a = _aimed_anchor(gt, layout)
                tx, ty, tw, th = oracles.encode(anchors[a], gt)
                delta = [
                    tx + rng.gauss(0.0, 0.1),
                    ty + rng.gauss(0.0, 0.1),
                    tw + rng.gauss(0.0, 0.1),
                    th + rng.gauss(0.0, 0.1),
                ]
                score = rng.uniform(0.4, 1.0)
            else:
                a = rng.randrange(len(anchors))
                delta = [rng.gauss(0.0, 0.3) for _ in range(4)]
                score = rng.uniform(0.0, 0.8)
            anchor_idx.append(a)
            deltas.append(delta)
            scores.append(score)
        images.append(
            {
                "gts": gts,
                "decision": decision,
                "expected_kept": kept,
                "expected_dropped": dropped,
                "anchor_idx": anchor_idx,
                "deltas": deltas,
                "scores": scores,
            }
        )
    files = {"images": os.path.join(out_dir, "pipeline.json")}
    with open(files["images"], "w", encoding="utf-8") as fh:
        json.dump({"width": IMAGE_W, "height": IMAGE_H, "images": images}, fh)
    return files, sum(len(im["gts"]) + len(im["deltas"]) for im in images)
