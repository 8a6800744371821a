"""The array evaluation core against the naive oracles and a fixed golden.

``fixtures/eval_golden.json`` holds seeded tie-heavy instances: integer and
half-integer corners (many equal IoUs), a short list of scores (many equal
scores), per-image caps that bite, int, str and mixed int/str image and
class ids, and classes that only the detections have. Each stores, as
``float.hex``, every AP, recall and aggregate that the list-based evaluator
preceding the array core gave, and ``evaluate`` must reproduce them exactly.
Regenerate only for an intended change of the metrics:

    PYTHONPATH=src python tests/test_evaluation_columns.py
"""

from __future__ import annotations

import json
import math
import pathlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxlab.coco_io import load_manifest, load_predictions
from boxlab.evaluation import DEFAULT_IOU_THRESHOLDS, Detection, EvalConfig, GroundTruthAnnotation, evaluate
from boxlab.evaluation import match_detections
from boxlab.geometry import Box, iou
from helpers import naive_average_precision, naive_max_recall, tuple_iou

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "eval_golden.json"
SCORES = (0.0, 0.3, 0.5, 0.5, 0.9, 1.0)


def _ids(kind: str, image: int, cls: int) -> tuple:
    if kind == "int":
        return image, cls
    if kind == "str":
        return f"im{image}", f"c{cls}"
    return (image if image % 2 else f"im{image}"), (cls if cls == 1 else f"c{cls}")


def sample_instance(rng: random.Random) -> dict:
    """Class 3 never has ground truths; a ground truth may come twice or with a copy one unit right."""
    kind = rng.choice(("int", "int", "str", "mixed"))
    dets, gts = [], []
    for image in range(rng.randrange(1, 4)):
        for cls in (1, 2, 3):
            boxes = []
            for _ in range(rng.randrange(0, 5) if cls != 3 else 0):
                x, y = rng.randrange(0, 8), rng.randrange(0, 8)
                box = [x, y, x + rng.randrange(1, 5), y + rng.randrange(1, 4)]
                copy = rng.choice((None, None, box, [x + 1, y, box[2] + 1, box[3]]))
                boxes.extend([box] if copy is None else [box, copy])
            gts.extend([*_ids(kind, image, cls), *box] for box in boxes)
            for _ in range(rng.randrange(0, 9)):
                if boxes and rng.random() < 0.7:
                    x1, y1, x2, y2 = rng.choice(boxes)
                    dx = rng.choice((-1, -0.5, 0, 0, 0.5, 1))
                    box = [x1 + dx, y1, x2 + dx, y2 + rng.choice((0, 0, 1))]
                else:
                    x, y = rng.randrange(0, 8), rng.randrange(0, 8)
                    box = [x, y, x + rng.randrange(0, 4), y + rng.randrange(0, 4)]
                dets.append([*_ids(kind, image, cls), *box, rng.choice(SCORES)])
    rng.shuffle(dets)
    return {
        "cap": rng.choice((1, 2, 3, 3, 100)),
        "thresholds": rng.choice(([0.5], [0.3, 0.5, 0.7], list(DEFAULT_IOU_THRESHOLDS))),
        "gt_free": rng.random() < 0.5,
        "dets": dets,
        "gts": gts,
    }


def objects(case: dict) -> tuple[list[Detection], list[GroundTruthAnnotation]]:
    dets = [Detection(im, c, Box(*map(float, box)), s) for im, c, *box, s in case["dets"]]
    gts = [GroundTruthAnnotation(im, c, Box(*map(float, box))) for im, c, *box in case["gts"]]
    return dets, gts


def config(case: dict) -> EvalConfig:
    return EvalConfig(tuple(case["thresholds"]), case["cap"], include_gt_free_classes=case["gt_free"])


def report_record(report) -> dict:
    """Every number of an ``EvalReport`` as ``float.hex`` (None stays None)."""
    def h(x):
        return None if x is None else x.hex()

    return {
        "per_class": [
            [r.class_id, [h(a) for a in r.ap_per_threshold], [h(v) for v in r.recall_per_threshold],
             h(r.ap_all), h(r.ap_50), r.num_ground_truths]
            for r in report.per_class.values()
        ],
        "aggregates": [h(report.map_all), h(report.map_50), h(report.average_recall), h(report.f1)],
    }


def golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_intended_cases():
    cases = golden()
    assert len(cases) == 80
    assert {case["cap"] for case in cases} == {1, 2, 3, 100}
    kinds = {type(d[0]).__name__ for case in cases for d in case["dets"]}
    assert kinds == {"int", "str"}
    assert any(case["gt_free"] and any(d[1] in (3, "c3") for d in case["dets"]) for case in cases)


def test_matches_golden_exactly():
    for case in golden():
        assert report_record(evaluate(*objects(case), config(case))) == case["expected"], case


def test_loaded_columns_match_golden_exactly(tmp_path):
    """The same instances through the COCO loaders, whose column-backed results go to evaluate as they are."""
    checked = 0
    for case in golden():
        if not all(isinstance(d[0], int) and isinstance(d[1], int) for d in case["dets"] + case["gts"]):
            continue
        images = sorted({d[0] for d in case["dets"] + case["gts"]})
        classes = sorted({d[1] for d in case["dets"] + case["gts"]})
        gt_doc = {
            "images": [{"id": im, "width": 20, "height": 20} for im in images],
            "categories": [{"id": c, "name": f"c{c}"} for c in classes],
            "annotations": [{"image_id": im, "category_id": c, "bbox": [x1, y1, x2 - x1, y2 - y1]}
                            for im, c, x1, y1, x2, y2 in case["gts"]],
        }
        preds = [{"image_id": im, "category_id": c, "bbox": [x1, y1, x2 - x1, y2 - y1], "score": s}
                 for im, c, x1, y1, x2, y2, s in case["dets"]]
        (tmp_path / "gt.json").write_text(json.dumps(gt_doc))
        (tmp_path / "pred.json").write_text(json.dumps(preds))
        manifest = load_manifest(str(tmp_path / "gt.json"))
        dets = load_predictions(str(tmp_path / "pred.json"), manifest)
        if not case["gts"]:
            continue
        assert report_record(evaluate(dets, manifest.annotations, config(case))) == case["expected"], case
        checked += 1
    assert checked > 25


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_matches_naive_oracles(seed):
    case = sample_instance(random.Random(seed))
    assume(case["gts"])
    assert_matches_naive_oracles(case)


def assert_matches_naive_oracles(case: dict) -> None:
    """``evaluate`` gives every class and, at each threshold, the naive oracles' AP and recall."""
    cfg = config(case)
    report = evaluate(*objects(case), cfg)
    gt_classes = {g[1] for g in case["gts"]}
    assert set(report.per_class) == gt_classes | ({d[1] for d in case["dets"]} if case["gt_free"] else set())
    for class_id, result in report.per_class.items():
        dets = [(im, tuple(map(float, box)), s) for im, c, *box, s in case["dets"] if c == class_id]
        gts = [(im, tuple(map(float, box))) for im, c, *box in case["gts"] if c == class_id]
        for k, t in enumerate(cfg.iou_thresholds):
            want_ap = naive_average_precision(dets, gts, t, cfg.max_detections_per_image)
            want_recall = naive_max_recall(dets, gts, t, cfg.max_detections_per_image)
            assert result.ap_per_threshold[k] == pytest.approx(want_ap, abs=1e-9), (class_id, t)
            assert result.recall_per_threshold[k] == pytest.approx(want_recall, abs=1e-12), (class_id, t)


def pinned_thresholds(n: int, pins: dict[int, float]) -> tuple[float, ...]:
    """``n`` increasing thresholds in (0, 1): ``pins[i]`` at index ``i``, the rest evenly spaced between."""
    marks = [(-1, 0.0), *sorted(pins.items()), (n, 1.0)]
    thresholds = []
    for (i, a), (j, b) in zip(marks, marks[1:]):
        thresholds += [a + (b - a) * (k - i) / (j - i) for k in range(i + 1, j)] + ([b] if j < n else [])
    return tuple(thresholds)


# Matching walks the pair table once per block of 62 thresholds. Exact IoUs of
# integer and half-integer corners sit on the last and first threshold of each
# block, so that ``>=`` ties fall on the block edges.
EDGE_IOUS = {63: {61: 0.25, 62: 0.5}, 125: {61: 0.25, 62: 0.5, 123: 2 / 3, 124: 0.75}}


def edge_ties(case: dict, ious) -> int:
    """The same-image, same-class (detection, ground truth) pairs whose IoU is one of ``ious``."""
    return sum(
        tuple_iou(tuple(map(float, d[2:6])), tuple(map(float, g[2:]))) in ious
        for d in case["dets"] for g in case["gts"] if d[:2] == g[:2]
    )


@pytest.mark.parametrize("n", sorted(EDGE_IOUS))
def test_threshold_blocks_match_naive_oracles(n):
    thresholds, rng, ties = pinned_thresholds(n, EDGE_IOUS[n]), random.Random(n), 0
    assert len(thresholds) == n and all(thresholds[i] == t for i, t in EDGE_IOUS[n].items())
    for _ in range(12):
        case = {**sample_instance(rng), "thresholds": thresholds}
        if case["gts"]:
            assert_matches_naive_oracles(case)
            ties += edge_ties(case, EDGE_IOUS[n].values())
    assert ties >= 10


def test_each_threshold_of_a_block_run_equals_a_run_at_it_alone():
    thresholds, rng = pinned_thresholds(125, EDGE_IOUS[125]), random.Random(125)
    for _ in range(4):
        case = sample_instance(rng)
        if not case["gts"]:
            continue
        objs = objects(case)
        report = evaluate(*objs, config({**case, "thresholds": thresholds}))
        for k, t in enumerate(thresholds):
            alone = evaluate(*objs, config({**case, "thresholds": [t]}))
            assert alone.per_class.keys() == report.per_class.keys()
            for class_id, result in report.per_class.items():
                got = (result.ap_per_threshold[k], result.recall_per_threshold[k])
                assert got == (*alone.per_class[class_id].ap_per_threshold, *alone.per_class[class_id].recall_per_threshold)


_scale = st.sampled_from([5e-324, 1e-310, 1e-300, 1e-3, 1.0, 1e150])
_corners = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 5), st.integers(0, 5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(gt=_corners, det=_corners, gt_scale=_scale, det_scale=_scale)
def test_join_iou_is_the_scalar_iou(gt, det, gt_scale, det_scale):
    """``geometry.iou`` raises on an empty union; for a valid ground truth (positive area) it never
    does, and the join's IoU, made with the same operations, is bit-identical to it."""
    def box(c, s):
        return Box(c[0] * s, c[1] * s, (c[0] + c[2]) * s, (c[1] + c[3]) * s)

    gt_box, det_box = box(gt, gt_scale), box(det, det_scale)
    assume((gt_box.x_max - gt_box.x_min) * (gt_box.y_max - gt_box.y_min) > 0.0)
    overlap = iou(det_box, gt_box)
    dets, gts = [Detection(0, 0, det_box, 0.5)], [GroundTruthAnnotation(0, 0, gt_box)]
    if overlap > 0.0:
        assert match_detections(dets, gts, overlap) == ([True], [True])
    assert match_detections(dets, gts, math.nextafter(overlap, math.inf)) == ([False], [False])


if __name__ == "__main__":
    rng = random.Random(20261018)
    cases = []
    while len(cases) < 80:
        case = sample_instance(rng)
        if case["gts"]:
            case["expected"] = report_record(evaluate(*objects(case), config(case)))
            cases.append(case)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n", encoding="utf-8")
