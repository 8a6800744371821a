"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import pathlib
import random
import time

import pytest

from boxlab.coco_io import SplitSpec, split_ids
from boxlab.descent import DescentConfig, convergence_study, run_descent, trial_csv_rows
from boxlab.evaluation import (
    DEFAULT_IOU_THRESHOLDS,
    Detection,
    EvalConfig,
    GroundTruthAnnotation,
    PerClassResult,
    aggregate,
    average_precision,
    evaluate,
    f1,
)
from boxlab.augment import AugmentParams, sample_plan
from boxlab.geometry import Box
from boxlab.losses import LossKind, loss
from boxlab.proposals import ScoredBox, decode_delta, encode_delta, nms
from boxlab.reports import percent_change
from helpers import (
    brute_force_nms_from_matrix,
    finite_diff_gradient,
    iou_matrix,
    naive_average_precision,
    sample_box,
    sample_clean_pair,
    sample_disjoint_pair,
    rows_digest,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Frozen fixtures; expected values derived by independent scalar
# recomputation (the CIoU value cross-checked at 50-digit precision).
LOSS_FIXTURES = [
    (LossKind.L1, Box(0, 0, 2, 2), Box(0, 0, 2, 2), 0.0),
    (LossKind.L1, Box(0, 0, 2, 2), Box(1, 1, 3, 3), 1.0),
    (LossKind.L1, Box(0, 0, 4, 4), Box(0, 0, 2, 2), 1.0),
    (LossKind.IOU, Box(0, 0, 2, 2), Box(0, 0, 2, 2), 0.0),
    (LossKind.IOU, Box(0, 0, 1, 1), Box(5, 5, 6, 6), 1.0),
    (LossKind.IOU, Box(0, 0, 2, 2), Box(1, 1, 3, 3), 1.0 - 1.0 / 7.0),
    (LossKind.GIOU, Box(0, 0, 2, 2), Box(0, 0, 2, 2), 0.0),
    (LossKind.GIOU, Box(0, 0, 1, 1), Box(2, 2, 3, 3), 1.0 + 7.0 / 9.0),
    (LossKind.GIOU, Box(0, 0, 2, 2), Box(1, 1, 3, 3), 6.0 / 7.0 + 2.0 / 9.0),
    (LossKind.DIOU, Box(0, 0, 2, 2), Box(0, 0, 2, 2), 0.0),
    (LossKind.DIOU, Box(0, 0, 2, 2), Box(2, 0, 4, 2), 1.2),
    (LossKind.DIOU, Box(0, 0, 4, 4), Box(1, 1, 3, 3), 0.75),
    (LossKind.CIOU, Box(0, 0, 2, 2), Box(0, 0, 2, 2), 0.0),
    (LossKind.CIOU, Box(0, 0, 2, 2), Box(2, 0, 4, 2), 1.2),
    (LossKind.CIOU, Box(0, 0, 4, 4), Box(0, 0, 4, 2), 0.534498129298557),
]


def _report(name: str, elapsed: float, budget: float | None = None) -> None:
    budget_note = f" (budget {budget:.0f}s)" if budget else ""
    print(f"PASS {name}: {elapsed:.2f}s{budget_note}")


def test_criterion_1_loss_value_fixtures():
    start = time.perf_counter()
    for kind, gt, pred, expected in LOSS_FIXTURES:
        assert loss(kind, gt, pred).value == pytest.approx(expected, abs=1e-9), (
            kind,
            gt,
            pred,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 1 (15 loss-value fixtures, 1e-9 abs)", elapsed, 1.0)


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    for kind in LossKind:
        rng = random.Random(1000 + list(LossKind).index(kind))
        for _ in range(1000):
            gt, pred = sample_clean_pair(rng, kind)
            analytic = loss(kind, gt, pred).gradient
            numeric = finite_diff_gradient(kind, gt, pred, h=1e-5)
            for a, n in zip(analytic, numeric):
                assert abs(a - n) <= 1e-8 + 1e-5 * abs(n), (kind, gt, pred, analytic, numeric)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion 2 (5x1000 analytic vs central-difference gradients)", elapsed, 10.0)


def test_criterion_3_iou_vanishing_gradient():
    start = time.perf_counter()
    rng = random.Random(3)
    for _ in range(100):
        gt, pred = sample_disjoint_pair(rng)
        assert loss(LossKind.IOU, gt, pred).gradient == (0.0, 0.0, 0.0, 0.0)
        if gt.center() != pred.center():
            grad = loss(LossKind.GIOU, gt, pred).gradient
            assert math.sqrt(sum(g * g for g in grad)) > 0.0
    elapsed = time.perf_counter() - start
    _report("criterion 3 (IoU gradient exactly zero on 100 disjoint pairs; GIoU nonzero)", elapsed)


def test_criterion_4_convergence_ordering():
    start = time.perf_counter()
    cfg = DescentConfig(
        learning_rate=3.0,
        max_iters=10_000,
        success_iou=0.9,
        backtracking=False,
    )
    study = convergence_study(
        trials=100,
        loss_kinds=[LossKind.IOU, LossKind.GIOU, LossKind.DIOU],
        seed=170,
        cfg=cfg,
    )
    assert study.summary[LossKind.IOU].convergence_rate == 0.0
    assert study.summary[LossKind.GIOU].convergence_rate > 0.0
    median_diou = study.summary[LossKind.DIOU].median_iterations
    median_giou = study.summary[LossKind.GIOU].median_iterations
    assert math.isfinite(median_diou) and math.isfinite(median_giou)
    assert median_diou < median_giou
    # Every record bit for bit: the sha256 of the CSV rows `boxlab convergence` writes.
    assert rows_digest(trial_csv_rows(study)) == "494f0e0d8404c5b6eb83bab1cf4e7e35ab91220eab29aca54bad04c8b2c2ebbc"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        f"criterion 4 (100 shared disjoint trials: IoU rate 0, GIoU rate "
        f"{study.summary[LossKind.GIOU].convergence_rate:.2f}, median DIoU "
        f"{median_diou:.0f} < GIoU {median_giou:.0f})",
        elapsed,
        60.0,
    )


def test_criterion_5_table_arithmetic():
    start = time.perf_counter()
    doc = json.loads((FIXTURES / "published_metrics.json").read_text())
    per_class_map = doc["per_class"]["map_all"]
    assert len(per_class_map) == 17

    for row in doc["models"]:
        model = row["model"]
        results = [
            PerClassResult(
                class_id=name,
                ap_per_threshold=(values[model],) * 10,
                recall_per_threshold=(row["average_recall"],) * 10,
                ap_all=values[model],
                ap_50=doc["per_class"]["map_50"][name][model],
                num_ground_truths=1,
            )
            for name, values in per_class_map.items()
        ]
        report = aggregate(results)
        # class-mean of the stored per-class column reproduces the model mAP
        assert report.map_all == pytest.approx(row["map_all"], abs=5e-5), model
        # harmonic mean of (mAP, AR) reproduces the published F1
        assert f1(row["map_all"], row["average_recall"]) == pytest.approx(
            row["f1"], abs=1e-4
        ), model
        # 1000/latency reproduces the published FPS
        assert 1000.0 / row["latency_ms"] == pytest.approx(row["fps"], abs=0.05), model

    cp = per_class_map["CP"]
    cp_50 = doc["per_class"]["map_50"]["CP"]
    assert percent_change(cp["mL1"], cp["mBaseline"]) == pytest.approx(37.11, abs=0.005)
    assert percent_change(cp_50["mL1"], cp_50["mBaseline"]) == pytest.approx(36.15, abs=0.005)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "criterion 5 (6 column means, 6 F1 identities, 6 FPS entries, 2 class boosts)",
        elapsed,
        1.0,
    )


def _random_eval_instance(rng):
    """<= 20 detections, <= 10 ground truths, <= 3 classes, a few images."""
    n_classes = rng.randrange(1, 4)
    n_images = rng.randrange(1, 4)
    gts = []
    for _ in range(rng.randrange(0, 11)):
        x = rng.uniform(0, 16)
        y = rng.uniform(0, 16)
        gts.append(
            (
                rng.randrange(n_images),
                rng.randrange(n_classes),
                (x, y, x + rng.uniform(1, 4), y + rng.uniform(1, 4)),
            )
        )
    dets = []
    for _ in range(rng.randrange(0, 21)):
        if gts and rng.random() < 0.7:
            image_id, class_id, (x1, y1, x2, y2) = gts[rng.randrange(len(gts))]
            jitter = rng.uniform(0, 1.5)
            box = (x1 + jitter, y1, x2 + jitter, y2 + rng.uniform(-0.4, 0.4))
            if box[3] <= box[1]:
                continue
            if rng.random() < 0.2:
                class_id = rng.randrange(n_classes)
        else:
            image_id = rng.randrange(n_images)
            class_id = rng.randrange(n_classes)
            x = rng.uniform(0, 16)
            y = rng.uniform(0, 16)
            box = (x, y, x + rng.uniform(1, 4), y + rng.uniform(1, 4))
        score = round(rng.random(), 1) if rng.random() < 0.2 else rng.random()
        dets.append((image_id, class_id, box, score))
    return dets, gts, n_classes


def test_criterion_6_evaluator_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(6)
    compared = 0
    for i in range(500):
        raw_dets, raw_gts, n_classes = _random_eval_instance(rng)
        threshold = DEFAULT_IOU_THRESHOLDS[i % len(DEFAULT_IOU_THRESHOLDS)]
        for class_id in range(n_classes):
            class_dets = [(im, box, s) for im, c, box, s in raw_dets if c == class_id]
            class_gts = [(im, box) for im, c, box in raw_gts if c == class_id]
            expected = naive_average_precision(class_dets, class_gts, threshold)
            got = average_precision(
                [Detection(im, class_id, Box(*box), s) for im, box, s in class_dets],
                [GroundTruthAnnotation(im, class_id, Box(*box)) for im, box in class_gts],
                threshold,
            )
            assert got == pytest.approx(expected, abs=1e-9)
            compared += 1

    gts = [
        GroundTruthAnnotation(im, c, Box(5 * c, 5 * im, 5 * c + 3, 5 * im + 3))
        for im in range(3)
        for c in range(2)
    ]
    perfect = [Detection(g.image_id, g.class_id, g.box, 1.0) for g in gts]
    report = evaluate(perfect, gts, EvalConfig())
    assert report.map_all == 1.0
    assert report.map_50 == 1.0
    assert report.average_recall == 1.0
    assert report.f1 == 1.0

    elapsed = time.perf_counter() - start
    _report(
        f"criterion 6 (AP vs naive oracle on 500 instances / {compared} class slices; "
        "perfect fixture exact)",
        elapsed,
    )


def test_criterion_7_nms_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(7)
    thresholds = (0.3, 0.5, 0.7, 0.9)
    for _ in range(1000):
        n = rng.randrange(1, 201)
        boxes = []
        scores = []
        for _ in range(n):
            x = rng.uniform(0, 60)
            y = rng.uniform(0, 60)
            boxes.append((x, y, x + rng.uniform(1, 20), y + rng.uniform(1, 20)))
            scores.append(round(rng.random(), 1) if rng.random() < 0.25 else rng.random())
        candidates = [ScoredBox(Box(*b), s) for b, s in zip(boxes, scores)]
        matrix = iou_matrix(boxes)
        for threshold in thresholds:
            kept = nms(candidates, threshold, max_keep=1000)
            assert len(kept) <= 1000
            assert kept == brute_force_nms_from_matrix(matrix, scores, threshold, 1000)
        small = nms(candidates, 0.9, max_keep=5)
        assert small == brute_force_nms_from_matrix(matrix, scores, 0.9, 5)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7 (greedy NMS == brute force on 1000 inputs x thresholds 0.3/0.5/0.7/0.9)",
        elapsed,
    )


def test_criterion_8_roundtrips_and_determinism():
    start = time.perf_counter()

    rng = random.Random(8)
    for _ in range(10_000):
        anchor = sample_box(rng)
        target = sample_box(rng)
        decoded = decode_delta(anchor, encode_delta(anchor, target))
        for got, want in zip(decoded.as_tuple(), target.as_tuple()):
            assert abs(got - want) <= 1e-9

    spec = SplitSpec(train_frac=0.5335, val_frac=0.2178, test_frac=0.2487, seed=7)
    split = split_ids(range(3319), spec)
    assert (len(split.train), len(split.val), len(split.test)) == (1771, 723, 825)
    assert split_ids(range(3319), spec) == split

    params = AugmentParams(image_width=360, image_height=640)
    assert sample_plan(params, 200, seed=5) == sample_plan(params, 200, seed=5)

    cfg = DescentConfig(learning_rate=1.0, max_iters=500)
    init, target_box = Box(0, 0, 1, 1), Box(3, 3, 5, 5)
    assert run_descent(init, target_box, LossKind.DIOU, cfg) == run_descent(init, target_box, LossKind.DIOU, cfg)
    study_args = dict(
        trials=30,
        loss_kinds=[LossKind.DIOU],
        seed=88,
        cfg=DescentConfig(learning_rate=3.0, max_iters=1000),
    )
    assert convergence_study(**study_args) == convergence_study(**study_args)

    elapsed = time.perf_counter() - start
    _report(
        "criterion 8 (10k delta round-trips at 1e-9; split sizes 1771/723/825; "
        "seeded splits/plans/trajectories reproduce)",
        elapsed,
    )
