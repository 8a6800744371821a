import json
import math
import pathlib
import random
from collections import Counter

import numpy as np
import pytest

from boxlab import evaluation
from boxlab.errors import EmptyEvaluationError, InvalidBoxError, ValidationError
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
    match_detections,
    max_achieved_recall,
)
from boxlab.geometry import Box
from helpers import naive_average_precision, naive_max_recall

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _det(image_id, class_id, box, score):
    return Detection(image_id=image_id, class_id=class_id, box=Box(*box), score=score)


def _gt(image_id, class_id, box):
    return GroundTruthAnnotation(image_id=image_id, class_id=class_id, box=Box(*box))


class TestF1:
    def test_equal_inputs(self):
        for x in (0.1, 0.5, 0.9, 1.0):
            assert f1(x, x) == pytest.approx(x, abs=1e-15)

    def test_published_rows(self):
        assert f1(0.9168, 0.951) == pytest.approx(0.9336, abs=1e-4)
        assert f1(0.9388, 0.969) == pytest.approx(0.9537, abs=1e-4)
        assert f1(0.9408, 0.973) == pytest.approx(0.9566, abs=1e-4)

    def test_both_zero(self):
        assert f1(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("p, r", [(-1.0, 1.0), (1.0, -1.0), (0.5, 1.5), (float("nan"), 0.5), (0.5, float("inf"))])
    def test_out_of_range_named(self, p, r):
        # (-1, 1) cancelled in the denominator and raised ZeroDivisionError.
        with pytest.raises(ValidationError) as err:
            f1(p, r)
        assert str(err.value) == f"F1 needs values in [0, 1], got {p!r} and {r!r}"


class TestMatchDetections:
    def test_perfect_single(self):
        dets = [_det(1, 1, (0, 0, 2, 2), 0.9)]
        gts = [_gt(1, 1, (0, 0, 2, 2))]
        tp, matched = match_detections(dets, gts, 0.5)
        assert tp == [True]
        assert matched == [True]

    def test_higher_score_wins_single_gt(self):
        dets = [
            _det(1, 1, (0, 0, 2, 2.2), 0.6),
            _det(1, 1, (0, 0, 2, 2.1), 0.8),
        ]
        gts = [_gt(1, 1, (0, 0, 2, 2))]
        tp, matched = match_detections(dets, gts, 0.5)
        assert tp == [False, True]
        assert matched == [True]

    def test_highest_iou_unmatched_gt_wins(self):
        dets = [_det(1, 1, (0, 0, 2, 2), 0.9)]
        gts = [_gt(1, 1, (0, 0.5, 2, 2.5)), _gt(1, 1, (0, 0, 2, 2.2))]
        tp, matched = match_detections(dets, gts, 0.5)
        assert tp == [True]
        assert matched == [False, True]

    def test_threshold_boundary_inclusive(self):
        # IoU exactly 0.5 counts as a match (>= comparison)
        dets = [_det(1, 1, (0, 0, 2, 1), 0.9)]
        gts = [_gt(1, 1, (0, 0, 2, 2))]
        tp, _ = match_detections(dets, gts, 0.5)
        assert tp == [True]

    def test_equal_iou_goes_to_lower_gt_index(self):
        # IoU 1/3 with both ground truths, whichever order they come in
        dets = [_det(1, 1, (1, 0, 3, 2), 0.9)]
        gts = [_gt(1, 1, (0, 0, 2, 2)), _gt(1, 1, (2, 0, 4, 2))]
        assert match_detections(dets, gts, 0.3) == ([True], [True, False])
        assert match_detections(dets, gts[::-1], 0.3) == ([True], [True, False])
        assert match_detections(dets, gts, 0.34) == ([False], [False, False])

    def test_each_gt_matches_once(self):
        dets = [
            _det(1, 1, (0, 0, 2, 2), 0.9),
            _det(1, 1, (0, 0, 2, 2), 0.8),
        ]
        gts = [_gt(1, 1, (0, 0, 2, 2))]
        tp, _ = match_detections(dets, gts, 0.5)
        assert tp == [True, False]


class TestAveragePrecision:
    def test_perfect_detection_all_thresholds(self):
        dets = [_det(1, 1, (0, 0, 2, 2), 1.0)]
        gts = [_gt(1, 1, (0, 0, 2, 2))]
        for t in DEFAULT_IOU_THRESHOLDS:
            assert average_precision(dets, gts, t) == 1.0

    def test_iou_point_six_detection(self):
        # IoU((0,0,10,6), (0,0,10,10)) = 60/100 = 0.6 exactly
        dets = [_det(1, 1, (0, 0, 10, 6), 0.9)]
        gts = [_gt(1, 1, (0, 0, 10, 10))]
        aps = [average_precision(dets, gts, t) for t in DEFAULT_IOU_THRESHOLDS]
        assert aps[:3] == [1.0, 1.0, 1.0]
        assert aps[3:] == [0.0] * 7
        assert sum(aps) / len(aps) == pytest.approx(0.3, abs=1e-12)

    def test_half_recall_interpolation(self):
        # one TP against two gts: AP = 51/101 under 101-point interpolation
        dets = [_det(1, 1, (0, 0, 2, 2), 0.9)]
        gts = [_gt(1, 1, (0, 0, 2, 2)), _gt(1, 1, (5, 5, 7, 7))]
        assert average_precision(dets, gts, 0.5) == pytest.approx(51 / 101, abs=1e-12)

    def test_no_ground_truths_is_zero(self):
        dets = [_det(1, 1, (0, 0, 2, 2), 0.9)]
        assert average_precision(dets, [], 0.5) == 0.0

    def test_no_detections_is_zero(self):
        gts = [_gt(1, 1, (0, 0, 2, 2))]
        assert average_precision([], gts, 0.5) == 0.0

    def test_per_image_cap(self):
        gts = [_gt(1, 1, (0, 0, 2, 2))]
        dets = [
            _det(1, 1, (5, 5, 6, 6), 0.9),  # FP, highest score
            _det(1, 1, (6, 6, 7, 7), 0.8),  # FP
            _det(1, 1, (0, 0, 2, 2), 0.7),  # the true one, capped away
        ]
        cfg = EvalConfig(max_detections_per_image=2)
        assert max_achieved_recall(dets, gts, 0.5, cfg) == 0.0
        assert average_precision(dets, gts, 0.5, cfg) == 0.0
        open_cfg = EvalConfig(max_detections_per_image=100)
        assert max_achieved_recall(dets, gts, 0.5, open_cfg) == 1.0


class TestOracleEquivalence:
    @staticmethod
    def _random_instance(rng):
        dets = []
        gts = []
        n_images = rng.randrange(1, 4)
        for image_id in range(n_images):
            for _ in range(rng.randrange(0, 5)):
                x = rng.uniform(0, 16)
                y = rng.uniform(0, 16)
                gts.append((image_id, (x, y, x + rng.uniform(1, 4), y + rng.uniform(1, 4))))
        for image_id in range(n_images):
            for _ in range(rng.randrange(0, 8)):
                if gts and rng.random() < 0.7:
                    # perturb a ground truth so realistic IoUs appear
                    _, (x1, y1, x2, y2) = gts[rng.randrange(len(gts))]
                    jitter = rng.uniform(0, 1.5)
                    box = (x1 + jitter, y1, x2 + jitter, y2 + rng.uniform(-0.5, 0.5))
                    if box[3] <= box[1]:
                        continue
                else:
                    x = rng.uniform(0, 16)
                    y = rng.uniform(0, 16)
                    box = (x, y, x + rng.uniform(1, 4), y + rng.uniform(1, 4))
                score = round(rng.random(), 1) if rng.random() < 0.2 else rng.random()
                dets.append((image_id, box, score))
        return dets, gts

    def test_ap_matches_naive_oracle(self):
        rng = random.Random(41)
        for i in range(150):
            raw_dets, raw_gts = self._random_instance(rng)
            threshold = DEFAULT_IOU_THRESHOLDS[i % len(DEFAULT_IOU_THRESHOLDS)]
            dets = [_det(im, 1, box, score) for im, box, score in raw_dets]
            gts = [_gt(im, 1, box) for im, box in raw_gts]
            expected = naive_average_precision(raw_dets, raw_gts, threshold)
            assert average_precision(dets, gts, threshold) == pytest.approx(
                expected, abs=1e-9
            )
            assert max_achieved_recall(dets, gts, threshold) == pytest.approx(
                naive_max_recall(raw_dets, raw_gts, threshold), abs=1e-12
            )

    def test_ap_monotone_in_threshold(self):
        rng = random.Random(42)
        for _ in range(100):
            raw_dets, raw_gts = self._random_instance(rng)
            dets = [_det(im, 1, box, score) for im, box, score in raw_dets]
            gts = [_gt(im, 1, box) for im, box in raw_gts]
            if not gts:
                continue
            aps = [average_precision(dets, gts, t) for t in DEFAULT_IOU_THRESHOLDS]
            for lo, hi in zip(aps[1:], aps[:-1]):
                assert lo <= hi + 1e-12

    def test_adding_fp_never_increases_ap(self):
        rng = random.Random(43)
        for _ in range(100):
            raw_dets, raw_gts = self._random_instance(rng)
            dets = [_det(im, 1, box, score) for im, box, score in raw_dets]
            gts = [_gt(im, 1, box) for im, box in raw_gts]
            if not gts:
                continue
            # a zero-score detection far outside every ground truth
            with_fp = dets + [_det(0, 1, (1000, 1000, 1001, 1001), 0.0)]
            for t in (0.5, 0.75):
                before = average_precision(dets, gts, t)
                after = average_precision(with_fp, gts, t)
                assert after <= before + 1e-12

    def test_removing_fp_never_decreases_ap(self):
        rng = random.Random(45)
        for _ in range(60):
            raw_dets, raw_gts = self._random_instance(rng)
            dets = [_det(im, 1, box, score) for im, box, score in raw_dets]
            gts = [_gt(im, 1, box) for im, box in raw_gts]
            if not gts or len(dets) < 2:
                continue
            for t in (0.5, 0.8):
                tp_by_image = {}
                for image_id in {d.image_id for d in dets}:
                    image_dets = [d for d in dets if d.image_id == image_id]
                    image_gts = [g for g in gts if g.image_id == image_id]
                    flags, _ = match_detections(image_dets, image_gts, t)
                    tp_by_image[image_id] = dict(zip(image_dets, flags))
                fp_positions = [
                    i for i, d in enumerate(dets) if not tp_by_image[d.image_id][d]
                ]
                if not fp_positions:
                    continue
                drop = fp_positions[rng.randrange(len(fp_positions))]
                without = dets[:drop] + dets[drop + 1 :]
                assert average_precision(without, gts, t) >= average_precision(
                    dets, gts, t
                ) - 1e-12

    def test_permutation_invariance(self):
        rng = random.Random(44)
        for _ in range(50):
            raw_dets, raw_gts = self._random_instance(rng)
            # force distinct scores
            raw_dets = [
                (im, box, (i + 1) / (len(raw_dets) + 1))
                for i, (im, box, _) in enumerate(raw_dets)
            ]
            dets = [_det(im, 1, box, score) for im, box, score in raw_dets]
            gts = [_gt(im, 1, box) for im, box in raw_gts]
            if not gts or not dets:
                continue
            shuffled = dets[:]
            rng.shuffle(shuffled)
            report_a = evaluate(dets, gts)
            report_b = evaluate(shuffled, gts)
            assert report_a.map_all == report_b.map_all
            assert report_a.average_recall == report_b.average_recall


class TestCoreEquivalence:
    """``evaluate`` sets up each (class, image) slice once for all thresholds."""

    CAP = 3

    @staticmethod
    def _dense_instance(rng):
        # Integer corners on a small grid give many equal IoUs. Ground truths
        # come alone, repeated, or with a copy shifted one unit right; a
        # detection shifted half a unit then has two candidates at the same
        # IoU. Scores come from a short list, so equal scores are common.
        dets = []
        gts = []
        for image_id in range(rng.randrange(1, 4)):
            for class_id in (1, 2):
                boxes = []
                for _ in range(rng.randrange(0, 5)):
                    x, y = rng.randrange(0, 8), rng.randrange(0, 8)
                    box = (x, y, x + rng.randrange(2, 5), y + rng.randrange(1, 4))
                    copy = rng.choice((None, None, box, (x + 1, y, box[2] + 1, box[3])))
                    boxes.extend([box] if copy is None else [box, copy])
                gts.extend((image_id, class_id, box) for box in boxes)
                for _ in range(rng.randrange(0, 8)):
                    if boxes and rng.random() < 0.7:
                        x1, y1, x2, y2 = rng.choice(boxes)
                        dx = rng.choice((-1, -0.5, 0, 0, 0.5, 1))
                        box = (x1 + dx, y1, x2 + dx, y2 + rng.choice((0, 0, 1)))
                    else:
                        x, y = rng.randrange(0, 8), rng.randrange(0, 8)
                        box = (x, y, x + rng.randrange(1, 4), y + rng.randrange(1, 4))
                    dets.append((image_id, class_id, box, rng.choice((0.3, 0.5, 0.5, 0.9))))
        return dets, gts

    @staticmethod
    def _objects(raw_dets, raw_gts):
        dets = [_det(im, c, box, score) for im, c, box, score in raw_dets]
        gts = [_gt(im, c, box) for im, c, box in raw_gts]
        return dets, gts

    def test_evaluate_matches_naive_oracle_at_every_threshold(self):
        rng = random.Random(46)
        cfg = EvalConfig(max_detections_per_image=self.CAP)
        capped_slices = 0
        for _ in range(120):
            raw_dets, raw_gts = self._dense_instance(rng)
            if not raw_gts:
                continue
            per_slice = Counter((im, c) for im, c, _, _ in raw_dets)
            capped_slices += sum(n > self.CAP for n in per_slice.values())
            report = evaluate(*self._objects(raw_dets, raw_gts), cfg)
            assert set(report.per_class) == {c for _, c, _ in raw_gts}
            for class_id, result in report.per_class.items():
                class_dets = [(im, box, score) for im, c, box, score in raw_dets if c == class_id]
                class_gts = [(im, box) for im, c, box in raw_gts if c == class_id]
                for k, t in enumerate(DEFAULT_IOU_THRESHOLDS):
                    assert result.ap_per_threshold[k] == pytest.approx(
                        naive_average_precision(class_dets, class_gts, t, self.CAP), abs=1e-9
                    )
                    assert result.recall_per_threshold[k] == pytest.approx(
                        naive_max_recall(class_dets, class_gts, t, self.CAP), abs=1e-12
                    )
        assert capped_slices > 0

    def test_equal_iou_tie_break_with_gt_indices_interleaved_across_images(self):
        # Each image has two ground truths at IoU 1/3 from its first detection, and a second detection
        # on the one of higher input index. Images interleave in the ground-truth list, so the pair
        # table holds each detection's pairs in input order only if the join's sort by image is stable.
        rng = random.Random(23)
        gts = [_gt(image_id, 1, box) for image_id in range(60) for box in ((0, 0, 2, 2), (2, 0, 4, 2))]
        rng.shuffle(gts)
        dets = []
        for image_id in range(60):
            later = max(j for j, g in enumerate(gts) if g.image_id == image_id)
            dets += [_det(image_id, 1, (1, 0, 3, 2), 0.9), _det(image_id, 1, gts[later].box.as_tuple(), 0.5)]
        result = evaluate(dets, gts, EvalConfig(iou_thresholds=(0.3,))).per_class[1]
        assert result.recall_per_threshold == (1.0,) and result.ap_per_threshold == (1.0,)

    def test_single_threshold_wrappers_agree_exactly(self):
        rng = random.Random(47)
        cfg = EvalConfig(max_detections_per_image=self.CAP)
        for _ in range(60):
            raw_dets, raw_gts = self._dense_instance(rng)
            if not raw_gts:
                continue
            dets, gts = self._objects(raw_dets, raw_gts)
            report = evaluate(dets, gts, cfg)
            for class_id, result in report.per_class.items():
                class_dets = [d for d in dets if d.class_id == class_id]
                class_gts = [g for g in gts if g.class_id == class_id]
                aps = tuple(average_precision(class_dets, class_gts, t, cfg) for t in cfg.iou_thresholds)
                recalls = tuple(
                    max_achieved_recall(class_dets, class_gts, t, cfg) for t in cfg.iou_thresholds
                )
                assert aps == result.ap_per_threshold
                assert recalls == result.recall_per_threshold

    def test_each_pair_iou_computed_at_most_once(self, monkeypatch):
        # evaluate computes every IoU in geometry.iou_array: it must be handed exactly one
        # element per (kept detection, ground truth) pair of each (class, image) slice.
        handed = []
        real_iou_array = evaluation.iou_array

        def counting_iou_array(a, b):
            handed.append(math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])))
            return real_iou_array(a, b)

        monkeypatch.setattr(evaluation, "iou_array", counting_iou_array)
        rng = random.Random(48)
        pairs_seen = 0
        for _ in range(40):
            raw_dets, raw_gts = self._dense_instance(rng)
            if not raw_gts:
                continue
            dets_per_slice = Counter((im, c) for im, c, _, _ in raw_dets)
            gts_per_slice = Counter((im, c) for im, c, _ in raw_gts)
            handed.clear()
            evaluate(*self._objects(raw_dets, raw_gts), EvalConfig(max_detections_per_image=self.CAP))
            pairs = sum(min(n, self.CAP) * gts_per_slice[key] for key, n in dets_per_slice.items())
            assert sum(handed) == pairs
            pairs_seen += pairs
        assert pairs_seen > 100


class TestEvaluateAndAggregate:
    def test_perfect_predictions(self):
        gts = [
            _gt(1, 1, (0, 0, 2, 2)),
            _gt(1, 2, (3, 3, 5, 5)),
            _gt(2, 1, (1, 1, 4, 4)),
        ]
        dets = [Detection(g.image_id, g.class_id, g.box, 1.0) for g in gts]
        report = evaluate(dets, gts)
        assert report.map_all == 1.0
        assert report.map_50 == 1.0
        assert report.average_recall == 1.0
        assert report.f1 == 1.0

    def test_wrong_class_is_fp_and_gt_stays_unmatched(self):
        gts = [_gt(1, 1, (0, 0, 2, 2))]
        dets = [_det(1, 2, (0, 0, 2, 2), 0.9)]  # right box, wrong class
        tp, matched = match_detections(
            [d for d in dets if d.class_id == 1], gts, 0.5
        )
        assert tp == [] and matched == [False]
        report = evaluate(dets, gts, EvalConfig(include_gt_free_classes=True))
        assert report.per_class[1].ap_all == 0.0  # gt class: nothing found
        assert report.per_class[2].ap_all == 0.0  # FP-only class counts as 0
        assert report.map_all == 0.0

    def test_gt_free_class_skipped_by_default(self):
        gts = [_gt(1, 1, (0, 0, 2, 2))]
        dets = [
            _det(1, 1, (0, 0, 2, 2), 0.9),
            _det(1, 2, (0, 0, 2, 2), 0.9),  # class 2 has no ground truth
        ]
        report = evaluate(dets, gts)
        assert set(report.per_class) == {1}
        assert report.map_all == 1.0
        included = evaluate(dets, gts, EvalConfig(include_gt_free_classes=True))
        assert set(included.per_class) == {1, 2}
        assert included.map_all == 0.5

    def test_aggregate_reproduces_published_model_means(self):
        doc = json.loads((FIXTURES / "published_metrics.json").read_text())
        per_class_map = doc["per_class"]["map_all"]
        for row in doc["models"]:
            model = row["model"]
            results = [
                PerClassResult(
                    class_id=name,
                    ap_per_threshold=(values[model],) * 10,
                    recall_per_threshold=(1.0,) * 10,
                    ap_all=values[model],
                    ap_50=doc["per_class"]["map_50"][name][model],
                    num_ground_truths=1,
                )
                for name, values in per_class_map.items()
            ]
            report = aggregate(results)
            assert report.map_all == pytest.approx(row["map_all"], abs=5e-5)
            assert report.map_50 == pytest.approx(row["map_50"], abs=5e-5)

    def test_map_50_is_none_without_half_threshold(self):
        gts = [_gt(1, 1, (0, 0, 2, 2)), _gt(1, 2, (3, 3, 5, 5))]
        dets = [Detection(g.image_id, g.class_id, g.box, 1.0) for g in gts]
        report = evaluate(dets, gts, EvalConfig(iou_thresholds=(0.75, 0.9)))
        assert report.map_50 is None
        assert [r.ap_50 for r in report.per_class.values()] == [None, None]
        assert report.map_all == 1.0
        with_half = evaluate(dets, gts, EvalConfig(iou_thresholds=(0.5, 0.9)))
        assert with_half.map_50 == 1.0

    def test_aggregate_f1_is_harmonic_mean(self):
        result = PerClassResult(
            class_id=1,
            ap_per_threshold=(0.9408,),
            recall_per_threshold=(0.973,),
            ap_all=0.9408,
            ap_50=0.9408,
            num_ground_truths=1,
        )
        report = aggregate([result])
        assert report.f1 == pytest.approx(0.9566, abs=1e-4)

    def test_empty_aggregate_raises(self):
        with pytest.raises(EmptyEvaluationError):
            aggregate([])


class TestValidation:
    def test_score_range(self):
        with pytest.raises(ValidationError):
            _det(1, 1, (0, 0, 1, 1), 1.5)

    def test_gt_positive_area(self):
        with pytest.raises(InvalidBoxError):
            _gt(1, 1, (0, 0, 0, 1))

    def test_gt_finite_area(self):
        # An area past 1e308 is inf, and the box's IoU with itself NaN.
        with pytest.raises(InvalidBoxError, match=r"positive, finite area, got \(0, 0, 1e\+300, 1e\+300\)"):
            _gt(1, 1, (0, 0, 1e300, 1e300))
        assert _gt(1, 1, (0, 0, 1e150, 1e150)).box.x_max == 1e150

    def test_config_thresholds(self):
        with pytest.raises(ValidationError):
            EvalConfig(iou_thresholds=(0.5, 0.5))
        with pytest.raises(ValidationError):
            EvalConfig(iou_thresholds=())
        with pytest.raises(ValidationError):
            EvalConfig(iou_thresholds=(0.0, 0.5))
        with pytest.raises(ValidationError):
            EvalConfig(max_detections_per_image=0)
