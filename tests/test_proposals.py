import math
import random

import pytest

from boxlab.errors import InvalidBoxError, ValidationError
from boxlab.geometry import Box
from boxlab.proposals import (
    Anchor,
    AnchorConfig,
    BoxDelta,
    ScoredBox,
    assign_proposals,
    decode_delta,
    encode_delta,
    generate_anchors,
    nms,
)
from helpers import brute_force_nms, sample_box


class TestAnchorConfig:
    def test_defaults_match_pyramid_recipe(self):
        cfg = AnchorConfig()
        assert cfg.scale == 8
        assert cfg.aspect_ratios == (0.5, 1.0, 2.0)
        assert cfg.strides == (4, 8, 16, 32)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 0},
            {"aspect_ratios": (1.0, -2.0)},
            {"aspect_ratios": ()},
            {"aspect_ratios": (1.0, float("nan"))},
            {"aspect_ratios": (float("inf"),)},
            {"strides": (8, 8)},
            {"strides": (16, 8)},
            {"strides": (0, 8)},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            AnchorConfig(**kwargs)


class TestGenerateAnchors:
    def test_base_anchor_geometry(self):
        cfg = AnchorConfig(scale=8, aspect_ratios=(1.0,), strides=(16,))
        anchors = generate_anchors(cfg, [(1, 1)])
        assert anchors == [Anchor(box=Box(-56.0, -56.0, 72.0, 72.0), level=0, cell=(0, 0))]
        box = anchors[0].box
        assert box.center() == (8.0, 8.0)
        assert box.width == box.height == 128.0  # stride * scale

    def test_count(self):
        cfg = AnchorConfig(strides=(16,))
        anchors = generate_anchors(cfg, [(2, 3)])
        assert len(anchors) == 2 * 3 * 3

    def test_total_count_across_levels(self):
        cfg = AnchorConfig()
        sizes = [(90, 160), (45, 80), (23, 40), (12, 20)]
        anchors = generate_anchors(cfg, sizes)
        assert len(anchors) == sum(h * w * 3 for h, w in sizes)

    def test_ratio_preserves_area(self):
        cfg = AnchorConfig(scale=8, strides=(16,))
        anchors = generate_anchors(cfg, [(1, 1)])
        base_area = float(16 * 8) ** 2
        for anchor in anchors:
            assert anchor.box.width * anchor.box.height == pytest.approx(base_area, rel=1e-12)

    def test_ratio_two_shape(self):
        cfg = AnchorConfig(scale=8, aspect_ratios=(2.0,), strides=(16,))
        (anchor,) = generate_anchors(cfg, [(1, 1)])
        assert anchor.box.width / anchor.box.height == pytest.approx(2.0, rel=1e-12)

    def test_centers_follow_cells(self):
        cfg = AnchorConfig(aspect_ratios=(1.0,), strides=(4,))
        anchors = generate_anchors(cfg, [(2, 2)])
        centers = [a.box.center() for a in anchors]
        assert centers == [(2.0, 2.0), (6.0, 2.0), (2.0, 6.0), (6.0, 6.0)]

    def test_size_count_mismatch(self):
        with pytest.raises(ValidationError):
            generate_anchors(AnchorConfig(), [(10, 10)])

    @pytest.mark.parametrize("size", [(2, 0), (0, 3), (2, -1)])
    def test_nonpositive_feature_size(self, size):
        with pytest.raises(ValidationError, match=f"level 1 must be positive, got {size[0]}x{size[1]}"):
            generate_anchors(AnchorConfig(strides=(8, 16)), [(2, 2), size])


class TestBoxDelta:
    def test_identity_encoding(self):
        anchor = Box(0, 0, 2, 2)
        assert encode_delta(anchor, anchor) == BoxDelta(0.0, 0.0, 0.0, 0.0)
        assert decode_delta(anchor, BoxDelta(0.0, 0.0, 0.0, 0.0)) == anchor

    def test_unit_shift(self):
        delta = encode_delta(Box(0, 0, 2, 2), Box(1, 1, 3, 3))
        assert delta == BoxDelta(0.5, 0.5, 0.0, 0.0)

    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(2000):
            anchor = sample_box(rng)
            target = sample_box(rng)
            decoded = decode_delta(anchor, encode_delta(anchor, target))
            for got, want in zip(decoded.as_tuple(), target.as_tuple()):
                assert got == pytest.approx(want, abs=1e-9)

    def test_nonpositive_anchor_extent(self):
        with pytest.raises(InvalidBoxError):
            encode_delta(Box(0, 0, 0, 2), Box(0, 0, 1, 1))
        with pytest.raises(InvalidBoxError):
            decode_delta(Box(0, 0, 2, 0), BoxDelta(0, 0, 0, 0))

    def test_nonpositive_target_extent(self):
        with pytest.raises(InvalidBoxError):
            encode_delta(Box(0, 0, 2, 2), Box(0, 0, 0, 1))


def _scored(boxes_scores):
    return [ScoredBox(Box(*b), s) for b, s in boxes_scores]


class TestNms:
    def test_single_box(self):
        assert nms(_scored([((0, 0, 1, 1), 0.5)]), 0.7, 1000) == [0]

    def test_empty(self):
        assert nms([], 0.7, 1000) == []

    def test_duplicate_boxes_keep_higher_score(self):
        candidates = _scored([((0, 0, 2, 2), 0.8), ((0, 0, 2, 2), 0.9)])
        assert nms(candidates, 0.7, 1000) == [1]

    def test_below_threshold_overlap_keeps_both(self):
        # IoU((0,0,2,2), (0,0,2,1)) is exactly 0.5 < threshold 0.7
        candidates = _scored([((0, 0, 2, 2), 0.9), ((0, 0, 2, 1), 0.8)])
        assert nms(candidates, 0.7, 1000) == [0, 1]

    def test_suppression_is_strict(self):
        # the same IoU-0.5 pair survives a threshold of exactly 0.5 (strict >)
        candidates = _scored([((0, 0, 2, 2), 0.9), ((0, 0, 2, 1), 0.8)])
        assert nms(candidates, 0.5, 1000) == [0, 1]
        assert nms(candidates, 0.49, 1000) == [0]

    def test_score_tie_broken_by_lower_index(self):
        candidates = _scored([((0, 0, 2, 2), 0.8), ((0, 0, 2, 2), 0.8)])
        assert nms(candidates, 0.7, 1000) == [0]

    def test_max_keep_cap(self):
        rng = random.Random(32)
        candidates = [ScoredBox(sample_box(rng), rng.random()) for _ in range(50)]
        kept = nms(candidates, 0.99, max_keep=5)
        assert len(kept) == 5

    def test_threshold_one_removes_nothing(self):
        candidates = _scored(
            [((0, 0, 2, 2), 0.9), ((0, 0, 2, 2), 0.8), ((1, 1, 3, 3), 0.7)]
        )
        assert len(nms(candidates, 1.0, 1000)) == 3

    def test_validation(self):
        with pytest.raises(ValidationError):
            nms([], 0.0, 1000)
        with pytest.raises(ValidationError):
            nms([], 0.5, 0)

    def test_matches_brute_force(self):
        rng = random.Random(33)
        for _ in range(200):
            n = rng.randrange(1, 80)
            boxes = []
            scores = []
            for _ in range(n):
                x = rng.uniform(0, 40)
                y = rng.uniform(0, 40)
                w = rng.uniform(1, 15)
                h = rng.uniform(1, 15)
                boxes.append((x, y, x + w, y + h))
                # occasional exact ties exercise the index tie-break
                scores.append(round(rng.random(), 1) if rng.random() < 0.3 else rng.random())
            candidates = [ScoredBox(Box(*b), s) for b, s in zip(boxes, scores)]
            for threshold in (0.3, 0.5, 0.7, 0.9):
                expected = brute_force_nms(boxes, scores, threshold, 1000)
                assert nms(candidates, threshold, 1000) == expected

    def test_idempotent(self):
        rng = random.Random(34)
        for _ in range(100):
            candidates = [ScoredBox(sample_box(rng), rng.random()) for _ in range(40)]
            kept = nms(candidates, 0.5, 1000)
            survivors = [candidates[i] for i in kept]
            again = nms(survivors, 0.5, 1000)
            assert again == list(range(len(survivors)))

    def test_kept_set_has_no_overlap_above_threshold(self):
        rng = random.Random(35)
        candidates = [ScoredBox(sample_box(rng), rng.random()) for _ in range(120)]
        kept = nms(candidates, 0.4, 1000)
        from boxlab.geometry import iou

        for a_pos, i in enumerate(kept):
            for j in kept[a_pos + 1 :]:
                assert iou(candidates[i].box, candidates[j].box) <= 0.4

    def test_score_validation(self):
        with pytest.raises(ValidationError):
            ScoredBox(Box(0, 0, 1, 1), 1.5)


class TestAssignProposals:
    def test_exact_match_is_positive(self):
        gt = Box(0, 0, 2, 2)
        (record,) = assign_proposals([gt], [gt], 0.5)
        assert record.positive
        assert record.gt_index == 0
        assert record.iou == 1.0

    def test_below_threshold_is_negative(self):
        # IoU((0,0,2,2),(0,0,2,1)) = 0.5 -> not greater than 0.5
        (record,) = assign_proposals([Box(0, 0, 2, 1)], [Box(0, 0, 2, 2)], 0.5)
        assert record.iou == 0.5
        assert not record.positive

    def test_argmax_ground_truth_selected(self):
        records = assign_proposals(
            [Box(0, 0, 2, 2)], [Box(1, 1, 3, 3), Box(0, 0, 2, 3)], 0.5
        )
        (record,) = records
        assert record.positive
        assert record.gt_index == 1
        assert record.iou == pytest.approx(2 / 3, abs=1e-12)

    def test_no_ground_truths(self):
        records = assign_proposals([Box(0, 0, 1, 1), Box(1, 1, 2, 2)], [], 0.5)
        assert all(not r.positive and r.gt_index is None and r.iou == 0.0 for r in records)

    def test_iou_tie_goes_to_lower_gt_index(self):
        gt = Box(0, 0, 2, 2)
        (record,) = assign_proposals([gt], [gt, gt], 0.5)
        assert record.gt_index == 0

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            assign_proposals([], [], 0.0)
        with pytest.raises(ValidationError):
            assign_proposals([], [], 1.0)
