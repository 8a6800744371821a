import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from helpers import brute_force_nms, sample_box, tuple_iou


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


def _boundary_instance(n, rng):
    """Crowded boxes mixing exact score ties, IoU-exactly-0.5 pairs and zero-area boxes."""
    boxes, scores = [], []
    for k in range(n):
        x, y = rng.randrange(0, 12), rng.randrange(0, 12)
        kind = k % 4
        if kind == 0:
            box = (x, y, x + 2, y + 2)
        elif kind == 1:
            box = (x, y, x + 2, y + 1)  # IoU exactly 0.5 with (x, y, x + 2, y + 2)
        elif kind == 2:
            box = (x, y, x + rng.choice([0, 3]), y + rng.choice([0, 1]))  # zero-area unless (3, 1)
        else:
            box = (x + rng.random(), y, x + 4, y + rng.uniform(1, 4))
        boxes.append(box)
        scores.append(rng.choice([0.2, 0.5, 0.9]) if rng.random() < 0.5 else rng.random())
    return boxes, scores


class TestNmsBlockBoundary:
    """Greedy NMS works through its candidates in blocks of 64; results must not depend on where a block ends."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 300])
    def test_matches_brute_force(self, n):
        rng = random.Random(36 + n)
        for _ in range(3):
            boxes, scores = _boundary_instance(n, rng)
            candidates = [ScoredBox(Box(*b), s) for b, s in zip(boxes, scores)]
            for threshold in (0.3, 0.5, 0.7):
                full = brute_force_nms(boxes, scores, threshold, n)
                for max_keep in sorted({1, 2, 63, 64, 65, len(full) // 2 + 1, len(full), 1000}):
                    expected = brute_force_nms(boxes, scores, threshold, max_keep)
                    assert nms(candidates, threshold, max_keep) == expected

    @pytest.mark.parametrize("n", [65, 128, 129])
    def test_exact_threshold_pair_across_blocks(self, n):
        # equal scores: visit order is input order, so rows 63 and 64 sit in different blocks
        boxes = [(10.0 * k, 0.0, 10.0 * k + 1, 1.0) for k in range(n)]
        boxes[63], boxes[64] = (0.0, 50.0, 2.0, 52.0), (0.0, 50.0, 2.0, 51.0)
        candidates = [ScoredBox(Box(*b), 0.5) for b in boxes]
        assert nms(candidates, 0.5, 1000) == list(range(n))
        assert nms(candidates, 0.49, 1000) == [k for k in range(n) if k != 64]
        assert nms(candidates, 0.49, 64) == list(range(64))

    def test_zero_area_pairs_never_suppress(self):
        candidates = [ScoredBox(Box(1, 1, 1, 1), 0.5) for _ in range(130)]
        assert nms(candidates, 0.1, 1000) == list(range(130))


_int_boxes = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 4), st.integers(0, 4)).map(
        lambda t: (float(t[0]), float(t[1]), float(t[0] + t[2]), float(t[1] + t[3]))
    ),
    min_size=50,
    max_size=140,
)


class TestNmsProperties:
    """Integer corners make IoUs of exactly 0.5 common, so the strict '>' is exercised."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(boxes=_int_boxes, threshold=st.sampled_from([0.25, 0.5, 0.6]), data=st.data())
    def test_idempotent_and_strict(self, boxes, threshold, data):
        scores = data.draw(st.lists(st.sampled_from([0.1, 0.4, 0.7, 1.0]), min_size=len(boxes), max_size=len(boxes)))
        candidates = [ScoredBox(Box(*b), s) for b, s in zip(boxes, scores)]
        kept = nms(candidates, threshold, 1000)
        assert nms([candidates[i] for i in kept], threshold, 1000) == list(range(len(kept)))
        visit = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
        for pos, i in enumerate(visit):
            earlier_kept = [j for j in visit[:pos] if j in kept]
            suppressed = any(tuple_iou(boxes[i], boxes[j]) > threshold for j in earlier_kept)
            assert (i not in kept) == suppressed


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

    def test_matches_naive_argmax(self):
        rng = random.Random(37)
        for _ in range(50):
            gts = [sample_box(rng).as_tuple() for _ in range(rng.randrange(1, 8))]
            gts += rng.sample(gts, rng.randrange(0, len(gts) + 1))  # duplicate GTs tie on IoU
            props = [sample_box(rng).as_tuple() for _ in range(rng.randrange(0, 40))]
            props += [(x, y, x, y + 1) for x, y in ((1, 1), (5, 5))] + [(2, 2, 2, 2)]  # zero-area
            props += [(g[0], g[1], g[0], g[3]) for g in gts[:2]]  # zero-area on a GT edge
            records = assign_proposals([Box(*p) for p in props], [Box(*g) for g in gts], 0.5)
            for i, (prop, rec) in enumerate(zip(props, records)):
                ious = [tuple_iou(prop, g) for g in gts]
                best = max(range(len(gts)), key=lambda j: (ious[j], -j))
                assert (rec.proposal_index, rec.positive, rec.gt_index, rec.iou) == (
                    i, ious[best] > 0.5, best, ious[best]
                )
            assert len(records) == len(props)

    def test_empty_proposals(self):
        assert assign_proposals([], [Box(0, 0, 1, 1)], 0.5) == []

    def test_equal_iou_ties_go_to_lower_index(self):
        # the two GTs are mirror images around the proposal, so their IoUs are equal
        records = assign_proposals([Box(2, 0, 4, 2)], [Box(3, 0, 5, 2), Box(1, 0, 3, 2), Box(3, 0, 5, 2)], 0.3)
        assert [(r.gt_index, r.iou, r.positive) for r in records] == [(0, 1 / 3, True)]

    def test_zero_area_proposal_is_negative(self):
        (record,) = assign_proposals([Box(1, 1, 1, 1)], [Box(0, 0, 2, 2), Box(1, 1, 1, 1)], 0.5)
        assert (record.positive, record.gt_index, record.iou) == (False, 0, 0.0)

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            assign_proposals([], [], 0.0)
        with pytest.raises(ValidationError):
            assign_proposals([], [], 1.0)
