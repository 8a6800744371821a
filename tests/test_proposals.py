import dataclasses
import gc
import math
import random
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab import proposals
from boxlab.errors import InvalidBoxError, ValidationError
from boxlab.geometry import Box, iou_array
from boxlab.proposals import (
    Anchor,
    AnchorConfig,
    AnchorSet,
    BoxDelta,
    ProposalAssignment,
    ScoredBox,
    assign_proposals,
    decode_delta,
    encode_delta,
    generate_anchors,
    nms,
)
from helpers import anchor_tiling, brute_force_nms, sample_box, tuple_iou


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
            # generate_anchors raised OverflowError (base side) or InvalidBoxError (half-extent) before.
            {"scale": 10**310},
            {"scale": 10**200, "aspect_ratios": (1.0, 1e300)},
            {"scale": 10**200, "aspect_ratios": (1e-300,)},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            AnchorConfig(**kwargs)


class TestGenerateAnchors:
    def test_base_anchor_geometry(self):
        cfg = AnchorConfig(scale=8, aspect_ratios=(1.0,), strides=(16,))
        anchors = generate_anchors(cfg, [(1, 1)])
        assert list(anchors) == [Anchor(box=Box(-56.0, -56.0, 72.0, 72.0), level=0, cell=(0, 0))]
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

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_tiling_oracle(self, seed):
        rng = random.Random(seed)
        ratios = tuple(rng.choice((0.25, 1 / 3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.3)) for _ in range(rng.randrange(1, 5)))
        strides = tuple(sorted(rng.sample(range(1, 65), rng.randrange(1, 5))))
        scale = rng.randrange(1, 17)
        sizes = [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in strides]
        anchors = generate_anchors(AnchorConfig(scale, ratios, strides), sizes)
        want = anchor_tiling(scale, ratios, strides, sizes)
        assert [(a.level, a.cell) for a in anchors] == [(level, cell) for level, cell, _ in want]
        tol = 1e-12 * max(strides) * scale * 4
        for anchor, (_, _, corners) in zip(anchors, want):
            assert anchor.box.as_tuple() == pytest.approx(corners, rel=1e-12, abs=tol)


def _reference_anchors(cfg, feature_sizes):
    """generate_anchors as one Anchor(Box(...)) per anchor: the loop the bulk build replaced."""
    anchors = []
    for level, (stride, (height, width)) in enumerate(zip(cfg.strides, feature_sizes)):
        base = float(stride * cfg.scale)
        halves = [(base * math.sqrt(r) / 2, base / math.sqrt(r) / 2) for r in cfg.aspect_ratios]
        x_spans = [[(cx - hw, cx + hw) for hw, _ in halves] for cx in ((c + 0.5) * stride for c in range(width))]
        for row in range(height):
            cy = (row + 0.5) * stride
            y_spans = [(cy - hh, cy + hh) for _, hh in halves]
            for col, xs in enumerate(x_spans):
                cell = (row, col)
                for (x0, x1), (y0, y1) in zip(xs, y_spans):
                    anchors.append(Anchor(Box(x0, y0, x1, y1), level, cell))
    return anchors


def _fields(anchors):
    return [(a.level, a.cell, *map(float.hex, a.box.as_tuple())) for a in anchors]


def _sharing(anchors):
    """Per anchor, the index of the first anchor holding the same object, for each coordinate and
    the cell: equal lists mean the same floats and tuples are shared between the same anchors."""
    first: dict = {}
    return [
        [first.setdefault((k, id(v)), i) for k, v in enumerate((*a.box.as_tuple(), a.cell))]
        for i, a in enumerate(anchors)
    ]


_PYRAMIDS = {
    "default_640x360": (AnchorConfig(), [(90, 160), (45, 80), (23, 40), (12, 20)]),
    "1x1": (AnchorConfig(strides=(16,)), [(1, 1)]),
    "1xN": (AnchorConfig(strides=(8,)), [(1, 37)]),
    "Nx1": (AnchorConfig(strides=(8,)), [(29, 1)]),
    "odd_strides_4_ratios": (AnchorConfig(scale=3, aspect_ratios=(0.3, 0.7, 1.5, 3.3), strides=(3, 7, 13)),
                             [(11, 17), (5, 7), (3, 2)]),
    "large_scale": (AnchorConfig(scale=10**290, aspect_ratios=(0.6, 1.0, 1.7), strides=(5, 9)), [(4, 6), (3, 2)]),
}


class TestBulkAnchors:
    """generate_anchors builds its objects per row without Box.__init__; every anchor must equal the
    reference loop's, bit for bit, with the same objects shared."""

    @pytest.mark.parametrize("name", sorted(_PYRAMIDS))
    def test_matches_reference_loop(self, name):
        cfg, sizes = _PYRAMIDS[name]
        got, want = generate_anchors(cfg, sizes), _reference_anchors(cfg, sizes)
        assert _fields(got) == _fields(want)
        assert _sharing(got) == _sharing(want)

    @pytest.mark.parametrize("name", sorted(_PYRAMIDS))
    def test_objects_equal_constructed_ones(self, name):
        cfg, sizes = _PYRAMIDS[name]
        for a in generate_anchors(cfg, sizes):
            assert all(hasattr(a, s) for s in Anchor.__slots__) and all(hasattr(a.box, s) for s in Box.__slots__)
            assert type(a) is Anchor and type(a.box) is Box
            built = Anchor(Box(*a.box.as_tuple()), a.level, a.cell)
            assert a == built and hash(a) == hash(built)
            assert a.box == built.box and hash(a.box) == hash(built.box)

    @pytest.mark.parametrize(
        "cfg, sizes",
        [
            # An x extent overflows at cell (0, 3), on the middle ratio.
            (AnchorConfig(scale=1, aspect_ratios=(0.25, 4.0, 1.0), strides=(4 * 10**307,)), [(1, 4)]),
            # A y extent overflows on row 1 of the second level only.
            (AnchorConfig(scale=1, aspect_ratios=(1.0,), strides=(1, 10**308)), [(2, 2), (2, 1)]),
            # Every row of the level fails through its x extents.
            (AnchorConfig(scale=1, aspect_ratios=(0.5, 2.0), strides=(10**308,)), [(3, 3)]),
        ],
    )
    def test_overflowing_anchor_raises_like_reference(self, cfg, sizes):
        # The reference fails on its first overflowing Box; generate_anchors rejects the level
        # before tiling it, naming its stride and feature size.
        with pytest.raises(InvalidBoxError, match="inf"):
            _reference_anchors(cfg, sizes)
        level = next(i for i, (stride, (h, w)) in enumerate(zip(cfg.strides, sizes))
                     if (max(h, w) - 0.5) * stride >= 1e308)
        (h, w), stride = sizes[level], cfg.strides[level]
        with pytest.raises(ValidationError) as got:
            generate_anchors(cfg, sizes)
        assert type(got.value) is ValidationError
        assert str(got.value).startswith(f"stride {stride} with feature size {h}x{w} (level {level}) ")
        assert "inf" in str(got.value)


class TestAnchorSet:
    """generate_anchors returns columns; each index builds a new Anchor equal to the reference loop's."""

    def test_sequence_semantics(self):
        cfg, sizes = _PYRAMIDS["odd_strides_4_ratios"]
        anchors, want = generate_anchors(cfg, sizes), _reference_anchors(cfg, sizes)
        assert isinstance(anchors, AnchorSet) and isinstance(anchors, Sequence)
        n = len(anchors)
        assert n == len(want) == sum(h * w for h, w in sizes) * 4
        for i in (0, 1, n - 1, -1, -2, -n):
            got = anchors[i]
            assert type(got) is Anchor and type(got.box) is Box
            assert got == want[i]
        for i in (n, -n - 1, 10**9):
            with pytest.raises(IndexError):
                anchors[i]
        for sl in (slice(2, 9), slice(None, None, -3), slice(5, 2), slice(-4, None), slice(None)):
            part = anchors[sl]
            assert type(part) is tuple
            assert list(part) == want[sl]
        assert anchors[7:30][3] == want[10]
        assert list(reversed(anchors)) == want[::-1]
        assert anchors.index(want[5]) == 5 and want[5] in anchors

    def test_each_index_builds_a_new_equal_anchor(self):
        anchors = generate_anchors(*_PYRAMIDS["default_640x360"])
        first, again = anchors[1234], anchors[1234]
        assert first is not again and first.box is not again.box
        assert first == again and hash(first) == hash(again)
        assert all(x is y for x, y in zip(first.box.as_tuple(), again.box.as_tuple()))
        assert first.cell is again.cell

    @pytest.mark.parametrize("name", sorted(_PYRAMIDS))
    def test_random_access_matches_reference_loop(self, name):
        cfg, sizes = _PYRAMIDS[name]
        anchors, want = generate_anchors(cfg, sizes), _reference_anchors(cfg, sizes)
        order = list(range(len(want)))
        random.Random(len(want)).shuffle(order)
        got = [anchors[i] for i in order]
        want = [want[i] for i in order]
        assert _fields(got) == _fields(want)
        assert _sharing(got) == _sharing(want)

    def test_default_pyramid_adds_few_tracked_objects(self):
        # The eager list added 115,017 GC-tracked objects here (an Anchor and a Box per anchor, and
        # the list); the columns add their lists. Cell tuples hold only ints, so a collection untracks them.
        cfg, sizes = _PYRAMIDS["default_640x360"]
        gc.collect()
        before = len(gc.get_objects())
        anchors = generate_anchors(cfg, sizes)
        gc.collect()
        assert len(gc.get_objects()) - before < 1_000
        assert len(anchors) == 57_480


_corner_and_extents = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(1e-3, 1e6), st.floats(1e-3, 1e6))


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

    @pytest.mark.parametrize(
        "delta",
        [
            BoxDelta(0.0, 0.0, 710.0, 0.0),  # math.exp raised OverflowError
            BoxDelta(0.0, 0.0, 0.0, 1e10),
            BoxDelta(0.0, 0.0, math.inf, 0.0),
            BoxDelta(0.0, 0.0, 0.0, math.inf),
            BoxDelta(0.0, 0.0, 709.5, 0.0),  # e**709.5 is finite, the width is not
            BoxDelta(math.nan, 0.0, 0.0, 0.0),
            BoxDelta(1e308, 0.0, 0.0, 0.0),
        ],
    )
    def test_decode_past_the_float_range_names_anchor_and_delta(self, delta):
        anchor = Box(10.0, 20.0, 14.0, 28.0)
        with pytest.raises(InvalidBoxError) as got:
            decode_delta(anchor, delta)
        assert type(got.value) is InvalidBoxError
        assert str(anchor.as_tuple()) in str(got.value) and repr(delta) in str(got.value)

    def test_decode_near_the_float_range_gives_a_box(self):
        box = decode_delta(Box(0.0, 0.0, 1e-300, 1e-300), BoxDelta(0.0, 0.0, 709.5, 700.0))
        assert type(box) is Box and box == Box(*box.as_tuple())
        assert box.x_max < math.inf and box.y_max < math.inf

    @pytest.mark.parametrize(
        "anchor, target",
        [
            (Box(0, 0, 1e-300, 1e-300), Box(0, 0, 1e300, 1e300)),  # returned BoxDelta(inf, inf, inf, inf)
            (Box(0, 0, 1e300, 1e300), Box(0, 0, 1e-300, 1e-300)),  # log(0): raised ValueError
            (Box(0, 0, 1e-300, 1), Box(1e300, 0, 1e300 + 1e284, 1)),  # only tx is inf
            (Box(0, 0, 1e-300, 1e-300), Box(0, 0, 1e-300, 1e300)),  # only th is inf
        ],
    )
    def test_encode_to_a_non_finite_delta_names_both_boxes(self, anchor, target):
        with pytest.raises(InvalidBoxError) as got:
            encode_delta(anchor, target)
        assert str(anchor.as_tuple()) in str(got.value) and str(target.as_tuple()) in str(got.value)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        anchor=_corner_and_extents,
        delta=st.tuples(*[st.floats(-1e3, 1e3)] * 2, *[st.floats(-700.0, 700.0)] * 2),
    )
    def test_decode_matches_box_constructor(self, anchor, delta):
        # The box decode_delta builds through the slots equals the Box(...) of the former formula, bit for bit.
        anchor = Box(anchor[0], anchor[1], anchor[0] + anchor[2], anchor[1] + anchor[3])
        x0, y0, x1, y1 = anchor.as_tuple()
        aw, ah = x1 - x0, y1 - y0
        cx, cy = (x0 + x1) / 2.0 + delta[0] * aw, (y0 + y1) / 2.0 + delta[1] * ah
        w, h = aw * math.exp(delta[2]), ah * math.exp(delta[3])
        corners = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        if not all(math.isfinite(c) for c in corners):
            with pytest.raises(InvalidBoxError):
                decode_delta(anchor, BoxDelta(*delta))
            return
        got = decode_delta(anchor, BoxDelta(*delta))
        assert type(got) is Box and got == Box(*corners)
        assert list(map(float.hex, got.as_tuple())) == list(map(float.hex, corners))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(anchor=_corner_and_extents, target=_corner_and_extents)
    def test_round_trip_property(self, anchor, target):
        anchor, target = (Box(x, y, x + w, y + h) for x, y, w, h in (anchor, target))
        decoded = decode_delta(anchor, encode_delta(anchor, target))
        # relative to the largest coordinate: a corner near 0 inherits the rounding of the centers
        scale = max(abs(v) for v in anchor.as_tuple() + target.as_tuple())
        for got, want in zip(decoded.as_tuple(), target.as_tuple()):
            assert abs(got - want) <= 1e-9 * scale


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

    def test_scored_box_is_a_frozen_dataclass(self):
        box = Box(0, 0, 1, 1)
        made = ScoredBox(box, 0.25)
        assert made == ScoredBox(box=box, score=0.25) and hash(made) == hash(ScoredBox(box, 0.25))
        assert repr(made) == f"ScoredBox(box={box!r}, score=0.25)"
        assert dataclasses.replace(made, score=0.5) == ScoredBox(box, 0.5)
        assert not hasattr(made, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.score = 0.5
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValidationError, match="score must be in"):
                ScoredBox(box, bad)


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


class TestNmsWork:
    def test_iou_work_is_bounded_by_kept_boxes(self, monkeypatch):
        # Disjoint boxes: nothing is suppressed, so max_keep ends the walk inside the first block,
        # and no row needs comparing with the 936 candidates it never reaches.
        elements = []

        def counting_iou_array(a, b):
            out = iou_array(a, b)
            elements.append(out.size)
            return out

        monkeypatch.setattr(proposals, "iou_array", counting_iou_array)
        candidates = [ScoredBox(Box(3.0 * k, 0.0, 3.0 * k + 1, 1.0), 0.5) for k in range(1000)]
        assert nms(candidates, 0.5, max_keep=10) == list(range(10))
        assert sum(elements) <= 64 * 64


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

    @pytest.mark.parametrize("n_gts", [0, 1, 5])
    def test_records_equal_the_constructors(self, n_gts):
        # assign_proposals builds its records through the slot descriptors, not __init__.
        rng = random.Random(41 + n_gts)
        gts = [sample_box(rng) for _ in range(n_gts)]
        props = [sample_box(rng) for _ in range(60)] + gts + [Box(2, 2, 2, 2)]
        records = assign_proposals(props, gts, 0.5)
        assert len(records) == len(props)
        for i, (prop, rec) in enumerate(zip(props, records)):
            ious = [tuple_iou(prop.as_tuple(), g.as_tuple()) for g in gts]
            best = max(range(len(gts)), key=lambda j: (ious[j], -j), default=None)
            iou = 0.0 if best is None else ious[best]
            want = ProposalAssignment(i, positive=iou > 0.5, gt_index=best, iou=iou)
            assert (rec == want, hash(rec) == hash(want), repr(rec)) == (True, True, repr(want))
            assert (type(rec.proposal_index), type(rec.positive), type(rec.iou)) == (int, bool, float)
            assert type(rec.gt_index) is (int if gts else type(None))
            with pytest.raises(dataclasses.FrozenInstanceError):
                rec.iou = 0.0
        assert any(rec.positive for rec in records) == bool(gts)

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            assign_proposals([], [], 0.0)
        with pytest.raises(ValidationError):
            assign_proposals([], [], 1.0)
