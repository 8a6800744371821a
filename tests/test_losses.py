import math
import random

import pytest

from boxlab.errors import DegenerateAspectError
from boxlab.geometry import Box, iou
from boxlab.losses import (
    LossKind,
    ciou_internals,
    finite_diff_gradient,
    loss,
    loss_ciou,
    loss_diou,
    loss_giou,
    loss_iou,
    loss_l1,
)
from helpers import sample_box, sample_clean_pair, sample_disjoint_pair

# The 15 frozen loss fixtures. Expected values were derived independently by
# scalar recomputation (simple area/center arithmetic; the CIoU value was
# additionally confirmed with a 50-digit recomputation: 0.534498129298557).
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


class TestLossValues:
    @pytest.mark.parametrize("kind,gt,pred,expected", LOSS_FIXTURES)
    def test_fixture(self, kind, gt, pred, expected):
        assert loss(kind, gt, pred).value == pytest.approx(expected, abs=1e-9)

    def test_dispatch_matches_direct_calls(self):
        gt, pred = Box(0, 0, 4, 4), Box(1, 0.5, 3, 3.5)
        for kind, fn in [
            (LossKind.L1, loss_l1),
            (LossKind.IOU, loss_iou),
            (LossKind.GIOU, loss_giou),
            (LossKind.DIOU, loss_diou),
            (LossKind.CIOU, loss_ciou),
        ]:
            assert loss(kind, gt, pred) == fn(gt, pred)

    def test_disjoint_iou_gradient_is_exactly_zero(self):
        result = loss_iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6))
        assert result.value == 1.0
        assert result.gradient == (0.0, 0.0, 0.0, 0.0)

    def test_disjoint_giou_gradient_nonzero(self):
        result = loss_giou(Box(0, 0, 1, 1), Box(2, 2, 3, 3))
        assert math.sqrt(sum(g * g for g in result.gradient)) > 0.0

    def test_ciou_degenerate_aspect_raises(self):
        with pytest.raises(DegenerateAspectError):
            loss_ciou(Box(0, 0, 4, 4), Box(0, 0, 4, 0))
        with pytest.raises(DegenerateAspectError):
            loss_ciou(Box(0, 0, 0, 4), Box(0, 0, 4, 4))


class TestCiouInternals:
    def test_known_pair(self):
        internals = ciou_internals(Box(0, 0, 4, 4), Box(0, 0, 4, 2))
        assert internals.v == pytest.approx(0.041956461494290574, abs=1e-12)
        assert internals.alpha == pytest.approx(0.07741666439146713, abs=1e-12)

    def test_alpha_zero_below_half_iou(self):
        rng = random.Random(21)
        seen_low = 0
        for _ in range(2000):
            gt = sample_box(rng)
            pred = sample_box(rng)
            internals = ciou_internals(gt, pred)
            assert internals.v >= 0.0
            assert internals.alpha >= 0.0
            if iou(gt, pred) < 0.5:
                seen_low += 1
                assert internals.alpha == 0.0
        assert seen_low > 100

    def test_identical_boxes_have_zero_alpha_and_loss(self):
        b = Box(1, 2, 5, 9)
        assert ciou_internals(b, b) .alpha == 0.0
        assert loss_ciou(b, b).value == 0.0


class TestFiniteDiff:
    def test_l1_example(self):
        fd = finite_diff_gradient(LossKind.L1, Box(0, 0, 2, 2), Box(1, 1, 3, 3), h=1e-4)
        for component in fd:
            assert component == pytest.approx(0.25, abs=1e-9)

    def test_disjoint_iou_is_flat(self):
        fd = finite_diff_gradient(LossKind.IOU, Box(0, 0, 1, 1), Box(5, 5, 6, 6), h=1e-4)
        assert fd == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_analytic_matches_numeric(self, kind):
        rng = random.Random(hash(kind.value) % 2**32)
        for _ in range(200):
            gt, pred = sample_clean_pair(rng, kind)
            analytic = loss(kind, gt, pred).gradient
            numeric = finite_diff_gradient(kind, gt, pred, h=1e-5)
            for a, n in zip(analytic, numeric):
                assert a == pytest.approx(n, rel=1e-5, abs=1e-8)


class TestRangesAndIdentities:
    def test_ranges_on_random_pairs(self):
        rng = random.Random(22)
        for _ in range(10_000):
            gt = sample_box(rng)
            pred = sample_box(rng)
            l1 = loss_l1(gt, pred).value
            li = loss_iou(gt, pred).value
            lg = loss_giou(gt, pred).value
            ld = loss_diou(gt, pred).value
            lc = loss_ciou(gt, pred).value
            assert l1 >= 0.0
            assert 0.0 <= li <= 1.0
            assert 0.0 <= lg <= 2.0
            assert 0.0 <= ld < 2.0
            assert lc >= ld - 1e-12

    def test_zero_at_perfect_prediction(self):
        rng = random.Random(23)
        for _ in range(100):
            b = sample_box(rng)
            for kind in LossKind:
                assert loss(kind, b, b).value == 0.0

    def test_concentric_diou_equals_iou_loss(self):
        pairs = [
            (Box(0, 0, 4, 4), Box(1, 1, 3, 3)),
            (Box(-2, -2, 2, 2), Box(-1, -0.5, 1, 0.5)),
        ]
        for gt, pred in pairs:
            assert loss_diou(gt, pred).value == loss_iou(gt, pred).value

    def test_ciou_equals_diou_below_half_iou(self):
        rng = random.Random(24)
        checked = 0
        for _ in range(2000):
            gt = sample_box(rng)
            pred = sample_box(rng)
            if iou(gt, pred) < 0.5:
                checked += 1
                assert loss_ciou(gt, pred).value == loss_diou(gt, pred).value
        assert checked > 500

    def test_translation_invariance(self):
        rng = random.Random(25)
        for _ in range(300):
            gt = sample_box(rng)
            pred = sample_box(rng)
            dx, dy = rng.uniform(-30, 30), rng.uniform(-30, 30)
            for kind in LossKind:
                moved = loss(
                    kind,
                    Box(*(c + d for c, d in zip(gt.as_tuple(), (dx, dy, dx, dy)))),
                    Box(*(c + d for c, d in zip(pred.as_tuple(), (dx, dy, dx, dy)))),
                ).value
                assert moved == pytest.approx(loss(kind, gt, pred).value, abs=1e-9)

    def test_doubling_scale_exact(self):
        # Powers of two scale exactly in binary floats, so the IoU family is
        # bitwise invariant and L1 exactly doubles.
        rng = random.Random(26)
        for _ in range(300):
            gt = sample_box(rng)
            pred = sample_box(rng)
            g2, p2 = Box(*(2.0 * c for c in gt.as_tuple())), Box(*(2.0 * c for c in pred.as_tuple()))
            for kind in (LossKind.IOU, LossKind.GIOU, LossKind.DIOU, LossKind.CIOU):
                assert loss(kind, g2, p2).value == loss(kind, gt, pred).value
            assert loss_l1(g2, p2).value == 2.0 * loss_l1(gt, pred).value


class TestDisjointBehaviour:
    def test_vanishing_vs_informative_gradients(self):
        rng = random.Random(27)
        for _ in range(200):
            gt, pred = sample_disjoint_pair(rng)
            assert loss_iou(gt, pred).gradient == (0.0, 0.0, 0.0, 0.0)
            gcx, gcy = gt.center()
            pcx, pcy = pred.center()
            if (gcx, gcy) != (pcx, pcy):
                grad = loss_giou(gt, pred).gradient
                assert math.sqrt(sum(g * g for g in grad)) > 0.0
