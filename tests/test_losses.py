import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.errors import DegenerateAspectError, UndefinedOverlapError, ValidationError
from boxlab.geometry import Box, iou
from boxlab.losses import _LANE_KINDS, LossKind, _lane_gradient, _lane_loss, _lane_values, loss
from helpers import ciou_aspect, finite_diff_gradient, sample_box, sample_clean_pair, sample_disjoint_pair

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

    @pytest.mark.parametrize("kind", ["ciou", "l1", None, 4])
    def test_kind_that_is_not_a_loss_kind_raises_naming_it(self, kind):
        # A chain of ``is`` tests would otherwise fall through to CIoU.
        with pytest.raises(ValidationError, match=f"unknown loss kind {kind!r}"):
            loss(kind, Box(0, 0, 4, 4), Box(1, 0.5, 3, 3.5))

    def test_disjoint_iou_gradient_is_exactly_zero(self):
        result = loss(LossKind.IOU, Box(0, 0, 1, 1), Box(5, 5, 6, 6))
        assert result.value == 1.0
        assert result.gradient == (0.0, 0.0, 0.0, 0.0)

    def test_disjoint_giou_gradient_nonzero(self):
        result = loss(LossKind.GIOU, Box(0, 0, 1, 1), Box(2, 2, 3, 3))
        assert math.sqrt(sum(g * g for g in result.gradient)) > 0.0

    def test_ciou_degenerate_aspect_raises(self):
        with pytest.raises(DegenerateAspectError):
            loss(LossKind.CIOU, Box(0, 0, 4, 4), Box(0, 0, 4, 0))
        with pytest.raises(DegenerateAspectError):
            loss(LossKind.CIOU, Box(0, 0, 0, 4), Box(0, 0, 4, 4))


def aspect_term(gt, pred):
    """CIoU's ``alpha*V``, as the loss adds it to DIoU."""
    return loss(LossKind.CIOU, gt, pred).value - loss(LossKind.DIOU, gt, pred).value


class TestCiouInternals:
    """CIoU minus DIoU is ``alpha*V``, with alpha and V from the definition
    (``helpers.ciou_aspect``)."""

    def test_known_pair(self):
        gt, pred = Box(0, 0, 4, 4), Box(0, 0, 4, 2)
        alpha, v = ciou_aspect(gt.as_tuple(), pred.as_tuple())
        assert v == pytest.approx(0.041956461494290574, abs=1e-12)
        assert alpha == pytest.approx(0.07741666439146713, abs=1e-12)
        assert aspect_term(gt, pred) == pytest.approx(alpha * v, abs=1e-15)

    def test_alpha_zero_below_half_iou(self):
        rng = random.Random(21)
        seen_low = 0
        for _ in range(2000):
            gt = sample_box(rng)
            pred = sample_box(rng)
            alpha, v = ciou_aspect(gt.as_tuple(), pred.as_tuple())
            assert v >= 0.0
            assert alpha >= 0.0
            assert aspect_term(gt, pred) == pytest.approx(alpha * v, abs=1e-12)
            if iou(gt, pred) < 0.5:
                seen_low += 1
                assert alpha == 0.0
                assert aspect_term(gt, pred) == 0.0
        assert seen_low > 100

    def test_identical_boxes_have_zero_alpha_and_loss(self):
        b = Box(1, 2, 5, 9)
        assert ciou_aspect(b.as_tuple(), b.as_tuple()) == (0.0, 0.0)
        assert aspect_term(b, b) == 0.0
        assert loss(LossKind.CIOU, b, b).value == 0.0


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
        rng = random.Random(list(LossKind).index(kind))
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
            l1 = loss(LossKind.L1, gt, pred).value
            li = loss(LossKind.IOU, gt, pred).value
            lg = loss(LossKind.GIOU, gt, pred).value
            ld = loss(LossKind.DIOU, gt, pred).value
            lc = loss(LossKind.CIOU, gt, pred).value
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
            assert loss(LossKind.DIOU, gt, pred).value == loss(LossKind.IOU, gt, pred).value

    def test_ciou_equals_diou_below_half_iou(self):
        rng = random.Random(24)
        checked = 0
        for _ in range(2000):
            gt = sample_box(rng)
            pred = sample_box(rng)
            if iou(gt, pred) < 0.5:
                checked += 1
                assert loss(LossKind.CIOU, gt, pred).value == loss(LossKind.DIOU, gt, pred).value
        assert checked > 500

    def test_ciou_is_diou_below_half_iou_for_tiny_prediction(self):
        # The predicted box's squared diagonal is subnormal, so dV overflows; alpha is 0, and
        # 0 times that dV used to make every gradient component NaN.
        gt, pred = Box(-0.001, -0.001, -0.0005, -0.0005), Box(-1e-160, -1e-160, -5e-161, 0.0)
        assert iou(gt, pred) < 0.5
        assert loss(LossKind.CIOU, gt, pred) == loss(LossKind.DIOU, gt, pred)

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
            assert loss(LossKind.L1, g2, p2).value == 2.0 * loss(LossKind.L1, gt, pred).value


class TestDisjointBehaviour:
    def test_vanishing_vs_informative_gradients(self):
        rng = random.Random(27)
        for _ in range(200):
            gt, pred = sample_disjoint_pair(rng)
            assert loss(LossKind.IOU, gt, pred).gradient == (0.0, 0.0, 0.0, 0.0)
            gcx, gcy = gt.center()
            pcx, pcy = pred.center()
            if (gcx, gcy) != (pcx, pcy):
                grad = loss(LossKind.GIOU, gt, pred).gradient
                assert math.sqrt(sum(g * g for g in grad)) > 0.0


# Tiny positive boxes where a squared denominator underflows to 0 (it used to raise
# ZeroDivisionError). DIoU's c2sq never underflows alone: c2 = ew^2 + eh^2 >= 2*ew*eh
# >= 2*union, so wherever c2sq is 0, usq is 0 too, and the first pair stops there;
# c2sq has no check of its own.
UNDERFLOW_PAIRS = [
    # union 2e-200: usq is 0 for every IoU-family loss
    pytest.param(Box(0, 0, 1e-100, 1e-100), Box(0, 0, 1e-100, 2e-100), list(LossKind)[1:], "squared union", id="usq"),
    # the union rounds one ulp above the hull area, just across the point where its square underflows
    pytest.param(Box(0, 0, 6.510309647824497e-163, 1), Box(0, 0, 1.5717277847026285e-162, 1), [LossKind.GIOU],
                 "squared enclosing-box area", id="csq"),
    # pw*pw + ph*ph is 0 while the union is 1
    pytest.param(Box(0, 0, 1, 1), Box(0, 0, 1e-170, 1e-170), [LossKind.CIOU], "squared diagonal", id="aspect"),
]


@pytest.mark.parametrize("gt, pred, kinds, what", UNDERFLOW_PAIRS)
def test_underflowing_denominator_raises(gt, pred, kinds, what):
    for kind in kinds:
        with pytest.raises(UndefinedOverlapError, match=what) as exc:
            loss(kind, gt, pred)
        assert str(gt.as_tuple()) in str(exc.value) and str(pred.as_tuple()) in str(exc.value)
        _, _, raises = _lane_loss(np.array([_LANE_KINDS.index(kind)]), np.array([gt.as_tuple()]).T,
                                  np.array([pred.as_tuple()]).T)
        assert raises.tolist() == [True]
    for kind in set(LossKind) - {LossKind.L1, *kinds}:  # the other losses never reach this denominator
        loss(kind, gt, pred)


_corner = st.integers(-6, 6)
_side = st.integers(0, 5)  # a zero side is a degenerate box: CIoU raises on it, and the IoU family if both are


@st.composite
def _lane(draw):
    """One (code, gt, pred) lane: the pred box is free, touches the gt box along an edge, lies inside it or
    is the gt box before the jitter, and both are scaled by one power of ten between 1e-150 (squared areas
    underflow) and 1e150."""
    x, y, w, h = draw(_corner), draw(_corner), draw(_side), draw(_side)
    gt = (x, y, x + w, y + h)
    shape = draw(st.sampled_from(["free", "touching", "contained", "near"]))
    if shape == "free":
        px, py = draw(_corner), draw(_corner)
        pred = (px, py, px + draw(_side), py + draw(_side))
    elif shape == "touching":  # sharing gt's x_max edge, or its y_max edge
        if draw(st.booleans()):
            pred = (x + w, y, x + w + draw(_side), y + draw(_side))
        else:
            pred = (x, y + h, x + draw(_side), y + h + draw(_side))
    elif shape == "near":
        pred = gt
    else:
        px1, py1 = draw(st.integers(x, x + w)), draw(st.integers(y, y + h))
        pred = (px1, py1, draw(st.integers(px1, x + w)), draw(st.integers(py1, y + h)))
    # A quarter-unit shift and growth of the pred box puts it off the integer grid; most near boxes keep IoU >= 0.5.
    jitter = draw(st.lists(st.sampled_from([0.0, 0.25]), min_size=4, max_size=4))
    pred = (pred[0] + jitter[0], pred[1] + jitter[1], pred[2] + jitter[0] + jitter[2], pred[3] + jitter[1] + jitter[3])
    scale = 10.0 ** draw(st.integers(-150, 150))
    return draw(st.integers(0, len(_LANE_KINDS) - 1)), [c * scale for c in gt], [c * scale for c in pred]


def _bits(a):
    """The float64 bit patterns of ``a``, with every NaN as one pattern: numpy's vector and scalar
    loops may give an overflowed quotient's NaN different sign bits."""
    return np.where(np.isnan(a), np.nan, a).view(np.uint64).tolist()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lanes=st.lists(_lane(), min_size=1, max_size=30), data=st.data())
def test_gradient_pass_on_any_row_subset_is_the_all_rows_gradient(lanes, data):
    """The value pass plus a gradient pass over any sorted subset of its rows gives, at those rows,
    the values, raises and gradient bits of ``_lane_loss`` over all rows (zeros keep their sign),
    and so does a value pass over the subset's lanes alone."""
    lanes.sort(key=lambda lane: lane[0])
    codes = np.array([code for code, _, _ in lanes])
    gt = np.array([g for _, g, _ in lanes]).T
    pred = np.array([p for _, _, p in lanes]).T
    value, gradient, raises = _lane_loss(codes, gt, pred)
    rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=len(lanes), max_size=len(lanes))))
    ok = rows[~raises[rows]]  # a raising lane's value and gradient are never read

    _, _, terms = _lane_values(codes, gt, pred)
    sub = _lane_gradient(gt[:, rows], pred[:, rows], terms, rows)
    assert _bits(sub[:, ~raises[rows]]) == _bits(gradient[:, ok])

    sub_value, sub_raises, sub_terms = _lane_values(codes[rows], gt[:, rows], pred[:, rows])
    assert sub_raises.tolist() == raises[rows].tolist()
    assert _bits(sub_value[~sub_raises]) == _bits(value[ok])
    assert _bits(_lane_gradient(gt[:, rows], pred[:, rows], sub_terms)[:, ~sub_raises]) == _bits(gradient[:, ok])
