import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.errors import InvalidBoxError, UndefinedOverlapError
from boxlab.geometry import Box, _overlap, area, iou, iou_array
from boxlab.losses import LossKind, loss
from helpers import raster_iou, sample_box, tuple_iou


def _intersection(a, b):
    """The overlap area, from the extents that ``iou`` and the losses share."""
    iw, ih, _ = _overlap(a, b)
    return iw * ih


def _giou_penalty(a, b):
    """``(C - U) / C``, C the area of the enclosing box and U the union, as the GIoU loss adds it."""
    return loss(LossKind.GIOU, a, b).value - loss(LossKind.IOU, a, b).value


def _diou_penalty(a, b):
    """``rho^2 / c^2``: squared center distance over squared enclosing diagonal, as the DIoU loss adds it."""
    return loss(LossKind.DIOU, a, b).value - loss(LossKind.IOU, a, b).value


class TestArea:
    def test_square(self):
        assert area(Box(0, 0, 2, 2)) == 4.0

    def test_degenerate_width(self):
        assert area(Box(0, 0, 0, 5)) == 0.0

    def test_rectangle_against_raster_oracle(self):
        assert area(Box(1, 1, 3, 4)) == 6.0
        # unit-grid count of the same box
        cells = sum(
            1 for x in range(1, 3) for y in range(1, 4)
        )
        assert cells == 6


class TestIou:
    def test_identical(self):
        assert iou(Box(0, 0, 2, 2), Box(0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)

    def test_touching_edge_is_zero(self):
        assert iou(Box(0, 0, 2, 2), Box(2, 0, 4, 2)) == 0.0

    @pytest.mark.parametrize("other", [Box(2, 0, 4, 2), Box(0, 2, 2, 3), Box(2, 2, 3, 3), Box(-1, 0, 0, 5)])
    def test_touching_boxes_share_no_extent(self, other):
        # Edge or corner contact is no overlap: both extents are +0.0, even where one of them is positive.
        b = Box(0, 0, 2, 2)
        got = _overlap(b, other)
        assert got == (0.0, 0.0, area(b) + area(other))
        assert all(math.copysign(1.0, v) == 1.0 for v in got[:2])

    def test_loss_value_is_one_minus_iou_bit_for_bit(self):
        rng = random.Random(28)
        for _ in range(2000):
            g, p = sample_box(rng), sample_box(rng)
            assert loss(LossKind.IOU, g, p).value == 1.0 - iou(g, p)
        with pytest.raises(UndefinedOverlapError) as from_iou:
            iou(Box(0, 0, 0, 0), Box(1, 1, 1, 1))
        with pytest.raises(UndefinedOverlapError) as from_loss:
            loss(LossKind.IOU, Box(0, 0, 0, 0), Box(1, 1, 1, 1))
        assert str(from_loss.value) == str(from_iou.value) == (
            "IoU undefined: both boxes have zero area ((0, 0, 0, 0), (1, 1, 1, 1))"
        )

    def test_both_zero_area_raises(self):
        with pytest.raises(UndefinedOverlapError):
            iou(Box(0, 0, 0, 0), Box(1, 1, 1, 1))

    def test_one_zero_area_is_fine(self):
        assert iou(Box(0, 0, 0, 5), Box(0, 0, 2, 2)) == 0.0


class TestEnclosingBox:
    """The enclosing box C, seen through the GIoU penalty ``(C - U) / C``."""

    def test_disjoint_hull(self):
        # C is 3x3 and U two unit squares.
        assert _giou_penalty(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == pytest.approx(7 / 9, abs=1e-15)

    def test_idempotent(self):
        b = Box(0, 0, 2, 2)
        assert _giou_penalty(b, b) == 0.0

    def test_overlapping_hull(self):
        # C is 3x3, U = 4 + 4 - 1.
        assert _giou_penalty(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(2 / 9, abs=1e-15)


class TestCenterDistanceSq:
    """The squared center distance rho^2, seen through the DIoU penalty ``rho^2 / c^2``."""

    def test_identical(self):
        assert _diou_penalty(Box(1, 2, 3, 4), Box(1, 2, 3, 4)) == 0.0

    def test_shifted(self):
        # c^2 = 4^2 + 2^2 = 20, so rho^2 = 4.
        assert 20.0 * _diou_penalty(Box(0, 0, 2, 2), Box(2, 0, 4, 2)) == pytest.approx(4.0, abs=1e-14)

    def test_concentric(self):
        assert _diou_penalty(Box(0, 0, 4, 4), Box(1, 1, 3, 3)) == 0.0


class TestEnclosingDiagSq:
    """The squared enclosing diagonal c^2, seen through the DIoU penalty ``rho^2 / c^2``."""

    def test_side_by_side(self):
        # rho^2 = 2^2, so c^2 = 20.
        assert 4.0 / _diou_penalty(Box(0, 0, 2, 2), Box(2, 0, 4, 2)) == pytest.approx(20.0, abs=1e-12)

    def test_unit_square(self):
        # The hull is the unit square and rho^2 = 2 * 0.25^2.
        assert 0.125 / _diou_penalty(Box(0, 0, 1, 1), Box(0, 0, 0.5, 0.5)) == pytest.approx(2.0, abs=1e-14)

    def test_diagonal_pair(self):
        # rho^2 = 2^2 + 2^2, so c^2 = 18.
        assert 8.0 / _diou_penalty(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == pytest.approx(18.0, abs=1e-12)


class TestBoxValidation:
    def test_negative_extent_rejected(self):
        with pytest.raises(InvalidBoxError):
            Box(2, 0, 1, 1)
        with pytest.raises(InvalidBoxError):
            Box(0, 3, 1, 1)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidBoxError):
            Box(0, 0, math.inf, 1)
        with pytest.raises(InvalidBoxError):
            Box(math.nan, 0, 1, 1)

    def test_zero_area_allowed(self):
        assert area(Box(1, 1, 1, 1)) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_message(self, bad, position):
        coords = [0.0, 0.0, 1.0, 1.0]
        coords[position] = bad
        with pytest.raises(InvalidBoxError) as err:
            Box(*coords)
        assert str(err.value) == f"box coordinates must be finite, got {tuple(coords)}"

    @pytest.mark.parametrize("coords", [(2, 0, 1, 1), (0, 3, 1, 1), (0, 0, -1e-300, 1), (5, 5, 4, 4)])
    def test_negative_extent_message(self, coords):
        with pytest.raises(InvalidBoxError) as err:
            Box(*coords)
        assert str(err.value) == f"box extents must be non-negative, got {coords}"


class TestIouArray:
    def test_matches_scalar_oracle_exactly(self):
        rng = random.Random(8)
        a = [sample_box(rng).as_tuple() for _ in range(30)] + [(1, 1, 1, 3), (2, 2, 2, 2)]
        b = [sample_box(rng).as_tuple() for _ in range(20)] + [(2, 2, 2, 2), (0, 0, 2, 1)]
        got = iou_array(np.array(a, dtype=np.float64)[:, None], np.array(b, dtype=np.float64)[None])
        assert got.shape == (len(a), len(b))
        assert got.tolist() == [[tuple_iou(x, y) for y in b] for x in a]

    def test_empty_union_is_zero_not_an_error(self):
        zero = np.array([[2.0, 2.0, 2.0, 2.0]])
        assert iou_array(zero[:, None], zero[None]).tolist() == [[0.0]]
        with pytest.raises(UndefinedOverlapError):
            iou(Box(2, 2, 2, 2), Box(2, 2, 2, 2))

    def test_empty_inputs(self):
        some = np.array([[0.0, 0.0, 1.0, 1.0]])
        assert iou_array(np.empty((0, 4))[:, None], some[None]).shape == (0, 1)
        assert iou_array(some[:, None], np.empty((0, 4))[None]).shape == (1, 0)
        assert iou_array(np.empty((0, 4)), np.empty((0, 4))).shape == (0,)

    def test_broadcast_shapes(self):
        rng = random.Random(12)
        a = np.array([[sample_box(rng).as_tuple() for _ in range(3)] for _ in range(2)], dtype=np.float64)
        b = np.array([sample_box(rng).as_tuple() for _ in range(5)], dtype=np.float64)
        got = iou_array(a[:, :, None], b[None, None])
        assert got.shape == (2, 3, 5)
        assert got.tolist() == [[[tuple_iou(x, y) for y in b.tolist()] for x in row] for row in a.tolist()]
        assert iou_array(a[0, 0], b).tolist() == got[0, 0].tolist()  # one box against a row of boxes

    def test_elementwise(self):
        rng = random.Random(13)
        a = [sample_box(rng).as_tuple() for _ in range(40)] + [(2, 2, 2, 2), (0, 0, 1, 1)]
        b = [sample_box(rng).as_tuple() for _ in range(40)] + [(2, 2, 2, 2), (1, 0, 2, 1)]
        got = iou_array(np.array(a, dtype=np.float64), np.array(b, dtype=np.float64))
        assert got.tolist() == [tuple_iou(x, y) for x, y in zip(a[:-2], b[:-2])] + [0.0, 0.0]

    def test_overflowing_areas_give_zero(self):
        # The areas are inf, so the union is inf - inf = NaN: no overlap, and no warning.
        huge = np.array([0.0, 0.0, 1e300, 1e300])
        with np.errstate(all="raise"):
            assert iou_array(huge, huge) == 0.0

    def test_scalar_iou_of_overflowing_areas_is_nan(self):
        # The README Convention: on the same NaN union the scalar iou returns NaN, not 0.
        b = Box(0.0, 0.0, 1e300, 1e300)
        assert math.isnan(iou(b, b))

    @pytest.mark.parametrize("case", ["nms", "nms_nothing_kept", "assign", "match", "lockstep", "0-d", "extreme"])
    def test_never_writes_its_inputs(self, case):
        # The kernel computes in place in its own temporaries: the inputs must come back untouched,
        # and the result must not be (a view of) either of them.
        rng = np.random.default_rng(5)
        boxes = np.sort(rng.uniform(-50.0, 50.0, (80, 2, 2)), axis=1).transpose(0, 2, 1).reshape(80, 4)
        extreme = boxes[:8].copy()
        extreme[:3, 2] = np.nan
        extreme[3:, 2:] = 1e300
        a, b = {
            "nms": (boxes[:64, None], boxes[None, :70]),
            "nms_nothing_kept": (boxes[:64, None], np.empty((1, 0, 4))),
            "assign": (boxes[:30, None], boxes[None, 75:]),
            "match": (boxes[:40], boxes[40:]),
            "lockstep": (boxes[:40].T.copy().T, boxes[40:].T.copy().T),  # (N, 4) views of (4, N) rows
            "0-d": (boxes[0], boxes[1]),
            "extreme": (extreme[:, None], np.concatenate((extreme, boxes[:4]))[None]),
        }[case]
        before = a.tobytes(), b.tobytes()
        out = iou_array(a, b)
        assert (a.tobytes(), b.tobytes()) == before
        assert not np.shares_memory(out, a) and not np.shares_memory(out, b)
        assert out.shape == np.broadcast_shapes(a.shape, b.shape)[:-1]

    @pytest.mark.parametrize("box", [[0, 0, 2**32, 2**32], np.array([0, 0, 70000, 70000], np.int32)])
    def test_integer_boxes_do_not_wrap(self, box):
        # Each area must be taken in float: 2**64 wraps to 0 in int64, and 70000**2 in int32.
        box = np.asarray(box)
        assert iou_array(box, box) == 1.0
        assert iou_array(box[None], np.array([[0, 0, 1, 1]], box.dtype)).tolist() == [1 / float(box[2]) ** 2]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
    def test_other_dtypes_as_the_where_formula(self, dtype):
        # The in-place steps must not reject integer boxes (they compute in float64) or
        # promote float32 boxes: the result has the frozen formula's dtype and bits.
        rng = np.random.default_rng(9)
        corners = rng.integers(0, 40, (30, 2, 2))
        boxes = np.concatenate((corners.min(1), corners.max(1)), axis=1).astype(dtype)
        for p, q in ((boxes[:, None], boxes[None]), (boxes[:15], boxes[15:]), (boxes[0], boxes[1])):
            got, want = iou_array(p, q), _iou_array_where(p, q)
            assert got.dtype == want.dtype == (np.float32 if dtype is np.float32 else np.float64)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bits_equal_the_where_formula(self, data):
        a, b = data.draw(_box_pairs)
        x, y = np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)
        for p, q in ((x[:, None], y[None]), (x, y), (x[0], y[0])):  # broadcast, 1-D, 0-d
            got, want = iou_array(p, q), _iou_array_where(p, q)
            assert type(got) is type(want) and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _iou_array_where(a, b):
    """``iou_array`` as it was written with ``np.where``, frozen: the reference for its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
        area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
        union = area_a + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter
        return np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


# Signed zeros, subnormals, and magnitudes where a product (1e154), a difference (1e300, 1.7e308)
# or an area overflows, mixed with ordinary values.
_edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-154, 1.0, 2.5, 1e154, -1e154, 1e300, -1e300,
                         1.7e308, -1.7e308])
_coord = st.one_of(_edge, st.floats(-1e6, 1e6), st.floats(-1.7e308, 1.7e308))


@st.composite
def _box(draw):
    x0, x1 = sorted((draw(_coord), draw(_coord)))
    y0, y1 = sorted((draw(_coord), draw(_coord)))
    return (x0, y0, x1, y1)


@st.composite
def _related(draw, a):
    """A box identical to ``a``, touching it on an edge, nested in it, or drawn freely."""
    x0, y0, x1, y1 = a
    kind = draw(st.sampled_from(["identical", "touching", "nested", "free"]))
    if kind == "identical":
        return a
    if kind == "touching":
        return (x1, y0, max(x1, draw(_coord)), y1)
    if kind == "nested":
        mx, my = x0 / 2 + x1 / 2, y0 / 2 + y1 / 2
        return (min(max(x0, mx), x1), y0, x1, min(max(y0, my), y1))
    return draw(_box())


_box_pairs = st.lists(_box(), min_size=1, max_size=6).flatmap(
    lambda a: st.tuples(st.just(a), st.tuples(*(_related(box) for box in a)).map(list))
)


class TestProperties:
    def test_symmetry_and_self_iou(self):
        rng = random.Random(7)
        for _ in range(1000):
            a = sample_box(rng)
            b = sample_box(rng)
            assert iou(a, b) == iou(b, a)
            assert iou(a, a) == 1.0
            assert 0.0 <= iou(a, b) <= 1.0

    def test_translation_invariance(self):
        rng = random.Random(8)
        for _ in range(500):
            a = sample_box(rng)
            b = sample_box(rng)
            dx, dy = rng.uniform(-20, 20), rng.uniform(-20, 20)
            at = Box(*(c + d for c, d in zip(a.as_tuple(), (dx, dy, dx, dy))))
            bt = Box(*(c + d for c, d in zip(b.as_tuple(), (dx, dy, dx, dy))))
            assert iou(at, bt) == pytest.approx(iou(a, b), abs=1e-9)
            assert _intersection(at, bt) == pytest.approx(_intersection(a, b), abs=1e-9)
            assert _giou_penalty(at, bt) == pytest.approx(_giou_penalty(a, b), abs=1e-9)
            assert _diou_penalty(at, bt) == pytest.approx(_diou_penalty(a, b), abs=1e-9)

    def test_scale_covariance_power_of_two_is_exact(self):
        rng = random.Random(9)
        for _ in range(500):
            a = sample_box(rng)
            b = sample_box(rng)
            a2, b2 = Box(*(2.0 * c for c in a.as_tuple())), Box(*(2.0 * c for c in b.as_tuple()))
            assert iou(a2, b2) == iou(a, b)
            assert area(a2) == 4.0 * area(a)
            assert _intersection(a2, b2) == 4.0 * _intersection(a, b)
            assert _giou_penalty(a2, b2) == _giou_penalty(a, b)
            assert _diou_penalty(a2, b2) == _diou_penalty(a, b)

    def test_area_ordering(self):
        rng = random.Random(10)
        for _ in range(1000):
            a = sample_box(rng)
            b = sample_box(rng)
            inter = _intersection(a, b)
            assert area(a) + area(b) - inter >= inter
            # C >= U: the GIoU penalty (C - U) / C is non-negative, up to a few
            # ulps: under containment U (a + b - inter) and C (hull width * height)
            # are mathematically equal but round differently.
            assert loss(LossKind.GIOU, a, b).value >= loss(LossKind.IOU, a, b).value - 1e-12
            # rho^2 <= c^2: the DIoU penalty rho^2 / c^2 is in [0, 1).
            assert 0.0 <= loss(LossKind.DIOU, a, b).value - loss(LossKind.IOU, a, b).value < 1.0

    def test_iou_matches_rasterization_oracle(self):
        # Integer boxes built on a hundredths grid, counted at unit resolution
        # after scaling by 100 (the scaling leaves IoU untouched).
        rng = random.Random(11)
        for _ in range(1000):
            ka = self._int_corners(rng)
            kb = self._int_corners(rng)
            expect = raster_iou(ka, kb)
            got = iou(
                Box(*(k / 100 for k in ka)),
                Box(*(k / 100 for k in kb)),
            )
            assert got == pytest.approx(float(expect), abs=1e-9)
            assert iou(Box(*map(float, ka)), Box(*map(float, kb))) == pytest.approx(
                float(expect), abs=1e-9
            )

    @staticmethod
    def _int_corners(rng):
        x1 = rng.randrange(0, 25)
        y1 = rng.randrange(0, 25)
        return (x1, y1, x1 + rng.randrange(1, 6), y1 + rng.randrange(1, 6))
