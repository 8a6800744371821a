import math
import random

import pytest

from boxlab.errors import InvalidBoxError, UndefinedOverlapError
from boxlab.geometry import (
    Box,
    area,
    center_distance_sq,
    enclosing_box,
    enclosing_diag_sq,
    intersection_area,
    iou,
    union_area,
)
from helpers import raster_iou, sample_box


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

    def test_both_zero_area_raises(self):
        with pytest.raises(UndefinedOverlapError):
            iou(Box(0, 0, 0, 0), Box(1, 1, 1, 1))

    def test_one_zero_area_is_fine(self):
        assert iou(Box(0, 0, 0, 5), Box(0, 0, 2, 2)) == 0.0


class TestEnclosingBox:
    def test_disjoint_hull(self):
        assert enclosing_box(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == Box(0, 0, 3, 3)

    def test_idempotent(self):
        b = Box(0, 0, 2, 2)
        assert enclosing_box(b, b) == b

    def test_overlapping_hull(self):
        assert enclosing_box(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == Box(0, 0, 3, 3)


class TestCenterDistanceSq:
    def test_identical(self):
        assert center_distance_sq(Box(1, 2, 3, 4), Box(1, 2, 3, 4)) == 0.0

    def test_shifted(self):
        assert center_distance_sq(Box(0, 0, 2, 2), Box(2, 0, 4, 2)) == 4.0

    def test_concentric(self):
        assert center_distance_sq(Box(0, 0, 4, 4), Box(1, 1, 3, 3)) == 0.0


class TestEnclosingDiagSq:
    def test_side_by_side(self):
        assert enclosing_diag_sq(Box(0, 0, 2, 2), Box(2, 0, 4, 2)) == 20.0

    def test_unit_square(self):
        assert enclosing_diag_sq(Box(0, 0, 1, 1), Box(0, 0, 1, 1)) == 2.0

    def test_diagonal_pair(self):
        assert enclosing_diag_sq(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == 18.0


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
            at, bt = a.translate(dx, dy), b.translate(dx, dy)
            assert iou(at, bt) == pytest.approx(iou(a, b), abs=1e-9)
            assert center_distance_sq(at, bt) == pytest.approx(
                center_distance_sq(a, b), abs=1e-9
            )
            assert enclosing_diag_sq(at, bt) == pytest.approx(
                enclosing_diag_sq(a, b), abs=1e-9
            )

    def test_scale_covariance_power_of_two_is_exact(self):
        rng = random.Random(9)
        for _ in range(500):
            a = sample_box(rng)
            b = sample_box(rng)
            a2, b2 = a.scale(2.0), b.scale(2.0)
            assert iou(a2, b2) == iou(a, b)
            assert union_area(a2, b2) == 4.0 * union_area(a, b)
            assert center_distance_sq(a2, b2) == 4.0 * center_distance_sq(a, b)
            assert enclosing_diag_sq(a2, b2) == 4.0 * enclosing_diag_sq(a, b)
            assert area(enclosing_box(a2, b2)) == 4.0 * area(enclosing_box(a, b))

    def test_area_ordering(self):
        rng = random.Random(10)
        for _ in range(1000):
            a = sample_box(rng)
            b = sample_box(rng)
            union = union_area(a, b)
            enclosing = area(enclosing_box(a, b))
            inter = intersection_area(a, b)
            # allow a few ulps: union (a + b - inter) and hull width*height are
            # mathematically equal under containment but round differently
            slack = 1e-12 * max(1.0, enclosing)
            assert enclosing >= union - slack
            assert union >= inter - slack
            assert center_distance_sq(a, b) <= enclosing_diag_sq(a, b) + slack

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
