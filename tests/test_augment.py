import math
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.augment import (
    AugmentParams,
    ImageAugment,
    apply_image_augment,
    flip_box_h,
    plan_to_lines,
    sample_plan,
    shift_scale_rotate_box,
)
from boxlab.cli import main
from boxlab.errors import ValidationError
from boxlab.geometry import Box, area
from helpers import augment_oracle, parse_plan_lines


PARAMS = AugmentParams(image_width=100.0, image_height=80.0)
# A 100x80 scene moved to the middle of a 1000x800 image, whose center (500, 400) is its
# center (50, 40): every transform below stays far inside the image, so clipping cannot bite.
BIG_W, BIG_H, DX_BIG, DY_BIG = 1000, 800, 450, 360


def _moved(b: Box) -> Box:
    return Box(b.x_min + DX_BIG, b.y_min + DY_BIG, b.x_max + DX_BIG, b.y_max + DY_BIG)


class TestFlip:
    def test_example(self):
        assert flip_box_h(Box(2, 3, 4, 5), 10.0) == Box(6, 3, 8, 5)

    def test_axis_centered_box_fixed(self):
        assert flip_box_h(Box(4, 1, 6, 3), 10.0) == Box(4, 1, 6, 3)

    def test_involution(self):
        # exact on integer coordinates; within float dust on arbitrary ones
        rng = random.Random(51)
        for _ in range(300):
            x = rng.randrange(0, 80)
            y = rng.randrange(0, 60)
            b = Box(x, y, x + rng.randrange(1, 20), y + rng.randrange(1, 20))
            assert flip_box_h(flip_box_h(b, 100.0), 100.0) == b
        b = Box(2.3, 3.7, 4.1, 5.9)
        twice = flip_box_h(flip_box_h(b, 100.0), 100.0)
        for got, want in zip(twice.as_tuple(), b.as_tuple()):
            assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        width=st.floats(1e-3, 1e9),
        xs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        y_min=st.floats(-1e6, 1e6),
        height=st.floats(0.0, 1e6),
    )
    def test_involution_property(self, width, xs, y_min, height):
        b = Box(xs[0] * width, y_min, xs[1] * width, y_min + height)
        twice = flip_box_h(flip_box_h(b, width), width)
        assert (twice.y_min, twice.y_max) == (b.y_min, b.y_max)
        assert abs(twice.x_min - b.x_min) <= 1e-12 * width
        assert abs(twice.x_max - b.x_max) <= 1e-12 * width

    def test_preserves_area_and_y_extent(self):
        rng = random.Random(52)
        for _ in range(300):
            x = rng.randrange(0, 80)
            y = rng.uniform(0, 60)
            b = Box(x, y, x + rng.randrange(1, 20), y + rng.uniform(0.1, 20))
            flipped = flip_box_h(b, 100.0)
            assert area(flipped) == area(b)
            assert (flipped.y_min, flipped.y_max) == (b.y_min, b.y_max)


class TestShiftScaleRotate:
    def test_identity(self):
        b = Box(10, 20, 30, 40)
        out = shift_scale_rotate_box(b, 0, 0, 1.0, 0.0, 100, 80)
        for got, want in zip(out.as_tuple(), b.as_tuple()):
            assert got == pytest.approx(want, abs=1e-9)

    def test_quarter_turn_of_centered_square(self):
        # square image, square box centered on the image center
        b = Box(30, 30, 70, 70)
        out = shift_scale_rotate_box(b, 0, 0, 1.0, 90.0, 100, 100)
        for got, want in zip(out.as_tuple(), b.as_tuple()):
            assert got == pytest.approx(want, abs=1e-9)

    def test_unit_square_rotated_45_degrees(self):
        half_diag = math.sqrt(2) / 2
        # The unit square at the center of a 101x101 image, so its hull stays inside.
        out = shift_scale_rotate_box(Box(50, 50, 51, 51), 0, 0, 1.0, 45.0, 101, 101)
        expected = (50.5 - half_diag, 50.5 - half_diag, 50.5 + half_diag, 50.5 + half_diag)
        for got, want in zip(out.as_tuple(), expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_pure_scale_scales_area_quadratically(self):
        rng = random.Random(53)
        for _ in range(200):
            x = rng.uniform(10, 60)
            y = rng.uniform(10, 50)
            b = _moved(Box(x, y, x + rng.uniform(1, 20), y + rng.uniform(1, 20)))
            s = rng.uniform(0.9, 1.1)
            out = shift_scale_rotate_box(b, 0, 0, s, 0.0, BIG_W, BIG_H)
            assert area(out) == pytest.approx(s * s * area(b), rel=1e-12)

    def test_hull_contains_every_transformed_point(self):
        rng = random.Random(54)
        for _ in range(100):
            x = rng.uniform(5, 60)
            y = rng.uniform(5, 50)
            b = _moved(Box(x, y, x + rng.uniform(1, 20), y + rng.uniform(1, 15)))
            dx, dy = rng.uniform(-6, 6), rng.uniform(-5, 5)
            s = rng.uniform(0.9, 1.1)
            angle = rng.uniform(-45, 45)
            out = shift_scale_rotate_box(b, dx, dy, s, angle, BIG_W, BIG_H)
            assert 0.0 < out.x_min and out.x_max < BIG_W and 0.0 < out.y_min and out.y_max < BIG_H
            theta = math.radians(angle)
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            for i in range(5):
                for j in range(5):
                    px = b.x_min + b.width * i / 4
                    py = b.y_min + b.height * j / 4
                    rx = (px - 500.0) * s
                    ry = (py - 400.0) * s
                    tx = 500.0 + dx + rx * cos_t - ry * sin_t
                    ty = 400.0 + dy + rx * sin_t + ry * cos_t
                    assert out.x_min - 1e-9 <= tx <= out.x_max + 1e-9
                    assert out.y_min - 1e-9 <= ty <= out.y_max + 1e-9

    def test_clipping_to_image_bounds(self):
        out = shift_scale_rotate_box(Box(90, 70, 99, 79), 20, 0, 1.0, 0.0, 100, 80)
        assert out is None  # pushed fully outside
        partial = shift_scale_rotate_box(Box(90, 10, 98, 20), 8, 0, 1.0, 0.0, 100, 80)
        assert partial == Box(98, 10, 100, 20)

    def test_tiny_clipped_box_dropped(self):
        # after the shift only a 0.5 x 10 sliver (area 5) remains: kept;
        # a 0.05 x 10 sliver (area 0.5) is below one square pixel: dropped
        kept = shift_scale_rotate_box(Box(0, 10, 10, 20), -9.5, 0, 1.0, 0.0, 100, 80)
        assert kept is not None and kept.width == pytest.approx(0.5, abs=1e-9)
        dropped = shift_scale_rotate_box(Box(0, 10, 10, 20), -9.95, 0, 1.0, 0.0, 100, 80)
        assert dropped is None

    def test_angle_bound(self):
        with pytest.raises(ValidationError):
            shift_scale_rotate_box(Box(0, 0, 1, 1), 0, 0, 1.0, 181.0, 10, 10)


class TestApplyImageAugment:
    def test_flip_then_ssr_with_drop_record(self):
        decision = ImageAugment(flip=True, apply_ssr=True, dx=-49.0, dy=0.0, scale=1.0, angle_deg=0.0)
        boxes = [Box(2, 3, 4, 5), Box(60, 10, 80, 30)]
        kept, dropped = apply_image_augment(decision, PARAMS, boxes)
        # box 0 flips to (96,3,98,5), shifts to (47,3,49,5): kept
        # box 1 flips to (20,10,40,30), shifts to (-29,...): clipped area 0 -> dropped
        assert dropped == [1]
        assert len(kept) == 1
        for got, want in zip(kept[0].as_tuple(), (47.0, 3.0, 49.0, 5.0)):
            assert got == pytest.approx(want, abs=1e-9)

    def test_no_ops_pass_through(self):
        decision = ImageAugment(flip=False, apply_ssr=False, dx=5.0, dy=5.0, scale=1.1, angle_deg=30.0)
        boxes = [Box(2, 3, 4, 5)]
        kept, dropped = apply_image_augment(decision, PARAMS, boxes)
        assert kept == boxes and dropped == []

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_transform_oracle(self, seed):
        rng = random.Random(seed)
        width, height = rng.choice((1.0, 8.0, 100.0, 640.0)), rng.choice((1.0, 6.0, 80.0, 360.0))
        params = AugmentParams(image_width=width, image_height=height)
        decision = ImageAugment(
            flip=rng.random() < 0.5, apply_ssr=rng.random() < 0.8,
            dx=rng.uniform(-0.2, 0.2) * width, dy=rng.uniform(-0.2, 0.2) * height,
            scale=rng.uniform(0.5, 1.5), angle_deg=rng.choice((0.0, 90.0, -180.0, rng.uniform(-180.0, 180.0))),
        )
        boxes = []
        for _ in range(rng.randrange(0, 12)):
            x, y = rng.uniform(-0.1, 1.0) * width, rng.uniform(-0.1, 1.0) * height
            boxes.append((x, y, x + rng.uniform(0.0, 0.6) * width, y + rng.uniform(0.0, 0.6) * height))
        ssr = (decision.dx, decision.dy, decision.scale, decision.angle_deg) if decision.apply_ssr else None
        want_kept, want_dropped = augment_oracle(decision.flip, ssr, width, height, boxes)
        kept, dropped = apply_image_augment(decision, params, [Box(*b) for b in boxes])
        assert dropped == want_dropped
        tol = 1e-9 * max(width, height)
        for got, want in zip(kept, want_kept, strict=True):
            assert got.as_tuple() == pytest.approx(want, abs=tol)


class TestSamplePlan:
    def test_empty_plan(self):
        plan = sample_plan(PARAMS, 0, seed=1)
        assert plan.decisions == ()

    def test_deterministic(self):
        a = sample_plan(PARAMS, 500, seed=42)
        b = sample_plan(PARAMS, 500, seed=42)
        assert a == b
        c = sample_plan(PARAMS, 500, seed=43)
        assert a != c

    def test_bounds_respected(self):
        plan = sample_plan(PARAMS, 2000, seed=7)
        max_dx = PARAMS.max_shift_frac * PARAMS.image_width
        max_dy = PARAMS.max_shift_frac * PARAMS.image_height
        for d in plan.decisions:
            assert abs(d.dx) <= max_dx
            assert abs(d.dy) <= max_dy
            assert 1 - PARAMS.max_scale_delta <= d.scale <= 1 + PARAMS.max_scale_delta
            assert abs(d.angle_deg) <= PARAMS.max_rotate_deg

    def test_flip_frequency_within_three_sigma(self):
        n = 10_000
        plan = sample_plan(PARAMS, n, seed=11)
        flips = sum(d.flip for d in plan.decisions)
        sigma = math.sqrt(n * 0.5 * 0.5)
        assert abs(flips - n * 0.5) <= 3 * sigma

    def test_ssr_probability(self):
        params = AugmentParams(image_width=10, image_height=10, shift_scale_rotate_prob=0.0)
        plan = sample_plan(params, 100, seed=3)
        assert not any(d.apply_ssr for d in plan.decisions)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            sample_plan(PARAMS, -1, seed=0)


class TestPlanSerialization:
    def test_round_trip_lines(self):
        plan = sample_plan(PARAMS, 50, seed=9)
        assert parse_plan_lines(plan_to_lines(plan)) == asdict(plan)

    def test_round_trip_file(self, tmp_path):
        # A plan file is what `boxlab augment-plan --output` writes.
        path = tmp_path / "plan.csv"
        assert main(["augment-plan", "--images", "20", "--seed", "10", "--image-size", "100x80",
                     "--output", str(path)]) == 0
        assert parse_plan_lines(path.read_text().splitlines()) == asdict(sample_plan(PARAMS, 20, seed=10))

    def test_one_line_per_image(self):
        plan = sample_plan(PARAMS, 7, seed=1)
        lines = plan_to_lines(plan)
        assert len(lines) == 2 + 7  # header + column names + one per image


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"image_width": 0},
            {"flip_prob": 1.5},
            {"shift_scale_rotate_prob": -0.1},
            {"max_shift_frac": -1},
            {"max_rotate_deg": 180.0},
        ],
    )
    def test_rejects(self, kwargs):
        base = {"image_width": 100.0, "image_height": 80.0}
        base.update(kwargs)
        with pytest.raises(ValidationError):
            AugmentParams(**base)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # Each sampled a NaN or infinite magnitude before, or raised OverflowError.
            ({"max_shift_frac": 1e306},
             "max_shift_frac 1e+306 at image size 100.0 gives a shift range past the float range"),
            ({"image_width": 1e308, "max_shift_frac": 1.0},
             "max_shift_frac 1.0 at image size 1e+308 gives a shift range past the float range"),
            # A scale range reaching 0 or below: 5 of 20 sampled scales were <= 0 at a delta of 5.
            ({"max_scale_delta": 1.0}, "max_scale_delta must be in [0, 1), got 1.0"),
            ({"image_height": 10**400}, f"image_height must be finite, got {10**400}"),
        ],
        ids=["shift-range", "shift-range-at-image-size", "scale-range", "int-past-float-range"],
    )
    def test_rejects_unsampleable_ranges(self, kwargs, message):
        with pytest.raises(ValidationError) as exc:
            AugmentParams(**{"image_width": 100.0, "image_height": 80.0, **kwargs})
        assert str(exc.value) == message

    def test_largest_sampleable_ranges(self):
        params = AugmentParams(100.0, 80.0, max_shift_frac=8e305, max_scale_delta=math.nextafter(1.0, 0.0))
        plan = sample_plan(params, 50, seed=3)
        assert all(math.isfinite(v) for d in plan.decisions for v in (d.dx, d.dy, d.scale))
        assert all(d.scale > 0.0 for d in plan.decisions)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "image_width",
            "image_height",
            "flip_prob",
            "max_shift_frac",
            "max_scale_delta",
            "max_rotate_deg",
            "shift_scale_rotate_prob",
        ],
    )
    def test_rejects_non_finite(self, name, value):
        base = {"image_width": 100.0, "image_height": 80.0, name: value}
        with pytest.raises(ValidationError, match=rf"^{name} must be finite, got {value}$"):
            AugmentParams(**base)
