import itertools
import math
import random
import statistics
import struct

import numpy as np
import pytest

import boxlab.descent
from boxlab.descent import (
    DescentConfig,
    Trajectory,
    TrajectoryPoint,
    TrialRecord,
    _lane_steps,
    _step,
    convergence_study,
    run_descent,
    sample_pairs,
    trial_csv_rows,
)
from boxlab.errors import BoxlabError, DegenerateAspectError, InvalidBoxError, ValidationError
from boxlab.geometry import Box, iou
from boxlab.losses import LossKind, loss
from helpers import reference_step, rows_digest, sample_disjoint_pair

# Concentric and contained in the prediction, so CIoU's gradient is symmetric:
# at this learning rate the first corner step collapses the width to zero
# (x 2..2), and CIoU raises on that candidate.
RAISING_CIOU = (Box(-1.0, -1.0, 5.0, 3.0), Box(0.0, 0.0, 4.0, 2.0), 54.0)
# The union of these tiny boxes is 2e-200, whose square underflows to 0: every
# IoU-family loss raises on the start box.
UNDERFLOWING_PAIR = (Box(0.0, 0.0, 1e-100, 2e-100), Box(0.0, 0.0, 1e-100, 1e-100))
# A predicted box whose squared diagonal is subnormal: CIoU's dV overflows, but below
# the IoU 0.5 gate alpha is 0 and CIoU is DIoU exactly.
TINY_PREDICTION = (Box(-1e-160, -1e-160, -5e-161, 0.0), Box(-0.001, -0.001, -0.0005, -0.0005))
# Boxes about 1e-81 wide: with backtracking, candidates that shrink the union below
# about 1.6e-162 make its square underflow, and each is rejected, for every IoU-family loss.
UNDERFLOWING_CANDIDATE = (Box(-2.5e-82, 3.3e-82, 1.4e-81, 1e-81), Box(0.0, 0.0, 1.2e-81, 1.1e-81), 5e-162)


def reference_descent(init: Box, target: Box, kind: LossKind, cfg: DescentConfig) -> Trajectory:
    """The descent loop as first written: the loss of every iterate is computed at
    the head of the loop, so an accepted candidate's loss is computed twice.
    It calls the loss through ``boxlab.descent`` so that ``loss_calls`` sees it."""
    pred = init
    points = []
    converged_at = None
    steps = 0
    while True:
        result = boxlab.descent.loss(kind, target, pred)
        grad_norm = math.sqrt(sum(g * g for g in result.gradient))
        points.append(TrajectoryPoint(pred, result.value, grad_norm))
        if iou(target, pred) >= cfg.success_iou:
            converged_at = steps
            break
        if steps >= cfg.max_iters or grad_norm == 0.0:
            break
        if cfg.backtracking:
            accepted = None
            step_size = cfg.learning_rate
            for _ in range(20 + 1):  # the learning rate, then 20 halvings
                candidate = Box(*reference_step(pred.as_tuple(), result.gradient, step_size, cfg.parameterization))
                try:
                    candidate_value = boxlab.descent.loss(kind, target, candidate).value
                except BoxlabError:
                    candidate_value = math.inf
                if candidate_value <= result.value:
                    accepted = candidate
                    break
                step_size /= 2.0
            if accepted is None:
                break
            pred = accepted
        else:
            pred = Box(*reference_step(pred.as_tuple(), result.gradient, cfg.learning_rate, cfg.parameterization))
        steps += 1
    return Trajectory(points=tuple(points), converged_at=converged_at, final_iou=iou(target, pred))


@pytest.fixture
def loss_calls(monkeypatch):
    """Every ``(pred, raised)`` that ``run_descent`` passes to its loss, in order."""
    calls = []

    def recording(kind, gt, pred):
        try:
            result = loss(kind, gt, pred)
        except BoxlabError:
            calls.append((pred, True))
            raise
        calls.append((pred, False))
        return result

    monkeypatch.setattr(boxlab.descent, "loss", recording)
    return calls


def _drawn_box(rng: random.Random) -> Box:
    w = rng.uniform(0.5, 3.0)
    h = rng.uniform(0.5, 3.0)
    cx = rng.uniform(w / 2.0, 10.0 - w / 2.0)
    cy = rng.uniform(h / 2.0, 10.0 - h / 2.0)
    return Box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def overlapping_pairs(seed: int, n: int) -> list[tuple[Box, Box]]:
    """``sample_pairs``'s draws without its redraw of an init that meets its target,
    so about one pair in seven overlaps."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        target = _drawn_box(rng)
        init = _drawn_box(rng)
        pairs.append((init, target))
    return pairs


SAMPLED_PAIRS = overlapping_pairs(71, 20) + sample_pairs(20, 72)
# At learning rate 2 the first L1 step mirrors x about the target: the candidate's
# loss equals the current one, and a tie is accepted.
TIED_L1_STEP = (Box(1.25, 1.0, 3.25, 3.0), Box(1.0, 1.0, 3.0, 3.0))


class TestRunDescent:
    def test_converged_at_start(self):
        b = Box(1, 1, 4, 5)
        trajectory = run_descent(b, b, LossKind.DIOU, DescentConfig())
        assert trajectory.converged_at == 0
        assert len(trajectory.points) == 1
        assert trajectory.final_iou == 1.0

    def test_iou_loss_never_moves_disjoint_init(self):
        init = Box(0, 0, 1, 1)
        target = Box(5, 5, 6, 6)
        trajectory = run_descent(init, target, LossKind.IOU, DescentConfig())
        assert trajectory.converged_at is None
        assert all(p.grad_norm == 0.0 for p in trajectory.points)
        assert all(p.box == init for p in trajectory.points)
        assert trajectory.final_iou == 0.0

    def test_giou_escapes_disjoint_init(self):
        cfg = DescentConfig(learning_rate=0.1, max_iters=10_000)
        trajectory = run_descent(Box(0, 0, 1, 1), Box(4, 4, 5, 5), LossKind.GIOU, cfg)
        assert trajectory.final_iou > 0.0

    def test_diou_converges_on_overlapping_start(self):
        cfg = DescentConfig(learning_rate=1.0, max_iters=5000)
        trajectory = run_descent(Box(0.5, 0.5, 3, 3), Box(1, 1, 3, 3), LossKind.DIOU, cfg)
        assert trajectory.converged_at is not None
        assert iou(trajectory.points[-1].box, Box(1, 1, 3, 3)) >= 0.9

    def test_converged_trajectory_meets_success_iou(self):
        rng = random.Random(61)
        cfg = DescentConfig(learning_rate=3.0, max_iters=10_000)
        for _ in range(20):
            init, target = sample_disjoint_pair(rng)
            trajectory = run_descent(init, target, LossKind.DIOU, cfg)
            if trajectory.converged_at is not None:
                assert trajectory.final_iou >= cfg.success_iou
                assert len(trajectory.points) == trajectory.converged_at + 1

    def test_monotone_descent_with_backtracking(self):
        rng = random.Random(62)
        cfg = DescentConfig(learning_rate=2.0, max_iters=2000, backtracking=True)
        for kind in (LossKind.GIOU, LossKind.DIOU, LossKind.CIOU, LossKind.L1):
            for _ in range(10):
                init, target = sample_disjoint_pair(rng)
                trajectory = run_descent(init, target, kind, cfg)
                losses = [p.loss for p in trajectory.points]
                for later, earlier in zip(losses[1:], losses[:-1]):
                    assert later <= earlier

    def test_center_parameterization_converges(self):
        cfg = DescentConfig(learning_rate=1.0, max_iters=5000, parameterization="center")
        trajectory = run_descent(Box(0, 0, 1, 1), Box(4, 4, 6, 6), LossKind.DIOU, cfg)
        assert trajectory.converged_at is not None

    def test_deterministic(self):
        cfg = DescentConfig(learning_rate=0.5, max_iters=500)
        a = run_descent(Box(0, 0, 1, 1), Box(3, 3, 5, 5), LossKind.GIOU, cfg)
        b = run_descent(Box(0, 0, 1, 1), Box(3, 3, 5, 5), LossKind.GIOU, cfg)
        assert a == b

    def test_zero_area_target_rejected(self):
        with pytest.raises(ValidationError):
            run_descent(Box(0, 0, 1, 1), Box(2, 2, 2, 3), LossKind.IOU, DescentConfig())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"success_iou": 0.0},
            {"success_iou": 1.1},
            {"max_iters": -1},
            {"parameterization": "polar"},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValidationError):
            DescentConfig(**kwargs)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_named(self, lr):
        # NaN passed the old `<= 0` check, and the first step then failed on a NaN box coordinate.
        with pytest.raises(ValidationError) as err:
            DescentConfig(learning_rate=lr)
        assert str(err.value) == f"learning_rate must be positive and finite, got {lr}"


class TestLossEvaluations:
    @pytest.mark.parametrize("parameterization", ["corner", "center"])
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_one_call_per_visited_box_with_backtracking(self, kind, parameterization, loss_calls):
        cfg = DescentConfig(learning_rate=3.0, max_iters=60, backtracking=True, parameterization=parameterization)
        for init, target in SAMPLED_PAIRS:
            loss_calls.clear()
            trajectory = run_descent(init, target, kind, cfg)
            boxes = [box for box, _ in loss_calls]
            loss_calls.clear()
            assert reference_descent(init, target, kind, cfg) == trajectory
            # The start, then each candidate once: the reference loop computes
            # every accepted candidate a second time.
            assert len(boxes) == len(loss_calls) - (len(trajectory.points) - 1)
            assert boxes[0] == init
            visited = iter(boxes)
            assert all(point.box in visited for point in trajectory.points)

    @pytest.mark.parametrize("parameterization", ["corner", "center"])
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_one_call_per_point_without_backtracking(self, kind, parameterization, loss_calls):
        cfg = DescentConfig(learning_rate=0.5, max_iters=60, parameterization=parameterization)
        for init, target in SAMPLED_PAIRS:
            loss_calls.clear()
            trajectory = run_descent(init, target, kind, cfg)
            assert [box for box, _ in loss_calls] == [point.box for point in trajectory.points]

    def test_raising_candidate_is_rejected(self, loss_calls):
        init, target, lr = RAISING_CIOU
        cfg = DescentConfig(learning_rate=lr, max_iters=30, backtracking=True)
        trajectory = run_descent(init, target, LossKind.CIOU, cfg)
        assert loss_calls[1] == (Box(2.0, -1.5, 2.0, 3.5), True)
        assert trajectory.points[1].box != loss_calls[1][0]
        assert trajectory.converged_at is not None

    def test_raising_step_propagates_without_backtracking(self, loss_calls):
        init, target, lr = RAISING_CIOU
        cfg = DescentConfig(learning_rate=lr, max_iters=30)
        with pytest.raises(DegenerateAspectError):
            run_descent(init, target, LossKind.CIOU, cfg)
        assert loss_calls == [(init, False), (Box(2.0, -1.5, 2.0, 3.5), True)]
        with pytest.raises(DegenerateAspectError):
            reference_descent(init, target, LossKind.CIOU, cfg)


def _bits(corners) -> bytes:
    """The float64 bits of ``corners``: tells -0.0 from 0.0, which == does not."""
    return struct.pack("<4d", *corners)


class TestStep:
    """``_step`` and every lane of ``_lane_steps`` against ``helpers.reference_step``."""

    # The large sizes swap the corners of most candidates; 1e308 overflows most of them.
    SIZES = [0.0, 1e-3, 0.5, 3.0, 50.0, 1e308]

    @pytest.mark.parametrize("parameterization", ["corner", "center"])
    def test_matches_reference_step_bit_for_bit(self, parameterization):
        rng = random.Random(73)
        boxes, gradients = [], []
        for _ in range(200):
            x, y = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            boxes.append((x, y, x + rng.uniform(0.0, 4.0), y + rng.uniform(0.0, 4.0)))
            gradients.append(tuple(rng.uniform(-2.0, 2.0) for _ in range(4)))
        boxes += [(-0.0, -0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0)]  # signs of zero; inf - inf
        gradients += [(0.0, -0.0, -0.0, 0.0), (-1e308, 1e308, 1e308, -1e308)]
        lanes = _lane_steps(np.array(boxes).T, np.array(gradients).T, self.SIZES, parameterization)
        inverted = non_finite = 0
        for i, (box, gradient) in enumerate(zip(boxes, gradients)):
            for k, size in enumerate(self.SIZES):
                want = reference_step(box, gradient, size, parameterization)
                assert _bits(lanes[:, i, k]) == _bits(want)
                if all(math.isfinite(c) for c in want):
                    assert _bits(_step(Box(*box), gradient, size, parameterization).as_tuple()) == _bits(want)
                else:
                    non_finite += 1
                    with pytest.raises(InvalidBoxError):
                        _step(Box(*box), gradient, size, parameterization)
                g1, _, g3, _ = gradient
                if parameterization == "corner":
                    inverted += box[2] - size * g3 < box[0] - size * g1
                else:
                    inverted += (box[2] - box[0]) - size * (g3 - g1) / 2.0 < 0.0
        assert inverted > 50 and non_finite > 50


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("backtracking", [False, True])
    @pytest.mark.parametrize("parameterization", ["corner", "center"])
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_sampled_pairs(self, kind, parameterization, backtracking):
        cfg = DescentConfig(learning_rate=2.0, max_iters=60, backtracking=backtracking,
                            parameterization=parameterization)
        for init, target in SAMPLED_PAIRS + [TIED_L1_STEP]:
            got, want = run_descent(init, target, kind, cfg), reference_descent(init, target, kind, cfg)
            # repr tells -0.0 from 0.0, which == does not.
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("parameterization", ["corner", "center"])
    def test_raising_ciou_candidate(self, parameterization, loss_calls):
        init, target, lr = RAISING_CIOU
        if parameterization == "center":
            lr *= 2.0  # the center step halves the size change
        cfg = DescentConfig(learning_rate=lr, max_iters=30, backtracking=True, parameterization=parameterization)
        got = run_descent(init, target, LossKind.CIOU, cfg)
        assert any(raised for _, raised in loss_calls)
        assert repr(got) == repr(reference_descent(init, target, LossKind.CIOU, cfg))


class TestConvergenceStudy:
    CFG = DescentConfig(learning_rate=3.0, max_iters=5000, backtracking=False)

    def test_ordering_on_shared_disjoint_suite(self):
        study = convergence_study(
            trials=40,
            loss_kinds=[LossKind.IOU, LossKind.GIOU, LossKind.DIOU],
            seed=63,
            cfg=self.CFG,
        )
        assert study.summary[LossKind.IOU].convergence_rate == 0.0
        assert study.summary[LossKind.GIOU].convergence_rate > 0.0
        assert (
            study.summary[LossKind.DIOU].median_iterations
            < study.summary[LossKind.GIOU].median_iterations
        )

    def test_deterministic_given_seed(self):
        kwargs = dict(
            trials=30,
            loss_kinds=[LossKind.GIOU, LossKind.DIOU],
            seed=64,
            cfg=self.CFG,
        )
        assert convergence_study(**kwargs) == convergence_study(**kwargs)

    def test_kind_order_does_not_matter(self):
        a = convergence_study(
            trials=30,
            loss_kinds=[LossKind.DIOU, LossKind.GIOU],
            seed=65,
            cfg=self.CFG,
        )
        b = convergence_study(
            trials=30,
            loss_kinds=[LossKind.GIOU, LossKind.DIOU],
            seed=65,
            cfg=self.CFG,
        )
        assert a == b

    def test_csv_rows_shape(self):
        study = convergence_study(
            trials=30,
            loss_kinds=[LossKind.IOU],
            seed=66,
            cfg=self.CFG,
        )
        rows = trial_csv_rows(study)
        assert rows[0] == ["trial", "loss_kind", "converged", "iterations", "final_iou"]
        assert len(rows) == 1 + 30
        assert all(len(row) == 5 for row in rows)
        assert rows[1][1] == "iou" and rows[1][2] == "0" and rows[1][3] == ""

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValidationError):
            convergence_study(10, [LossKind.IOU], 1, self.CFG)

    @pytest.mark.parametrize("kinds", [[], iter(())])
    def test_no_loss_kind_raises(self, kinds):
        with pytest.raises(ValidationError, match="^loss_kinds must not be empty$"):
            convergence_study(30, kinds, 1, self.CFG)

    def test_sampler_produces_disjoint_pairs(self):
        pairs = sample_pairs(200, 67)
        assert all(iou(a, b) == 0.0 for a, b in pairs)
        # The fixed ranges: every box inside [0, 10]^2, each side in [0.5, 3].
        boxes = [box for pair in pairs for box in pair]
        assert all(-1e-12 <= min(b.x_min, b.y_min) and max(b.x_max, b.y_max) <= 10.0 + 1e-12 for b in boxes)
        assert all(0.5 - 1e-12 <= side <= 3.0 + 1e-12 for b in boxes for side in (b.width, b.height))


@pytest.fixture
def fixed_pairs(monkeypatch):
    """``fixed_pairs(pairs)`` makes ``convergence_study`` run on ``pairs``: it asks
    ``sample_pairs`` only for its ``trials`` pairs, whatever the seed."""

    def use(pairs):
        def sampled(n, seed):
            assert n == len(pairs)
            return list(pairs)

        monkeypatch.setattr(boxlab.descent, "sample_pairs", sampled)

    return use


LANE_PAIRS = SAMPLED_PAIRS + [TIED_L1_STEP, RAISING_CIOU[:2]]


def outcome(fn):
    """``repr`` of what ``fn()`` returns, or the class and message of the BoxlabError it raises."""
    try:
        return repr(fn())
    except BoxlabError as exc:
        return type(exc).__name__, str(exc)


def scalar_records(pairs, kinds, cfg):
    """The study's records, one ``run_descent`` per (kind, trial) pair in (kind, trial) order."""
    records = []
    for kind in sorted(kinds, key=lambda k: k.value):
        for trial, (init, target) in enumerate(pairs):
            t = run_descent(init, target, kind, cfg)
            records.append(TrialRecord(trial, kind, t.converged, t.converged_at, t.final_iou))
    return tuple(records)


@pytest.fixture
def scalar_calls(monkeypatch):
    """The pairs ``convergence_study`` hands to ``run_descent`` (it does so only to raise its error)."""
    calls = []

    def recording(init, target, kind, cfg):
        calls.append((init, target))
        return run_descent(init, target, kind, cfg)

    monkeypatch.setattr(boxlab.descent, "run_descent", recording)
    return calls


class TestLockstepStudy:
    """``convergence_study`` runs its pairs as lanes; they must stop where ``run_descent`` stops."""

    @pytest.mark.parametrize("lr", [0.1, 2.0, 3.0])
    @pytest.mark.parametrize("backtracking", [False, True])
    @pytest.mark.parametrize("parameterization", ["corner", "center"])
    def test_records_match_run_descent(self, parameterization, backtracking, lr, scalar_calls, fixed_pairs):
        cfg = DescentConfig(learning_rate=lr, max_iters=40, backtracking=backtracking,
                            parameterization=parameterization)
        want = scalar_records(LANE_PAIRS, list(LossKind), cfg)
        fixed_pairs(LANE_PAIRS)
        study = convergence_study(len(LANE_PAIRS), list(LossKind), 0, cfg)
        assert scalar_calls == []  # the lanes made these records
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(study.records) == repr(want)

    @pytest.mark.parametrize("parameterization", ["corner", "center"])
    def test_raising_ciou_candidate_rejected(self, parameterization, scalar_calls, fixed_pairs):
        init, target, lr = RAISING_CIOU
        if parameterization == "center":
            lr *= 2.0  # the center step halves the size change
        cfg = DescentConfig(learning_rate=lr, max_iters=30, backtracking=True, parameterization=parameterization)
        pairs = [(init, target)] + SAMPLED_PAIRS[:29]
        fixed_pairs(pairs)
        study = convergence_study(30, [LossKind.CIOU], 0, cfg)
        assert scalar_calls == []
        assert repr(study.records) == repr(scalar_records(pairs, [LossKind.CIOU], cfg))
        assert study.records[0].converged

    def test_underflowing_candidate_rejected(self, scalar_calls, loss_calls, fixed_pairs):
        init, target, lr = UNDERFLOWING_CANDIDATE
        cfg = DescentConfig(learning_rate=lr, max_iters=30, backtracking=True)
        pairs = [(init, target)] + SAMPLED_PAIRS[:29]
        kinds = [LossKind.IOU, LossKind.GIOU, LossKind.DIOU, LossKind.CIOU]
        fixed_pairs(pairs)
        study = convergence_study(30, kinds, 0, cfg)
        assert scalar_calls == []
        want = scalar_records(pairs, kinds, cfg)
        assert sum(raised for _, raised in loss_calls) > 4 * 30  # every kind rejects many candidates
        assert repr(study.records) == repr(want)

    @pytest.mark.parametrize("backtracking", [False, True])
    def test_tiny_prediction_below_ciou_gate(self, backtracking, scalar_calls, fixed_pairs):
        # 0 times CIoU's overflowed dV made run_descent's gradient NaN where the lanes' was DIoU's.
        cfg = DescentConfig(learning_rate=1e-4, max_iters=30, backtracking=backtracking)
        pairs = [TINY_PREDICTION] + SAMPLED_PAIRS[:29]
        fixed_pairs(pairs)
        study = convergence_study(30, [LossKind.CIOU, LossKind.DIOU], 0, cfg)
        assert scalar_calls == []
        assert repr(study.records) == repr(scalar_records(pairs, [LossKind.CIOU, LossKind.DIOU], cfg))

    # sha256 of the CSV rows of the bench's descent study (30 trials, lr 3.0, 100 steps, with
    # backtracking) at seeds 700001-700010. CIoU is left out: its atan bits depend on the libm.
    BENCH_CSV_DIGESTS = {
        700001: "1336310a6a73b023e8b36bbc49e29d6da2f3d6e6d6709255c68e538ed7853ddf",
        700002: "5d8f85addc074f3f478680dfa8758c093db2b1551a449c00a372935aa0806ef6",
        700003: "b4f4a6c144b45e71296a3968b91d7b2c85910d1294aaa06382e706c2def8fa58",
        700004: "e1897b8aee22f22b437fb9841a26b80940fde6389566e93b9f115136c7c8cf41",
        700005: "1aab52b3b7426be0f3d304ddb89ad71d527cda5576e50c14a9bbfa31c77e7e66",
        700006: "7f3b3ac5b294393fe66cd6eabd9bcbc984c09743c938e94513db417d04ed390e",
        700007: "cc5c4aa7af51b49eae00c7d3e39ad8e486575557a4804132268bcf74ffa40019",
        700008: "881aca8f4d913ab8e878088b05ea6003123a03a3b66c6c346471ceb328505cf4",
        700009: "4f29b58428c20b18b296ac2560eb58256e5831666b28c8153148b3d6c942b24a",
        700010: "ef9e340d7db79207ec87a62fef9f19968522c6c8fcef19a8b2fde47638ce86f3",
    }

    @pytest.mark.parametrize("seed", sorted(BENCH_CSV_DIGESTS))
    def test_bench_study_csv_pinned(self, seed):
        cfg = DescentConfig(learning_rate=3.0, max_iters=100, backtracking=True)
        study = convergence_study(30, [LossKind.IOU, LossKind.GIOU, LossKind.DIOU], seed, cfg)
        assert rows_digest(trial_csv_rows(study)) == self.BENCH_CSV_DIGESTS[seed]

    def test_summary_from_lane_records(self):
        # Each summary against its own records, counted and medianed without numpy.
        cfg = DescentConfig(learning_rate=3.0, max_iters=100, backtracking=True)
        for trials, seed in itertools.product([30, 31], [68, 69, 70]):
            study = convergence_study(trials, list(LossKind), seed, cfg)
            assert list(study.summary) == sorted(LossKind, key=lambda k: k.value)
            for kind, summary in study.summary.items():
                records = [r for r in study.records if r.loss_kind is kind]
                assert summary.loss_kind is kind and summary.trials == len(records) == trials
                assert summary.convergence_rate == sum(r.converged for r in records) / trials
                assert summary.median_iterations == statistics.median(
                    math.inf if r.iterations is None else r.iterations for r in records
                )

    @pytest.mark.parametrize("trials, on_target, median", [(30, 15, math.inf), (31, 16, 0.0), (31, 15, math.inf)])
    def test_median_is_infinite_unless_more_than_half_converge(self, trials, on_target, median, fixed_pairs):
        # An IoU-loss lane that starts on its target converges at step 0; a disjoint one
        # has zero gradient and never moves.
        on = (Box(1.0, 1.0, 2.0, 3.0), Box(1.0, 1.0, 2.0, 3.0))
        off = (Box(0.0, 0.0, 1.0, 1.0), Box(5.0, 5.0, 6.0, 6.0))
        fixed_pairs([on] * on_target + [off] * (trials - on_target))
        summary = convergence_study(trials, [LossKind.IOU], 0, DescentConfig()).summary[LossKind.IOU]
        assert summary.convergence_rate == on_target / trials
        assert summary.median_iterations == median

    def test_overflowing_target_area_reports_zero_overlap(self, fixed_pairs):
        # The target's area is inf: the zero-area check must not warn, and the lane
        # reports iou_array's 0.0 for the NaN union (the README NaN-union Convention).
        huge = Box(0.0, 0.0, 1e300, 1e300)
        fixed_pairs([(huge, huge)] * 30)
        records = convergence_study(30, [LossKind.L1], 0, DescentConfig()).records
        assert [(r.converged, r.final_iou) for r in records] == [(False, 0.0)] * 30

    def test_records_take_the_lanes_final_iou(self, monkeypatch):
        # When no lane fails, the study computes no scalar IoU: each record's final IoU
        # is the one its lane's last success test computed.
        cfg = DescentConfig(learning_rate=3.0, max_iters=100, backtracking=True)
        want = repr(convergence_study(30, list(LossKind), 68, cfg))

        def raising(a, b):
            raise AssertionError("the study called the scalar iou")

        monkeypatch.setattr(boxlab.descent, "iou", raising)
        assert repr(convergence_study(30, list(LossKind), 68, cfg)) == want

    def test_lane_failure_without_scalar_error_is_an_assertion(self, monkeypatch, fixed_pairs):
        # A lane that fails in lockstep where run_descent does not raise is a bug in the lanes.
        pairs = overlapping_pairs(69, 30)
        fixed_pairs(pairs)
        monkeypatch.setattr(boxlab.descent, "run_descent", lambda init, target, kind, cfg: None)
        with pytest.raises(AssertionError, match="failed in lockstep, but run_descent did not raise$"):
            convergence_study(30, [LossKind.IOU], 0, DescentConfig(learning_rate=1e308))

    @pytest.mark.parametrize(
        "pair, kinds, cfg, error",
        [
            # IoU's gradient near these 0.1-wide boxes is about 10: a step of 1e308 leaves the floats.
            ((Box(0.0, 0.0, 0.1, 0.1), Box(0.05, 0.05, 0.15, 0.15)), [LossKind.IOU],
             DescentConfig(learning_rate=1e308), "InvalidBoxError"),
            ((Box(0.0, 0.0, 0.1, 0.1), Box(0.05, 0.05, 0.15, 0.15)), [LossKind.IOU],
             DescentConfig(learning_rate=1e308, backtracking=True), "InvalidBoxError"),
            (RAISING_CIOU[:2], [LossKind.CIOU, LossKind.DIOU],
             DescentConfig(learning_rate=RAISING_CIOU[2], max_iters=30),
             "DegenerateAspectError"),
            (TIED_L1_STEP, [LossKind.DIOU, LossKind.L1],
             DescentConfig(learning_rate=1e200, max_iters=5), "ValidationError"),
            (UNDERFLOWING_PAIR, [LossKind.IOU, LossKind.GIOU, LossKind.L1],
             DescentConfig(max_iters=5, backtracking=True), "UndefinedOverlapError"),
            (UNDERFLOWING_PAIR, [LossKind.CIOU, LossKind.DIOU],
             DescentConfig(max_iters=5), "UndefinedOverlapError"),
            ((Box(0.0, 0.0, 1.0, 1.0), Box(1.0, 1.0, 1.0, 3.0)), [LossKind.L1, LossKind.GIOU],
             DescentConfig(max_iters=5), "ValidationError"),
        ],
        ids=["non-finite-step", "non-finite-candidate", "degenerate-ciou", "overflowing-center-distance",
             "underflowing-start-backtracking", "underflowing-start", "zero-area-target"],
    )
    def test_raises_as_run_descent(self, pair, kinds, cfg, error, scalar_calls, fixed_pairs):
        # The study must raise the scalar loop's first error in (kind, trial) order, wherever
        # the lanes meet theirs.
        pairs = overlapping_pairs(69, 30) + [pair]
        want = outcome(lambda: scalar_records(pairs, kinds, cfg))
        assert want[0] == error
        fixed_pairs(pairs)
        assert outcome(lambda: convergence_study(len(pairs), kinds, 0, cfg)) == want
        assert len(scalar_calls) == 1  # one run_descent, on the first raising lane, raised the error
