"""Gradient-descent simulator over the box losses.

Desk-scale check of the qualitative convergence behaviour of the loss
family: plain gradient descent on a single predicted box toward a fixed
target, with optional backtracking halving so that monotone descent can be
asserted. The headline facts it exposes:

* the IoU loss has exactly zero gradient on disjoint pairs, so descent
  never moves;
* the GIoU loss moves disjoint boxes into overlap;
* the DIoU loss reaches high overlap in fewer iterations than GIoU on a
  shared trial suite (it steers the center directly).

``run_descent`` follows one pair and keeps its whole trajectory.
``convergence_study`` needs only where each pair stops, so it runs every
(kind, trial) pair as one lane (a column) of (4, lanes) corner arrays and
takes each step for all lanes at once. Both move boxes through one step
function, ``_moved``, on floats or on arrays. The study reads its records
and summaries from the lanes' stop steps and final IoUs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BoxlabError, ValidationError
from .geometry import Box, _overlap, area, iou, iou_array
from .losses import _LANE_KINDS, GradVec, LossKind, _lane_gradient, _lane_values, loss

__all__ = [
    "DescentConfig",
    "TrajectoryPoint",
    "Trajectory",
    "TrialRecord",
    "KindSummary",
    "ConvergenceStudy",
    "run_descent",
    "sample_pairs",
    "convergence_study",
    "trial_csv_rows",
]

_MAX_HALVINGS = 20  # with backtracking, a step tries the learning rate and up to 20 halvings of it


@dataclass(frozen=True)
class DescentConfig:
    learning_rate: float = 0.1
    max_iters: int = 10_000
    success_iou: float = 0.9
    parameterization: str = "corner"  # "corner" or "center"
    backtracking: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate < math.inf:  # NaN fails this too
            raise ValidationError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 < self.success_iou <= 1.0:
            raise ValidationError(f"success_iou must be in (0, 1], got {self.success_iou}")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be non-negative")
        if self.parameterization not in ("corner", "center"):
            raise ValidationError(
                f"parameterization must be 'corner' or 'center', got {self.parameterization!r}"
            )


@dataclass(frozen=True)
class TrajectoryPoint:
    box: Box
    loss: float
    grad_norm: float


@dataclass(frozen=True)
class Trajectory:
    """Every visited iterate; ``converged_at`` is the step count at success, or None."""

    points: tuple[TrajectoryPoint, ...]
    converged_at: int | None
    final_iou: float

    @property
    def converged(self) -> bool:
        return self.converged_at is not None


def _moved(x1, y1, x2, y2, g1, g2, g3, g4, s, parameterization: str):
    """The corners that one step of size ``s`` moves ``(x1, y1, x2, y2)`` to, before
    the swap repair. Only ``+ - * /`` and ``abs``, so ``_step`` calls it on floats
    and ``_lane_steps`` on broadcast arrays, with the same operations in one order."""
    if parameterization == "corner":
        return x1 - s * g1, y1 - s * g2, x2 - s * g3, y2 - s * g4
    # Center/size step via the chain rule: dL/dc = dL/dx1 + dL/dx2,
    # dL/dw = (dL/dx2 - dL/dx1)/2. A negative size is the swap repair.
    cx = (x1 + x2) / 2.0 - s * (g1 + g3)
    cy = (y1 + y2) / 2.0 - s * (g2 + g4)
    w = abs((x2 - x1) - s * (g3 - g1) / 2.0)
    h = abs((y2 - y1) - s * (g4 - g2) / 2.0)
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


def _step(pred: Box, gradient: GradVec, step_size: float, parameterization: str) -> Box:
    x1, y1, x2, y2 = _moved(*pred.as_tuple(), *gradient, step_size, parameterization)
    # Coordinate-order violations are repaired by swapping, not clamping,
    # so the gradient stays informative on the next step.
    x1, x2 = (x2, x1) if x2 < x1 else (x1, x2)
    y1, y2 = (y2, y1) if y2 < y1 else (y1, y2)
    return Box(x1, y1, x2, y2)


def run_descent(init: Box, target: Box, kind: LossKind, cfg: DescentConfig) -> Trajectory:
    """Descend the ``kind`` loss, ``pred <- pred - lr * grad``, until IoU(pred, target) >= success_iou.

    Non-convergence is a result, not an error. The trajectory records every
    iterate including the initial box. Descent also stops early when the
    gradient is exactly zero (no future iterate can move) or, with
    backtracking enabled, when no step up to ``_MAX_HALVINGS`` halvings is
    non-increasing; a candidate whose loss raises is rejected like one whose
    loss increases. Each visited box's loss (value and gradient) is computed
    once: an accepted candidate's result becomes the next iterate's.
    """
    if area(target) <= 0.0:
        raise ValidationError(f"target must have positive area, got {target.as_tuple()}")

    pred = init
    result = loss(kind, target, pred)
    points: list[TrajectoryPoint] = []
    converged_at: int | None = None
    steps = 0
    while True:
        g1, g2, g3, g4 = result.gradient
        grad_norm = math.sqrt(g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4)
        points.append(TrajectoryPoint(pred, result.value, grad_norm))
        overlap = iou(target, pred)
        if overlap >= cfg.success_iou:
            converged_at = steps
            break
        if steps >= cfg.max_iters or grad_norm == 0.0:
            break

        if cfg.backtracking:
            step_size = cfg.learning_rate
            for _ in range(_MAX_HALVINGS + 1):
                candidate = _step(pred, result.gradient, step_size, cfg.parameterization)
                try:
                    candidate_result = loss(kind, target, candidate)
                except BoxlabError:
                    candidate_result = None  # rejected, like a loss increase
                if candidate_result is not None and candidate_result.value <= result.value:
                    break
                step_size /= 2.0
            else:
                break
            pred, result = candidate, candidate_result
        else:
            pred = _step(pred, result.gradient, cfg.learning_rate, cfg.parameterization)
            result = loss(kind, target, pred)
        steps += 1

    return Trajectory(points=tuple(points), converged_at=converged_at, final_iou=overlap)


def sample_pairs(n: int, seed: int) -> list[tuple[Box, Box]]:
    """``n`` seeded disjoint (init, target) box pairs in [0, 10]^2, each side in [0.5, 3];
    an init that meets its target is drawn again."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        target = _sample_box(rng)
        init = _sample_box(rng)
        while _overlap(init, target)[0] > 0.0:
            init = _sample_box(rng)
        pairs.append((init, target))
    return pairs


def _sample_box(rng: random.Random) -> Box:
    w = rng.uniform(0.5, 3.0)
    h = rng.uniform(0.5, 3.0)
    cx = rng.uniform(w / 2.0, 10.0 - w / 2.0)
    cy = rng.uniform(h / 2.0, 10.0 - h / 2.0)
    return Box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    loss_kind: LossKind
    converged: bool
    iterations: int | None
    final_iou: float


@dataclass(frozen=True)
class KindSummary:
    loss_kind: LossKind
    trials: int
    convergence_rate: float
    median_iterations: float  # +inf unless more than half the trials converge


@dataclass(frozen=True)
class ConvergenceStudy:
    records: tuple[TrialRecord, ...]
    summary: dict[LossKind, KindSummary]


def _lane_steps(pred: np.ndarray, gradient: np.ndarray, sizes, parameterization: str) -> np.ndarray:
    """``_step`` of every lane (columns of the (4, N) ``pred`` and ``gradient``)
    at every step size: (4, N, len(sizes)), unvalidated. ``_step`` raises
    exactly where a candidate is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        x1, y1, x2, y2 = _moved(*pred[:, :, None], *gradient[:, :, None], np.asarray(sizes)[None, :], parameterization)
        swap_x, swap_y = x2 < x1, y2 < y1
    x1, x2 = np.where(swap_x, x2, x1), np.where(swap_x, x1, x2)
    y1, y2 = np.where(swap_y, y2, y1), np.where(swap_y, y1, y2)
    return np.stack((x1, y1, x2, y2))


def _lockstep(inits: np.ndarray, targets: np.ndarray, codes: np.ndarray, cfg: DescentConfig):
    """``run_descent`` on every lane at once: lane ``i`` starts at ``inits[:, i]``
    toward ``targets[:, i]`` ((4, N) corner rows) with loss kind ``codes[i]``
    (sorted, as ``_lane_values`` needs).

    Returns (N,) arrays: each lane's ``converged_at`` (-1 for None), the IoU of its
    last success test, and ``failed``: True where ``run_descent`` raises on the
    lane. A failed lane stops where it would raise (its target has no area, its
    start loss raises, a step leaves the floats, or a step's loss raises without
    backtracking), and its other two results mean nothing.
    """
    sizes = [cfg.learning_rate]
    # Past the first zero step size every candidate is the same box, so the scan stops there.
    while cfg.backtracking and len(sizes) <= _MAX_HALVINGS and sizes[-1] > 0.0:
        sizes.append(sizes[-1] / 2.0)

    value, failed, terms = _lane_values(codes, targets, inits)
    with np.errstate(over="ignore"):  # an area past 1e308 is inf, which is not zero
        failed |= (targets[2] - targets[0]) * (targets[3] - targets[1]) <= 0.0
    converged_at = np.full(len(codes), -1)
    final_iou = np.zeros(len(codes))
    lane, pred, picked = np.arange(len(codes)), inits, None  # the starts are round 0's picks, with no gather
    steps = 0
    while True:
        gradient = _lane_gradient(targets, pred, terms, picked)
        del terms  # before the next block is built
        overlap = iou_array(targets.T, pred.T)
        hit = overlap >= cfg.success_iou
        converged_at[lane[hit]] = steps
        # grad_norm == 0.0 exactly where every g*g is 0 (a NaN component is not).
        stop = failed[lane] | hit | (gradient * gradient == 0.0).all(0) | (steps >= cfg.max_iters)
        if not stop.all():
            # The value of every step size of every moving lane in one value pass (one size
            # without backtracking); a lane takes its first accepted candidate, and stops if it has none.
            move, k = ~stop, len(sizes)
            candidates = _lane_steps(pred[:, move], gradient[:, move], sizes, cfg.parameterization)
            cand_value, cand_raises, terms = _lane_values(
                codes[move].repeat(k), targets[:, move].repeat(k, 1), candidates.reshape(4, -1)
            )
            finite = np.isfinite(candidates).all(0)
            accepted = finite & ~cand_raises.reshape(-1, k)
            if cfg.backtracking:
                accepted &= cand_value.reshape(-1, k) <= value[move, None]
            first = (accepted | ~finite).argmax(1)
            rows = np.arange(len(first))
            moved = accepted[rows, first]
            # _step raises on a box built before any accepted one; without backtracking a
            # raising loss raises too, so there a lane with no accepted candidate fails.
            failed[lane[move][~finite[rows, first] if cfg.backtracking else ~moved]] = True
            picked = (rows * k + first)[moved]  # the value pass's rows of the accepted candidates
            stop[move] = ~moved
        final_iou[lane[stop]] = overlap[stop]
        keep = ~stop
        if not keep.any():
            return converged_at, final_iou, failed
        lane, targets, codes = lane[keep], targets[:, keep], codes[keep]
        # The next gradient pass runs on the picked rows alone, or, where they are every row
        # (one step size, and every lane moved), on all of them with nothing gathered.
        pred, value = candidates.reshape(4, -1), cand_value
        if len(picked) < len(value):
            pred, value = pred.take(picked, 1), value[picked]
        else:
            picked = None
        del candidates, cand_value
        steps += 1


def convergence_study(
    trials: int,
    loss_kinds: Iterable[LossKind],
    seed: int,
    cfg: DescentConfig,
) -> ConvergenceStudy:
    """Run every loss kind over one shared suite, ``sample_pairs(trials, seed)``.

    Every kind descends with the same ``cfg``, so median iteration counts are
    directly comparable across kinds.
    Non-converged trials count as +inf iterations in the median.

    The records are those of ``run_descent`` on each (kind, trial) pair, which
    run here in lockstep as lanes. A lane where ``run_descent`` would raise stops
    there. Lanes do not interact, so the first such lane in (kind, trial) order
    holds the scalar loop's first error: the study re-runs that one lane with
    ``run_descent``, which raises it.
    """
    if trials < 30:
        raise ValidationError(f"need at least 30 trials for a meaningful study, got {trials}")
    kinds = sorted(set(loss_kinds), key=_LANE_KINDS.index)
    if not kinds:
        raise ValidationError("loss_kinds must not be empty")

    pairs = sample_pairs(trials, seed)
    # (8, kinds * trials): each trial's init and target corners, once per kind; lane i is trial i % trials.
    corners = np.tile(np.array([init.as_tuple() + target.as_tuple() for init, target in pairs]).T, len(kinds))
    converged_at, final_iou, failed = _lockstep(
        corners[:4], corners[4:], np.repeat([_LANE_KINDS.index(kind) for kind in kinds], trials), cfg
    )
    if failed.any():
        lane = int(failed.argmax())
        init, target = pairs[lane % trials]
        run_descent(init, target, kinds[lane // trials], cfg)
        raise AssertionError(f"lane {lane} failed in lockstep, but run_descent did not raise")

    records = tuple(
        TrialRecord(trial=i % trials, loss_kind=kinds[i // trials], converged=at >= 0,
                    iterations=None if at < 0 else at, final_iou=overlap)
        for i, (at, overlap) in enumerate(zip(converged_at.tolist(), final_iou.tolist()))
    )
    # Sorted stop steps, +inf where a lane did not converge; np.median would import numpy.ma (about 2 MiB).
    steps = np.sort(np.where(converged_at < 0, np.inf, converged_at).reshape(len(kinds), trials))
    medians = (steps[:, (trials - 1) // 2] + steps[:, trials // 2]) / 2
    summary = {
        kind: KindSummary(kind, trials, count / trials, median)
        for kind, count, median in zip(kinds, np.isfinite(steps).sum(1).tolist(), medians.tolist())
    }
    return ConvergenceStudy(records=records, summary=summary)


def trial_csv_rows(study: ConvergenceStudy) -> list[list[str]]:
    """Per-trial rows (trial id, loss kind, converged, iterations, final IoU)."""
    rows = [["trial", "loss_kind", "converged", "iterations", "final_iou"]]
    for record in study.records:
        rows.append(
            [
                str(record.trial),
                record.loss_kind.value,
                str(int(record.converged)),
                "" if record.iterations is None else str(record.iterations),
                repr(record.final_iou),
            ]
        )
    return rows
