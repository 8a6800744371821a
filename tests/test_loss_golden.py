"""Bit-for-bit golden values and gradients of the five losses on adversarial pairs.

The pairs in ``fixtures/loss_golden.json`` cover coordinate ties, touching
edges, disjoint and nested pairs, an IoU of exactly 0.5 (the CIoU gate),
zero-width and zero-height predictions (CIoU raises) and both boxes of zero
area (every IoU-family loss raises), plus seeded float pairs over several
magnitudes. Every input and output is stored as ``float.hex``, so the signs
of zeros are pinned too.

L1, IoU, GIoU and DIoU must match exactly. CIoU goes through ``math.atan``,
which may differ by an ulp between libms: where this libm reproduces the two
stored ``atan`` values of a case, CIoU must match exactly; elsewhere each
component may differ by at most 2 ulp. The lane kernel that descent's
convergence study runs is held to the same values, to gradients equal up to
the sign of a zero, and to raising exactly where the scalar loss raises, here
and on sampled lanes of every kind with tiny, huge and flat boxes.
Regenerate only for an intended change of the loss arithmetic:

    PYTHONPATH=src python tests/test_loss_golden.py
"""

from __future__ import annotations

import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlab.errors import BoxlabError
from boxlab.geometry import Box
from boxlab.losses import _LANE_KINDS, LossKind, _lane_loss, loss

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "loss_golden.json"

GT = (0.0, 0.0, 4.0, 4.0)
# Intervals over these values: ties with the GT edges (0, 4), touching (-2..0,
# 4..5), disjoint (5..6), nested (1..4), containing (-2..5) and zero width.
X_VALUES = (-2.0, 0.0, 1.0, 4.0, 5.0, 6.0)
# (0, 2) against the GT's (0, 4) with equal x gives an IoU of exactly 0.5.
Y_INTERVALS = ((0.0, 4.0), (1.0, 3.0), (0.0, 2.0), (-1.0, 2.0), (4.0, 5.0), (2.0, 2.0))
SPECIAL = [
    ((1.0, 1.0, 1.0, 3.0), (1.0, 1.0, 1.0, 3.0)),  # both zero area: IoU undefined
    ((1.0, 1.0, 1.0, 3.0), (0.0, 0.0, 2.0, 2.0)),  # zero-width GT: CIoU raises
    ((0.0, 0.0, 4.0, 4.0), (2.0, 0.0, 4.0, 4.0)),  # IoU exactly 0.5, shared right edge
    ((0.0, 0.0, 2.0, 1.0), (0.0, 0.0, 1.0, 1.0)),  # IoU exactly 0.5, shared left edge
    ((0.1, 0.2, 0.30000000000000004, 0.7), (0.1, 0.2, 0.3, 0.7)),  # one-ulp edge gap
    ((-1e-300, -1e-300, 1e-300, 1e-300), (0.0, 0.0, 1e-300, 1e-300)),  # subnormal areas
    ((1e150, 1e150, 3e150, 2e150), (1.5e150, 0.5e150, 4e150, 2.5e150)),  # large magnitudes
]


def cases() -> list[tuple[tuple, tuple]]:
    """The (gt, pred) corner tuples of every golden case, in a fixed order."""
    x_intervals = [(a, b) for i, a in enumerate(X_VALUES) for b in X_VALUES[i:]]
    out = [(GT, (x1, y1, x2, y2)) for x1, x2 in x_intervals for y1, y2 in Y_INTERVALS]
    out += SPECIAL
    rng = random.Random(20240)
    for scale in (1e-3, 1.0, 1e3, 1e6):
        for _ in range(8):
            boxes = []
            for _ in range(2):
                x, y = rng.uniform(-5, 5) * scale, rng.uniform(-5, 5) * scale
                boxes.append((x, y, x + rng.uniform(0.1, 4) * scale, y + rng.uniform(0.1, 4) * scale))
            out.append(tuple(boxes))
    return out


def aspect_atan(b: tuple) -> str | None:
    """``math.atan(width/height)`` as CIoU's aspect term computes it, or None for a flat box."""
    w, h = b[2] - b[0], b[3] - b[1]
    return math.atan(w / h).hex() if w > 0.0 and h > 0.0 else None


def outputs(kind: LossKind, gt: tuple, pred: tuple) -> list[str] | str:
    """Value and gradient as hex floats, or the name of the error the loss raises."""
    try:
        result = loss(kind, Box(*gt), Box(*pred))
    except BoxlabError as exc:
        return type(exc).__name__
    return [x.hex() for x in (result.value, *result.gradient)]


def record(gt: tuple, pred: tuple) -> dict:
    """One case: its inputs, CIoU's two ``atan`` values and the outputs of every kind."""
    rec = {"gt": [x.hex() for x in gt], "pred": [x.hex() for x in pred], "atan": [aspect_atan(gt), aspect_atan(pred)]}
    rec.update((kind.value, outputs(kind, gt, pred)) for kind in LossKind)
    return rec


def golden_cases() -> list[tuple[dict, tuple, tuple]]:
    """Each stored record with its (gt, pred) inputs decoded."""
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return [(rec, *(tuple(float.fromhex(x) for x in rec[key]) for key in ("gt", "pred"))) for rec in records]


def ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_golden_covers_every_case():
    assert [(gt, pred) for _, gt, pred in golden_cases()] == cases()
    raised = {(k.value, rec[k.value]) for rec, _, _ in golden_cases() for k in LossKind if isinstance(rec[k.value], str)}
    assert ("ciou", "DegenerateAspectError") in raised
    assert ("giou", "UndefinedOverlapError") in raised


@pytest.mark.parametrize("kind", [k for k in LossKind if k is not LossKind.CIOU], ids=lambda k: k.value)
def test_exact_match(kind):
    for rec, gt, pred in golden_cases():
        assert outputs(kind, gt, pred) == rec[kind.value], (gt, pred)


def test_ciou_match():
    for rec, gt, pred in golden_cases():
        got, want = outputs(LossKind.CIOU, gt, pred), rec["ciou"]
        if isinstance(want, str) or [aspect_atan(gt), aspect_atan(pred)] == rec["atan"]:
            assert got == want, (gt, pred)
            continue
        # This libm's atan differs from the one that made the golden.
        assert not isinstance(got, str), (gt, pred)
        for mine, theirs in zip(got, want):
            assert ulps_apart(float.fromhex(mine), float.fromhex(theirs)) <= 2, (gt, pred)


def lane_outputs(codes: list[int], cases: list[tuple] | None = None) -> list[tuple]:
    """The lane kernel over the golden cases (all of them by default), case ``i`` as a
    lane of kind code ``codes[i]``."""
    cases = golden_cases() if cases is None else cases
    value, gradient, raises = _lane_loss(
        np.array(codes), np.array([gt for _, gt, _ in cases]).T, np.array([pred for _, _, pred in cases]).T
    )
    return list(zip(value.tolist(), gradient.T.tolist(), raises.tolist()))


def assert_lane_matches(kind: LossKind, rec: dict, gt: tuple, pred: tuple, lane: tuple) -> None:
    value, gradient, raises = lane
    want = rec[kind.value]
    assert raises == isinstance(want, str), (kind, gt, pred)
    if raises:
        return
    if kind is LossKind.CIOU and [aspect_atan(gt), aspect_atan(pred)] != rec["atan"]:
        want = outputs(kind, gt, pred)  # this libm's atan: hold the lanes to the scalar loss
    assert value.hex() == want[0], (kind, gt, pred)
    # == lets a zero's sign differ; NaN (past 1e150 the squared union overflows) equals NaN.
    assert np.array_equal(gradient, [float.fromhex(x) for x in want[1:]], equal_nan=True), (kind, gt, pred)


@pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
def test_lane_kernel(kind):
    lanes = lane_outputs([_LANE_KINDS.index(kind)] * len(golden_cases()))
    for (rec, gt, pred), lane in zip(golden_cases(), lanes):
        assert_lane_matches(kind, rec, gt, pred, lane)


def test_lane_kernel_mixed_kinds():
    # Sorted runs of all five kinds in one call, so every term is computed on a prefix
    # of the lanes and added to a slice of it. Case i is a lane of kind (i // 3) % 5.
    lanes = sorted(
        (((i // 3) % len(_LANE_KINDS), case) for i, case in enumerate(golden_cases())), key=lambda lane: lane[0]
    )
    codes = [code for code, _ in lanes]
    assert sorted(set(codes)) == list(range(len(_LANE_KINDS)))
    for (code, (rec, gt, pred)), lane in zip(lanes, lane_outputs(codes, [case for _, case in lanes])):
        assert_lane_matches(_LANE_KINDS[code], rec, gt, pred, lane)


# Tiny scales underflow the squared terms, huge ones overflow them (NaN gradients past
# 1e150); a zero extent makes a box flat, and the listed coordinates make ties.
SCALES = st.sampled_from([1e-160, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e154, 1e160])
COORDS = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-8.0, 8.0))
EXTENTS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 8.0))


@st.composite
def lane_cases(draw) -> tuple[int, Box, Box]:
    """A kind code and a (gt, pred) pair; pred shares gt's scale unless a second one is drawn."""
    scale = draw(SCALES)
    boxes = []
    for s in (scale, draw(st.one_of(st.just(scale), SCALES))):
        x, y, w, h = draw(COORDS), draw(COORDS), draw(EXTENTS), draw(EXTENTS)
        boxes.append(Box(x * s, y * s, (x + w) * s, (y + h) * s))
    return (draw(st.integers(0, len(_LANE_KINDS) - 1)), *boxes)


def assert_lanes_equal_scalar(lanes: list[tuple[int, Box, Box]]) -> list[bool]:
    """The lane kernel over ``lanes`` (sorted by kind code here) equals the scalar loss of each
    lane, and raises exactly where it raises; returns which lanes raised."""
    lanes.sort(key=lambda lane: lane[0])
    value, gradient, raises = _lane_loss(
        np.array([code for code, _, _ in lanes]),
        np.array([gt.as_tuple() for _, gt, _ in lanes]).T,
        np.array([pred.as_tuple() for _, _, pred in lanes]).T,
    )
    for (code, gt, pred), v, grad, r in zip(lanes, value.tolist(), gradient.T.tolist(), raises.tolist()):
        try:
            want = loss(_LANE_KINDS[code], gt, pred)
        except BoxlabError:
            assert r, (code, gt, pred)
            continue
        assert not r, (code, gt, pred)
        assert v.hex() == want.value.hex(), (code, gt, pred)
        assert np.array_equal(grad, want.gradient, equal_nan=True), (code, gt, pred)
    return raises.tolist()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(lane_cases(), min_size=1, max_size=40))
def test_lane_kernel_matches_scalar_loss(lanes):
    assert_lanes_equal_scalar(lanes)


def test_lane_kernel_matches_scalar_loss_where_the_squared_union_underflows():
    # Between 1e-82.5 and 1e-80 the squared union of two boxes underflows or not. The squared
    # enclosing-box diagonal c2 * c2 needs no check of its own: c2 >= 2*ew*eh >= 2*union, so it
    # is nonzero wherever the squared union is, and every DIoU and CIoU lane that does not
    # raise has a finite value and gradient.
    rng = random.Random(81)
    lanes = []
    for _ in range(2_000):
        s = 10 ** rng.uniform(-82.5, -80.0)
        x, y, w, h, u, v, pw, ph = (rng.uniform(0.0, 4.0) for _ in range(8))
        code = rng.choice([_LANE_KINDS.index(LossKind.CIOU), _LANE_KINDS.index(LossKind.DIOU)])
        lanes.append((code, Box(x * s, y * s, (x + w) * s, (y + h) * s), Box(u * s, v * s, (u + pw) * s, (v + ph) * s)))
    raised = assert_lanes_equal_scalar(lanes)
    assert 200 < sum(raised) < 1_800
    for (code, gt, pred), r in zip(lanes, raised):
        if not r:
            result = loss(_LANE_KINDS[code], gt, pred)
            assert all(map(math.isfinite, (result.value, *result.gradient))), (code, gt, pred)


if __name__ == "__main__":
    records = [record(gt, pred) for gt, pred in cases()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n", encoding="utf-8")
