"""Float totals are added left to right from 0.0, whatever the Python version.

Python 3.12 made ``sum`` of floats compensated, which can change the last bit of
a mean. Each test here shadows ``sum`` with ``math.fsum``, a compensated sum, in
every module that totals floats: no result may change.
"""

import math

import numpy as np
import pytest

import boxlab.cli
import boxlab.coco_io
import boxlab.evaluation
import boxlab.geometry
import boxlab.losses
from boxlab.coco_io import load_manifest, load_predictions
from boxlab.evaluation import PerClassResult, aggregate, evaluate
from boxlab.geometry import Box
from boxlab.losses import _LANE_KINDS, LossKind, _lane_loss, loss
from test_cli_golden import CASES, GOLDEN, run_case

MODULES = (boxlab.cli, boxlab.coco_io, boxlab.evaluation, boxlab.geometry, boxlab.losses)


def left_to_right(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.fixture(autouse=True)
def compensated_sum(monkeypatch):
    for module in MODULES:
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)


def test_l1_loss_is_the_lane_kernel_bit_for_bit():
    gt, pred = Box(0.1, 0.2, 0.7, 0.9), Box(0.5, 0.4, 0.7, 0.8)
    gaps = [abs(g - p) for g, p in zip(gt.as_tuple(), pred.as_tuple())]
    assert math.fsum(gaps) != left_to_right(gaps)  # a pair where the two sums differ
    value, _, _ = _lane_loss(np.array([_LANE_KINDS.index(LossKind.L1)]), np.array([gt.as_tuple()]).T,
                             np.array([pred.as_tuple()]).T)
    assert loss(LossKind.L1, gt, pred).value == value[0] == left_to_right(gaps) / 4.0


def test_aggregate_means_added_in_order():
    per_class = [PerClassResult(c, (0.1,), (0.1,), 0.1, 0.1, 1) for c in range(10)]
    assert math.fsum([0.1] * 10) != left_to_right([0.1] * 10)
    report = aggregate(per_class)
    want = left_to_right([0.1] * 10) / 10
    assert report.map_all == report.map_50 == report.average_recall == want


def test_evaluate_means_added_in_order():
    manifest = load_manifest(str(GOLDEN / "gt.json"))
    report = evaluate(load_predictions(str(GOLDEN / "pred.json"), manifest), manifest.annotations)
    for result in report.per_class.values():
        assert result.ap_all == left_to_right(result.ap_per_threshold) / len(result.ap_per_threshold)
    assert report.map_all == left_to_right(r.ap_all for r in report.per_class.values()) / len(report.per_class)


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("evaluate")))
def test_evaluate_goldens_unchanged(name, tmp_path):
    produced = run_case(CASES[name], tmp_path)
    assert produced == {p.suffix[1:]: p.read_bytes() for p in GOLDEN.glob(f"{name}.*")}
