"""A fixed reference computation that measures how fast the machine runs right now.

The benchmark's host shares its cores with other machines' work, and the
speed of one vCPU drifts by up to about 2x over seconds to minutes. A run
cannot average a slow spell away when the spell outlasts the run. The worker
therefore times this reference before and after every operation, and
run.py scales each operation's wall time to the reference's nominal speed:

    normalized time = wall time * NOMINAL_S / (reference time around the op)

The reference is the benchmark's own naive evaluation (oracles.py) of a
small fixed eval input, parsed from JSON on every call: the same kind of
work as boxlab's (JSON parsing, small tuples and dicts, float arithmetic in
pure Python), on a working set small enough that the program's heap does
not change its speed. It never calls boxlab, so a change to the program
cannot move it, and its input does not depend on the workload or its seed.

Candidates that tracked the program worse: the same kind of reference timed
in a helper process (even pinned to the worker's vCPU), and tiling 57,600
box tuples in the worker, which ran 40-60% slower after pipeline ops than in
a fresh process.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time

import gen
import oracles

# Median reference call on an otherwise idle 2-vCPU Xeon VM (Python 3.11.7).
NOMINAL_S = 0.016
PARAMS = {
    "images": 12,
    "gts_per_image": 20,
    "classes": 3,
    "dets_per_gt": 2,
    "background_per_image": 8,
    "box_side": [16, 120],
}
THRESHOLDS = (0.5, 0.75)

_GT_DOC, _PREDS = gen.eval_docs(PARAMS, random.Random("reference"))
_GT_TEXT, _PRED_TEXT = json.dumps(_GT_DOC), json.dumps(_PREDS)


def reference() -> float:
    """Seconds taken by one reference call."""
    start = time.perf_counter()
    oracles.eval_expected(json.loads(_GT_TEXT), json.loads(_PRED_TEXT), THRESHOLDS)
    return time.perf_counter() - start


def block(calls: int) -> float:
    """Median seconds per call over ``calls`` back-to-back reference calls.

    The garbage collector is off meanwhile: a collection started by the
    reference's allocations would scan the program's heap, and a larger heap
    would then read as a slower machine. Every object the reference makes is
    freed before the collector is switched back on.
    """
    gc.disable()
    try:
        return statistics.median(reference() for _ in range(calls))
    finally:
        gc.enable()
