"""One workload in a fresh interpreter: import boxlab, run operations, record results.

Usage (started by run.py, never by hand):
    python3 bench/worker.py JOB_JSON RESULT_JSON

Runs one untimed warm-up operation, then timed operations until the job's
time is spent. With tracing on, the second half of the time runs with the
hooks from tracing.py installed. A block of the fixed reference computation
of calibrate.py runs before the first timed op and after every op, so each
op's wall time can be scaled to the machine's speed around it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

import calibrate

MIN_TIMED_OPS = 3
REFERENCE_SHARE = 0.25  # reference time per op, as a share of the warm-up op's wall time


def _import_boxlab(src_dir: str) -> None:
    """Import boxlab.cli, refusing any copy but the one in the checkout's src/."""
    import boxlab.cli

    where = os.path.realpath(boxlab.cli.__file__)
    if not where.startswith(os.path.realpath(src_dir) + os.sep):
        raise SystemExit(f"boxlab was imported from {where}, not from {src_dir}")


def descent_suite_seed(seed: int, index: int) -> int:
    """The ``--seed`` of op ``index``'s trial suite. Descent cost per trial is
    heavy-tailed, so each op samples a new suite and a run averages over many;
    the warm-up op (index 0) repeats op 1's suite so the pair checks that the
    CSV is reproducible."""
    return seed * 100_000 + max(index, 1)


class CliRunner:
    """One op is one ``boxlab`` command run in-process with stdout captured."""

    def __init__(self, job: dict) -> None:
        import boxlab.cli

        self.cli = boxlab.cli
        self.seed = job["seed"]
        p = job["params"]
        if job["workload"] == "descent-study":
            self.argv = ["convergence", "--trials", str(p["trials"]), "--losses", p["losses"], "--lr", repr(p["lr"]),
                         "--max-iters", str(p["max_iters"]), "--success-iou", repr(p["success_iou"]),
                         "--format", "csv", "--seed"]
            self.items = p["trials"] * len(p["losses"].split(","))
        else:
            self.argv = ["evaluate", job["files"]["gt"], job["files"]["pred"], "--format", "json"]
            if p["iou_thresholds"] is not None:
                self.argv += ["--iou-thresholds", p["iou_thresholds"]]
            self.items = p["images"]

    def op(self, index: int) -> dict:
        argv = self.argv
        if argv[0] == "convergence":
            argv = argv + [str(descent_suite_seed(self.seed, index))]
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "items": self.items, "latencies_ms": [wall * 1e3],
                "exit_code": code, "output": buf.getvalue()}


class PipelineRunner:
    """One op generates the anchors, then runs ``images_per_op`` images through
    augment -> decode -> NMS -> assign -> encode + CIoU loss on each positive."""

    def __init__(self, job: dict) -> None:
        from boxlab import augment, losses, proposals
        from boxlab.geometry import Box

        self.A, self.L, self.P = augment, losses, proposals
        self.params = job["params"]
        with open(job["files"]["images"], encoding="utf-8") as fh:
            doc = json.load(fh)
        self.aug_params = augment.AugmentParams(image_width=doc["width"], image_height=doc["height"])
        self.feature_sizes = [(-(-doc["height"] // s), -(-doc["width"] // s)) for s in (4, 8, 16, 32)]
        self.images = [
            {
                "gts": [Box(*b) for b in im["gts"]],
                "decision": augment.ImageAugment(**im["decision"]),
                "anchor_idx": im["anchor_idx"],
                "deltas": [proposals.BoxDelta(*d) for d in im["deltas"]],
                "scores": im["scores"],
            }
            for im in doc["images"]
        ]
        self.rng = random.Random(job["seed"])
        self.next_image = 0

    def op(self, index: int) -> dict:
        A, L, P = self.A, self.L, self.P
        p = self.params
        n = p["images_per_op"]
        batch = [(self.next_image + k) % len(self.images) for k in range(n)]
        self.next_image += n
        checked = self.rng.choice(batch)
        latencies, digests, dump = [], [], None

        start = time.perf_counter()
        anchors = P.generate_anchors(P.AnchorConfig(), self.feature_sizes)
        for i in batch:
            im = self.images[i]
            t0 = time.perf_counter()
            kept, dropped = A.apply_image_augment(im["decision"], self.aug_params, im["gts"])
            cands = [
                P.ScoredBox(P.decode_delta(anchors[a].box, d), s)
                for a, d, s in zip(im["anchor_idx"], im["deltas"], im["scores"])
            ]
            keep = P.nms(cands, p["nms_iou"], max_keep=p["max_keep"])
            proposals = [cands[k].box for k in keep]
            assignments = P.assign_proposals(proposals, kept, p["pos_iou"])
            loss_sum = 0.0
            for asg in assignments:
                if asg.positive:
                    gt = kept[asg.gt_index]
                    P.encode_delta(anchors[im["anchor_idx"][keep[asg.proposal_index]]].box, gt)
                    loss_sum += L.loss(L.LossKind.CIOU, gt, proposals[asg.proposal_index]).value
            latencies.append((time.perf_counter() - t0) * 1e3)
            digests.append([i, len(keep), sum(a.positive for a in assignments), loss_sum])
            if i == checked and dump is None:
                dump = (i, kept, dropped, cands, keep, assignments)
        wall = time.perf_counter() - start

        i, kept, dropped, cands, keep, assignments = dump
        dump = {
            "image": i,
            "kept_gts": [list(b.as_tuple()) for b in kept],
            "dropped": dropped,
            "decoded": [list(c.box.as_tuple()) for c in cands],
            "keep": keep,
            "assign": [[a.positive, a.gt_index, a.iou] for a in assignments],
        }
        probe = self.rng.sample(range(len(anchors)), 5)
        return {"wall_s": wall, "items": n, "latencies_ms": latencies, "exit_code": 0,
                "output": {"digests": digests, "dump": dump, "anchor_count": len(anchors),
                           "anchor_sample": {str(k): list(anchors[k].box.as_tuple()) for k in probe}}}


def _run_ops(runner, seconds: float, first_index: int, min_ops: int, tracer=None, ref_calls: int = 0) -> list[dict]:
    """Ops back to back until ``seconds`` have passed. With ``ref_calls`` > 0,
    each op records the median reference call time of the calibrate.py blocks
    just before and just after it as ``ref_s``."""
    ops = []
    deadline = time.perf_counter() + seconds
    ref_before = calibrate.block(ref_calls) if ref_calls else None
    while len(ops) < min_ops or time.perf_counter() < deadline:
        index = first_index + len(ops)
        if tracer is not None:
            tracer.begin_op(index)
        try:
            result = runner.op(index)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            result = {"wall_s": 0.0, "items": 0, "latencies_ms": [], "exit_code": None,
                      "output": None, "error": f"{type(exc).__name__}: {exc}"}
        if tracer is not None:
            tracer.end_op()
        result["traced"] = tracer is not None
        if ref_calls:
            ref_after = calibrate.block(ref_calls)
            result["ref_s"] = [ref_before, ref_after]
            ref_before = ref_after
        ops.append(result)
    return ops


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    _import_boxlab(job["src_dir"])
    runner = PipelineRunner(job) if job["workload"] == "proposal-pipeline" else CliRunner(job)

    ops = _run_ops(runner, 0.0, 0, 1)  # untimed warm-up, still checked
    ops[0]["warmup"] = True
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    spans, per_op_counts = [], []
    calls = max(1, round(REFERENCE_SHARE * ops[0]["wall_s"] / calibrate.block(3)))
    ops += _run_ops(runner, seconds, len(ops), MIN_TIMED_OPS, ref_calls=calls)
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        ops += _run_ops(runner, seconds, len(ops), MIN_TIMED_OPS, tracer, calls)
        spans, per_op_counts = tracer.spans, tracer.per_op_counts

    import numpy

    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "ops": ops,
        "reference_calls": calls,
        "spans": spans,
        "per_op_counts": per_op_counts,
    }
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
