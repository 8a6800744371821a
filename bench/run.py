"""boxlab benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload eval-dense --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the directory above this file, and boxlab
is imported from its ``src/``. The run:

1. generates the workload's inputs from ``--seed`` (untimed, in this process);
2. with ``--trace 0``, times ``import boxlab.cli`` in eight fresh
   interpreters (bench/setup_probe.py; ``setup_s`` is their median);
3. runs the workload in one fresh interpreter (bench/worker.py): a warm-up
   operation, then operations back to back for ``--seconds`` (a closed loop,
   one caller); with ``--trace 1`` half the time untraced and half with the
   spans and counters of bench/tracing.py. Blocks of the fixed reference
   computation of bench/calibrate.py run between ops, and the run's timings
   are scaled to the reference's nominal speed;
4. checks every operation's output against bench/oracles.py (untimed);
5. prints each metric by name and unit, then, as the last line, one JSON
   object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones. A full record (parameters, input sizes,
machine, sample counts, check findings) goes to
``.bench_work/records/``. See bench/README.md for every definition.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import gen
import oracles

WORKLOADS = tuple(gen.PARAMS)
SETUP_PROBES = 8
TIME_LIMIT_S = 170  # the whole invocation must end within 180 s

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_PROBE = os.path.join(BENCH_DIR, "setup_probe.py")

# Name, unit of every reported metric. Items are images for eval-* and the
# pipeline, and (trial, loss kind) descents for descent-study.
END_TO_END = {
    "setup_s": "s",
    "norm_items_per_s": "items/s",
    "norm_latency_ms_mean": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "coco_io.load_manifest_s": "s",
    "coco_io.load_predictions_s": "s",
    "coco_io.records": "count",
    "coco_io.records_per_s": "records/s",
    "evaluation.evaluate_s": "s",
    "evaluation.match_calls": "count",
    "evaluation.iou_calls": "count",
    "evaluation.iou_useful_frac": "ratio",
    "evaluation.dets_capped": "count",
    "geometry.boxes_built": "count",
    "losses.loss_calls": "count",
    "losses.loss_s": "s",
    "losses.pairs_per_s": "pairs/s",
    "descent.study_s": "s",
    "descent.steps": "count",
    "descent.backtrack_evals": "count",
    "descent.step_us": "us",
    "proposals.generate_anchors_s": "s",
    "proposals.anchors": "count",
    "proposals.decode_s": "s",
    "proposals.nms_s": "s",
    "proposals.nms_suppressed": "count",
    "proposals.assign_s": "s",
    "proposals.positives": "count",
    "proposals.encode_s": "s",
    "augment.apply_s": "s",
    "augment.boxes_dropped": "count",
    "reports.render_s": "s",
    "tracing_overhead_frac": "ratio",
}
DEFAULT_THRESHOLDS = tuple(i / 100 for i in range(50, 100, 5))


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run one fresh interpreter to completion; subprocess.run kills and reaps it on timeout."""
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run([sys.executable, *args], env=_subprocess_env(), capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)


def measure_setup(deadline: float) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = _run_child([SETUP_PROBE, SRC], deadline)
        if proc.returncode != 0:
            raise WorkerError(f"setup probe exited {proc.returncode}:\n{proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout)["setup_s"])
    return samples


# --- output checks --------------------------------------------------------------


def oracle_context(job: dict) -> dict:
    """Everything the checks need that depends only on the inputs."""
    workload = job["workload"]
    if workload.startswith("eval-"):
        with open(job["files"]["gt"], encoding="utf-8") as fh:
            gt_doc = json.load(fh)
        with open(job["files"]["pred"], encoding="utf-8") as fh:
            preds = json.load(fh)
        spec = job["params"]["iou_thresholds"]
        thresholds = DEFAULT_THRESHOLDS if spec is None else tuple(float(t) for t in spec.split(","))
        pairs, capped = oracles.eval_pair_counts(gt_doc, preds)
        return {"expected": oracles.eval_expected(gt_doc, preds, thresholds), "pairs": pairs, "capped": capped}
    if workload == "proposal-pipeline":
        with open(job["files"]["images"], encoding="utf-8") as fh:
            doc = json.load(fh)
        return {"images": doc["images"], "layout": oracles.AnchorLayout(doc["width"], doc["height"])}
    return {}


def score_ops(job: dict, ops: list[dict], context: dict) -> tuple[list[bool], list[str]]:
    """Per-op failure flags and the problems found.

    An op fails if it raised or exited non-zero, or if its output fails a
    check. For the CLI workloads the warm-up op's stdout is checked against
    the oracle and every other op must reproduce it byte for byte.
    """
    workload = job["workload"]
    problems: list[str] = []
    failed = [op.get("error") is not None or op["exit_code"] != 0 for op in ops]
    for op in ops:
        if op.get("error"):
            problems.append(f"op raised {op['error']}")
        elif op["exit_code"] != 0:
            problems.append(f"boxlab exited {op['exit_code']}")

    if workload == "proposal-pipeline":
        first_digest: dict = {}
        for k, op in enumerate(ops):
            if failed[k]:
                continue
            out = op["output"]
            found = oracles.check_anchors(out["anchor_count"], out["anchor_sample"], context["layout"])
            dump = out["dump"]
            found += oracles.check_pipeline_image(dump, context["images"][dump["image"]], context["layout"], job["params"])
            for digest in out["digests"]:
                if first_digest.setdefault(digest[0], digest) != digest:
                    found.append(f"image {digest[0]} gave a different result when processed again")
            if found:
                failed[k] = True
                problems += [f"op {k}: {msg}" for msg in found]
        return failed, problems

    if workload == "descent-study":
        p = job["params"]
        for k, op in enumerate(ops):
            found = [] if failed[k] else oracles.check_descent_csv(op["output"], p["trials"], p["losses"].split(","),
                                                                     p["success_iou"])
            if k == 1 and not failed[0] and op["output"] != ops[0]["output"]:
                found.append("the warm-up op's suite gave a different CSV when run again")
            if found:
                failed[k] = True
                problems += [f"op {k}: {msg}" for msg in found]
        return failed, problems

    reference = ops[0]["output"] if not failed[0] else None
    found = (oracles.check_eval_output(reference, context["expected"]) if reference is not None
             else ["warm-up op produced no output to check"])
    problems += found
    for k, op in enumerate(ops):
        if found or op["output"] != reference:
            if not failed[k] and not found:
                problems.append(f"op {k}: stdout differs from the warm-up op's")
            failed[k] = True
    return failed, problems


# --- metrics --------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def machine_speed(phase: list[dict]) -> float:
    """NOMINAL_S over the mean reference call time of a run of back-to-back ops.

    Each op's ``ref_s`` holds the blocks just before and after it, so the
    blocks of the phase are every op's first and the last op's second. One
    factor per run, not one per op: the speed moves within a run, but a
    block's median is too noisy to follow it op by op, and the slow spells
    that matter outlast the run.
    """
    blocks = [op["ref_s"][0] for op in phase] + [phase[-1]["ref_s"][1]]
    return calibrate.NOMINAL_S / statistics.mean(blocks)


def end_to_end(ops: list[dict], setup_samples: list[float], peak_rss_mb: float) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, their sample counts, and further figures that are
    printed and recorded only: the wall-clock throughput and latency mean, the
    normalized latency median and, where a run has the 100 samples that put ten
    beyond it, 90th percentile.

    Timings are normalized to the reference speed of calibrate.py: wall times
    are multiplied by the run's ``machine_speed``. Throughput and latency are
    means over the run, since descent-study's cost differs from suite to suite.
    """
    phase = [op for op in ops if not op.get("warmup")]
    speed = machine_speed(phase)
    timed = [op for op in phase if op.get("error") is None]
    wall_latencies = [x for op in timed for x in op["latencies_ms"]]
    latencies = [x * speed for x in wall_latencies]
    items = sum(op["items"] for op in timed)
    wall_s = sum(op["wall_s"] for op in timed)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "norm_items_per_s": items / (wall_s * speed),
        "norm_latency_ms_mean": statistics.mean(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": len(setup_samples), "norm_items_per_s": len(timed), "norm_latency_ms_mean": len(latencies),
               "setup_samples_s": setup_samples, "op_wall_s": [op["wall_s"] for op in timed],
               "op_ref_s": [op["ref_s"] for op in phase]}
    extra = {
        "wall_items_per_s": ("items/s", items / wall_s),
        "wall_latency_ms_mean": ("ms", statistics.mean(wall_latencies)),
        "machine_speed": ("ratio", speed),
        "norm_latency_ms_p50": ("ms", statistics.median(latencies)),
    }
    if len(latencies) >= 100:
        extra["norm_latency_ms_p90"] = ("ms", percentile(latencies, 90))
    return metrics, samples, extra


def per_layer(job: dict, ops: list[dict], spans: list, per_op_counts: list[dict], context: dict) -> tuple[dict, int]:
    """Per-op means over the traced ops; 0 where a workload never calls the layer."""
    traced = [op for op in ops if op.get("traced") and op.get("error") is None]
    untraced = [op for op in ops if not op.get("traced") and not op.get("warmup") and op.get("error") is None]
    n = len(traced)
    traced_speed = machine_speed([op for op in ops if op.get("traced")])
    untraced_speed = machine_speed([op for op in ops if not op.get("traced") and not op.get("warmup")])
    dur: dict = {}
    children: dict = {}
    for name, start, end, parent, _op in spans:
        dur[name] = dur.get(name, 0.0) + (end - start)
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (end - start)
    cli_self = sum(end - start - children.get(i, 0.0) for i, (name, start, end, _p, _o) in enumerate(spans)
                   if name == "cli.main")
    counts: dict = {}
    for c in per_op_counts:
        for key, value in c.items():
            counts[key] = counts.get(key, 0.0) + value

    def d(name):
        return dur.get(name, 0.0) / n

    def c(name):
        return counts.get(name, 0.0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    loads = d("coco_io.load_manifest") + d("coco_io.load_predictions")
    loss_calls = c("descent.loss_calls") + c("losses.direct_calls")
    loss_s = c("descent.loss_calls_s") + c("losses.direct_calls_s")
    is_cli = job["workload"] != "proposal-pipeline"
    metrics = {
        "cli.self_s": cli_self / n,
        "cli.output_bytes": statistics.mean(len(op["output"].encode()) for op in traced) if is_cli else 0.0,
        "coco_io.load_manifest_s": d("coco_io.load_manifest"),
        "coco_io.load_predictions_s": d("coco_io.load_predictions"),
        "coco_io.records": c("coco_io.records"),
        "coco_io.records_per_s": ratio(c("coco_io.records"), loads),
        "evaluation.evaluate_s": d("evaluation.evaluate"),
        "evaluation.match_calls": c("evaluation.match_calls"),
        "evaluation.iou_calls": c("evaluation.iou_calls"),
        "evaluation.iou_useful_frac": ratio(context.get("pairs", 0), c("evaluation.iou_calls")),
        "evaluation.dets_capped": float(context.get("capped", 0)),
        "geometry.boxes_built": c("geometry.boxes_built"),
        "losses.loss_calls": loss_calls,
        "losses.loss_s": loss_s,
        "losses.pairs_per_s": ratio(loss_calls, loss_s),
        "descent.study_s": d("descent.convergence_study"),
        "descent.steps": c("descent.steps"),
        "descent.backtrack_evals": c("descent.loss_calls") - c("descent.steps"),
        "descent.step_us": ratio(d("descent.convergence_study"), c("descent.steps")) * 1e6,
        "proposals.generate_anchors_s": d("proposals.generate_anchors"),
        "proposals.anchors": c("proposals.anchors"),
        "proposals.decode_s": c("proposals.decode_delta_s"),
        "proposals.nms_s": d("proposals.nms"),
        "proposals.nms_suppressed": c("proposals.nms_suppressed"),
        "proposals.assign_s": d("proposals.assign_proposals"),
        "proposals.positives": c("proposals.positives"),
        "proposals.encode_s": c("proposals.encode_delta_s"),
        "augment.apply_s": d("augment.apply_image_augment"),
        "augment.boxes_dropped": c("augment.boxes_dropped"),
        "reports.render_s": d("reports.render_table") + d("reports.rows_to_csv"),
        "tracing_overhead_frac": statistics.median(op["wall_s"] for op in traced) * traced_speed
        / (statistics.median(op["wall_s"] for op in untraced) * untraced_speed) - 1.0,
    }
    return metrics, n


# --- run record -----------------------------------------------------------------


def machine(result: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": result["python"],
        "numpy": result["numpy"],
        "platform": platform.platform(),
    }


def _unit_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<30} {value:>16.6g} {unit:<10} {note}".rstrip()


class WorkerError(RuntimeError):
    pass


def execute(workload: str, seed: int, seconds: float, trace: int, size: str) -> tuple[dict, dict, dict, list]:
    """Generate the inputs, time set-up, run the worker; return (job, worker result,
    oracle context, set-up samples). The inputs are deleted afterwards."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work_dir = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        job = gen.generate(workload, seed, size, work_dir)
        job.update(src_dir=SRC, seconds=seconds, trace=trace)
        job_path = os.path.join(work_dir, "job.json")
        result_path = os.path.join(work_dir, "result.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        setup_samples = [] if trace else measure_setup(deadline)
        proc = _run_child([WORKER, job_path, result_path], deadline)
        if proc.returncode != 0:
            raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        return job, result, oracle_context(job), setup_samples
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: every count shrunk, for the harness smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "boxlab", "__init__.py")):
        print(f"error: no boxlab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    try:
        job, result, context, setup_samples = execute(args.workload, args.seed, args.seconds, args.trace, args.size)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed, problems = score_ops(job, result["ops"], context)
    if all(failed[k] for k, op in enumerate(result["ops"]) if op.get("error") is None and not op.get("warmup")):
        print("error: no timed operation succeeded:\n  " + "\n  ".join(problems[:20]), file=sys.stderr)
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records_dir = os.path.join(ROOT, ".bench_work", "records")
    os.makedirs(records_dir, exist_ok=True)
    ops = result["ops"]
    if args.trace:
        metrics, n_samples = per_layer(job, ops, result["spans"], result["per_op_counts"], context)
        units, samples, extra = PER_LAYER, {"traced_ops": n_samples}, {}
    else:
        metrics, samples, extra = end_to_end(ops, setup_samples, result["peak_rss_mb"])
        units = END_TO_END
    attempted, n_failed = len(ops), sum(failed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": job["params"],
        "input_records": job["input_records"],
        "input_bytes": job["input_bytes"],
        "machine": machine(result),
        "samples": samples,
        "reference_calls_per_block": result["reference_calls"],
        "also_measured": {name: {"value": value, "unit": unit} for name, (unit, value) in extra.items()},
        "attempted": attempted,
        "failed": n_failed,
        "failed_frac": n_failed / attempted,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(records_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(records_dir, f"{tag}.spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op"), span))) + "\n")

    m = record["machine"]
    print(f"boxlab benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  inputs: {job['input_records']} records, {job['input_bytes']} bytes; params {json.dumps(job['params'])}")
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} numpy={m['numpy']}")
    item = "trial-runs" if args.workload == "descent-study" else "images"
    op = {"proposal-pipeline": "image", "descent-study": "convergence run"}.get(args.workload, "evaluate run")
    notes = {
        "setup_s": f"median of {samples.get('setup_s')} fresh interpreters",
        "norm_items_per_s": f"{item}/s at reference speed, over {samples.get('norm_items_per_s')} ops",
        "norm_latency_ms_mean": f"per {op} at reference speed, {samples.get('norm_latency_ms_mean')} samples",
        "peak_rss_mb": "worker process",
        "wall_items_per_s": f"{item}/s of wall time",
        "wall_latency_ms_mean": f"per {op}, wall time",
        "machine_speed": "nominal / mean reference call time over the run",
        "norm_latency_ms_p50": f"per {op}, {samples.get('norm_latency_ms_mean')} samples",
        "norm_latency_ms_p90": f"per {op}, {samples.get('norm_latency_ms_mean')} samples",
    }
    for name, unit in units.items():
        print(_unit_line(name, metrics[name], unit, notes.get(name, "")))
    for name, (unit, value) in extra.items():
        print(_unit_line(name, value, unit, notes[name]))
    print(_unit_line("failed_frac", record["failed_frac"], "ratio", f"{n_failed} of {attempted} ops"))
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": n_failed == 0 and not problems,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
