"""Spans and counters around calls into boxlab's layers, installed at run time.

``install`` rebinds public functions in the loaded ``boxlab.*`` modules to
wrappers; no file of the package is touched. Low-frequency calls get a span
(name, start, end, parent span, op). High-frequency calls get a counter (and,
where a time is wanted, an accumulated duration) instead of a span, so the
trace stays small: IoU through ``boxlab.evaluation``, ``loss``, the box-delta
coders, ``match_detections``, ``run_descent`` and ``Box`` construction.
Spans stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict = defaultdict(float)
        self.per_op_counts: list[dict] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts = defaultdict(float)

    def end_op(self) -> None:
        self.per_op_counts.append(dict(self.counts))

    def span(self, name: str, fn, on_result=None):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def counter(self, name: str, fn, timed: bool = False, on_result=None):
        perf = time.perf_counter
        if timed:

            def counted(*args, **kwargs):
                start = perf()
                result = fn(*args, **kwargs)
                counts = self.counts
                counts[name + "_s"] += perf() - start
                counts[name] += 1
                return result

        else:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counts[name] += 1
                if on_result is not None:
                    on_result(self.counts, args, result)
                return result

        return counted


def _rebind(modules: dict, owner: str, name: str, wrapper, only_in: tuple[str, ...] | None = None) -> None:
    original = getattr(modules[owner], name)
    for mod_name, module in modules.items():
        if only_in is not None and mod_name not in only_in:
            continue
        if vars(module).get(name) is original:
            setattr(module, name, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of an already-imported boxlab."""
    import boxlab.cli  # noqa: F401  (loads every layer)

    modules = {n: m for n, m in sys.modules.items() if n == "boxlab" or n.startswith("boxlab.")}
    m = modules

    def add(key):
        def on_result(counts, args, result):
            counts[key] += len(result)

        return on_result

    def add_manifest(counts, args, manifest):
        counts["coco_io.records"] += len(manifest.images) + len(manifest.categories) + len(manifest.annotations)

    def add_suppressed(counts, args, keep):
        counts["proposals.nms_suppressed"] += len(args[0]) - len(keep)

    def add_positives(counts, args, assignments):
        counts["proposals.positives"] += sum(a.positive for a in assignments)

    def add_dropped(counts, args, result):
        counts["augment.boxes_dropped"] += len(result[1])

    def add_steps(counts, args, trajectory):
        counts["descent.steps"] += len(trajectory.points)

    # Counters first, on the bindings that make the calls, before the spans
    # below replace the same function objects everywhere else.
    _rebind(m, "boxlab.evaluation", "iou", tracer.counter("evaluation.iou_calls", m["boxlab.geometry"].iou),
            only_in=("boxlab.evaluation",))
    _rebind(m, "boxlab.descent", "loss", tracer.counter("descent.loss_calls", m["boxlab.losses"].loss, timed=True),
            only_in=("boxlab.descent",))
    _rebind(m, "boxlab.losses", "loss", tracer.counter("losses.direct_calls", m["boxlab.losses"].loss, timed=True))
    _rebind(m, "boxlab.evaluation", "match_detections",
            tracer.counter("evaluation.match_calls", m["boxlab.evaluation"].match_detections))
    _rebind(m, "boxlab.descent", "run_descent",
            tracer.counter("descent.trajectories", m["boxlab.descent"].run_descent, on_result=add_steps))
    for name in ("decode_delta", "encode_delta"):
        _rebind(m, "boxlab.proposals", name, tracer.counter(f"proposals.{name}", getattr(m["boxlab.proposals"], name),
                                                            timed=True))

    spans = [
        ("cli", "main", None),
        ("coco_io", "load_manifest", add_manifest),
        ("coco_io", "load_predictions", add("coco_io.records")),
        ("evaluation", "evaluate", None),
        ("evaluation", "average_precision", None),
        ("evaluation", "max_achieved_recall", None),
        ("descent", "convergence_study", None),
        ("descent", "trial_csv_rows", None),
        ("reports", "render_table", None),
        ("reports", "rows_to_csv", None),
        ("proposals", "generate_anchors", add("proposals.anchors")),
        ("proposals", "nms", add_suppressed),
        ("proposals", "assign_proposals", add_positives),
        ("augment", "apply_image_augment", add_dropped),
    ]
    for layer, name, on_result in spans:
        owner = f"boxlab.{layer}"
        _rebind(m, owner, name, tracer.span(f"{layer}.{name}", getattr(m[owner], name), on_result))

    box = m["boxlab.geometry"].Box
    post_init = box.__post_init__

    def counted_post_init(self):
        tracer.counts["geometry.boxes_built"] += 1
        post_init(self)

    box.__post_init__ = counted_post_init
