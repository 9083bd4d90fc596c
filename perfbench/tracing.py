"""Spans around joltsql's public functions, recorded from outside the package.

`traced(tracer)` rebinds every module attribute of the loaded `joltsql`
modules that refers to a wrapped function (including names other modules
imported with `from ... import`), and puts the original objects back on
exit, so an untraced run measures the unmodified program. Autodiff ops are
wrapped twice: the forward call, and the backward closure each op stores on
the tensor it returns.

A span is (name, start, end, parent index, request id). Spans stay in
memory until the run ends.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter, defaultdict

AUTODIFF_OPS = (
    "matmul", "add", "scale", "transpose", "slice_cols", "concat",
    "gather_rows", "relu", "sigmoid", "masked_softmax", "layer_norm",
    "bce_loss", "cross_entropy_rows", "add_scalars",
)

# (module, attribute, span name) for functions that need only a span.
PLAIN_TARGETS = (
    ("joltsql.masks", "build_joint_mask", "masks.joint"),
    ("joltsql.masks", "build_causal_mask", "masks.causal"),
    ("joltsql.autodiff", "backward", "autodiff.backward"),
    ("joltsql.autodiff", "AdamW.step", "autodiff.adamw"),
    ("joltsql.autodiff", "clip_grad_norm", "autodiff.clip"),
    ("joltsql.pipeline", "capture_sampling_weights", "sampling.capture"),
    ("joltsql.sampling", "draw_noise_count", "sampling.draw"),
    ("joltsql.sampling", "sample_noisy", "sampling.draw"),
    ("joltsql.model", "schema_linking_loss", "model.loss"),
    ("joltsql.model", "ntp_loss", "model.loss"),
    ("joltsql.model", "joint_loss", "model.loss"),
    ("joltsql.pipeline", "prune_prompt", "pipeline.prune"),
    ("joltsql.pipeline", "full_schema_prompt", "pipeline.prune"),
    ("joltsql.pipeline", "assemble_segments", "pipeline.assemble"),
    ("joltsql.pipeline", "train", "pipeline.train"),
    ("joltsql.evaluation", "evaluate", "evaluation.evaluate"),
    ("joltsql.evaluation", "threshold_sweep", "evaluation.threshold_sweep"),
    ("joltsql.metrics", "execution_accuracy", "metrics.execute"),
    ("joltsql.metrics", "roc_auc", "metrics.roc_auc"),
    ("joltsql.metrics", "pr_auc", "metrics.pr_auc"),
    ("joltsql.corpus", "generate_corpus", "corpus.generate"),
    ("joltsql.pipeline", "load_corpus", "pipeline.load_corpus"),
    ("joltsql.sqlscope", "extract_ground_truth", "sqlscope.extract"),
    ("joltsql.schema", "serialize_schema", "schema.serialize"),
    ("joltsql.tokenizer", "encode", "tokenizer.encode"),
    ("joltsql.tokenizer", "decode", "tokenizer.decode"),
)

SETUP_REQUEST = "setup"


class Tracer:
    """In-memory span recorder; `request` tags the spans of one operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = None
        self.linked_examples: set = set()
        self.predicted_sets: set = set()
        self._open: list[int] = []
        self._open_names: list[str] = []

    def call(self, name: str, fn, args=(), kwargs=None):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(idx)
        self._open_names.append(name)
        start = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = self.clock()
            self._open.pop()
            self._open_names.pop()
            self.spans[idx] = (name, start, end, parent, self.request)

    def inside(self, name: str) -> bool:
        return name in self._open_names

    @property
    def counting(self) -> bool:
        """Counts and sets cover measured operations only, not set-up or the
        benchmark's own checks (request None)."""
        return self.request is not None and self.request != SETUP_REQUEST


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for idx, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def inclusive_totals(spans: list, requests=None) -> dict[str, float]:
    """Seconds per span name, not counting a span nested inside another
    span of the same name twice. `requests` filters by request id."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent, request in spans:
        if requests is not None and not requests(request):
            continue
        nested = False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            totals[name] += end - start
    return totals


def call_counts(spans: list, requests=None) -> Counter:
    return Counter(s[0] for s in spans if requests is None or requests(s[4]))


# ------------------------------------------------------------------ wrappers

def _plain(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _autodiff_op(tracer: Tracer, op: str, fn):
    fwd_name, bwd_name = f"autodiff.fwd.{op}", f"autodiff.bwd.{op}"

    def wrapper(*args, **kwargs):
        out = tracer.call(fwd_name, fn, args, kwargs)
        closure = out._backward
        if closure is not None:
            out._backward = lambda g: tracer.call(bwd_name, closure, (g,))
            if tracer.counting and tracer.inside("pipeline.train"):
                tracer.counts["autodiff.tape_nodes"] += 1
        return out
    return wrapper


def _forward(tracer: Tracer, fn):
    def wrapper(params, ids, *args, **kwargs):
        name = "model.forward" if params.emb.requires_grad else "model.forward_nograd"
        if tracer.counting:
            tracer.counts["model.forward_rows"] += len(ids)
            if tracer.inside("model.generate"):
                tracer.counts["model.generate_rows"] += len(ids)
        return tracer.call(name, fn, (params, ids) + args, kwargs)
    return wrapper


def _generate(tracer: Tracer, fn):
    def wrapper(params, prompt, *args, **kwargs):
        out = tracer.call("model.generate", fn, (params, prompt) + args, kwargs)
        if tracer.counting:
            tracer.counts["model.new_tokens"] += len(out) - len(prompt)
        return out
    return wrapper


def _link(tracer: Tracer, fn):
    def wrapper(params, example, *args, **kwargs):
        if tracer.counting:
            tracer.linked_examples.add(example.example_id)
        return tracer.call("pipeline.link", fn, (params, example) + args, kwargs)
    return wrapper


def _infer(tracer: Tracer, fn):
    def wrapper(params, example, *args, **kwargs):
        result = tracer.call("pipeline.infer", fn, (params, example) + args, kwargs)
        if tracer.counting:
            tracer.counts["pipeline.fallbacks"] += int(result.used_fallback)
            tracer.predicted_sets.add((example.example_id, frozenset(
                (t, c) for t, c, _ in result.predicted_columns)))
        return result
    return wrapper


def _targets():
    """(module, attribute, wrapper factory) for every traced function."""
    for module, attr, name in PLAIN_TARGETS:
        yield module, attr, lambda tracer, fn, name=name: _plain(tracer, name, fn)
    for op in AUTODIFF_OPS:
        yield "joltsql.autodiff", op, lambda tracer, fn, op=op: _autodiff_op(tracer, op, fn)
    yield "joltsql.model", "forward", _forward
    yield "joltsql.model", "greedy_generate", _generate
    yield "joltsql.pipeline", "link_schema", _link
    yield "joltsql.pipeline", "infer", _infer


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore the
    original objects."""
    targets = list(_targets())
    for module_name, _, _ in targets:
        importlib.import_module(module_name)
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "joltsql" or n.startswith("joltsql.")) and m is not None]
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, make in targets:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = make(tracer, original)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        restore.append((holder, key, original))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, original in reversed(restore):
            setattr(holder, key, original)


# ------------------------------------------------------------------ metrics

# Layers whose work happens in set-up; their times are per set-up, all other
# times and counts are per measured operation.
SETUP_LAYERS = ("corpus.generate", "pipeline.load_corpus", "sqlscope.extract",
                "schema.serialize", "tokenizer.encode")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, n_ops: int, n_setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run: {name: (value, unit)}."""
    in_loop = lambda r: r is not None and r != SETUP_REQUEST  # noqa: E731
    in_setup = lambda r: r == SETUP_REQUEST  # noqa: E731
    loop_ms = {k: v * 1000.0 for k, v in inclusive_totals(tracer.spans, in_loop).items()}
    setup_ms = {k: v * 1000.0 for k, v in inclusive_totals(tracer.spans, in_setup).items()}
    calls = call_counts(tracer.spans, in_loop)
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def per_op_ms(metric, *spans):
        out[metric] = (_ratio(sum(loop_ms.get(s, 0.0) for s in spans), n_ops), "ms")

    per_op_ms("masks.joint_ms", "masks.joint")
    out["masks.calls"] = (_ratio(calls["masks.joint"] + calls["masks.causal"], n_ops), "count")
    per_op_ms("masks.causal_ms", "masks.causal")
    for op in AUTODIFF_OPS:
        per_op_ms(f"autodiff.fwd.{op}_ms", f"autodiff.fwd.{op}")
        per_op_ms(f"autodiff.bwd.{op}_ms", f"autodiff.bwd.{op}")
    per_op_ms("autodiff.backward_ms", "autodiff.backward")
    per_op_ms("autodiff.adamw_ms", "autodiff.adamw")
    per_op_ms("autodiff.clip_ms", "autodiff.clip")
    train_steps = n_ops if calls["pipeline.train"] else 0
    out["autodiff.tape_nodes_per_step"] = (_ratio(c["autodiff.tape_nodes"], train_steps), "count")
    per_op_ms("sampling.capture_ms", "sampling.capture")
    out["sampling.capture_calls"] = (_ratio(calls["sampling.capture"], n_ops), "count")
    per_op_ms("sampling.draw_ms", "sampling.draw")
    per_op_ms("model.forward_ms", "model.forward")
    per_op_ms("model.forward_nograd_ms", "model.forward_nograd")
    out["model.forward_calls"] = (_ratio(calls["model.forward"] + calls["model.forward_nograd"],
                                         n_ops), "count")
    out["model.forward_rows"] = (_ratio(c["model.forward_rows"], n_ops), "count")
    out["model.new_tokens"] = (_ratio(c["model.new_tokens"], n_ops), "count")
    out["model.rows_per_new_token"] = (_ratio(c["model.generate_rows"], c["model.new_tokens"]),
                                       "count")
    per_op_ms("model.generate_ms", "model.generate")
    per_op_ms("model.loss_ms", "model.loss")
    per_op_ms("pipeline.link_ms", "pipeline.link")
    per_op_ms("pipeline.prune_ms", "pipeline.prune")
    per_op_ms("pipeline.assemble_ms", "pipeline.assemble")
    out["pipeline.fallback_share"] = (_ratio(c["pipeline.fallbacks"], calls["pipeline.infer"]),
                                      "share")
    out["pipeline.link_calls_per_example"] = (_ratio(calls["pipeline.link"],
                                                     len(tracer.linked_examples)), "count")
    out["evaluation.distinct_sets_per_generate"] = (_ratio(len(tracer.predicted_sets),
                                                           calls["model.generate"]), "share")
    per_op_ms("metrics.execute_ms", "metrics.execute")
    out["metrics.execute_calls"] = (_ratio(calls["metrics.execute"], n_ops), "count")
    per_op_ms("metrics.roc_auc_ms", "metrics.roc_auc")
    per_op_ms("metrics.pr_auc_ms", "metrics.pr_auc")
    for span, metric in (("corpus.generate", "corpus.generate_ms"),
                         ("pipeline.load_corpus", "pipeline.load_corpus_ms"),
                         ("sqlscope.extract", "sqlscope.extract_ms"),
                         ("schema.serialize", "schema.serialize_ms"),
                         ("tokenizer.encode", "tokenizer.encode_ms")):
        out[metric] = (_ratio(setup_ms.get(span, 0.0), n_setups), "ms")
    per_op_ms("tokenizer.decode_ms", "tokenizer.decode")
    return out


def self_time_table(spans: list) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds over the whole trace."""
    table: dict[str, dict] = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table
