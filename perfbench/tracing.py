"""Layer tracing from outside the program: spans around specfuse's public functions.

`traced(tracer)` replaces each function listed in LAYERS with a wrapper,
in its own module and wherever another specfuse module (or the package
namespace) bound the same function by name, and restores the originals on
exit. `cli` imports its helpers inside each handler, from the module
attributes, so it picks up the wrappers too.

A wrapper records a span only while the tracer is inside an op
(`tracer.record_op`); otherwise it calls straight through. Spans stay in
memory until the run ends. Counts are recorded on the span whose call did
the work; the attention counters are read from the public `counter=`
argument, and the wrapper passes a fresh `MacCounter` when the caller gave
none, which changes no output.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import specfuse
from specfuse import analysis, attention, cli, fusion, harness, noise_init, spectral, tensor_core

LAYERS = {
    "tensor_core": ("gaussian_latent", "read_tensor", "write_tensor"),
    "spectral": ("fft3", "ifft3", "band_masks", "gaussian_lowpass"),
    "attention": ("project_qkv", "masked_attention", "sparse_attention", "attention_map"),
    "fusion": ("multiband_attention", "fused_spectrum", "multiband_fuse", "spectral_blend",
               "spectral_blend_attention", "tokens_from_latent", "latent_from_tokens"),
    "noise_init": ("specmix", "base_noise"),
    "analysis": ("relative_snr", "band_energy", "aggregate_attention", "diagonality"),
    "harness": ("make_scene", "run_stack"),
    "cli": ("main",),
}
# Span names whose self time is reported under one shared metric.
SHARED_METRIC = {
    "fusion.tokens_from_latent": "fusion.convert",
    "fusion.latent_from_tokens": "fusion.convert",
    "spectral.band_masks": "spectral.masks",
    "spectral.gaussian_lowpass": "spectral.masks",
}
COUNTS = ("attention.macs", "attention.bytes_computed", "attention.attention_map.out_bytes",
          "spectral.fft_points", "tensor_core.bytes_io")
BRANCH_ALPHAS = (1, 2, 4, 8)
_NAMESPACES = (specfuse, tensor_core, spectral, attention, fusion, noise_init, analysis,
               harness, cli)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = ["bench.op.self_s", "trace.op_s"]
    for layer, functions in LAYERS.items():
        names += [f"{layer}.self_s", f"{layer}.calls", f"{layer}.errors"]
        for fn in functions:
            metric = SHARED_METRIC.get(f"{layer}.{fn}", f"{layer}.{fn}") + ".self_s"
            if metric not in names:
                names.append(metric)
    names += [f"attention.branch_a{a}.self_s" for a in BRANCH_ALPHAS]
    return names + list(COUNTS)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    key: int | None = None  # attention calls: the span in frames of the window passed
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; records only inside `record_op`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def record_op(self, op_id: int):
        """Root span `bench.op` around one op; wrapped calls inside become its children."""
        self.op = op_id
        root = self.begin("bench.op")
        try:
            yield root
        except BaseException:
            root.error = True
            raise
        finally:
            self.end(root)
            self.op = None


# --- per-call hooks: derive a span's key and counts from the call ----------

def _key_frames(window, keyframes, t: int) -> list[int]:
    """Admitted key frames per query frame, by the documented mask rules."""
    if keyframes is not None:
        return [len(set(int(j) for j in keyframes))] * t
    if window is None or window.kind == "global":
        return [t] * t
    radius = window.span_frames // 2
    if radius <= 0:
        return [1] * t
    return [min(t, i + radius) - max(0, i - radius + 1) for i in range(t)]


def attention_bytes(q, v, frame_index, window=None, keyframes=None) -> int:
    """Computed bytes of Q, K, V, logits and weights blocks, summed over query frames.

    Computed from array sizes (float64), not measured: cache effects are
    not in it. `v` is None for attention_map, which has no value matmul.
    """
    t = int(frame_index[-1]) + 1
    tpf = len(frame_index) // t
    d = q.shape[1]
    dv = 0 if v is None else v.shape[1]
    total = sum(tpf * d + keys * tpf * (d + dv) + 2 * tpf * keys * tpf
                for keys in _key_frames(window, keyframes, t))
    return 8 * total


def _attention_hook(fn):
    """masked_attention, sparse_attention and attention_map: work counts and
    the window's span; MACs through the `counter=` argument where there is one."""
    sig = inspect.signature(fn)

    def prepare(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        window = a.get("window")
        work = attention_bytes(a["q"], a.get("v"), a["frame_index"], window,
                               a.get("keyframes"))
        if "counter" in a and a["counter"] is None:
            a["counter"] = attention.MacCounter()
        counter = a.get("counter")
        start = counter.macs if counter is not None else 0

        def finish(span, result):
            span.counts = {"attention.bytes_computed": work}
            if counter is not None:
                span.counts["attention.macs"] = counter.macs - start
            else:
                span.counts["attention.attention_map.out_bytes"] = result.nbytes
            if window is not None:
                span.key = window.span_frames

        return bound.args, bound.kwargs, finish

    return prepare


def _fft_hook(fn):
    sig = inspect.signature(fn)

    def prepare(args, kwargs):
        tensor = next(iter(sig.bind(*args, **kwargs).arguments.values()))

        def finish(span, result):
            span.counts = {"spectral.fft_points": tensor.data.size}

        return args, kwargs, finish

    return prepare


def _file_hook(fn):
    """read_tensor and write_tensor: the file's size once the call is done."""
    sig = inspect.signature(fn)

    def prepare(args, kwargs):
        path = sig.bind(*args, **kwargs).arguments["path"]

        def finish(span, result):
            span.counts = {"tensor_core.bytes_io": os.path.getsize(path)}

        return args, kwargs, finish

    return prepare


def _exit_code_hook(fn):
    def prepare(args, kwargs):
        def finish(span, result):
            span.error = span.error or result != 0

        return args, kwargs, finish

    return prepare


_HOOKS = {
    "attention.masked_attention": _attention_hook,
    "attention.sparse_attention": _attention_hook,
    "attention.attention_map": _attention_hook,
    "spectral.fft3": _fft_hook,
    "spectral.ifft3": _fft_hook,
    "tensor_core.read_tensor": _file_hook,
    "tensor_core.write_tensor": _file_hook,
    "cli.main": _exit_code_hook,
}


def _wrap(tracer: Tracer, name: str, fn):
    prepare = _HOOKS[name](fn) if name in _HOOKS else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        finish = None
        if prepare is not None:
            args, kwargs, finish = prepare(args, kwargs)
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            tracer.end(span)
        if finish is not None:
            finish(span, result)
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install wrappers for every function in LAYERS; restore them on exit."""
    wrappers = {}
    for layer, functions in LAYERS.items():
        module = getattr(specfuse, layer)
        for fn_name in functions:
            fn = getattr(module, fn_name)
            wrappers[id(fn)] = (fn, _wrap(tracer, f"{layer}.{fn_name}", fn))
    replaced = []
    for module in _NAMESPACES:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                replaced.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, original in replaced:
            setattr(module, attr, original)


# --- analysis of recorded spans --------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        intervals = sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                           for c in children[i])
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(span.end - span.start - covered)
    return out


def op_counts(spans: list[Span]) -> dict[int, dict]:
    """Per op: calls per layer and every work count, for the repeat check."""
    per_op = defaultdict(lambda: defaultdict(int))
    for span in spans:
        counts = per_op[span.op]
        if span.name != "bench.op":
            counts[span.name.split(".")[0] + ".calls"] += 1
        for key, value in span.counts.items():
            counts[key] += value
    return {op: dict(sorted(c.items())) for op, c in per_op.items()}


def layer_metrics(spans: list[Span], t_alpha: int) -> dict[str, float]:
    """Per-op averages of every metric in `metric_names()`."""
    metrics = dict.fromkeys(metric_names(), 0.0)
    ops = {span.op for span in spans}
    for span, own in zip(spans, self_times(spans)):
        if span.name == "bench.op":
            metrics["bench.op.self_s"] += own
            metrics["trace.op_s"] += span.end - span.start
            continue
        layer = span.name.split(".")[0]
        metrics[SHARED_METRIC.get(span.name, span.name) + ".self_s"] += own
        metrics[f"{layer}.self_s"] += own
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.errors"] += span.error
        if span.name == "attention.masked_attention":
            branch = f"attention.branch_a{span.key // t_alpha}.self_s"
            metrics[branch] = metrics.get(branch, 0.0) + own
        for key, value in span.counts.items():
            metrics[key] += value
    return {name: value / max(1, len(ops)) for name, value in metrics.items()}


def self_time_residual(spans: list[Span]) -> float:
    """Largest |sum of self times in an op - the op's duration| over all ops."""
    total = defaultdict(float)
    duration = {}
    for span, own in zip(spans, self_times(spans)):
        total[span.op] += own
        if span.name == "bench.op":
            duration[span.op] = span.end - span.start
    return max((abs(total[op] - duration[op]) for op in duration), default=0.0)


def spans_json(spans: list[Span]) -> list[dict]:
    return [vars(span) for span in spans]
