"""Self-time arithmetic, and wrappers that leave every output unchanged."""

import pytest

from perfbench import checking, tracing, workloads
from perfbench.tracing import Span


def _span(name, start, end, parent):
    return Span(name, start, parent, op=0, end=end)


def test_self_time_of_nested_spans():
    spans = [
        _span("bench.op", 0.0, 10.0, None),
        _span("fusion.multiband_attention", 1.0, 4.0, 0),
        _span("attention.masked_attention", 2.0, 3.0, 1),
        _span("spectral.fft3", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert tracing.self_time_residual(spans) == pytest.approx(0.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("bench.op", 0.0, 10.0, None),
        _span("a.x", 1.0, 5.0, 0),
        _span("a.y", 3.0, 7.0, 0),
        _span("a.z", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_partition_the_op_time():
    spans = [
        _span("bench.op", 0.0, 10.0, None),
        _span("fusion.tokens_from_latent", 1.0, 2.0, 0),
        _span("fusion.latent_from_tokens", 2.0, 4.0, 0),
        _span("attention.masked_attention", 4.0, 9.0, 0),
    ]
    spans[3].key = 32
    m = tracing.layer_metrics(spans, t_alpha=8)
    assert m["fusion.convert.self_s"] == pytest.approx(3.0)
    assert m["attention.branch_a4.self_s"] == pytest.approx(5.0)
    assert m["fusion.calls"] == 2
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["bench.op.self_s"] == pytest.approx(m["trace.op_s"])


def _outputs(wl, inputs, workdir):
    outputs = wl.op(inputs)
    for name in wl.files:
        outputs[name] = (workdir / name).read_bytes()
    return outputs


@pytest.mark.parametrize("name", ["desk-pipeline", "signal-diag"])
def test_wrappers_leave_outputs_unchanged(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(1, tmp_path)
    plain = checking.digest(_outputs(wl, inputs, tmp_path))
    namespaces = {id(m): dict(vars(m)) for m in tracing._NAMESPACES}
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        with tracer.record_op(0):
            traced = checking.digest(_outputs(wl, inputs, tmp_path))
        with tracer.record_op(1):
            _outputs(wl, inputs, tmp_path)
    assert traced == plain
    assert all(dict(vars(m)) == namespaces[id(m)] for m in tracing._NAMESPACES)
    counts = tracing.op_counts(tracer.spans)
    assert counts[0] == counts[1]
    assert tracing.self_time_residual(tracer.spans) < 1e-9
    assert not any(span.error for span in tracer.spans)


def test_attention_counts_follow_the_mask_rule():
    import numpy as np
    from specfuse import attention

    # 4 frames of 2 tokens, d = 3; a span-4 window (radius 2) admits 2, 3, 3, 2 key frames.
    x = np.arange(24, dtype=np.float64).reshape(8, 3) / 24
    frames = np.repeat(np.arange(4), 2)
    tracer = tracing.Tracer()
    with tracing.traced(tracer), tracer.record_op(0):
        attention.masked_attention(x, x, x, frames, attention.AttentionWindow.local(4))
    counts = tracer.spans[1].counts
    key_frames = 2 + 3 + 3 + 2
    assert counts["attention.macs"] == 2 * (2 * key_frames) * 2 * 3
    # per query frame: Q 2x3, K and V (2k)x3 each, logits and weights 2x2k
    assert counts["attention.bytes_computed"] == 8 * (4 * 6 + key_frames * (12 + 8))
    assert tracer.spans[1].key == 4
