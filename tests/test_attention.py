"""Attention semantics against the dense O(n^2) oracle in attention_oracle.py."""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from specfuse import (
    AttentionWindow,
    InvalidParameterError,
    MacCounter,
    NonFiniteValueError,
    SeededRng,
    TokenSequence,
    aggregate_attention,
    attention_map,
    frame_attention,
    masked_attention,
    project_qkv,
    sparse_attention,
    uniform_keyframes,
)
from specfuse import attention, config
from specfuse.attention import _attend, _frame_set

from attention_oracle import admitted_by_rule, frame_oracle


def random_tokens(t, tpf, d, seed) -> TokenSequence:
    feats = SeededRng(seed).normals(t * tpf * d).reshape(t * tpf, d)
    return TokenSequence(feats, np.repeat(np.arange(t), tpf))


def random_weights(d, seed):
    rng = SeededRng(seed)
    return tuple(rng.normals(d * d).reshape(d, d) / np.sqrt(d) for _ in range(3))


class TestTokenSequence:
    def test_rejects_non_finite_features(self):
        feats = np.zeros((6, 2))
        feats[3, 1] = np.nan
        with pytest.raises(NonFiniteValueError):
            TokenSequence(feats, np.repeat(np.arange(3), 2))

    def test_copies_the_callers_arrays(self):
        feats = np.arange(8, dtype=np.float64).reshape(4, 2)
        frames = np.array([0, 0, 1, 1], dtype=np.int64)
        toks = TokenSequence(feats, frames)
        assert feats.flags.writeable and frames.flags.writeable
        feats[0, 0] = 99.0
        frames[2:] = 0
        assert np.array_equal(toks.features, np.arange(8).reshape(4, 2))
        assert np.array_equal(toks.frame_index, [0, 0, 1, 1])

    def test_counts_and_frames(self):
        toks = random_tokens(5, 3, 4, 1)
        assert toks.num_frames == 5
        assert toks.tokens_per_frame == 3

    def test_rejects_uneven_frames(self):
        with pytest.raises(InvalidParameterError):
            TokenSequence(np.zeros((5, 2)), np.array([0, 0, 1, 1, 1]))

    def test_rejects_decreasing_frames(self):
        with pytest.raises(InvalidParameterError):
            TokenSequence(np.zeros((4, 2)), np.array([0, 1, 0, 1]))


# Each entry point with the operands it takes; the map entry points take no values.
_ENTRY_POINTS = {
    "frame_attention": ("qk", lambda q, k, v, frames: frame_attention(q, k, frames)),
    "attention_map": ("qk", lambda q, k, v, frames: attention_map(q, k, frames)),
    "masked_attention": ("qkv", lambda q, k, v, frames: masked_attention(
        q, k, v, frames, AttentionWindow(2))),
    "sparse_attention": ("qkv", lambda q, k, v, frames: sparse_attention(q, k, v, frames, [0, 2])),
}


@pytest.mark.parametrize("entry, operand", [
    (entry, operand) for entry, (operands, _) in _ENTRY_POINTS.items() for operand in operands])
def test_non_finite_operand_is_rejected_before_any_work(entry, operand):
    toks = random_tokens(3, 2, 4, 44)
    qkv = dict(zip("qkv", project_qkv(toks, random_weights(4, 45))))
    qkv[operand][3, 1] = {"q": np.nan, "k": np.inf, "v": -np.inf}[operand]
    with mock.patch.object(attention, "_attend_stacks", side_effect=AssertionError("attended")), \
            pytest.raises(NonFiniteValueError, match=f"^{operand} must be finite$"):
        _ENTRY_POINTS[entry][1](qkv["q"], qkv["k"], qkv["v"], toks.frame_index)


class TestProjectQkv:
    def test_identity_weights(self):
        toks = random_tokens(3, 2, 4, 2)
        q, k, v = project_qkv(toks, (np.eye(4), np.eye(4), np.eye(4)))
        for mat in (q, k, v):
            assert np.array_equal(mat, toks.features)

    def test_zero_weights(self):
        toks = random_tokens(3, 2, 4, 3)
        z = np.zeros((4, 4))
        q, k, v = project_qkv(toks, (z, z, z))
        assert np.abs(q).max() == np.abs(k).max() == np.abs(v).max() == 0.0

    def test_matches_naive_matmul(self):
        toks = random_tokens(4, 2, 3, 4)
        weights = random_weights(3, 5)
        q, k, v = project_qkv(toks, weights)
        for mat, w in zip((q, k, v), weights):
            naive = np.zeros_like(mat)
            for r in range(toks.num_tokens):
                for c in range(3):
                    for m in range(3):
                        naive[r, c] += toks.features[r, m] * w[m, c]
            assert np.abs(mat - naive).max() < 1e-12

    def test_dimension_mismatch(self):
        toks = random_tokens(2, 2, 4, 6)
        with pytest.raises(Exception):
            project_qkv(toks, (np.eye(3), np.eye(4), np.eye(4)))


class TestMaskedAttention:
    def test_own_frame_only_at_span_two(self):
        toks = random_tokens(6, 2, 4, 7)
        q, k, v = project_qkv(toks, random_weights(4, 8))
        out = masked_attention(q, k, v, toks.frame_index, AttentionWindow.local(2))
        oracle = frame_oracle(q, k, v, toks.frame_index, np.eye(6, dtype=bool))
        assert np.abs(out.features - oracle).max() < 1e-12

    def test_sparse_window_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            AttentionWindow(4, "sparse")

    @pytest.mark.parametrize("span", [2.5, 2.0, True])
    def test_non_integer_span_rejected(self, span):
        with pytest.raises(InvalidParameterError, match="span_frames must be an integer"):
            AttentionWindow.local(span)

    def test_span_one_relaxes_to_self(self):
        toks = random_tokens(4, 2, 4, 9)
        q, k, v = project_qkv(toks, random_weights(4, 10))
        one = masked_attention(q, k, v, toks.frame_index, AttentionWindow.local(1))
        two = masked_attention(q, k, v, toks.frame_index, AttentionWindow.local(2))
        assert np.array_equal(one.features, two.features)

    def test_window_structure_in_map(self):
        t, tpf, span = 8, 2, 4
        toks = random_tokens(t, tpf, 4, 15)
        q, k, _ = project_qkv(toks, random_weights(4, 16))
        window = AttentionWindow.local(span)
        blocks = attention_map(q, k, toks.frame_index, window=window).reshape(t, tpf, t, tpf)
        admitted = admitted_by_rule(t, window=window)
        assert (blocks.min(axis=(1, 3))[admitted] > 0.0).all()
        assert (np.abs(blocks).max(axis=(1, 3))[~admitted] == 0.0).all()


class TestSparseAttention:
    def test_matches_column_dropped_oracle(self):
        toks = random_tokens(4, 2, 4, 19)
        q, k, v = project_qkv(toks, random_weights(4, 20))
        out = sparse_attention(q, k, v, toks.frame_index, {0, 2})
        oracle = frame_oracle(q, k, v, toks.frame_index, admitted_by_rule(4, keyframes={0, 2}))
        assert np.abs(out.features - oracle).max() < 1e-12

    def test_empty_keyframes_rejected(self):
        toks = random_tokens(4, 2, 4, 21)
        q, k, v = project_qkv(toks, random_weights(4, 22))
        with pytest.raises(InvalidParameterError):
            sparse_attention(q, k, v, toks.frame_index, [])

    def test_out_of_range_keyframes_rejected(self):
        toks = random_tokens(4, 2, 4, 23)
        q, k, v = project_qkv(toks, random_weights(4, 24))
        with pytest.raises(InvalidParameterError):
            sparse_attention(q, k, v, toks.frame_index, [0, 4])


class TestUniformKeyframes:
    def test_half_of_eight(self):
        assert uniform_keyframes(8, 0.5).tolist() == [0, 2, 4, 6]

    def test_half_of_five(self):
        keys = uniform_keyframes(5, 0.5)
        assert keys.tolist() == [0, 2, 4]
        assert len(set(np.diff(keys).tolist())) == 1  # evenly spaced

    def test_full_fraction(self):
        assert uniform_keyframes(6, 1.0).tolist() == [0, 1, 2, 3, 4, 5]

    def test_count_rule(self):
        for t in range(1, 33):
            for frac in (0.25, 0.5, 0.75, 1.0):
                keys = uniform_keyframes(t, frac)
                assert len(keys) == int(np.ceil(frac * t))
                assert keys[0] == 0
                assert keys[-1] < t
                assert (np.diff(keys) > 0).all()

    @pytest.mark.parametrize("frac", [0.0, -0.1, 1.5])
    def test_invalid_fraction(self, frac):
        with pytest.raises(InvalidParameterError):
            uniform_keyframes(8, frac)

    @pytest.mark.parametrize("num_frames", [8.5, True], ids=["float", "bool"])
    def test_non_integer_frame_count_rejected(self, num_frames):
        with pytest.raises(InvalidParameterError, match="^num_frames must be an integer"):
            uniform_keyframes(num_frames, 0.5)

    def test_numpy_integer_frame_count_accepted(self):
        assert uniform_keyframes(np.int64(8), 0.5).tolist() == [0, 2, 4, 6]


class TestMacCounter:
    def test_dense_vs_sparse_counts(self):
        t, tpf, d = 8, 4, 8
        toks = random_tokens(t, tpf, d, 27)
        q, k, v = project_qkv(toks, random_weights(d, 28))
        dense, sparse = MacCounter(), MacCounter()
        masked_attention(q, k, v, toks.frame_index, AttentionWindow.for_span(t, t), dense)
        sparse_attention(q, k, v, toks.frame_index, uniform_keyframes(t, 0.5), sparse)
        n = t * tpf
        assert dense.macs == n * n * 2 * d
        assert sparse.macs == n * (n // 2) * 2 * d


class TestOracleSweep:
    def test_many_random_cases(self):
        cases = 0
        rng = SeededRng(99)
        for trial in range(40):
            params = (rng.uniforms(4) * np.array([16, 4, 2, 16])).astype(int) + 1
            t, tpf, half_d, span = (int(x) for x in params)
            d = 2 * half_d
            toks = random_tokens(t, tpf, d, 1000 + trial)
            q, k, v = project_qkv(toks, random_weights(d, 2000 + trial))
            window = AttentionWindow.local(span)
            out = masked_attention(q, k, v, toks.frame_index, window)
            oracle = frame_oracle(q, k, v, toks.frame_index, admitted_by_rule(t, window=window))
            assert np.abs(out.features - oracle).max() <= 1e-6
            cases += 1
        assert cases == 40


@st.composite
def multi_window_cases(draw):
    """Random sizes, 1-4 local spans and an optional key-frame set."""
    t = draw(st.integers(1, 16))
    tpf = draw(st.integers(1, 8))
    d = 2 * draw(st.integers(1, 4))
    spans = draw(st.lists(st.integers(1, 2 * t + 1), min_size=1, max_size=4))
    keyframes = draw(st.none() | st.sets(st.integers(0, t - 1), min_size=1))
    return t, tpf, d, spans, keyframes, draw(st.integers(0, 2**16))


@st.composite
def split_cases(draw):
    """Local, global and key-frame sets over up to 100 tokens per frame, with
    a drawn query-row chunk and key-frame group size."""
    t = draw(st.integers(1, 6))
    tpf = draw(st.integers(1, 100))
    d = 2 * draw(st.integers(1, 4))
    spans = draw(st.lists(st.integers(1, 2 * t + 1), min_size=1, max_size=3))
    keyframes = draw(st.none() | st.sets(st.integers(0, t - 1), min_size=1))
    rows = draw(st.integers(1, tpf))
    group = draw(st.integers(1, t))
    return t, tpf, d, spans, keyframes, rows, group, draw(st.integers(0, 2**16))


def pooled(width):
    """`_attend` split across `width` threads, whatever the machine's cores."""
    return mock.patch.object(config, "pool_width", return_value=width)


class TestMultiWindowCore:
    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_pool_width_rejects_a_malformed_thread_cap(self, monkeypatch, value):
        monkeypatch.setenv("SPFU_THREADS", value)
        with pytest.raises(InvalidParameterError, match="SPFU_THREADS"):
            config.pool_width()

    @pytest.mark.parametrize("width, shares", [
        (1, [range(7)]),
        (3, [range(0, 7, 3), range(1, 7, 3), range(2, 7, 3)]),
        (9, [range(i, 7, 7) for i in range(7)]),
    ])
    def test_run_shares_owns_the_split(self, width, shares):
        # Item i goes to share i mod min(width, count); each share's scratch
        # is made once, on the calling thread.
        made, seen = [], {}

        def scratch():
            made.append(threading.get_ident())
            return len(made) - 1

        def task(items, share):
            seen[share] = items

        with pooled(width):
            config.run_shares(task, 7, scratch)
        assert made == [threading.get_ident()] * len(shares)
        assert seen == dict(enumerate(shares))

    @given(st.data())
    def test_frame_set_follows_the_window_rule(self, data):
        t = data.draw(st.integers(1, 16))
        masks = [{}, {"window": AttentionWindow.for_span(t, t)},
                 {"keyframes": data.draw(st.sets(st.integers(0, t - 1), min_size=1))}]
        masks += [{"window": AttentionWindow.local(span)} for span in range(1, 2 * t + 2)]
        for mask in masks:
            admitted = _frame_set(t, **mask)
            assert admitted.dtype == bool and not admitted.flags.writeable
            assert np.array_equal(admitted, admitted_by_rule(t, **mask))

    @given(multi_window_cases())
    def test_one_call_matches_oracle_and_single_windows(self, case):
        t, tpf, d, spans, keyframes, seed = case
        toks = random_tokens(t, tpf, d, seed)
        q, k, v = project_qkv(toks, random_weights(d, seed + 1))
        frames = toks.frame_index
        masks = [{"window": AttentionWindow.for_span(span, t)} for span in spans]
        if keyframes is not None:
            masks.append({"keyframes": keyframes})
        counters = [MacCounter() for _ in masks]
        alone = [masked_attention(q, k, v, frames, m["window"], c) if "window" in m
                 else sparse_attention(q, k, v, frames, m["keyframes"], c)
                 for m, c in zip(masks, counters)]
        outs = _attend(q, k, v, [_frame_set(t, **m) for m in masks])
        assert len(outs) == len(masks)
        for out, single, counter, mask in zip(outs, alone, counters, masks):
            admitted = admitted_by_rule(t, **mask)
            assert np.abs(out - frame_oracle(q, k, v, frames, admitted)).max() <= 1e-6
            assert np.array_equal(out, single.features)
            # Counts stay logical: the set's own queries x admitted keys x 2d.
            assert counter.macs == admitted.sum() * tpf * tpf * 2 * d

    @given(multi_window_cases())
    def test_sparse_over_all_frames_is_global(self, case):
        t, tpf, d, _, _, seed = case
        toks = random_tokens(t, tpf, d, seed)
        q, k, v = project_qkv(toks, random_weights(d, seed + 1))
        sparse = sparse_attention(q, k, v, toks.frame_index, range(t))
        glob = masked_attention(q, k, v, toks.frame_index, AttentionWindow.for_span(t, t))
        assert np.array_equal(sparse.features, glob.features)

    @given(split_cases())
    # 100 rows per frame in chunks of 64 + 36 at d = 16, T below the widest pool.
    @example((2, 100, 16, [1, 3], {1}, 64, 1, 7))
    def test_split_across_threads_is_bit_identical(self, case):
        t, tpf, d, spans, keyframes, rows, group, seed = case
        toks = random_tokens(t, tpf, d, seed)
        q, k, v = project_qkv(toks, random_weights(d, seed + 1))
        frames = toks.frame_index
        sets = [_frame_set(t, window=AttentionWindow.for_span(span, t)) for span in spans]
        if keyframes is not None:
            sets.append(_frame_set(t, keyframes=keyframes))
        outs = {}
        with mock.patch.object(attention, "_SERIAL_GEMM_MACS", rows * tpf * d), \
                mock.patch.object(attention, "_BLOCK_BYTES", 8 * group * rows * tpf):
            for width in (1, 2, 3):
                with pooled(width):
                    outs[width] = _attend(q, k, v, sets)
        for width in (2, 3):
            assert all(np.array_equal(a, b) for a, b in zip(outs[1], outs[width]))
        for out, admitted in zip(outs[1], sets):
            assert np.abs(out - frame_oracle(q, k, v, frames, admitted)).max() <= 1e-6

    @given(multi_window_cases(), st.floats(-2.0, 3.0))
    def test_scaled_features_match_the_oracle(self, case, exponent):
        # Features up to 1e3 put logits near 1e6, where another admitted frame
        # can sit so far above a row's own-frame max, or a key-frame set so
        # far below it, that the row is recomputed.
        t, tpf, d, spans, keyframes, seed = case
        toks = random_tokens(t, tpf, d, seed)
        q, k, v = (x * 10.0**exponent
                   for x in project_qkv(toks, random_weights(d, seed + 1)))
        frames = toks.frame_index
        sets = [_frame_set(t, window=AttentionWindow.for_span(span, t)) for span in spans]
        if keyframes is not None:
            sets.append(_frame_set(t, keyframes=keyframes))
        outs = _attend(q, k, v, sets)
        for out, admitted in zip(outs, sets):
            assert np.abs(out - frame_oracle(q, k, v, frames, admitted)).max() <= 1e-10
            assert np.array_equal(out, _attend(q, k, v, [admitted])[0])

    def test_rows_whose_shifted_weights_underflow_are_recomputed(self):
        # Every row is shifted by the max of its logits over its own frame.
        # One key at 1000 * e2, orthogonal to every query, is by far the
        # longest key; each row's own-frame max is still its true max, so no
        # row falls back. With frame 1's keys at 40 * e1, its logits sit
        # 30 * 39 / sqrt(2), about 827, above frame 0's own-frame max: frame
        # 0's rows overflow in the global set. A key-frame set without frame
        # 1 sits as far below frame 1's own-frame max, so frame 1's rows
        # underflow to 0 there. Both go to `_exact_rows`.
        q = np.tile([30.0, 0.0], (4, 1))
        spike = np.tile([1.0, 0.0], (4, 1))
        spike[3] = [0.0, 1000.0]
        steps = np.repeat([[1.0, 0.0], [40.0, 0.0]], 2, axis=0)
        v = SeededRng(42).normals(8).reshape(4, 2)
        frames = np.repeat(np.arange(2), 2)
        cases = [
            (spike, [_frame_set(2), _frame_set(2, window=AttentionWindow.local(2)),
                     _frame_set(2, keyframes=[1])], False),
            (steps, [_frame_set(2), _frame_set(2, window=AttentionWindow.local(2))], True),
            (steps, [_frame_set(2, keyframes=[0])], True),
        ]
        rows = []
        exact_rows = attention._exact_rows

        def counted(q_rows, k_blocks, v_blocks):
            rows.append(len(q_rows))
            return exact_rows(q_rows, k_blocks, v_blocks)

        def fallback_rows(k, sets):
            rows.clear()
            with mock.patch.object(attention, "_exact_rows", side_effect=counted):
                outs = _attend(q, k, v, sets)
            return outs, sum(rows)

        for k, sets, falls_back in cases:
            outs, stacked = fallback_rows(k, sets)
            assert bool(stacked) == falls_back
            # Only the sets whose rows fail go to the fallback, and each of
            # them exactly as it does when run alone.
            alone = 0
            for out, admitted in zip(outs, sets):
                assert np.abs(out - frame_oracle(q, k, v, frames, admitted)).max() <= 1e-12
                (single,), count = fallback_rows(k, [admitted])
                assert np.array_equal(out, single)
                alone += count
            assert stacked == alone

    @given(multi_window_cases(), st.floats(0.0, 1e3))
    def test_shared_key_offset_needs_no_fallback(self, case, scale):
        # One vector o added to every key adds q_r . o to a whole row, which
        # the softmax cancels. The own-frame max moves with it, so no row
        # falls back to `_exact_rows`.
        t, tpf, d, spans, keyframes, seed = case
        rng = SeededRng(seed)
        q, k, v = (rng.normals(t * tpf * d).reshape(t * tpf, d) for _ in range(3))
        direction = rng.normals(d)
        offset = scale * np.linalg.norm(k, axis=1).mean() * direction / np.linalg.norm(direction)
        frames = np.repeat(np.arange(t), tpf)
        sets = [_frame_set(t, window=AttentionWindow.for_span(span, t)) for span in spans]
        if keyframes is not None:
            sets.append(_frame_set(t, keyframes=keyframes))
        rows = []
        exact_rows = attention._exact_rows

        def counted(q_rows, k_blocks, v_blocks):
            rows.append(len(q_rows))
            return exact_rows(q_rows, k_blocks, v_blocks)

        with mock.patch.object(attention, "_exact_rows", side_effect=counted):
            outs = _attend(q, k + offset, v, sets)
        for out, admitted in zip(outs, sets):
            assert np.abs(out - frame_oracle(q, k, v, frames, admitted)).max() <= 1e-12
        assert rows == []

    def test_pool_wider_than_the_cores_under_fast_thread_switching(self):
        toks = random_tokens(16, 8, 4, 40)
        q, k, v = project_qkv(toks, random_weights(4, 41))
        sets = [_frame_set(16, window=AttentionWindow.local(s)) for s in (2, 5, 9)]
        sets.append(_frame_set(16))
        with pooled(1):
            serial = _attend(q, k, v, sets)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pooled(8):
                for _ in range(20):
                    split = _attend(q, k, v, sets)
                    assert all(np.array_equal(a, b) for a, b in zip(serial, split))
        finally:
            sys.setswitchinterval(interval)

    def test_pool_threads_follow_the_callers_error_state(self):
        # Only query frame 1, which the pool thread takes, overflows; under the
        # caller's errstate it yields NaN, not a warning raised on that thread.
        x = np.ones((4, 2))
        x[2:] = 1e200
        with pooled(2), np.errstate(all="ignore"):
            (out,) = _attend(x, x, x, [_frame_set(2)])
        assert np.isfinite(out[:2]).all() and np.isnan(out[2:]).all()


def frame_windows(t, spans, keyframes):
    """The mask arguments of `attention_map` / `frame_attention` for a case:
    global, each span's window, and the key-frame set if there is one."""
    masks = [{}] + [{"window": AttentionWindow.for_span(span, t)} for span in spans]
    if keyframes is not None:
        masks.append({"keyframes": keyframes})
    return masks


class TestAttentionMap:
    def test_keyframe_columns(self):
        # Columns of frames outside the key-frame set are exactly 0.
        t, tpf, keyframes = 6, 3, [1, 4]
        toks = random_tokens(t, tpf, 4, 52)
        q, k, _ = project_qkv(toks, random_weights(4, 53))
        weights = attention_map(q, k, toks.frame_index, keyframes=keyframes)
        outside = ~np.isin(toks.frame_index, keyframes)
        assert np.array_equal(weights[:, outside], np.zeros((t * tpf, outside.sum())))
        assert (weights[:, ~outside] > 0.0).all()
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("entry", [attention_map, frame_attention])
    def test_map_entries_check_q_and_k_once(self, entry):
        # The maps take no values: q is checked once, not again as "v".
        toks = random_tokens(3, 2, 4, 54)
        q, k, _ = project_qkv(toks, random_weights(4, 55))
        with mock.patch.object(attention, "check_array", wraps=attention.check_array) as check:
            entry(q, k, toks.frame_index)
        assert [call.args[1] for call in check.call_args_list] == ["q", "k", "frame_index"]


class TestFrameAttention:
    @given(multi_window_cases())
    @example((1, 1, 2, [1], {0}, 0))
    def test_matches_the_dense_map_property(self, case):
        t, tpf, d, spans, keyframes, seed = case
        toks = random_tokens(t, tpf, d, seed)
        q, k, _ = project_qkv(toks, random_weights(d, seed + 1))
        frames = toks.frame_index
        for mask in frame_windows(t, spans, keyframes):
            pooled_map = frame_attention(q, k, frames, **mask).matrix
            dense = aggregate_attention([attention_map(q, k, frames, **mask)], t).matrix
            assert pooled_map.shape == (t, t)
            assert np.abs(pooled_map - dense).max() <= 1e-12

    @given(split_cases())
    def test_split_across_threads_is_bit_identical(self, case):
        t, tpf, d, spans, keyframes, rows, group, seed = case
        toks = random_tokens(t, tpf, d, seed)
        q, k, _ = project_qkv(toks, random_weights(d, seed + 1))
        for mask in frame_windows(t, spans, keyframes):
            maps = []
            with mock.patch.object(attention, "_SERIAL_GEMM_MACS", rows * tpf * d), \
                    mock.patch.object(attention, "_BLOCK_BYTES", 8 * group * rows * tpf):
                for width in (1, 2):
                    with pooled(width):
                        maps.append(frame_attention(q, k, toks.frame_index, **mask).matrix)
            assert np.array_equal(maps[0], maps[1])

    def test_core_gets_no_values(self):
        # The map is the core's frame-mass kind: the value stack is the ones
        # column alone, so each share's partial sums are (T, rows, 1).
        toks = random_tokens(6, 3, 4, 52)
        q, k, _ = project_qkv(toks, random_weights(4, 53))
        attend, share_buffers = attention._attend_stacks, attention._share_buffers
        shapes = []

        def spy_attend(q3, kt3, v3, frame_sets):
            shapes.append(("v3", v3.shape))
            return attend(q3, kt3, v3, frame_sets)

        def spy_buffers(*args):
            buffers = share_buffers(*args)
            shapes.append(("partial", buffers[1].shape))
            return buffers

        with mock.patch.object(attention, "_attend_stacks", spy_attend), \
                mock.patch.object(attention, "_share_buffers", spy_buffers), pooled(2):
            frame_attention(q, k, toks.frame_index)
        assert shapes == [("v3", (6, 3, 1)), ("partial", (6, 3, 1)), ("partial", (6, 3, 1))]

    def test_window_and_keyframes_together_rejected(self):
        toks = random_tokens(4, 2, 4, 50)
        q, k, _ = project_qkv(toks, random_weights(4, 51))
        with pytest.raises(InvalidParameterError, match="either window or keyframes"):
            frame_attention(q, k, toks.frame_index, window=AttentionWindow.local(2),
                            keyframes=[0])
