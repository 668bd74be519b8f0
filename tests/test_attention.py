"""Attention semantics against a brute-force O(n^2) oracle."""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from specfuse import selftest
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
from specfuse import attention
from specfuse.attention import _attend, _frame_set


def oracle_attention(q, k, v, frames, admit) -> np.ndarray:
    """Full-matrix reference: -inf logits for masked pairs, row softmax."""
    n, d = q.shape
    logits = np.full((n, n), -np.inf)
    for i in range(n):
        for j in range(n):
            if admit(int(frames[i]), int(frames[j])):
                logits[i, j] = float(q[i] @ k[j]) / np.sqrt(d)
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        w = np.exp(logits[i] - logits[i].max())
        out[i] = (w / w.sum()) @ v
    return out


def window_admit(span: int):
    radius = span // 2
    if radius == 0:
        return lambda fi, fj: fi == fj
    return lambda fi, fj: abs(fi - fj) < radius


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
    test_wide_window_equals_global = staticmethod(selftest.check_wide_window_is_global)
    test_rows_are_convex_combinations = staticmethod(selftest.check_attention_convexity)

    def test_own_frame_only_at_span_two(self):
        toks = random_tokens(6, 2, 4, 7)
        q, k, v = project_qkv(toks, random_weights(4, 8))
        out = masked_attention(q, k, v, toks.frame_index, AttentionWindow.local(2))
        oracle = oracle_attention(q, k, v, toks.frame_index, window_admit(2))
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
        weights = attention_map(q, k, toks.frame_index, window=AttentionWindow.local(span))
        radius = span // 2
        for i in range(t):
            for j in range(t):
                block = weights[i * tpf : (i + 1) * tpf, j * tpf : (j + 1) * tpf]
                if abs(i - j) < radius:
                    assert block.min() > 0.0
                else:
                    assert np.abs(block).max() == 0.0


class TestSparseAttention:
    test_all_frames_equals_global_exactly = staticmethod(selftest.check_sparse_all_frames_exact)

    def test_matches_column_dropped_oracle(self):
        toks = random_tokens(4, 2, 4, 19)
        q, k, v = project_qkv(toks, random_weights(4, 20))
        out = sparse_attention(q, k, v, toks.frame_index, {0, 2})
        oracle = oracle_attention(q, k, v, toks.frame_index, lambda fi, fj: fj in (0, 2))
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


class TestEquivariance:
    test_within_frame_permutation = staticmethod(selftest.check_frame_permutation_equivariance)


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
            out = masked_attention(q, k, v, toks.frame_index, AttentionWindow.local(span))
            oracle = oracle_attention(q, k, v, toks.frame_index, window_admit(span))
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
    return mock.patch.object(attention, "_pool_width", return_value=width)


def frame_oracle(q, k, v, frames, admitted: np.ndarray) -> np.ndarray:
    """Full-matrix attention with -inf logits wherever admitted[fi, fj] is False."""
    logits = (q @ k.T) / np.sqrt(q.shape[1])
    logits[~admitted[frames][:, frames]] = -np.inf
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (w / w.sum(axis=1, keepdims=True)) @ v


def admitted_frames(frame_set, t: int) -> np.ndarray:
    """A `_frame_set` as the (T, T) boolean matrix `frame_oracle` takes."""
    admitted = np.zeros((t, t), dtype=bool)
    for i in range(t):
        admitted[i, np.arange(t)[frame_set(i)]] = True
    return admitted


class TestMultiWindowCore:
    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_pool_width_rejects_a_malformed_thread_cap(self, monkeypatch, value):
        monkeypatch.setenv("SPFU_THREADS", value)
        with pytest.raises(InvalidParameterError, match="SPFU_THREADS"):
            attention._pool_width()

    @given(multi_window_cases())
    def test_one_call_matches_oracle_and_single_windows(self, case):
        t, tpf, d, spans, keyframes, seed = case
        toks = random_tokens(t, tpf, d, seed)
        q, k, v = project_qkv(toks, random_weights(d, seed + 1))
        frames = toks.frame_index
        windows = [AttentionWindow.for_span(span, t) for span in spans]
        sets = [_frame_set(t, window=w) for w in windows]
        fi, fj = np.meshgrid(np.arange(t), np.arange(t), indexing="ij")
        admitted = [window_admit(span)(fi, fj) | (w.kind == "global")
                    for span, w in zip(spans, windows)]
        alone_counters = [MacCounter() for _ in sets]
        alone = [masked_attention(q, k, v, frames, w, c).features
                 for w, c in zip(windows, alone_counters)]
        if keyframes is not None:
            sets.append(_frame_set(t, keyframes=keyframes))
            admitted.append(np.isin(fj, sorted(keyframes)))
            alone_counters.append(MacCounter())
            alone.append(sparse_attention(q, k, v, frames, keyframes,
                                          alone_counters[-1]).features)
        counters = [MacCounter() for _ in sets]
        outs = _attend(q, k, v, frames, sets, counters)
        assert len(outs) == len(sets)
        for out, admit, single in zip(outs, admitted, alone):
            assert np.abs(out - frame_oracle(q, k, v, frames, admit)).max() <= 1e-6
            assert np.array_equal(out, single)
        # Counters stay logical: each set's own queries x admitted keys x 2d.
        for counter, alone_counter, admit in zip(counters, alone_counters, admitted):
            assert counter.macs == alone_counter.macs == admit.sum() * tpf * tpf * 2 * d

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
                    outs[width] = _attend(q, k, v, frames, sets)
        for width in (2, 3):
            assert all(np.array_equal(a, b) for a, b in zip(outs[1], outs[width]))
        for out, frame_set in zip(outs[1], sets):
            admitted = admitted_frames(frame_set, t)
            assert np.abs(out - frame_oracle(q, k, v, frames, admitted)).max() <= 1e-6

    @given(multi_window_cases(), st.floats(-2.0, 3.0))
    def test_scaled_features_match_the_oracle(self, case, exponent):
        # Features up to 1e3 put logits near 1e6, where the static shift can
        # sit far enough above a row's true max that the row is recomputed.
        t, tpf, d, spans, keyframes, seed = case
        toks = random_tokens(t, tpf, d, seed)
        q, k, v = (x * 10.0**exponent
                   for x in project_qkv(toks, random_weights(d, seed + 1)))
        frames = toks.frame_index
        sets = [_frame_set(t, window=AttentionWindow.for_span(span, t)) for span in spans]
        if keyframes is not None:
            sets.append(_frame_set(t, keyframes=keyframes))
        outs = _attend(q, k, v, frames, sets)
        for out, frame_set in zip(outs, sets):
            admitted = admitted_frames(frame_set, t)
            assert np.abs(out - frame_oracle(q, k, v, frames, admitted)).max() <= 1e-10
            assert np.array_equal(out, _attend(q, k, v, frames, [frame_set])[0])

    def test_rows_whose_shifted_weights_underflow_are_recomputed(self):
        # One key at 1000 * e1 sets max |k| to 1000, so every row's shift is
        # about 21 000 above its true max of 30 / sqrt(2): exp underflows to
        # 0 for every key, and without the fallback every row would be NaN.
        q = np.tile([30.0, 0.0], (4, 1))
        k = np.tile([1.0, 0.0], (4, 1))
        k[3] = [0.0, 1000.0]
        v = SeededRng(42).normals(8).reshape(4, 2)
        frames = np.repeat(np.arange(2), 2)
        sets = [_frame_set(2), _frame_set(2, window=AttentionWindow.local(2)),
                _frame_set(2, keyframes=[1])]
        for out, frame_set in zip(_attend(q, k, v, frames, sets), sets):
            admitted = admitted_frames(frame_set, 2)
            assert np.abs(out - frame_oracle(q, k, v, frames, admitted)).max() <= 1e-12

    @given(multi_window_cases(), st.floats(0.0, 1e3))
    def test_shared_key_offset_needs_no_fallback(self, case, scale):
        # One vector o added to every key adds q_r . o to a whole row, which
        # the softmax cancels. Uncentred, the static shift |q_r| max |k_j + o|
        # grows with |o| and rows underflow into `_exact_rows`.
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
            outs = _attend(q, k + offset, v, frames, sets)
        for out, frame_set in zip(outs, sets):
            admitted = admitted_frames(frame_set, t)
            assert np.abs(out - frame_oracle(q, k, v, frames, admitted)).max() <= 1e-12
        assert rows == []

    def test_pool_wider_than_the_cores_under_fast_thread_switching(self):
        toks = random_tokens(16, 8, 4, 40)
        q, k, v = project_qkv(toks, random_weights(4, 41))
        sets = [_frame_set(16, window=AttentionWindow.local(s)) for s in (2, 5, 9)]
        sets.append(_frame_set(16))
        with pooled(1):
            serial = _attend(q, k, v, toks.frame_index, sets)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pooled(8):
                for _ in range(20):
                    split = _attend(q, k, v, toks.frame_index, sets)
                    assert all(np.array_equal(a, b) for a, b in zip(serial, split))
        finally:
            sys.setswitchinterval(interval)

    def test_pool_threads_follow_the_callers_error_state(self):
        # Only query frame 1, which the pool thread takes, overflows; under the
        # caller's errstate it yields NaN, not a warning raised on that thread.
        x = np.ones((4, 2))
        x[2:] = 1e200
        frames = np.repeat(np.arange(2), 2)
        with pooled(2), np.errstate(all="ignore"):
            (out,) = _attend(x, x, x, frames, [_frame_set(2)])
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

    def test_window_and_keyframes_together_rejected(self):
        toks = random_tokens(4, 2, 4, 50)
        q, k, _ = project_qkv(toks, random_weights(4, 51))
        with pytest.raises(InvalidParameterError, match="either window or keyframes"):
            frame_attention(q, k, toks.frame_index, window=AttentionWindow.local(2),
                            keyframes=[0])
