"""Scaled dot-product attention over frame-indexed token sequences.

Single-head only. Tokens carry a frame id; masks are defined on frame
indices and admit all tokens of an admitted frame. A local window of
span s admits key frames j with |i - j| < floor(s / 2) around the query
frame i; masked keys are excluded before the softmax, so they get zero
weight exactly. Logits and reductions run in float64.

One core, `_attend`, serves every variant. It takes several admitted-frame
sets at once (local ranges, the whole sequence, key-frame sets) and makes
one pass over the query frames. For each query frame it computes the
logits of every key frame that some set admits once, keeps each key
frame's online-softmax state (row max, row sum of exp(logit - max), and
the unnormalised value sum), and builds each set's rows by merging the
states of that set's own frames with log-sum-exp rescaling (Milakov &
Gimelshein 2018). Nested windows therefore cost one pass of the widest,
and each set's output equals the same set run alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ShapeMismatchError

# Logits are computed in stacks of whole key-frame blocks of at most this
# many bytes, so each stack stays in a core's L2 cache between the softmax
# passes.
_BLOCK_BYTES = 2 << 20


def _validate_frames(frame_index, n_tokens: int) -> np.ndarray:
    """Canonical token layout: frames 0..T-1, non-decreasing, equal counts."""
    frames = np.ascontiguousarray(frame_index, dtype=np.int64)
    if frames.shape != (n_tokens,):
        raise ShapeMismatchError("frame_index length must match token count")
    if n_tokens == 0:
        raise InvalidParameterError("token sequence must be non-empty")
    if (np.diff(frames) < 0).any():
        raise InvalidParameterError("frame_index must be non-decreasing")
    if frames[0] != 0:
        raise InvalidParameterError("frame ids must start at 0")
    counts = np.bincount(frames)
    if (counts != counts[0]).any():
        raise InvalidParameterError("every frame must own the same number of tokens")
    return frames


@dataclass(frozen=True, eq=False)
class TokenSequence:
    """Token features (n_tokens, d_model) plus per-token frame ids.

    Frame ids are non-decreasing and every frame in [0, T) owns the same
    number of tokens (the H*W spatial positions of that frame).
    """

    features: np.ndarray
    frame_index: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise InvalidParameterError("features must be (n_tokens, d_model)")
        frames = _validate_frames(self.frame_index, feats.shape[0])
        feats.flags.writeable = False
        frames.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "frame_index", frames)

    @property
    def num_tokens(self) -> int:
        return self.features.shape[0]

    @property
    def d_model(self) -> int:
        return self.features.shape[1]

    @property
    def num_frames(self) -> int:
        return int(self.frame_index[-1]) + 1

    @property
    def tokens_per_frame(self) -> int:
        return self.num_tokens // self.num_frames


@dataclass(frozen=True)
class AttentionWindow:
    """A branch's temporal extent: span in frames plus a kind tag."""

    span_frames: int
    kind: str = "local"

    def __post_init__(self):
        if self.span_frames < 1:
            raise InvalidParameterError(f"span_frames must be >= 1, got {self.span_frames}")
        if self.kind not in ("local", "global", "sparse"):
            raise InvalidParameterError(f"unknown window kind {self.kind!r}")

    @classmethod
    def local(cls, span_frames: int) -> "AttentionWindow":
        return cls(span_frames=span_frames, kind="local")

    @classmethod
    def global_for(cls, num_frames: int) -> "AttentionWindow":
        return cls(span_frames=num_frames, kind="global")

    @classmethod
    def for_span(cls, span_frames: int, num_frames: int) -> "AttentionWindow":
        """Local window, saturating to global once the span covers the sequence."""
        if span_frames >= num_frames:
            return cls.global_for(num_frames)
        return cls.local(span_frames)


@dataclass
class MacCounter:
    """Accumulates key-value multiply-accumulate counts across attention calls.

    Counts queries x admitted_keys x 2*d per block: one d-MAC for the
    logit, one for the value accumulation. Softmax arithmetic excluded.
    The count is logical: a branch's counter gets its own queries x its
    own admitted keys x 2*d even when several branches share one pass,
    whose physical work is that of the union of the branches' frames.
    """

    macs: int = 0

    def add(self, n: int) -> None:
        self.macs += int(n)


def project_qkv(tokens: TokenSequence, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the three d_model x d_model projections row-wise (y = x @ W)."""
    w_q, w_k, w_v = (np.asarray(w, dtype=np.float64) for w in weights)
    d = tokens.d_model
    for name, w in (("query", w_q), ("key", w_k), ("value", w_v)):
        if w.shape != (d, d):
            raise ShapeMismatchError(f"{name} weights must be ({d}, {d}), got {w.shape}")
    feats = tokens.features
    return feats @ w_q, feats @ w_k, feats @ w_v


def _check_qkv(q, k, v, frame_index):
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not (q.shape[0] == k.shape[0] == v.shape[0]):
        raise ShapeMismatchError("Q, K, V must agree on token count")
    if q.shape[1] != k.shape[1]:
        raise ShapeMismatchError("Q and K must share the key dimension")
    return q, k, v, _validate_frames(frame_index, q.shape[0])


def _frame_slices(frames: np.ndarray) -> tuple[int, int]:
    t = int(frames[-1]) + 1
    tpf = frames.shape[0] // t
    return t, tpf


def _admitted_range(i: int, radius: int, t: int) -> tuple[int, int]:
    # |i - j| < radius, relaxed to the query's own frame when radius == 0.
    if radius <= 0:
        return i, i + 1
    return max(0, i - radius + 1), min(t, i + radius)


def _frame_set(t: int, window: AttentionWindow | None = None, keyframes=None):
    """The key frames each query frame admits, as `admitted(i)`.

    `admitted(i)` is a slice of frames for a window (local range or the
    whole sequence) and the ascending key-frame array for a key-frame set;
    either one indexes a (T, ...) per-frame array. Exactly one of `window`
    / `keyframes` selects the set; both None means the whole sequence.
    """
    if window is not None and keyframes is not None:
        raise InvalidParameterError("pass either window or keyframes, not both")
    if keyframes is not None:
        keys = np.unique(np.asarray(list(keyframes), dtype=np.int64))
        if keys.size == 0:
            raise InvalidParameterError("keyframe set must be non-empty")
        if keys[0] < 0 or keys[-1] >= t:
            raise InvalidParameterError(f"keyframes must lie in [0, {t}), got {keys.tolist()}")
        return lambda i: keys
    if window is None or window.kind == "global":
        if window is not None and window.span_frames < t:
            raise InvalidParameterError("global window must span the whole sequence")
        return lambda i: slice(0, t)
    if window.kind != "local":
        raise InvalidParameterError(f"masked attention does not take {window.kind!r} windows")
    radius = window.span_frames // 2
    return lambda i: slice(*_admitted_range(i, radius, t))


def _attend(q, k, v, frames, frame_sets, counters=None) -> list[np.ndarray]:
    """One-pass multi-window attention core; one (n, d_v) output per frame set.

    For each query frame i, the logits of every key frame that some set
    admits are computed once, as stacked (J, tpf, tpf) matmuls over groups
    of frames sized to stay in cache. Each key frame j keeps its
    online-softmax state: row max m_j, row sum l_j of exp(logit - m_j),
    and the unnormalised output o_j = exp(logit - m_j) @ V_j. A set's rows
    merge the states of its own frames in ascending frame order, rescaled
    by exp(m_j - M) with M their largest m_j. A set's result therefore
    depends only on its own frames' blocks, so it is bit-identical to the
    same set run alone. `counters[b]`, if not None, receives set b's
    logical MACs.
    """
    t, tpf = _frame_slices(frames)
    d, dv = q.shape[1], v.shape[1]
    q3 = (q * (1.0 / math.sqrt(d))).reshape(t, tpf, d)
    k3 = k.reshape(t, tpf, d)
    v3 = v.reshape(t, tpf, dv)
    group = max(1, _BLOCK_BYTES // (8 * tpf * tpf))
    block = np.empty((min(group, t), tpf, tpf), dtype=np.float64)
    row_max = np.empty((t, tpf), dtype=np.float64)
    row_sum = np.empty((t, tpf), dtype=np.float64)
    partial = np.empty((t, tpf, dv), dtype=np.float64)
    outs = np.empty((len(frame_sets), t, tpf, dv), dtype=np.float64)
    frame_ids = np.arange(t)
    admitted_frames = np.zeros(len(frame_sets), dtype=np.int64)
    for i in range(t):
        admitted = [frame_set(i) for frame_set in frame_sets]
        in_union = np.zeros(t, dtype=bool)
        for b, keys in enumerate(admitted):
            in_union[keys] = True
            admitted_frames[b] += frame_ids[keys].size
        union = np.flatnonzero(in_union)
        for start in range(0, union.size, group):
            part = union[start : start + group]
            lo, hi = int(part[0]), int(part[-1]) + 1
            keys = slice(lo, hi) if hi - lo == part.size else part
            logits = np.matmul(q3[i], k3[keys].transpose(0, 2, 1), out=block[: part.size])
            row_max[keys] = logits.max(axis=2)
            logits -= row_max[keys][:, :, None]
            np.exp(logits, out=logits)
            row_sum[keys] = logits.sum(axis=2)
            partial[keys] = logits @ v3[keys]
        for out, keys in zip(outs, admitted):
            scale = np.exp(row_max[keys] - row_max[keys].max(axis=0))
            out[i] = (scale[:, :, None] * partial[keys]).sum(axis=0)
            out[i] /= (scale * row_sum[keys]).sum(axis=0)[:, None]
    for counter, count in zip(counters or (), admitted_frames):
        if counter is not None:
            counter.add(tpf * int(count) * tpf * 2 * d)
    return [out.reshape(t * tpf, dv) for out in outs]


def masked_attention(q, k, v, frame_index, window: AttentionWindow,
                     counter: MacCounter | None = None) -> TokenSequence:
    """Windowed (or global) attention under the frame-distance mask rule."""
    q, k, v, frames = _check_qkv(q, k, v, frame_index)
    t, _ = _frame_slices(frames)
    (out,) = _attend(q, k, v, frames, [_frame_set(t, window=window)], [counter])
    return TokenSequence(out, frames)


def uniform_keyframes(num_frames: int, fraction: float) -> np.ndarray:
    """ceil(fraction * T) evenly spaced frame ids, ascending, starting at 0.

    The j-th key frame is ceil(j * T / count); spacing is as even as
    integer indices allow and frame 0 is always included.
    """
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameterError(f"fraction must lie in (0, 1], got {fraction}")
    if num_frames < 1:
        raise InvalidParameterError("num_frames must be >= 1")
    count = math.ceil(fraction * num_frames)
    return np.array([-(-j * num_frames // count) for j in range(count)], dtype=np.int64)


def sparse_attention(q, k, v, frame_index, keyframes,
                     counter: MacCounter | None = None) -> TokenSequence:
    """Attention whose keys are restricted to the given frames.

    With keyframes covering every frame this reduces to global attention
    bit-for-bit (same frame blocks, same merge order).
    """
    q, k, v, frames = _check_qkv(q, k, v, frame_index)
    t, _ = _frame_slices(frames)
    (out,) = _attend(q, k, v, frames, [_frame_set(t, keyframes=keyframes)], [counter])
    return TokenSequence(out, frames)


def attention_map(q, k, frame_index, window: AttentionWindow | None = None,
                  keyframes=None) -> np.ndarray:
    """Dense (n, n) row-stochastic attention weights, zeros at masked keys.

    Exactly one of `window` / `keyframes` selects the mask; both None
    means global attention. Intended for structure diagnostics; memory is
    quadratic in the token count.
    """
    q, k, _, frames = _check_qkv(q, k, q, frame_index)
    t, tpf = _frame_slices(frames)
    admitted = _frame_set(t, window=window, keyframes=keyframes)
    d = q.shape[1]
    q3 = (q * (1.0 / math.sqrt(d))).reshape(t, tpf, d)
    k3 = k.reshape(t, tpf, d)
    token_ids = np.arange(t * tpf).reshape(t, tpf)
    weights = np.zeros((t * tpf, t * tpf), dtype=np.float64)
    for i in range(t):
        keys = admitted(i)
        logits = q3[i] @ k3[keys].reshape(-1, d).T
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        weights[i * tpf : (i + 1) * tpf, token_ids[keys].reshape(-1)] = logits
    return weights
