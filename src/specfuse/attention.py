"""Scaled dot-product attention over frame-indexed token sequences.

Single-head only. Tokens carry a frame id; masks are defined on frame
indices and admit all tokens of an admitted frame. A local window of
span s admits key frames j with |i - j| < floor(s / 2) around the query
frame i; masked keys are excluded before the softmax, so they get zero
weight exactly. Logits and reductions run in float64.

One core, `_attend`, serves every variant. It takes several admitted-frame
sets at once (local ranges, the whole sequence, key-frame sets) and makes
one pass over the query frames, computing the logits of every key frame
that some set admits once. Each query row's logits are shifted by a static
bound instead of by the row's running max (see `_attend`), so a key
frame's weighted values and row sum simply add up across the frames of a
set, with no log-sum-exp rescaling (the online softmax of Milakov &
Gimelshein 2018, with its bookkeeping gone). Nested windows therefore cost
one pass of the widest, and each set's output equals the same set run
alone, bit for bit.

Query frames are independent, so `_attend` splits them across a small
pool of threads: frame i goes to share i mod width, the calling thread
runs share 0, and width - 1 pool threads, started for the call and
joined before it returns, run the rest. The width is the number of
usable cores, capped by SPFU_THREADS when that is set above 0, else by
OMP_NUM_THREADS. Each share has its own logits and partial buffers and
writes only its own frames' output rows. A frame's query rows are taken
in chunks small enough that every matmul has M*N*K <= 2**18, the size
OpenBLAS runs on the calling thread, so the threads never queue for
OpenBLAS's own pool. Every row is computed by the same operations in the
same order whichever thread runs it, so outputs are bit-identical at
every width.

Frame-level attention maps run through the same core: `frame_attention`
passes a one-hot frame indicator as the values, so each output row is the
weight mass its query puts on every key frame, and the (T, T) map costs
O(n * T) memory. `attention_map` keeps the dense (n, n) weights as a
diagnostic and test oracle.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import AttnMap
from .config import check_integer, thread_cap
from .errors import InvalidParameterError, NonFiniteValueError, ShapeMismatchError

# Each thread computes logits in stacks of key-frame blocks of at most
# this many bytes, so a stack stays in its core's L2 cache from the logits
# matmul through `exp` to the value matmul.
_BLOCK_BYTES = 512 << 10
# OpenBLAS runs a gemm with M*N*K at most 2**18 on the calling thread and
# hands larger ones to its own thread pool. Query rows are taken in chunks
# that keep both matmuls of a block at or below that size (60 rows at 256
# tokens per frame and d = 16, plus the shift or row-sum column): otherwise
# the attention threads would contend for OpenBLAS's pool, and a split
# across cores would run slower than one thread.
_SERIAL_GEMM_MACS = 1 << 18
# A set's row is recomputed with its own true row max when its summed
# weight under the static shift falls below this, or is not finite: the
# largest weight then sits near the bottom of float64's exponent range,
# or the shift lost the row to cancellation or overflow.
_MIN_ROW_SUM = 1e-290


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
    number of tokens (the H*W spatial positions of that frame). Features
    must be finite. Both arrays are read-only, C-contiguous copies of the
    inputs, so the caller's arrays are neither aliased nor frozen.
    """

    features: np.ndarray
    frame_index: np.ndarray

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64, order="C")
        if feats.ndim != 2:
            raise InvalidParameterError("features must be (n_tokens, d_model)")
        if not np.isfinite(feats).all():
            raise NonFiniteValueError("token features must be finite")
        frames = _validate_frames(np.array(self.frame_index, dtype=np.int64), feats.shape[0])
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
    """A branch's temporal extent: span in frames, "local" or "global".

    Key-frame sets are not windows; `sparse_attention` takes them.
    """

    span_frames: int
    kind: str = "local"

    def __post_init__(self):
        if check_integer(self.span_frames, "span_frames") < 1:
            raise InvalidParameterError(f"span_frames must be >= 1, got {self.span_frames}")
        if self.kind not in ("local", "global"):
            raise InvalidParameterError(f"unknown window kind {self.kind!r}")

    @classmethod
    def local(cls, span_frames: int) -> "AttentionWindow":
        return cls(span_frames=span_frames, kind="local")

    @classmethod
    def for_span(cls, span_frames: int, num_frames: int) -> "AttentionWindow":
        """Local window, saturating to global once the span covers the sequence."""
        if span_frames >= num_frames:
            return cls(span_frames=num_frames, kind="global")
        return cls.local(span_frames)


@dataclass
class MacCounter:
    """Accumulates key-value multiply-accumulate counts across attention calls.

    Counts queries x admitted_keys x 2*d per block: one d-MAC for the
    logit, one for the value accumulation. Softmax arithmetic, including
    the shift and row-sum columns the core appends, is excluded.
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
    radius = window.span_frames // 2
    return lambda i: slice(*_admitted_range(i, radius, t))


def _pool_width() -> int:
    """Threads that share `_attend`'s query frames, the calling thread included.

    The usable core count, capped by SPFU_THREADS when that is set above
    0, else by OMP_NUM_THREADS. A SPFU_THREADS that is not an integer
    >= 0 raises InvalidParameterError, as it does in the CLI.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    cap = thread_cap()
    if cap == 0:
        try:
            cap = int(os.environ.get("OMP_NUM_THREADS", "0"))
        except ValueError:  # OpenMP's own syntax, such as "4,2", is not a cap here
            cap = 0
    return max(1, min(cores, cap) if cap > 0 else cores)


def _share_buffers(t: int, tpf: int, d: int, dv: int) -> tuple[np.ndarray, np.ndarray]:
    """One share's scratch: a logits block and every key frame's augmented
    partial sums, for query-row chunks within `_SERIAL_GEMM_MACS`."""
    rows = max(1, min(tpf, _SERIAL_GEMM_MACS // (tpf * max(d + 1, dv + 1))))
    group = min(t, max(1, _BLOCK_BYTES // (8 * rows * tpf)))
    return np.empty((group, rows, tpf)), np.empty((t, rows, dv + 1))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row softmax of a (rows, keys) block in place, shifted by each row's max."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _exact_rows(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Attention of query rows q over the (J, tpf, .) key and value blocks
    k, v, shifted by each row's true max: the static shift's fallback."""
    logits = q @ k.reshape(-1, k.shape[-1]).T
    return _softmax_rows(logits) @ v.reshape(-1, v.shape[-1])


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean row norms, scaled by each row's max |entry| so that no
    finite row overflows."""
    scale = np.abs(x).max(axis=1, keepdims=True)
    scale[scale == 0.0] = 1.0
    return scale[:, 0] * np.sqrt(np.square(x / scale).sum(axis=1))


def _attend_frames(q3, k3, v3, admitted, outs, frame_ids, buffers) -> None:
    """`_attend`'s work for the query frames `frame_ids`, in `buffers` of its own.

    q3, k3 and v3 carry the extra column (-c_r, ones, ones). Writes only
    those frames' rows of `outs` and calls only numpy, so it can run on a
    pool thread next to other shares. Floating-point errors are ignored
    on the shifted path, whose failures the fallback catches, and follow
    the caller's np.errstate in the fallback.
    """
    t, tpf, _ = q3.shape
    block, partial = buffers
    group, rows = block.shape[:2]
    caller = np.geterr()
    with np.errstate(all="ignore"):
        for i in frame_ids:
            in_union = np.zeros(t, dtype=bool)
            for keys in admitted[i]:
                in_union[keys] = True
            union = np.flatnonzero(in_union)
            for r0 in range(0, tpf, rows):
                m = min(rows, tpf - r0)
                for start in range(0, union.size, group):
                    part = union[start : start + group]
                    lo, hi = int(part[0]), int(part[-1]) + 1
                    keys = slice(lo, hi) if hi - lo == part.size else part
                    weights = np.matmul(q3[i, r0 : r0 + m], k3[keys].transpose(0, 2, 1),
                                        out=block[: part.size, :m])
                    np.exp(weights, out=weights)
                    partial[keys, :m] = weights @ v3[keys]
                for out, keys in zip(outs, admitted[i]):
                    total = partial[keys, :m].sum(axis=0)
                    rows_out = out[i, r0 : r0 + m]
                    np.divide(total[:, :-1], total[:, -1:], out=rows_out)
                    lost = ~((total[:, -1] >= _MIN_ROW_SUM) & np.isfinite(total).all(axis=1))
                    if lost.any():
                        with np.errstate(**caller):
                            rows_out[lost] = _exact_rows(q3[i, r0 + np.flatnonzero(lost), :-1],
                                                         k3[keys, :, :-1], v3[keys, :, :-1])


def _attend(q, k, v, frames, frame_sets, counters=None) -> list[np.ndarray]:
    """One-pass multi-window attention core; one (n, d_v) output per frame set.

    For each query frame i, the logits of every key frame that some set
    admits are computed once, as stacked (J, rows, tpf) matmuls over groups
    of frames sized to stay in cache, one chunk of the frame's query rows
    at a time. The keys are first centred on the mean key of the call: an
    offset shared by every key adds q_r . o to a whole row, which the
    softmax cancels, but it would inflate the shift below far past the
    row's true max. Query row r is shifted by c_r = |q_r| * max_j |k_j|,
    with the max over every (centred) key token of the call, which bounds
    every logit of the row. The shift is folded into the logits matmul (a
    -c_r column of the scaled Q meets a ones column of K) and the row sum
    into the value matmul (a ones column of V), so key frame j yields
    p_j = exp(logit - c_r) @ [V_j | 1] after one `exp` pass. A set's rows
    are sum_j p_j[:, :dv] / sum_j p_j[:, dv] over its own frames, added in
    ascending frame order; a row whose sum is below `_MIN_ROW_SUM` or not
    finite is recomputed with the set's own row max. Neither the centring,
    the shift nor the fallback depends on the other sets, so a set's output is
    bit-identical to the same set run alone. Query frames are split
    across `_pool_width()` threads (see the module docstring) and the
    output does not depend on the width. `counters[b]`, if not None,
    receives set b's logical MACs.
    """
    t, tpf = _frame_slices(frames)
    d, dv = q.shape[1], v.shape[1]
    q = q * (1.0 / math.sqrt(d))
    # Centred in place in the augmented array, so no second copy of the
    # keys stays alive for the whole pass.
    k3 = np.column_stack((k, np.ones(len(k))))
    keys = k3[:, :d]
    keys -= keys.mean(axis=0)
    # A shift that overflows only sends its rows to the fallback.
    with np.errstate(all="ignore"):
        shift = _row_norms(q) * _row_norms(keys).max()
    q3 = np.column_stack((q, -shift)).reshape(t, tpf, d + 1)
    k3 = k3.reshape(t, tpf, d + 1)
    v3 = np.column_stack((v, np.ones(len(v)))).reshape(t, tpf, dv + 1)
    outs = np.empty((len(frame_sets), t, tpf, dv), dtype=np.float64)
    admitted = [[frame_set(i) for frame_set in frame_sets] for i in range(t)]
    width = min(_pool_width(), t)
    shares = [range(first, t, width) for first in range(width)]
    task = functools.partial(_attend_frames, q3, k3, v3, admitted, outs)
    # Every share's buffers are allocated here: memory that a pool thread
    # allocates stays cached in that thread's malloc arena after the call
    # and adds to the process's peak RSS.
    buffers = [_share_buffers(t, tpf, d, dv) for _ in shares]
    # Each pool task runs in a copy of the caller's context: NumPy keeps
    # np.errstate in a context variable, so errors and warnings follow the
    # caller's settings on every thread.
    # Leaving the block joins the pool's threads, also when a share raises.
    with ThreadPoolExecutor(max(1, width - 1), thread_name_prefix="specfuse-attend") as pool:
        futures = [pool.submit(contextvars.copy_context().run, task, share, own)
                   for share, own in zip(shares[1:], buffers[1:])]
        task(shares[0], buffers[0])
    for future in futures:
        future.result()
    frame_ids = np.arange(t)
    for b, counter in enumerate(counters or ()):
        if counter is not None:
            count = sum(frame_ids[per_set[b]].size for per_set in admitted)
            counter.add(tpf * count * tpf * 2 * d)
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
    means global attention. A diagnostic and the test oracle of
    `frame_attention`: memory is quadratic in the token count (2 GiB at
    16384 tokens), so frame-level maps come from `frame_attention`.
    """
    q, k, _, frames = _check_qkv(q, k, q, frame_index)
    t, tpf = _frame_slices(frames)
    admitted = _frame_set(t, window=window, keyframes=keyframes)
    d = q.shape[1]
    q3 = (q * (1.0 / math.sqrt(d))).reshape(t, tpf, d)
    k3 = k.reshape(t, tpf, d)
    # Query frame i's rows, as (tpf, T, tpf) blocks per key frame.
    weights = np.zeros((t, tpf, t, tpf), dtype=np.float64)
    for i in range(t):
        keys = admitted(i)
        logits = q3[i] @ k3[keys].reshape(-1, d).T
        weights[i][:, keys] = _softmax_rows(logits).reshape(tpf, -1, tpf)
    return weights.reshape(t * tpf, t * tpf)


def frame_attention(q, k, frame_index, window: AttentionWindow | None = None,
                    keyframes=None) -> AttnMap:
    """Frame-level (T, T) attention map, in memory linear in the token count.

    Entry (i, j) is the mean over frame i's query rows of the weight mass
    each row puts on key frame j, rows renormalized to sum 1: the map
    `aggregate_attention([attention_map(...)], T)` pools from the dense
    weights, to rounding. `_attend` computes it with a one-hot frame
    indicator as the values, so no (n, n) matrix is formed. Exactly one of
    `window` / `keyframes` selects the mask; both None means global.
    """
    q, k, _, frames = _check_qkv(q, k, q, frame_index)
    t, tpf = _frame_slices(frames)
    onehot = (frames[:, None] == np.arange(t)).astype(np.float64)
    (mass,) = _attend(q, k, onehot, frames, [_frame_set(t, window=window, keyframes=keyframes)])
    pooled = mass.reshape(t, tpf, t).mean(axis=1)
    return AttnMap(pooled / pooled.sum(axis=1, keepdims=True))
