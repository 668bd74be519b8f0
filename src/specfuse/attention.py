"""Scaled dot-product attention over frame-indexed token sequences.

Single-head only. Tokens carry a frame id; a mask is a (T, T) boolean
matrix (`_frame_set`) whose row i holds the key frames, with all their
tokens, that query frame i admits: |i - j| < max(1, floor(s / 2)) for a
local window of span s, every frame for a global one, the key-frame
columns for a key-frame set. Masked keys get zero weight exactly.
Logits and reductions run in float64.

One core, `_attend`, serves every variant. It takes several masks at once
and makes one pass over the query frames, computing the logits of every
key frame that some mask admits once. Each query row's logits are shifted
by one max that no set depends on, the max over the row's own frame,
which every window admits (see `_attend`). So a key frame's weighted
values and row sum simply add up across the frames of a set, with no
log-sum-exp rescaling (the online softmax of Milakov & Gimelshein 2018,
with its bookkeeping gone). Nested windows therefore cost one pass of the
widest, and each set's output equals the same set run alone, bit for bit.

Keys are stored transposed per frame, a (T, d+1, tpf) stack, so the
logits matmul of every key frame reads one contiguous (d+1, tpf) block.

Query frames are independent, so `_attend` splits them across threads
through `config.run_shares`, `config.pool_width()` shares wide: the
number of usable cores, capped by SPFU_THREADS when that is set above 0,
else by OMP_NUM_THREADS. Each share has its own logits, partial and
total buffers and writes only its own frames' output rows. A frame's
query rows are taken in chunks small enough that every matmul has
M*N*K <= 2**18, the size OpenBLAS runs on the calling thread, so the
threads never queue for OpenBLAS's own pool. Each small numpy call hands
the GIL from one thread to another, so the shares make as few as they
can: the frame sets are planned once per call on the calling thread
(`_frame_plans`), and each chunk ends in one divide and one fallback test
for all sets. Every row is computed by the same operations in the same
order whichever thread runs it, so outputs are bit-identical at every
width.

Frame-level attention maps run through the same core: `frame_attention`
passes a one-hot frame indicator as the values, so each output row is the
weight mass its query puts on every key frame, and the (T, T) map costs
O(n * T) memory. `attention_map` keeps the dense (n, n) weights as a
diagnostic and test oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .analysis import AttnMap
from .config import check_integer, check_real
from .errors import InvalidParameterError, ShapeMismatchError
from .tensor_core import check_array

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
# weight under the own-frame shift falls below this, or is not finite:
# the set excludes the row's own frame and every weight it admits sits
# near the bottom of float64's exponent range, or an admitted frame sits
# so far above the own-frame max that the weights overflow.
_MIN_ROW_SUM = 1e-290


def _validate_frames(frame_index, n_tokens: int) -> np.ndarray:
    """Canonical token layout, as a read-only copy: frames 0..T-1, non-decreasing, equal counts."""
    frames = check_array(frame_index, "frame_index", 1, np.int64, InvalidParameterError, copy=True)
    if frames.shape != (n_tokens,):
        raise ShapeMismatchError("frame_index length must match token count")
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

    Features pass `check_array` as finite reals and frame ids as integers.
    Frame ids are non-decreasing and every frame in [0, T) owns the same
    number of tokens (the H*W spatial positions of that frame). Both arrays
    are read-only, C-contiguous copies of the inputs, so the caller's arrays
    are neither aliased nor frozen.
    """

    features: np.ndarray
    frame_index: np.ndarray

    def __post_init__(self):
        feats = check_array(self.features, "token features", 2, copy=True)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "frame_index", _validate_frames(self.frame_index, len(feats)))

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
        check_integer(self.span_frames, "span_frames", minimum=1)
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

    One d-MAC per admitted query-key token pair for the logit and one for
    the value accumulation; softmax arithmetic is excluded. Counts come
    from the (T, T) admitted-frame matrices, not from the core: a set's
    logical MACs are admitted.sum() * tpf**2 * 2d, and a pass shared by
    stacked sets does admitted.any(0).sum() * tpf**2 * 2d physically.
    """

    macs: int = 0

    def add(self, n: int) -> None:
        self.macs += int(n)


def project_qkv(tokens: TokenSequence, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the three d_model x d_model projections row-wise (y = x @ W); each must be finite."""
    d = tokens.d_model
    w_q, w_k, w_v = (check_array(w, f"{name} weights", 2)
                     for name, w in zip(("query", "key", "value"), weights, strict=True))
    for name, w in (("query", w_q), ("key", w_k), ("value", w_v)):
        if w.shape != (d, d):
            raise ShapeMismatchError(f"{name} weights must be ({d}, {d}), got {w.shape}")
    feats = tokens.features
    return feats @ w_q, feats @ w_k, feats @ w_v


def _check_qkv(q, k, v, frame_index):
    """The one operand check of every attention entry: finite float64 q, k, v, frame ids, T."""
    q, k, v = (check_array(x, name, 2) for name, x in zip("qkv", (q, k, v)))
    if not (q.shape[0] == k.shape[0] == v.shape[0]):
        raise ShapeMismatchError("Q, K, V must agree on token count")
    if q.shape[1] != k.shape[1]:
        raise ShapeMismatchError("Q and K must share the key dimension")
    frames = _validate_frames(frame_index, q.shape[0])
    return q, k, v, frames, int(frames[-1]) + 1


def _frame_set(t: int, window: AttentionWindow | None = None, keyframes=None) -> np.ndarray:
    """The key frames each query frame admits, as a read-only (T, T) bool matrix.

    Row i is True at the key frames query frame i admits (see the module
    docstring). Exactly one of `window` / `keyframes` selects the set;
    both None means the whole sequence.
    """
    if window is not None and keyframes is not None:
        raise InvalidParameterError("pass either window or keyframes, not both")
    ids = np.arange(t)
    if keyframes is not None:
        if isinstance(keyframes, (set, frozenset)):  # numpy reads a set as one object
            keyframes = list(keyframes)
        keys = np.unique(check_array(keyframes, "keyframes", 1, np.int64, InvalidParameterError))
        if keys[0] < 0 or keys[-1] >= t:
            raise InvalidParameterError(f"keyframes must lie in [0, {t}), got {keys.tolist()}")
        admitted = np.broadcast_to(np.isin(ids, keys), (t, t))
    elif window is None or window.kind == "global":
        if window is not None and window.span_frames < t:
            raise InvalidParameterError("global window must span the whole sequence")
        admitted = np.broadcast_to(True, (t, t))
    else:
        admitted = np.abs(ids[:, None] - ids) < max(1, window.span_frames // 2)
        admitted.flags.writeable = False
    return admitted


def _frame_index(ids: np.ndarray) -> slice | np.ndarray:
    """Ascending frame ids as a slice when they are contiguous, else as they are."""
    lo, hi = int(ids[0]), int(ids[-1]) + 1
    return slice(lo, hi) if hi - lo == ids.size else ids


def _share_buffers(t: int, sets: int, group: int, rows: int, tpf: int,
                   dv: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One share's scratch for query-row chunks of `rows`: a logits block
    of `group` key frames, every key frame's augmented partial sums, and
    each set's summed partials."""
    return (np.empty((group, rows, tpf)), np.empty((t, rows, dv + 1)),
            np.empty((sets, rows, dv + 1)))


def _frame_plans(admitted: np.ndarray, group: int) -> list[tuple[list, list]]:
    """For each query frame, the (keys, count) groups of at most `group`
    key frames that cover the union of the (sets, T, T) stack's rows, and
    each set's frames; key frames are `_frame_index` values."""
    plans = []
    for sets in admitted.transpose(1, 0, 2):
        union = np.flatnonzero(sets.any(axis=0))
        groups = [(_frame_index(part), part.size)
                  for part in (union[s : s + group] for s in range(0, union.size, group))]
        plans.append((groups, [_frame_index(np.flatnonzero(row)) for row in sets]))
    return plans


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row softmax of a (rows, keys) block in place, shifted by each row's max."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _exact_rows(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Attention of query rows q over the (J, tpf, .) key and value blocks
    k, v, shifted by each row's true max: the own-frame shift's fallback."""
    logits = q @ k.reshape(-1, k.shape[-1]).T
    return _softmax_rows(logits) @ v.reshape(-1, v.shape[-1])


def _attend_frames(q3, kt3, v3, plans, outs, frame_ids, buffers) -> None:
    """`_attend`'s work for the query frames `frame_ids`, in `buffers` of its own.

    q3 and v3 carry the extra column (shift, ones) and kt3 the extra row
    (ones) of `_attend`; `plans` are `_frame_plans`. Writes only those
    frames' rows of `outs` and of q3's shift column, and calls only numpy,
    so it can run on a pool thread next to other shares. Per query-row
    chunk it makes one `exp` and two matmuls per key group, one sum per
    set, and one divide and one fallback test for all sets; only when
    that test fails does it look for each set's rows to recompute.
    Floating-point errors are ignored on the shifted path, whose failures
    the fallback catches, and follow the caller's np.errstate in the
    fallback.
    """
    tpf = q3.shape[1]
    block, partial, totals = buffers
    rows = block.shape[1]
    caller = np.geterr()
    with np.errstate(all="ignore"):
        for i in frame_ids:
            groups, sets = plans[i]
            for r0 in range(0, tpf, rows):
                m = min(rows, tpf - r0)
                chunk = q3[i, r0 : r0 + m]
                own = np.matmul(chunk[:, :-1], kt3[i, :-1], out=block[0, :m])
                chunk[:, -1] = -own.max(axis=1)
                for keys, count in groups:
                    weights = np.matmul(chunk, kt3[keys], out=block[:count, :m])
                    np.exp(weights, out=weights)
                    if isinstance(keys, slice):
                        np.matmul(weights, v3[keys], out=partial[keys, :m])
                    else:
                        partial[keys, :m] = weights @ v3[keys]
                for s, keys in enumerate(sets):
                    np.sum(partial[keys, :m], axis=0, out=totals[s, :m])
                rows_out = outs[:, i, r0 : r0 + m]
                np.divide(totals[:, :m, :-1], totals[:, :m, -1:], out=rows_out)
                if totals[:, :m, -1].min() >= _MIN_ROW_SUM and np.isfinite(totals[:, :m]).all():
                    continue
                for s, keys in enumerate(sets):
                    total = totals[s, :m]
                    lost = ~((total[:, -1] >= _MIN_ROW_SUM) & np.isfinite(total).all(axis=1))
                    if lost.any():
                        with np.errstate(**caller):
                            rows_out[s, lost] = _exact_rows(
                                q3[i, r0 + np.flatnonzero(lost), :-1],
                                kt3[keys, :-1].transpose(0, 2, 1), v3[keys, :, :-1])


def _attend(q, k, v, frame_sets) -> list[np.ndarray]:
    """One-pass multi-window attention core; one (n, d_v) output per frame set.

    q, k, v come from `_check_qkv`; each (T, T) frame set from `_frame_set`. For
    each query frame i, the logits of every key frame in the union of the
    sets' rows i are computed once, as stacked (J, rows, tpf) matmuls over
    groups of frames sized to stay in cache, one chunk of the frame's query
    rows at a time. Keys are stored transposed per frame, as a (T, d+1,
    tpf) stack, so each matmul reads a contiguous (d+1, tpf) block per key
    frame rather than a strided transposed view. Query row r is shifted by
    m_r, the max of its logits over its own frame's keys, which each share
    computes per chunk before the chunk's other logits. Every window admits
    the own frame, so a window's row sum is at least about 1. The shift is
    folded into the logits matmul (a -m_r column of the scaled Q meets a
    ones row of the transposed K) and the row sum into the value matmul (a
    ones column of V), so key frame j yields p_j = exp(logit - m_r) @ [V_j
    | 1] after one `exp` pass. A set's rows are sum_j p_j[:, :dv] / sum_j
    p_j[:, dv] over its own frames, added in ascending frame order; a row
    whose sum is below `_MIN_ROW_SUM` or not finite is recomputed with the
    set's own row max. Neither the shift nor the fallback depends on the
    other sets, so a set's output is bit-identical to the same set run
    alone. The key groups and the sets' frames of every query frame are
    planned once, on the calling thread (`_frame_plans`). Query frames are
    split across `config.pool_width()` threads (see the module docstring)
    and the output does not depend on the width. The core counts no work
    (see `MacCounter` for reading counts off the matrices).
    """
    t = len(frame_sets[0])
    tpf = len(q) // t
    d, dv = q.shape[1], v.shape[1]
    rows = max(1, min(tpf, _SERIAL_GEMM_MACS // (tpf * max(d + 1, dv + 1))))
    group = min(t, max(1, _BLOCK_BYTES // (8 * rows * tpf)))
    # Each share writes its own rows' shifts into q3's last column.
    q3 = np.column_stack((q * (1.0 / math.sqrt(d)), np.empty(len(q)))).reshape(t, tpf, d + 1)
    kt3 = np.empty((t, d + 1, tpf))
    kt3[:, :d] = k.reshape(t, tpf, d).transpose(0, 2, 1)
    kt3[:, d] = 1.0
    v3 = np.column_stack((v, np.ones(len(v)))).reshape(t, tpf, dv + 1)
    outs = np.empty((len(frame_sets), t, tpf, dv), dtype=np.float64)
    plans = _frame_plans(np.stack(frame_sets), group)
    config.run_shares(functools.partial(_attend_frames, q3, kt3, v3, plans, outs), t,
                      lambda: _share_buffers(t, len(frame_sets), group, rows, tpf, dv))
    return [out.reshape(t * tpf, dv) for out in outs]


def _one_set_attention(q, k, v, frame_index, counter: MacCounter | None,
                       **frame_set) -> TokenSequence:
    """Attention under one `_frame_set`; `counter`, if not None, gets its logical MACs."""
    q, k, v, frames, t = _check_qkv(q, k, v, frame_index)
    admitted = _frame_set(t, **frame_set)
    (out,) = _attend(q, k, v, [admitted])
    if counter is not None:
        counter.add(int(admitted.sum()) * (len(q) // t) ** 2 * 2 * q.shape[1])
    return TokenSequence(out, frames)


def masked_attention(q, k, v, frame_index, window: AttentionWindow,
                     counter: MacCounter | None = None) -> TokenSequence:
    """Windowed (or global) attention under the frame-distance mask rule."""
    return _one_set_attention(q, k, v, frame_index, counter, window=window)


def uniform_keyframes(num_frames: int, fraction: float) -> np.ndarray:
    """ceil(fraction * T) evenly spaced frame ids, ascending, starting at 0.

    The j-th key frame is ceil(j * T / count); spacing is as even as
    integer indices allow and frame 0 is always included.
    """
    fraction = check_real(fraction, "fraction", 0, 1, low_open=True)
    num_frames = check_integer(num_frames, "num_frames", minimum=1)
    count = math.ceil(fraction * num_frames)
    return np.array([-(-j * num_frames // count) for j in range(count)], dtype=np.int64)


def sparse_attention(q, k, v, frame_index, keyframes,
                     counter: MacCounter | None = None) -> TokenSequence:
    """Attention whose keys are restricted to the given frames.

    With keyframes covering every frame this reduces to global attention
    bit-for-bit (same frame blocks, same merge order).
    """
    return _one_set_attention(q, k, v, frame_index, counter, keyframes=keyframes)


def attention_map(q, k, frame_index, window: AttentionWindow | None = None,
                  keyframes=None) -> np.ndarray:
    """Dense (n, n) row-stochastic attention weights, zeros at masked keys.

    Exactly one of `window` / `keyframes` selects the mask; both None
    means global attention. A diagnostic and the test oracle of
    `frame_attention`: memory is quadratic in the token count (2 GiB at
    16384 tokens), so frame-level maps come from `frame_attention`.
    """
    q, k, _, _, t = _check_qkv(q, k, q, frame_index)
    admitted = _frame_set(t, window=window, keyframes=keyframes)
    tpf, d = len(q) // t, q.shape[1]
    q3 = (q * (1.0 / math.sqrt(d))).reshape(t, tpf, d)
    k3 = k.reshape(t, tpf, d)
    # Query frame i's rows, as (tpf, T, tpf) blocks per key frame.
    weights = np.zeros((t, tpf, t, tpf), dtype=np.float64)
    for i in range(t):
        keys = _frame_index(np.flatnonzero(admitted[i]))
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
    q, k, _, frames, t = _check_qkv(q, k, q, frame_index)
    onehot = (frames[:, None] == np.arange(t)).astype(np.float64)
    (mass,) = _attend(q, k, onehot, [_frame_set(t, window=window, keyframes=keyframes)])
    pooled = mass.reshape(t, -1, t).mean(axis=1)
    return AttnMap(pooled / pooled.sum(axis=1, keepdims=True))
