"""The dense attention oracle and the admitted-frame rule, written once for every test."""

import numpy as np


def admitted_by_rule(t: int, window=None, keyframes=None) -> np.ndarray:
    """The (T, T) key frames each query frame admits, by the documented rule.

    A local window of span s admits |i - j| < s // 2, relaxed to the query's
    own frame when s // 2 == 0; a global window (or none) admits every frame;
    a key-frame set admits its key-frame columns.
    """
    i, j = np.indices((t, t))
    if keyframes is not None:
        return np.isin(j, list(keyframes))
    if window is None or window.kind == "global":
        return np.ones((t, t), dtype=bool)
    return (np.abs(i - j) < window.span_frames // 2) | (i == j)


def frame_oracle(q, k, v, frames, admitted: np.ndarray) -> np.ndarray:
    """Full-matrix attention with -inf logits wherever admitted[fi, fj] is False."""
    logits = (q @ k.T) / np.sqrt(q.shape[1])
    logits[~admitted[frames][:, frames]] = -np.inf
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (w / w.sum(axis=1, keepdims=True)) @ v
