"""Branch attention plus frequency-domain fusion.

The `FusionPlan` alone describes the branches: branch i runs at scale
plan.alphas[i] (ascending, local to global) and owns mask i. One fusion
path: every branch comes from one pass of the multi-window attention core
on shared Q, K, V, and `_masked_sum` sums the branches' mask-weighted
spectra in float64 (the masks must form a partition of unity). Branches
are real, so the sum is kept in the masks' real-input half layout
(`spectral._half_layout`): transformed only along the axes the masks vary
on, T alone for temporal masks and (T, H, W) for radial ones, with the
last of them halved. The sum runs over blocks of whole channels, each at
most `_BLOCK_BYTES` of float64 input (one channel at least), so a block's
transforms stay in cache. `_fuse` inverts each block's sum
(`spectral._irfftn_real`) straight into its channels of the result, with
the blocks split across the threads of `config.run_shares`. Each block's
sum must be finite; after every block, the imaginary residue on the last
axis's self-conjugate planes is checked once over the whole result. The
output is bit-identical at every block size and thread count. The masks, built
once where they are used and after the attention pass, pick the scheme:
one hard band per scale (`band_masks`, in `multiband_attention`) or the
Gaussian low-pass pair [1 - P, P] (`spectral_blend_attention`, low band
from the global branch). Branch outputs stay float64 up to the returned
tokens; float32 `VideoLatent`s appear only at the latent API.

Token <-> latent mapping: d_model is the channel axis; tokens are ordered
frame-major, then row-major over (H, W). Branch windows saturate to fully
global attention once alpha * t_alpha covers the sequence, so plans leave
short inputs unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .attention import (
    _BLOCK_BYTES,
    AttentionWindow,
    TokenSequence,
    _attend,
    _check_qkv,
    _frame_set,
    project_qkv,
    uniform_keyframes,
)
from .errors import (InvalidParameterError, InvalidPlanError, NonFiniteValueError,
                     ShapeMismatchError)
from .spectral import (DOMAIN_MODES, FrequencyMask, _check_alphas, _check_residue, _half_layout,
                       _half_shape, _irfftn_real, _rfftn, band_masks, gaussian_lowpass)
from .tensor_core import VideoLatent, check_array

PARTITION_TOLERANCE = 1e-6
IMAG_RESIDUE_LIMIT = 1e-5
SPARSE_KEY_FRACTION = 0.5


def _token_rows(grid: np.ndarray) -> np.ndarray:
    """(C, T, H, W) values as (T*H*W, C) token rows in the canonical order."""
    return grid.transpose(1, 2, 3, 0).reshape(-1, grid.shape[0])


def _check_spatial(spatial: tuple[int, int], tpf: int) -> tuple[int, int]:
    h, w = (config.check_integer(n, "spatial", ShapeMismatchError, minimum=1) for n in spatial)
    if h * w != tpf:
        raise ShapeMismatchError(f"spatial {h}x{w} does not factor {tpf} tokens per frame")
    return h, w


def _latent_grid(features: np.ndarray, t: int, spatial: tuple[int, int]) -> np.ndarray:
    """Inverse of _token_rows, as a view; needs the (H, W) factorization."""
    n, c = features.shape
    return features.reshape(t, *_check_spatial(spatial, n // t), c).transpose(3, 0, 1, 2)


def tokens_from_latent(latent: VideoLatent) -> TokenSequence:
    """Flatten a (C, T, H, W) latent to tokens in the canonical order."""
    t, h, w = latent.shape[1:]
    frames = np.repeat(np.arange(t, dtype=np.int64), h * w)
    return TokenSequence(_token_rows(latent.data.astype(np.float64)), frames)


def latent_from_tokens(tokens: TokenSequence, spatial: tuple[int, int]) -> VideoLatent:
    """Inverse of tokens_from_latent; needs the (H, W) factorization."""
    return VideoLatent(_latent_grid(tokens.features, tokens.num_frames, spatial))


@dataclass(frozen=True)
class FusionPlan:
    """Branch layout: native length, ascending scales, options.

    Branch i attends within alphas[i] * t_alpha frames and owns band i of
    `band_masks(alphas, ...)`: the finest scale the highest frequencies, the
    coarsest the lowest. `domain_mode` selects how masks measure frequency
    ("temporal" or "radial"). `sparse_global` switches the largest branch to
    key-frame attention over half the frames. `d0` is the Gaussian low-pass
    stop frequency, read only by `spectral_blend_attention`, which
    `harness.run_stack` picks for two-scale plans; the `fuse` CLI runs those
    through hard bands, so the two entry points disagree on them.
    """

    t_alpha: int
    alphas: tuple[int, ...]
    sparse_global: bool = False
    domain_mode: str = "temporal"
    d0: float = 0.25

    def __post_init__(self):
        config.check_integer(self.t_alpha, "t_alpha", minimum=1)
        alphas = _check_alphas(self.alphas, InvalidPlanError)
        if not isinstance(self.sparse_global, bool):
            raise InvalidParameterError(f"sparse_global must be a bool, got {self.sparse_global!r}")
        object.__setattr__(self, "d0", config.check_real(self.d0, "d0", 0, 1, low_open=True))
        if self.domain_mode not in DOMAIN_MODES:
            raise InvalidParameterError(f"unknown domain_mode {self.domain_mode!r}")
        object.__setattr__(self, "alphas", alphas)

    def validate_for(self, num_frames: int) -> None:
        if self.alphas[-1] * self.t_alpha < num_frames:
            raise InvalidPlanError(
                f"largest window {self.alphas[-1]}*{self.t_alpha} does not cover "
                f"{num_frames} frames"
            )

    @classmethod
    def from_text(cls, text: str) -> "FusionPlan":
        return cls(**config.read_record(text, "plan", {
            "t_alpha": config.parse_number,
            "alphas": config.parse_list,
            "sparse_global": config.parse_bool,
            "domain_mode": lambda value, key: value,
            "d0": config.parse_float,
        }, required=("t_alpha", "alphas")))


def _check_partition(masks) -> None:
    total = np.zeros(masks[0].shape, dtype=np.float64)
    for mask in masks:
        if mask.shape != masks[0].shape:
            raise ShapeMismatchError("mask shapes differ")
        total += mask.weights
    err = float(np.abs(total - 1.0).max())
    if err > PARTITION_TOLERANCE:
        raise InvalidPlanError(f"masks do not form a partition of unity (max error {err:.3e})")


def _fusion_operands(branch_outputs, masks):
    """The checked operands of a fusion: branch arrays, half weights, axes, channel blocks.

    Branch outputs are VideoLatents or (C, T, H, W) arrays that pass
    `check_array`, uncopied, one per mask, all of one shape; the masks
    must form a partition of unity. Returns the branches' arrays, each
    mask's weights in the masks' half layout (`spectral._half_layout`),
    the layout's axes, and the channel blocks as slices: each holds at
    most `_BLOCK_BYTES` of float64 input, so a block's transforms stay in
    cache, and never less than one channel.
    """
    if len(branch_outputs) != len(masks):
        raise InvalidParameterError("need one mask per branch output")
    if not branch_outputs:
        raise InvalidParameterError("need at least one branch")
    data = [b.data if isinstance(b, VideoLatent) else check_array(b, "branch outputs", 4)
            for b in branch_outputs]
    shape = data[0].shape
    if any(x.shape != shape for x in data):
        raise ShapeMismatchError(f"latent shapes differ: {[x.shape for x in data]}")
    if masks[0].shape != shape[1:]:
        raise ShapeMismatchError(f"mask shape {masks[0].shape} does not match latent {shape[1:]}")
    _check_partition(masks)
    axes, index = _half_layout(*(mask.weights for mask in masks))
    per = max(1, _BLOCK_BYTES // (8 * math.prod(shape[1:])))
    blocks = [slice(lo, min(lo + per, shape[0])) for lo in range(0, shape[0], per)]
    return data, [mask.weights[index] for mask in masks], axes, blocks


def _block_scratch(shape, axes) -> tuple[np.ndarray, np.ndarray]:
    """`_masked_sum`'s scratch for blocks of up to shape[0] channels of a
    (C, T, H, W) `shape`: a float64 staging block and one branch's masked
    spectrum."""
    return np.empty(shape), np.empty(_half_shape(shape, axes), dtype=np.complex128)


def _masked_sum(data, weights, axes, block: slice, total: np.ndarray, scratch) -> None:
    """Channels `block` of every branch's masked spectrum, summed in branch order into `total`.

    The one masked-sum path. Each branch's channels are staged in float64
    in scratch[0] and transformed by `_rfftn` over the masks' axes; the
    masks are constant along the other axes, so leaving those
    untransformed changes nothing the inverse returns. At bins where a
    branch's mask is zero its contribution is exactly zero, so branches
    cannot leak outside their band. Raises NonFiniteValueError if the sum
    is not finite.
    """
    stage, term = (buf[: block.stop - block.start] for buf in scratch)
    for i, (x, w) in enumerate(zip(data, weights)):
        np.copyto(stage, x[block])
        spectrum = _rfftn(stage, axes, out=term if i else total)
        spectrum *= w
        if i:
            total += term
    if not np.isfinite(total).all():
        raise NonFiniteValueError("spectrum values must be finite")


def fused_spectrum(branch_outputs, masks) -> np.ndarray:
    """Sum of masked branch spectra, in branch order, as a complex128 half spectrum.

    The sum is in the masks' half layout (`spectral._half_layout`),
    computed one channel block at a time by `_masked_sum`. Raises
    NonFiniteValueError if it is not finite.
    """
    data, weights, axes, blocks = _fusion_operands(branch_outputs, masks)
    total = np.empty(_half_shape(data[0].shape, axes), dtype=np.complex128)
    scratch = _block_scratch((blocks[0].stop, *data[0].shape[1:]), axes)
    for block in blocks:
        _masked_sum(data, weights, axes, block, total[block], scratch)
    return total


def _fuse(branch_outputs, masks) -> np.ndarray:
    """Inverse of `fused_spectrum`, residue-checked, as a float64 (C, T, H, W) array.

    Streams over the channel blocks: each block's masked sum goes to its
    share's own accumulator and is inverted by `_irfftn_real` straight
    into the block's channels of the result. `config.run_shares` splits
    the blocks, each share with its own accumulator and scratch. A
    block whose sum is not finite raises NonFiniteValueError, which
    `config.run_shares` passes on once every share has stopped; after
    every block, the residue is checked once against the largest output
    of the whole result. Each channel is computed by the same operations
    whichever block or thread runs it, so the output does not depend on
    either.
    """
    data, weights, axes, blocks = _fusion_operands(branch_outputs, masks)
    n = masks[0].shape[axes[-1]]
    out = np.empty(data[0].shape)
    # Per block: its residue and its largest |output|.
    stats = np.zeros((len(blocks), 2))

    def run(share, buffers):
        acc, scratch = buffers
        for j in share:
            total = acc[: blocks[j].stop - blocks[j].start]
            _masked_sum(data, weights, axes, blocks[j], total, scratch)
            stats[j] = _irfftn_real(total, axes, n, out[blocks[j]])

    block_shape = (blocks[0].stop, *out.shape[1:])
    config.run_shares(run, len(blocks),
                      lambda: (np.empty(_half_shape(block_shape, axes), dtype=np.complex128),
                               _block_scratch(block_shape, axes)))
    _check_residue(stats[:, 0].max(), stats[:, 1].max(), IMAG_RESIDUE_LIMIT)
    return out


def multiband_fuse(branch_outputs, masks) -> VideoLatent:
    """Inverse transform of the mask-weighted spectrum sum."""
    return VideoLatent(_fuse(branch_outputs, masks))


def spectral_blend(z_global: VideoLatent, z_local: VideoLatent,
                   lpf: FrequencyMask) -> VideoLatent:
    """Low band of the global latent plus high band of the local latent.

    The two-band case of multiband_fuse, with masks [1 - P, P] over
    [z_local, z_global]: ifft3(fft3(z_local) * (1 - P) + fft3(z_global) * P).
    """
    return multiband_fuse([z_local, z_global], [lpf.complement(), lpf])


def _branch_sets(plan: FusionPlan, t: int) -> list[np.ndarray]:
    """The (T, T) admitted-frame matrices of `plan`'s branches at t frames, in plan order."""
    last = len(plan.alphas) - 1
    return [
        _frame_set(t, keyframes=uniform_keyframes(t, SPARSE_KEY_FRACTION))
        if plan.sparse_global and i == last
        else _frame_set(t, window=AttentionWindow.for_span(alpha * plan.t_alpha, t))
        for i, alpha in enumerate(plan.alphas)
    ]


def _branch_latents(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                    spatial: tuple[int, int]) -> list[np.ndarray]:
    """Run every branch of `plan` in one attention pass on shared projections.

    Returns one float64 (C, T, H, W) array per branch, in plan order.
    """
    plan.validate_for(tokens.num_frames)
    _check_spatial(spatial, tokens.tokens_per_frame)
    q, k, v, _, t = _check_qkv(*project_qkv(tokens, qkv_weights), tokens.frame_index)
    outs = _attend(q, k, v, _branch_sets(plan, t))
    return [_latent_grid(out, t, spatial) for out in outs]


def _fused_attention(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                     spatial: tuple[int, int], masks_for) -> TokenSequence:
    """`plan`'s branches fused by `masks_for(grid)`, one mask per alpha: any partition of unity.

    The masks are built from the (T, H, W) grid after the attention pass,
    so they are not alive through it; the plan and `spatial` are checked
    before it.
    """
    branch_outputs = _branch_latents(tokens, qkv_weights, plan, spatial)
    masks = masks_for(branch_outputs[0].shape[1:])
    return TokenSequence(_token_rows(_fuse(branch_outputs, masks)), tokens.frame_index)


def spectral_blend_attention(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                             spatial: tuple[int, int]) -> TokenSequence:
    """Two-branch attention fused through the Gaussian low-pass split.

    The plan must hold exactly two scales with the finer one at 1; the
    coarser branch runs globally (its window covers the sequence by the
    plan invariant) and contributes the low band. This is the fusion of
    `multiband_attention` with the masks [1 - P, P] of the plan's
    low-pass filter P in place of the hard bands.
    """
    if len(plan.alphas) != 2 or plan.alphas[0] != 1:
        raise InvalidPlanError(f"blend plan needs alphas (1, global), got {plan.alphas}")

    def lowpass_pair(grid):
        lpf = gaussian_lowpass(grid, plan.d0, plan.domain_mode)
        return [lpf.complement(), lpf]

    return _fused_attention(tokens, qkv_weights, plan, spatial, lowpass_pair)


def multiband_attention(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                        spatial: tuple[int, int]) -> TokenSequence:
    """Per-scale windowed attention fused band-by-band (`band_masks`)."""
    return _fused_attention(tokens, qkv_weights, plan, spatial,
                            lambda grid: band_masks(plan.alphas, grid, plan.domain_mode))
