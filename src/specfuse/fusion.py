"""Branch attention plus frequency-domain fusion.

The `FusionPlan` alone describes the branches: branch i runs at scale
plan.alphas[i] (ascending, local to global) and owns mask i. One fusion
path: every branch comes from one pass of the multi-window attention core
on shared Q, K, V, projected straight into the core's operand stacks and
held once (see `attention`'s docstring for the layout and the pass's
working set). The masks M_b must sum to 1, so the fused latent is
x_0 + IFFT(sum_{b>=1} M_b * F(x_b - x_0)): `_masked_sum` sums in float64
the masked spectra of the branches' differences from branch 0, and mask 0
is read only by the partition check. Against the literal sum_b M_b * F(x_b)
that errs by (1 - sum_b M_b) * F(x_0), at most `PARTITION_TOLERANCE` *
|F(x_0)|: exactly 0 for `band_masks`, rounding-level for [1 - P, P]. Branches
are real, so the sum is kept in the masks' real-input half layout
(`spectral._half_layout`): transformed only along the axes the masks vary
on, T alone for temporal masks and (T, H, W) for radial ones, with the
last of them halved. The sum runs over blocks of whole channels
(`_fusion_operands`); `_fuse` inverts each block's sum straight into its
channels of the result and adds branch 0's, with the blocks split across
the threads of `config.run_shares`, and the output is bit-identical at
every block size and thread count. The masks, built once where they are
used and after the attention pass, pick the scheme:
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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .attention import (
    _BLOCK_BYTES,
    AttentionWindow,
    TokenSequence,
    _attend_stacks,
    _frame_set,
    _projected_stacks,
    uniform_keyframes,
)
from .errors import (InvalidParameterError, InvalidPlanError, NonFiniteValueError,
                     ShapeMismatchError)
from .spectral import (FrequencyMask, _check_alphas, _check_residue, _half_layout,
                       _half_shape, _irfftn_real, _rfftn, band_masks, gaussian_lowpass)
from .tensor_core import VideoLatent, check_array, check_shape

PARTITION_TOLERANCE = 1e-6
IMAG_RESIDUE_LIMIT = 1e-5
SPARSE_KEY_FRACTION = 0.5


def _token_rows(grid: np.ndarray) -> np.ndarray:
    """(C, T, H, W) values as (T*H*W, C) token rows in the canonical order."""
    return grid.transpose(1, 2, 3, 0).reshape(-1, grid.shape[0])


def _check_spatial(spatial: tuple[int, int], tpf: int) -> tuple[int, int]:
    h, w = config.check_sequence(spatial, "spatial", ShapeMismatchError, 2, config.check_size)
    if h * w != tpf:
        raise ShapeMismatchError(f"spatial {h}x{w} does not factor {tpf} tokens per frame")
    return h, w


def _latent_grid(features: np.ndarray, t: int, spatial: tuple[int, int]) -> np.ndarray:
    """Inverse of _token_rows, as a view; needs the (H, W) factorization."""
    n, c = features.shape
    return features.reshape(t, *_check_spatial(spatial, n // t), c).transpose(3, 0, 1, 2)


def tokens_from_latent(latent: VideoLatent) -> TokenSequence:
    """Flatten a (C, T, H, W) latent to tokens in the canonical order."""
    t, h, w = config.check_instance(latent, "latent", kind=VideoLatent).shape[1:]
    frames = np.repeat(np.arange(t, dtype=np.int64), h * w)
    return TokenSequence(_token_rows(latent.data), frames)


def latent_from_tokens(tokens: TokenSequence, spatial: tuple[int, int]) -> VideoLatent:
    """Inverse of tokens_from_latent; a `spatial` not the (H, W) of a frame: ShapeMismatchError."""
    config.check_instance(tokens, "tokens", kind=TokenSequence)
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
        config.check_instance(self.sparse_global, "sparse_global", kind=bool)
        object.__setattr__(self, "d0", config.check_real(self.d0, "d0", 0, 1, low_open=True))
        config.check_choice(self.domain_mode, "domain_mode", config.DOMAIN_MODES)
        object.__setattr__(self, "alphas", alphas)

    def validate_for(self, num_frames: int) -> None:
        num_frames = config.check_integer(num_frames, "num_frames", minimum=1)
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
        total += mask.weights
    err = float(np.abs(total - 1.0).max())
    if err > PARTITION_TOLERANCE:
        raise InvalidPlanError(f"masks do not form a partition of unity (max error {err:.3e})")


def _fusion_operands(branch_outputs, masks):
    """The checked operands of a fusion: branch arrays, half weights, axes, channel blocks.

    Branch outputs are a sequence (else InvalidParameterError) of
    VideoLatents or (C, T, H, W) arrays that pass `check_array`, uncopied,
    all of one shape; the masks, one per branch output and each of the
    branches' (T, H, W), must form a partition of unity. Returns the
    branches' arrays, the weights of masks 1.. in their half layout
    (`spectral._half_layout`), its axes, and the channel blocks as slices:
    each holds at most `_BLOCK_BYTES` of float64 input, so a block's
    transforms stay in cache, and never less than one channel.
    """
    branch_outputs = config.check_sequence(branch_outputs, "branch outputs")
    masks = config.check_sequence(masks, "masks", length=len(branch_outputs),
                                  item=functools.partial(config.check_instance, kind=FrequencyMask))
    if not branch_outputs:
        raise InvalidParameterError("need at least one branch")
    data = [b.data if isinstance(b, VideoLatent) else check_array(b, "branch outputs", 4)
            for b in branch_outputs]
    shape = data[0].shape
    for x, mask in zip(data, masks):
        check_shape(x, "branch outputs", shape)
        check_shape(mask.weights, "masks", shape[1:])
    _check_partition(masks)
    axes, index = _half_layout(*(mask.weights for mask in masks[1:] or masks))
    per = max(1, _BLOCK_BYTES // (8 * math.prod(shape[1:])))
    blocks = [slice(lo, min(lo + per, shape[0])) for lo in range(0, shape[0], per)]
    return data, [mask.weights[index] for mask in masks[1:]], axes, blocks


def _block_scratch(shape, axes) -> tuple[np.ndarray, np.ndarray]:
    """`_masked_sum`'s scratch for blocks of up to shape[0] channels of a
    (C, T, H, W) `shape`: a float64 staging block and one branch's masked
    spectrum."""
    return np.empty(shape), np.empty(_half_shape(shape, axes), dtype=np.complex128)


def _masked_sum(data, weights, axes, block: slice, total: np.ndarray, scratch) -> None:
    """Channels `block` of sum_{b>=1} M_b * F(x_b - x_0), summed in branch order into `total`.

    The one masked-sum path; `weights` are masks 1.. (mask 0 is only
    checked), and one branch leaves `total` as it is. Each difference is
    staged in float64 in scratch[0] and transformed by `_rfftn` over the
    masks' axes, which leaves the others as the inverse needs them. A
    branch adds exactly zero at bins where its mask is zero, so it cannot
    leak outside its band. Raises NonFiniteValueError if the sum is not
    finite.
    """
    stage, term = (buf[: block.stop - block.start] for buf in scratch)
    for i, (x, w) in enumerate(zip(data[1:], weights)):
        np.subtract(x[block], data[0][block], out=stage, dtype=np.float64)
        spectrum = _rfftn(stage, axes, out=term if i else total)
        spectrum *= w
        if i:
            total += term
    if not np.isfinite(total).all():
        raise NonFiniteValueError("spectrum values must be finite")


def fused_spectrum(branch_outputs, masks) -> np.ndarray:
    """Sum of masked branch spectra as a complex128 half spectrum (`spectral._half_layout`).

    Per channel block, `_masked_sum` (zeros for one branch) plus F(x_0),
    within the module docstring's bound of sum_b M_b * F(x_b). Raises
    NonFiniteValueError if it is not finite; operands as in `_fusion_operands`.
    """
    data, weights, axes, blocks = _fusion_operands(branch_outputs, masks)
    total = np.zeros(_half_shape(data[0].shape, axes), dtype=np.complex128)
    _, term = scratch = _block_scratch((blocks[0].stop, *data[0].shape[1:]), axes)
    for block in blocks:
        _masked_sum(data, weights, axes, block, total[block], scratch)
        total[block] += _rfftn(data[0][block], axes, out=term[: block.stop - block.start])
    return check_array(total, "spectrum values", 4, np.complex128)


def _fuse(branch_outputs, masks) -> np.ndarray:
    """x_0 + IFFT(sum_{b>=1} M_b * F(x_b - x_0)), residue-checked, as float64 (C, T, H, W).

    Mask 0 is only checked, the bound is the module docstring's, and B
    branches cost B - 1 forward transforms and one inverse per channel
    block; one branch is returned with none. Each block's masked sum goes
    to its share's own accumulator (`config.run_shares`), is inverted by
    `_irfftn_real` into the block's channels of the result, and branch 0 is
    added. A block whose sum is not finite raises NonFiniteValueError, which
    `config.run_shares` passes on once every share has stopped; after every
    block, the imaginary residue on the last axis's self-conjugate planes is
    checked once against the largest output. Each channel takes the same
    operations whichever block or thread runs it.
    """
    data, weights, axes, blocks = _fusion_operands(branch_outputs, masks)
    if len(data) == 1:
        return np.array(data[0], dtype=np.float64)
    n = data[0].shape[1 + axes[-1]]
    out = np.empty(data[0].shape)
    # Per block: its residue and its largest |output|.
    stats = np.zeros((len(blocks), 2))

    def run(share, buffers):
        acc, scratch = buffers
        for j in share:
            block = out[blocks[j]]
            _masked_sum(data, weights, axes, blocks[j], acc[: len(block)], scratch)
            stats[j, 0] = _irfftn_real(acc[: len(block)], axes, n, block)[0]
            block += data[0][blocks[j]]
            stats[j, 1] = max(block.max(), -block.min())

    block_shape = (blocks[0].stop, *out.shape[1:])
    config.run_shares(run, len(blocks),
                      lambda: (np.empty(_half_shape(block_shape, axes), dtype=np.complex128),
                               _block_scratch(block_shape, axes)))
    _check_residue(stats[:, 0].max(), stats[:, 1].max(), IMAG_RESIDUE_LIMIT)
    return out


def multiband_fuse(branch_outputs, masks) -> VideoLatent:
    """Inverse transform of the mask-weighted spectrum sum; operands as in `_fusion_operands`."""
    return VideoLatent(_fuse(branch_outputs, masks))


def spectral_blend(z_global: VideoLatent, z_local: VideoLatent,
                   lpf: FrequencyMask) -> VideoLatent:
    """Low band of the global latent plus high band of the local latent.

    The two-band case of multiband_fuse, with masks [1 - P, P] over
    [z_local, z_global]: z_local + ifft3(fft3(z_global - z_local) * P), 1 - P
    only checked, within rounding of the literal two-band sum (module docstring).
    An `lpf` that is not a FrequencyMask raises InvalidParameterError.
    """
    config.check_instance(lpf, "lpf", kind=FrequencyMask)
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

    The token features are projected straight into the attention core's
    operand stacks (`attention._projected_stacks`), so Q, K and V are held
    once. Returns one float64 (C, T, H, W) array per branch, in plan order.
    """
    plan.validate_for(tokens.num_frames)
    spatial = _check_spatial(spatial, tokens.tokens_per_frame)
    t = tokens.num_frames
    outs = _attend_stacks(*_projected_stacks(tokens, qkv_weights), _branch_sets(plan, t))
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
    low-pass filter P in place of the hard bands; its errors are `multiband_attention`'s.
    """
    config.check_instance(tokens, "tokens", kind=TokenSequence)
    config.check_instance(plan, "plan", kind=FusionPlan)
    if len(plan.alphas) != 2 or plan.alphas[0] != 1:
        raise InvalidPlanError(f"blend plan needs alphas (1, global), got {plan.alphas}")

    def lowpass_pair(grid):
        lpf = gaussian_lowpass(grid, plan.d0, plan.domain_mode)
        return [lpf.complement(), lpf]

    return _fused_attention(tokens, qkv_weights, plan, spatial, lowpass_pair)


def multiband_attention(tokens: TokenSequence, qkv_weights, plan: FusionPlan,
                        spatial: tuple[int, int]) -> TokenSequence:
    """Per-scale windowed attention fused band-by-band (`band_masks`). Before the pass,
    not three `qkv_weights` raise InvalidParameterError, a bad `spatial` ShapeMismatchError."""
    config.check_instance(tokens, "tokens", kind=TokenSequence)
    config.check_instance(plan, "plan", kind=FusionPlan)
    return _fused_attention(tokens, qkv_weights, plan, spatial,
                            lambda grid: band_masks(plan.alphas, grid, plan.domain_mode))
