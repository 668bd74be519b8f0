"""The invariant registry: `CHECKS` names every built-in invariant once.

Two runners share it. `specfuse selftest` runs every check and prints one
line each plus a summary; pytest runs each check as its own tier-1 case
(tests/test_selftest.py). A check is the only definition of its invariant:
tests that assert the same thing call the check instead of restating it.

Every check is deterministic (fixed seeds, fixed shapes), so the transcript
is byte-stable across runs. Where several inputs feed one check, each input
keeps the tolerance it was first pinned at, never a looser one.
"""

from __future__ import annotations

import os
import sys
import tempfile
from unittest import mock

import numpy as np

from . import attention
from .analysis import aggregate_attention, band_energy, diagonality, relative_snr, uniform_band_edges
from .attention import (
    AttentionWindow,
    TokenSequence,
    _attend,
    _frame_set,
    attention_map,
    frame_attention,
    masked_attention,
    project_qkv,
    sparse_attention,
)
from .fusion import (
    FusionPlan,
    _branch_latents,
    _fuse,
    fused_spectrum,
    latent_from_tokens,
    multiband_attention,
    spectral_blend_attention,
    tokens_from_latent,
)
from .harness import SyntheticScene, Tone, block_weights, make_scene, run_stack
from .noise_init import SpecMixParams, base_noise, center_distance, specmix
from .spectral import (
    DOMAIN_MODES,
    FrequencyMask,
    _half_layout,
    _rfftn,
    axis_frequencies,
    band_masks,
    fft3,
    frequency_grid,
    gaussian_lowpass,
    ifft3,
)
from .tensor_core import SeededRng, VideoLatent, gaussian_latent, read_tensor, write_tensor

# (shape, seed) of the latents behind the transform identities.
_SPECTRAL_CASES = (((1, 3, 5, 7), 100), ((2, 16, 8, 8), 101),
                   ((3, 31, 13, 11), 102), ((4, 32, 16, 16), 103))


def _energy(x) -> float:
    """Total squared magnitude of a latent or spectrum, taken as complex128, summed in float64."""
    return float((np.abs(x.data.astype(np.complex128)) ** 2).sum())


def _rand_latent(shape, seed) -> VideoLatent:
    return gaussian_latent(shape, SeededRng(seed))


def _rand_tokens(t, tpf, d, seed) -> TokenSequence:
    rng = SeededRng(seed)
    feats = rng.normals(t * tpf * d).reshape(t * tpf, d)
    return TokenSequence(feats, np.repeat(np.arange(t), tpf))


def _rand_qkv(t, tpf, d, seed):
    """Tokens drawn from `seed`, projected by weights drawn from seed + 1."""
    toks = _rand_tokens(t, tpf, d, seed)
    return (toks, *project_qkv(toks, block_weights(d, SeededRng(seed + 1))))


def _fusion_inputs(t, seed):
    """(t * 16) tokens of width 8 drawn from `seed`, block weights from seed + 1."""
    return _rand_tokens(t, 16, 8, seed), block_weights(8, SeededRng(seed + 1))


def check_file_roundtrip():
    lat = _rand_latent((2, 3, 4, 5), 11)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.spfu")
        write_tensor(path, lat)
        back = read_tensor(path)
    assert np.array_equal(back.data, lat.data), "values changed through file roundtrip"


def check_rng_reproducible():
    a, b = SeededRng(123).normals(64), SeededRng(123).normals(64)
    assert a.tobytes() == b.tobytes(), "same seed gave different normals"
    for shape, seed in (((2, 4, 4, 4), 5), ((1, 1, 1, 1), 0)):
        a, b = (gaussian_latent(shape, SeededRng(seed)).data for _ in range(2))
        assert a.shape == shape and a.tobytes() == b.tobytes(), "same seed gave different samples"


def check_fft_roundtrip():
    for shape, seed in _SPECTRAL_CASES:
        lat = _rand_latent(shape, seed)
        err = np.abs(ifft3(fft3(lat)).data - lat.data).max()
        assert err <= 1e-4, f"roundtrip error {err} at {shape}"


def check_parseval():
    for shape, seed in _SPECTRAL_CASES:
        lat = _rand_latent(shape, seed)
        ex, es = _energy(lat), _energy(fft3(lat))
        rel = abs(ex - es) / ex
        assert rel <= 1e-5, f"parseval relative error {rel} at {shape}"


def check_band_partition():
    for alphas in ([1], [1, 2], [1, 2, 4], [1, 2, 4, 8]):
        # Band i owns (pi/(2*alphas[i+1]), pi/(2*alphas[i])] of the temporal
        # frequency, so an edge bin goes to the coarser band; the finest runs
        # to pi (one ulp past it at T = 26) and the coarsest from 0. At T = 32
        # and 1024 a bin sits on every edge; at 1024 an edge moved by more
        # than pi/512 moves a bin.
        edges = [np.pi / (2 * a) for a in alphas[1:]]
        for shape in ((32, 8, 8), (16, 4, 4), (8, 4, 4), (26, 2, 2), (1024, 1, 1)):
            for mode in DOMAIN_MODES:
                masks = band_masks(alphas, shape, mode)
                assert all(set(np.unique(m.weights)) <= {0.0, 1.0} for m in masks), \
                    f"mask is not an indicator for {alphas}"
                total = sum(m.weights for m in masks)
                assert np.array_equal(total, np.ones(shape)), f"partition broken for {alphas}"
            grid = frequency_grid(shape, "temporal")
            masks = band_masks(alphas, shape, "temporal")
            for i, (mask, lo, hi) in enumerate(zip(masks, edges + [-np.inf], [np.inf] + edges)):
                owned = (grid > lo) & (grid <= hi)
                assert np.array_equal(mask.weights, owned), \
                    f"band {i} of {alphas} does not own exactly its edges at T={shape[0]}"


def check_mask_symmetry_residue():
    for shape, alphas in (((2, 16, 8, 8), [1, 2, 4]), ((2, 12, 6, 6), [1, 2])):
        lat = _rand_latent(shape, 6)
        grid = shape[1:]
        for mask in [gaussian_lowpass(grid, 0.25)] + band_masks(alphas, grid):
            full = np.fft.ifftn(fft3(lat).data * mask.weights, axes=(1, 2, 3), norm="ortho")
            residue = np.abs(full.imag).max()
            assert residue <= 1e-5, f"imaginary residue {residue}"


def check_lowpass_shape():
    for shape in ((16, 8, 8), (12, 6, 6), (8, 4, 4)):
        for mode in DOMAIN_MODES:
            order = np.argsort(frequency_grid(shape, mode).ravel(), kind="stable")
            for d0 in (0.1, 0.25, 1.0):
                w = gaussian_lowpass(shape, d0, mode).weights
                assert w[0, 0, 0] == 1.0, "DC weight must be 1"
                assert w.min() > 0.0 and w.max() <= 1.0, "weights outside (0, 1]"
                assert (np.diff(w.ravel()[order]) <= 1e-15).all(), \
                    "not monotone in frequency distance"


def check_attention_convexity():
    for t, tpf, d, seed in ((6, 4, 8, 21), (6, 3, 4, 13)):
        toks, q, k, _ = _rand_qkv(t, tpf, d, seed)
        m = attention_map(q, k, toks.frame_index, window=AttentionWindow.local(4))
        assert m.min() >= 0.0, "negative attention weight"
        assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-6, "rows do not sum to 1"


def check_wide_window_is_global():
    for tpf, seed in ((4, 23), (8, 11)):
        toks, q, k, v = _rand_qkv(8, tpf, 8, seed)
        wide = masked_attention(q, k, v, toks.frame_index, AttentionWindow.local(2 * 8))
        glob = masked_attention(q, k, v, toks.frame_index, AttentionWindow.for_span(8, 8))
        err = np.abs(wide.features - glob.features).max()
        assert err <= 1e-6, f"wide window differs from global by {err}"


def check_sparse_all_frames_exact():
    for seed in (25, 17):
        toks, q, k, v = _rand_qkv(6, 4, 8, seed)
        sparse = sparse_attention(q, k, v, toks.frame_index, range(6))
        glob = masked_attention(q, k, v, toks.frame_index, AttentionWindow.for_span(6, 6))
        assert np.array_equal(sparse.features, glob.features), "sparse(all) not bit-equal to global"


def check_locality_argmax():
    # One dominant key token: shrinking the window must not move the
    # argmax for queries whose window still admits it.
    t, tpf, d = 8, 2, 4
    center = 4
    k = SeededRng(27).normals(t * tpf * d).reshape(t * tpf, d) * 0.01
    k[center * tpf] = 0.0
    k[center * tpf, 0] = 10.0
    q = np.tile(np.eye(d)[0], (t * tpf, 1)) * 5.0
    frames = np.repeat(np.arange(t), tpf)
    for span in (16, 8, 4):
        m = attention_map(q, k, frames, window=AttentionWindow.local(span))
        radius = span // 2
        for i in range(t):
            if abs(i - center) < radius:
                assert m[i * tpf].argmax() == center * tpf, f"argmax moved at span {span}"


def check_shared_key_offset():
    # One vector added to every key adds q_r . o to a whole logits row, which
    # the softmax cancels. `_attend` centres the keys, so even an offset 1e3
    # times the mean key norm keeps the static shift near each row's true
    # max: no row falls back to `_exact_rows`.
    rows = []
    exact_rows = attention._exact_rows

    def counted(q, k, v):
        rows.append(len(q))
        return exact_rows(q, k, v)

    for t, tpf, d, seed, scale in ((8, 4, 8, 60, 1e3), (5, 7, 4, 61, 250.0)):
        rng = SeededRng(seed)
        q, k, v = (rng.normals(t * tpf * d).reshape(t * tpf, d) for _ in range(3))
        direction = rng.normals(d)
        offset = scale * np.linalg.norm(k, axis=1).mean() * direction / np.linalg.norm(direction)
        frames = np.repeat(np.arange(t), tpf)
        masks = [{}, {"window": AttentionWindow.local(3)}, {"keyframes": range(0, t, 2)}]
        with mock.patch.object(attention, "_exact_rows", side_effect=counted):
            outs = _attend(q, k + offset, v, frames, [_frame_set(t, **m) for m in masks])
        for out, mask in zip(outs, masks):
            err = np.abs(out - attention_map(q, k, frames, **mask) @ v).max()
            assert err <= 1e-12, f"offset keys moved the output by {err}"
    assert not rows, f"{sum(rows)} rows fell back to the exact softmax"


def check_frame_permutation_equivariance():
    for seed, order in ((28, [2, 0, 1]), (25, [1, 2, 0])):
        toks, q, k, v = _rand_qkv(4, 3, 6, seed)
        out = masked_attention(q, k, v, toks.frame_index, AttentionWindow.local(4))
        perm = np.arange(12).reshape(4, 3)[:, order].reshape(-1)
        out_p = masked_attention(q[perm], k[perm], v[perm], toks.frame_index,
                                 AttentionWindow.local(4))
        assert np.allclose(out.features[perm], out_p.features, atol=1e-12), \
            "permuting tokens within frames did not permute outputs"


def check_blend_reduction():
    plan = FusionPlan(t_alpha=8, alphas=(1, 2), domain_mode="radial", d0=0.25)
    lpf = gaussian_lowpass((16, 4, 4), 0.25, "radial")
    for seed in (30, 17):
        toks, weights = _fusion_inputs(16, seed)
        blended = spectral_blend_attention(toks, weights, plan, (4, 4))
        banded = multiband_attention(toks, weights, plan, (4, 4),
                                     masks=[lpf.complement(), lpf])
        assert np.array_equal(blended.features, banded.features), \
            "two-branch fusion paths differ"


def check_band_ownership():
    plan = FusionPlan(t_alpha=8, alphas=(1, 2, 4))
    masks = band_masks(plan.alphas, (32, 4, 4), plan.domain_mode)
    for seed in (32, 19, 400):
        toks, weights = _fusion_inputs(32, seed)
        fused = multiband_attention(toks, weights, plan, (4, 4))
        fused_spec = fft3(latent_from_tokens(fused, (4, 4))).data
        branches = _branch_latents(toks, weights, plan, (4, 4))
        for mask, branch in zip(masks, branches):
            sel = mask.weights.astype(bool)
            err = np.abs((fused_spec - fft3(branch).data)[:, sel]).max()
            assert err <= 1e-4, f"band not owned by its branch: {err}"


def check_short_input_idempotence():
    # T == t_alpha: every window saturates, so every plan returns plain attention.
    plans = [FusionPlan(t_alpha=8, alphas=alphas, domain_mode=mode)
             for alphas, mode in (((1, 2), "temporal"), ((1, 2), "radial"), ((1, 2, 4), "temporal"))]
    for seed in (34, 15, 300):
        toks, weights = _fusion_inputs(8, seed)
        q, k, v = project_qkv(toks, weights)
        plain = masked_attention(q, k, v, toks.frame_index, AttentionWindow.for_span(8, 8))
        hard_bands = multiband_attention(toks, weights, plans[0], (4, 4))
        outs = [plain, hard_bands] + [run_stack(toks, plan, depth=1, seed=seed + 1, spatial=(4, 4))
                                      for plan in plans]
        stacked = np.stack([out.features for out in outs])
        spread = (stacked.max(axis=0) - stacked.min(axis=0)).max()
        assert spread <= 1e-4, f"plans altered a short input by up to {spread}"


def check_half_spectrum_fusion():
    # The fusion path keeps only the half of each real branch's spectrum
    # over the axes its masks vary on; at odd and even frame counts and
    # widths it must match the full complex sum.
    for t in (6, 5):
        for w in (1, 2, 3, 4, 7, 8):
            grid = (t, 3, w)
            rng = SeededRng(50 + w)
            branches = [rng.normals(2 * t * 3 * w).reshape(2, *grid) for _ in range(3)]
            # m1 varies along T only and m2 along T and H: the fusion must
            # transform the axes of every mask, not only the first's.
            m1 = gaussian_lowpass(grid, 0.3, "temporal").weights
            m2 = (1.0 - m1) * np.exp(-axis_frequencies(3) ** 2)[:, None]
            partitions = [[FrequencyMask(m) for m in (m1, m2, 1.0 - m1 - m2)]]
            for mode in DOMAIN_MODES:
                lpf = gaussian_lowpass(grid, 0.3, mode)
                partitions += [band_masks((1, 2, 4), grid, mode), [lpf.complement(), lpf]]
            for masks in partitions:
                total = sum(fft3(b).data * m.weights for b, m in zip(branches, masks))
                want = np.fft.ifftn(total, axes=(1, 2, 3), norm="ortho").real
                err = np.abs(_fuse(branches[: len(masks)], masks) - want).max()
                rel = err / np.abs(want).max()
                assert rel <= 1e-12, \
                    f"half-spectrum fusion off by {rel} relative at T={t}, W={w}"


def check_sparse_substitution():
    masks = band_masks((1, 2, 4), (32, 4, 4))
    # fused_spectrum holds the masks' half layout; every dropped bin is the
    # conjugate of a kept one. Multiplying by the 0/1 band is exact.
    _, index = _half_layout(*(m.weights for m in masks))
    inside = masks[-1].weights[index]
    for seed in (36, 23):
        toks, weights = _fusion_inputs(32, seed)
        dense, sparse = (
            fused_spectrum(_branch_latents(toks, weights, plan, (4, 4)), masks)
            for plan in (FusionPlan(t_alpha=8, alphas=(1, 2, 4)),
                         FusionPlan(t_alpha=8, alphas=(1, 2, 4), sparse_global=True))
        )
        assert np.array_equal(dense.data * (1.0 - inside), sparse.data * (1.0 - inside)), \
            "sparse global branch leaked outside the coarsest band"
        assert np.abs((dense.data - sparse.data) * inside).max() > 0.0, \
            "sparse global branch left the coarsest band unchanged"


def check_fusion_energy_bound():
    toks, weights = _fusion_inputs(32, 38)
    plan = FusionPlan(t_alpha=8, alphas=(1, 2, 4))
    branches = _branch_latents(toks, weights, plan, (4, 4))
    masks = band_masks(plan.alphas, (32, 4, 4))
    fused = fused_spectrum(branches, masks)
    axes, _ = _half_layout(*(m.weights for m in masks))
    per_bin_max = np.max([np.abs(_rfftn(b, axes)) ** 2 for b in branches], axis=0)
    excess = (np.abs(fused.data) ** 2 - per_bin_max).max()
    assert excess <= 1e-9, f"fused energy exceeds branch bound by {excess}"


def check_specmix_determinism_and_limits():
    for frames, seed in ((17, 1), (16, 1), (17, 4)):
        params = SpecMixParams(frames=frames, t_alpha=8, seed_base=seed,
                               seed_res=seed + 1, seed_perm=seed + 2)
        a, b = (specmix(params, (2, 4, 4)).data for _ in range(2))
        assert a.tobytes() == b.tobytes(), "same seeds gave different noise"
        res = gaussian_latent((2, frames, 4, 4), SeededRng(seed + 1)).data
        assert np.array_equal(a[:, 0], res[:, 0]), "first frame is not the residual"
        assert np.array_equal(a[:, -1], res[:, -1]), "last frame is not the residual"
        if frames % 2:
            center = (frames - 1) // 2
            base = base_noise(params, (2, 4, 4)).data
            assert np.array_equal(a[:, center], base[:, center]), "center frame is not the base"
    for frames in (4, 9, 16, 17):
        d = [center_distance(t, frames) for t in range(frames)]
        assert d == d[::-1], "center distance is not symmetric"


def check_specmix_variance():
    for draws, frames, t_alpha, seed0 in ((200, 17, 8, 0), (50, 12, 4, 100), (60, 10, 5, 0)):
        per_slice = np.zeros(frames)
        for s in range(draws):
            p = SpecMixParams(frames=frames, t_alpha=t_alpha, seed_base=3 * s + seed0,
                              seed_res=3 * s + seed0 + 1, seed_perm=3 * s + seed0 + 2)
            x0 = specmix(p, (2, 4, 4)).data.astype(np.float64)
            per_slice += (x0**2).mean(axis=(0, 2, 3))
        per_slice /= draws
        err = np.abs(per_slice - 1.0).max()
        assert err <= 0.10, f"per-slice variance off by {err} over {draws} draws"


def check_base_noise_multiset():
    for seed in (7, 6):
        params = SpecMixParams(frames=16, t_alpha=8, seed_base=seed,
                               seed_res=seed + 1, seed_perm=seed + 2)
        noise = base_noise(params, (2, 4, 4)).data
        first = sorted(noise[:, t].tobytes() for t in range(8))
        second = sorted(noise[:, t].tobytes() for t in range(8, 16))
        assert first == second, "second window is not a permutation of the first"


def check_band_energy_total():
    for seed in (40, 2):
        lat = _rand_latent((2, 16, 8, 8), seed)
        for mode in DOMAIN_MODES:
            energies = band_energy(lat, uniform_band_edges(16), mode)
            rel = abs(energies.sum() - _energy(lat)) / _energy(lat)
            assert rel <= 1e-5, f"band energies do not sum to total: {rel}"


def check_snr_scale_invariance():
    # A power-of-two scale is exact in float32; 7.5 rounds each stored value once.
    for (ref_shape, ref_seed), (ext_shape, ext_seed), scale, rtol in (
            (((2, 8, 8, 8), 41), ((2, 32, 8, 8), 42), 4.0, 1e-12),
            (((1, 8, 4, 4), 8), ((1, 16, 4, 4), 9), 7.5, 1e-5)):
        ref, ext = _rand_latent(ref_shape, ref_seed), _rand_latent(ext_shape, ext_seed)
        r1 = relative_snr(ref, ext, uniform_band_edges(8))
        r2 = relative_snr(ref, VideoLatent(ext.data * scale), uniform_band_edges(8))
        assert np.allclose(r1.ratios, r2.ratios, rtol=rtol), "ratios changed under scaling"


def check_aggregate_row_stochastic():
    toks, q, k, _ = _rand_qkv(8, 4, 8, 43)
    maps = [attention_map(q, k, toks.frame_index, window=AttentionWindow.local(s))
            for s in (2, 4, 8)]
    for agg in (aggregate_attention(maps, 8),
                aggregate_attention([np.full((8, 8), 0.125), np.eye(8)], 8)):
        assert np.abs(agg.matrix.sum(axis=1) - 1.0).max() <= 1e-6, "aggregate rows off 1"
    for t in (4, 8, 16, 64):
        assert diagonality(aggregate_attention([np.eye(t)], t)) == 1.0, "identity map must score 1"


def check_frame_attention_oracle():
    # The linear-memory map against pooling the dense (n, n) weights.
    for t, tpf, d, seed in ((1, 3, 4, 47), (8, 4, 8, 43), (12, 5, 6, 48)):
        toks, q, k, _ = _rand_qkv(t, tpf, d, seed)
        masks = [{}, {"window": AttentionWindow.for_span(4, t)},
                 {"window": AttentionWindow.local(1)}, {"keyframes": range(0, t, 3)}]
        for mask in masks:
            got = frame_attention(q, k, toks.frame_index, **mask).matrix
            want = aggregate_attention([attention_map(q, k, toks.frame_index, **mask)], t).matrix
            err = np.abs(got - want).max()
            assert err <= 1e-12, f"frame map differs from the pooled dense map by {err}"


def check_scene_placement():
    for k, side in ((4, 4), (5, 2)):
        omega = 2 * np.pi * k / 32
        assert int(round(omega * 32 / (2 * np.pi))) == k, f"omega does not map back to bin {k}"
        scene = SyntheticScene(shape=(1, 32, side, side), tones=(Tone("t", omega, 1.0),))
        spec = fft3(make_scene(scene)).data[0]
        peak = int(((np.abs(spec) ** 2).sum(axis=(1, 2))).argmax())
        assert peak in (k, 32 - k), f"tone at bin {k} landed at bin {peak}"


def check_stack_determinism():
    scene = SyntheticScene(shape=(8, 32, 4, 4), noise_level=1.0, seed=5)
    for toks, alphas, depth, seed in ((_rand_tokens(16, 16, 8, 45), (1, 2), 2, 46),
                                      (tokens_from_latent(make_scene(scene)), (1, 2, 4), 3, 11)):
        plan = FusionPlan(t_alpha=8, alphas=alphas)
        a = run_stack(toks, plan, depth=depth, seed=seed, spatial=(4, 4))
        b = run_stack(toks, plan, depth=depth, seed=seed, spatial=(4, 4))
        assert a.features.tobytes() == b.features.tobytes(), "stack runs differ"


CHECKS = [
    ("tensor-file-roundtrip", check_file_roundtrip),
    ("rng-reproducible", check_rng_reproducible),
    ("fft-roundtrip", check_fft_roundtrip),
    ("parseval", check_parseval),
    ("band-partition", check_band_partition),
    ("mask-symmetry-residue", check_mask_symmetry_residue),
    ("lowpass-shape", check_lowpass_shape),
    ("attention-convexity", check_attention_convexity),
    ("wide-window-global", check_wide_window_is_global),
    ("sparse-all-frames", check_sparse_all_frames_exact),
    ("locality-argmax", check_locality_argmax),
    ("shared-key-offset", check_shared_key_offset),
    ("frame-permutation", check_frame_permutation_equivariance),
    ("blend-reduction", check_blend_reduction),
    ("band-ownership", check_band_ownership),
    ("short-input-idempotence", check_short_input_idempotence),
    ("half-spectrum-fusion", check_half_spectrum_fusion),
    ("sparse-substitution", check_sparse_substitution),
    ("fusion-energy-bound", check_fusion_energy_bound),
    ("specmix-determinism-limits", check_specmix_determinism_and_limits),
    ("specmix-variance", check_specmix_variance),
    ("base-noise-multiset", check_base_noise_multiset),
    ("band-energy-total", check_band_energy_total),
    ("snr-scale-invariance", check_snr_scale_invariance),
    ("aggregate-row-stochastic", check_aggregate_row_stochastic),
    ("frame-attention-oracle", check_frame_attention_oracle),
    ("scene-placement", check_scene_placement),
    ("stack-determinism", check_stack_determinism),
]


def run_selftest(out=None) -> bool:
    """Run every check; print one line each; True iff all passed."""
    out = out if out is not None else sys.stdout
    failed = 0
    for name, fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}", file=out)
        else:
            print(f"ok {name}", file=out)
    print(f"selftest: {len(CHECKS)} checks, {failed} failed", file=out)
    return failed == 0
