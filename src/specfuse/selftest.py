"""Built-in invariant suite behind the `selftest` CLI command.

Every check is deterministic (fixed seeds, fixed shapes) and prints one
line; the runner's output is byte-stable across runs. These mirror the
invariants asserted module by module in the test suite, scaled to run in
a few seconds.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile

import numpy as np

from .analysis import aggregate_attention, band_energy, diagonality, relative_snr, uniform_band_edges
from .attention import (
    AttentionWindow,
    TokenSequence,
    attention_map,
    masked_attention,
    project_qkv,
    sparse_attention,
    uniform_keyframes,
)
from .fusion import (
    FusionPlan,
    fused_spectrum,
    latent_from_tokens,
    multiband_attention,
    multiband_fuse,
    spectral_blend,
    spectral_blend_attention,
    tokens_from_latent,
)
from .harness import SyntheticScene, Tone, block_weights, make_scene, run_stack
from .noise_init import SpecMixParams, base_noise, center_distance, mixed_spectra, specmix
from .spectral import (
    apply_mask,
    band_masks,
    band_specs,
    fft3,
    frequency_grid,
    gaussian_lowpass,
    ifft3,
    parseval_energy,
)
from .tensor_core import SeededRng, VideoLatent, gaussian_latent, read_tensor, write_tensor


def _rand_latent(shape, seed) -> VideoLatent:
    return gaussian_latent(shape, SeededRng(seed))


def _rand_tokens(t, tpf, d, seed) -> TokenSequence:
    rng = SeededRng(seed)
    feats = rng.normals(t * tpf * d).reshape(t * tpf, d)
    return TokenSequence(feats, np.repeat(np.arange(t), tpf))


def check_file_roundtrip():
    lat = _rand_latent((2, 3, 4, 5), 11)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.spfu")
        write_tensor(path, lat)
        back = read_tensor(path)
    assert np.array_equal(back.data, lat.data), "values changed through file roundtrip"


def check_rng_reproducible():
    a = gaussian_latent((2, 4, 4, 4), SeededRng(5)).data.tobytes()
    b = gaussian_latent((2, 4, 4, 4), SeededRng(5)).data.tobytes()
    assert a == b, "same seed gave different samples"


def check_fft_roundtrip():
    lat = _rand_latent((4, 32, 16, 16), 3)
    err = np.abs(ifft3(fft3(lat)).data - lat.data).max()
    assert err <= 1e-4, f"roundtrip error {err}"


def check_parseval():
    lat = _rand_latent((4, 32, 16, 16), 4)
    ex, es = parseval_energy(lat), parseval_energy(fft3(lat))
    rel = abs(ex - es) / ex
    assert rel <= 1e-5, f"parseval relative error {rel}"


def check_band_partition():
    for alphas in ([1], [1, 2], [1, 2, 4], [1, 2, 4, 8]):
        for mode in ("temporal", "radial"):
            masks = band_masks(alphas, (32, 8, 8), mode)
            total = sum(m.weights for m in masks)
            assert np.array_equal(total, np.ones((32, 8, 8))), f"partition broken for {alphas}"
    specs = band_specs([1, 2, 4])
    assert specs[2].hi == np.pi / 8 and specs[1].hi == np.pi / 4, "band edges off"


def check_mask_symmetry_residue():
    lat = _rand_latent((2, 16, 8, 8), 6)
    for mask in [gaussian_lowpass((16, 8, 8), 0.25)] + band_masks([1, 2, 4], (16, 8, 8)):
        full = np.fft.ifftn(apply_mask(fft3(lat), mask).data, axes=(1, 2, 3), norm="ortho")
        residue = np.abs(full.imag).max()
        assert residue <= 1e-5, f"imaginary residue {residue}"


def check_lowpass_shape():
    mask = gaussian_lowpass((16, 8, 8), 0.25, "radial")
    w = mask.weights
    assert w[0, 0, 0] == 1.0, "DC weight must be 1"
    assert w.min() > 0.0 and w.max() <= 1.0, "weights outside (0, 1]"
    d = frequency_grid((16, 8, 8), "radial").ravel()
    order = np.argsort(d, kind="stable")
    assert (np.diff(w.ravel()[order]) <= 1e-15).all(), "not monotone in frequency distance"


def check_attention_convexity():
    toks = _rand_tokens(6, 4, 8, 21)
    q, k, v = project_qkv(toks, block_weights(8, SeededRng(22)))
    m = attention_map(q, k, toks.frame_index, window=AttentionWindow.local(4))
    assert m.min() >= 0.0, "negative attention weight"
    assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-6, "rows do not sum to 1"


def check_wide_window_is_global():
    toks = _rand_tokens(8, 4, 8, 23)
    q, k, v = project_qkv(toks, block_weights(8, SeededRng(24)))
    wide = masked_attention(q, k, v, toks.frame_index, AttentionWindow.local(2 * 8))
    glob = masked_attention(q, k, v, toks.frame_index, AttentionWindow.global_for(8))
    err = np.abs(wide.features - glob.features).max()
    assert err <= 1e-6, f"wide window differs from global by {err}"


def check_sparse_all_frames_exact():
    toks = _rand_tokens(6, 4, 8, 25)
    q, k, v = project_qkv(toks, block_weights(8, SeededRng(26)))
    sparse = sparse_attention(q, k, v, toks.frame_index, range(6))
    glob = masked_attention(q, k, v, toks.frame_index, AttentionWindow.global_for(6))
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


def check_frame_permutation_equivariance():
    toks = _rand_tokens(4, 3, 6, 28)
    q, k, v = project_qkv(toks, block_weights(6, SeededRng(29)))
    out = masked_attention(q, k, v, toks.frame_index, AttentionWindow.local(4))
    perm = np.arange(12).reshape(4, 3)[:, [2, 0, 1]].reshape(-1)
    out_p = masked_attention(q[perm], k[perm], v[perm], toks.frame_index,
                             AttentionWindow.local(4))
    assert np.allclose(out.features[perm], out_p.features, atol=1e-12), \
        "permuting tokens within frames did not permute outputs"


def check_blend_reduction():
    toks = _rand_tokens(16, 16, 8, 30)
    weights = block_weights(8, SeededRng(31))
    plan = FusionPlan(t_alpha=8, alphas=(1, 2), domain_mode="radial", d0=0.25)
    blended = spectral_blend_attention(toks, weights, plan, (4, 4))
    lpf = gaussian_lowpass((16, 4, 4), 0.25, "radial")
    banded = multiband_attention(toks, weights, plan, (4, 4),
                                 masks=[lpf.complement(), lpf])
    err = np.abs(blended.features - banded.features).max()
    assert err <= 1e-5, f"two-branch fusion paths differ by {err}"


def check_band_ownership():
    toks = _rand_tokens(32, 16, 8, 32)
    weights = block_weights(8, SeededRng(33))
    plan = FusionPlan(t_alpha=8, alphas=(1, 2, 4))
    masks = band_masks(plan.alphas, (32, 4, 4), plan.domain_mode)
    fused = multiband_attention(toks, weights, plan, (4, 4))
    fused_spec = fft3(latent_from_tokens(fused, (4, 4))).data
    from .fusion import _branch_latents
    branches = _branch_latents(toks, weights, plan, plan.branch_configs((32, 4, 4)))
    for mask, branch in zip(masks, branches):
        sel = mask.weights.astype(bool)
        err = np.abs((fused_spec - fft3(branch).data)[:, sel]).max()
        assert err <= 1e-4, f"band not owned by its branch: {err}"


def check_short_input_idempotence():
    toks = _rand_tokens(8, 16, 8, 34)
    weights = block_weights(8, SeededRng(35))
    q, k, v = project_qkv(toks, weights)
    plain = masked_attention(q, k, v, toks.frame_index, AttentionWindow.global_for(8))
    for plan in (FusionPlan(t_alpha=8, alphas=(1, 2)),
                 FusionPlan(t_alpha=8, alphas=(1, 2, 4))):
        if len(plan.alphas) == 2:
            out = spectral_blend_attention(toks, weights, plan, (4, 4))
        else:
            out = multiband_attention(toks, weights, plan, (4, 4))
        err = np.abs(out.features - plain.features).max()
        assert err <= 1e-4, f"plan {plan.alphas} altered a short input by {err}"


def check_sparse_substitution():
    toks = _rand_tokens(32, 16, 8, 36)
    weights = block_weights(8, SeededRng(37))
    dense_plan = FusionPlan(t_alpha=8, alphas=(1, 2, 4), sparse_global=False)
    sparse_plan = FusionPlan(t_alpha=8, alphas=(1, 2, 4), sparse_global=True)
    from .fusion import _branch_latents
    masks = band_masks((1, 2, 4), (32, 4, 4))
    dense, sparse = (
        fused_spectrum(_branch_latents(toks, weights, plan, plan.branch_configs((32, 4, 4))), masks)
        for plan in (dense_plan, sparse_plan)
    )
    outside_coarse = ~masks[-1].weights.astype(bool)
    assert np.array_equal(dense.data[:, outside_coarse], sparse.data[:, outside_coarse]), \
        "sparse global branch leaked outside the coarsest band"


def check_fusion_energy_bound():
    toks = _rand_tokens(32, 16, 8, 38)
    weights = block_weights(8, SeededRng(39))
    plan = FusionPlan(t_alpha=8, alphas=(1, 2, 4))
    from .fusion import _branch_latents
    branches = _branch_latents(toks, weights, plan, plan.branch_configs((32, 4, 4)))
    masks = band_masks(plan.alphas, (32, 4, 4))
    fused = fused_spectrum(branches, masks)
    per_bin_max = np.max([np.abs(fft3(b).data) ** 2 for b in branches], axis=0)
    excess = (np.abs(fused.data) ** 2 - per_bin_max).max()
    assert excess <= 1e-9, f"fused energy exceeds branch bound by {excess}"


def check_specmix_determinism_and_limits():
    params = SpecMixParams(frames=17, t_alpha=8, seed_base=1, seed_res=2, seed_perm=3)
    a = specmix(params, (2, 4, 4))
    b = specmix(params, (2, 4, 4))
    assert a.data.tobytes() == b.data.tobytes(), "same seeds gave different noise"
    mixed, base_f, res_f = mixed_spectra(params, (2, 4, 4))
    center = (17 - 1) // 2
    assert np.array_equal(mixed[:, center], base_f[:, center]), "center slice is not the base"
    assert np.array_equal(mixed[:, 0], res_f[:, 0]), "first slice is not the residual"
    assert np.array_equal(mixed[:, -1], res_f[:, -1]), "last slice is not the residual"
    d = [center_distance(t, 17) for t in range(17)]
    assert d == d[::-1], "center distance is not symmetric"


def check_specmix_variance():
    draws, frames = 50, 12
    params_shape = (2, 4, 4)
    per_slice = np.zeros(frames)
    for s in range(draws):
        p = SpecMixParams(frames=frames, t_alpha=4,
                          seed_base=3 * s + 100, seed_res=3 * s + 101, seed_perm=3 * s + 102)
        x0 = specmix(p, params_shape).data.astype(np.float64)
        per_slice += (x0**2).mean(axis=(0, 2, 3))
    per_slice /= draws
    err = np.abs(per_slice - 1.0).max()
    assert err <= 0.15, f"per-slice variance off by {err}"


def check_base_noise_multiset():
    params = SpecMixParams(frames=16, t_alpha=8, seed_base=7, seed_res=8, seed_perm=9)
    noise = base_noise(params, (2, 4, 4)).data
    first = {noise[:, t].tobytes() for t in range(8)}
    second = {noise[:, t].tobytes() for t in range(8, 16)}
    assert first == second, "second window is not a permutation of the first"


def check_band_energy_total():
    lat = _rand_latent((2, 16, 8, 8), 40)
    energies = band_energy(lat, uniform_band_edges(16))
    rel = abs(energies.sum() - parseval_energy(lat)) / parseval_energy(lat)
    assert rel <= 1e-5, f"band energies do not sum to total: {rel}"


def check_snr_scale_invariance():
    ref = _rand_latent((2, 8, 8, 8), 41)
    ext = _rand_latent((2, 32, 8, 8), 42)
    scaled = VideoLatent(ext.data * 4.0)
    r1 = relative_snr(ref, ext, uniform_band_edges(8))
    r2 = relative_snr(ref, scaled, uniform_band_edges(8))
    assert np.allclose(r1.ratios, r2.ratios, rtol=1e-12), "ratios changed under scaling"


def check_aggregate_row_stochastic():
    toks = _rand_tokens(8, 4, 8, 43)
    q, k, _ = project_qkv(toks, block_weights(8, SeededRng(44)))
    maps = [attention_map(q, k, toks.frame_index, window=AttentionWindow.local(s))
            for s in (2, 4, 8)]
    agg = aggregate_attention(maps, 8)
    assert np.abs(agg.matrix.sum(axis=1) - 1.0).max() <= 1e-6, "aggregate rows off 1"
    ident = aggregate_attention([np.eye(8)], 8)
    assert diagonality(ident) == 1.0, "identity map must score 1"


def check_scene_placement():
    scene = SyntheticScene(shape=(1, 32, 4, 4), tones=(Tone("t", 2 * np.pi * 4 / 32, 1.0),))
    spec = fft3(make_scene(scene)).data[0]
    profile = (np.abs(spec) ** 2).sum(axis=(1, 2))
    peak = int(profile.argmax())
    assert peak in (4, 28), f"tone landed at bin {peak}"


def check_stack_determinism():
    toks = _rand_tokens(16, 16, 8, 45)
    plan = FusionPlan(t_alpha=8, alphas=(1, 2))
    a = run_stack(toks, plan, depth=2, seed=46, spatial=(4, 4))
    b = run_stack(toks, plan, depth=2, seed=46, spatial=(4, 4))
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
    ("frame-permutation", check_frame_permutation_equivariance),
    ("blend-reduction", check_blend_reduction),
    ("band-ownership", check_band_ownership),
    ("short-input-idempotence", check_short_input_idempotence),
    ("sparse-substitution", check_sparse_substitution),
    ("fusion-energy-bound", check_fusion_energy_bound),
    ("specmix-determinism-limits", check_specmix_determinism_and_limits),
    ("specmix-variance", check_specmix_variance),
    ("base-noise-multiset", check_base_noise_multiset),
    ("band-energy-total", check_band_energy_total),
    ("snr-scale-invariance", check_snr_scale_invariance),
    ("aggregate-row-stochastic", check_aggregate_row_stochastic),
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


def selftest_output() -> tuple[str, bool]:
    """Capture the full selftest transcript; used for byte-stability checks."""
    buf = io.StringIO()
    ok = run_selftest(buf)
    return buf.getvalue(), ok
