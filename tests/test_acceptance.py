"""Acceptance criteria, one test per criterion, with pinned tolerances.

Each test prints `[PASS] ...` or `[FAIL] ...` so a plain transcript shows
the per-criterion outcome (run with `pytest -s`).
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np

from specfuse import (
    AttentionWindow,
    FusionPlan,
    MacCounter,
    SeededRng,
    TokenSequence,
    aggregate_attention,
    attention_map,
    band_masks,
    diagonality,
    fft3,
    fused_spectrum,
    gaussian_latent,
    gaussian_lowpass,
    ifft3,
    masked_attention,
    project_qkv,
    relative_snr,
    sparse_attention,
    uniform_keyframes,
)
from specfuse.cli import main as cli_main
from specfuse.fusion import _branch_latents
from specfuse.harness import block_weights
from specfuse.selftest import (
    check_band_ownership,
    check_band_partition,
    check_fft_roundtrip,
    check_parseval,
    check_short_input_idempotence,
    check_specmix_determinism_and_limits,
    check_specmix_variance,
)
from specfuse.spectral import _half_layout


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def report_checks(name: str, *checks, seconds: float = float("inf")) -> None:
    """A criterion made of registry checks, run in turn under a wall-time bound."""
    start = time.perf_counter()
    try:
        for check in checks:
            check()
    except AssertionError as exc:
        report(name, False, str(exc))
    elapsed = time.perf_counter() - start
    report(name, elapsed < seconds, f"{', '.join(c.__name__ for c in checks)}, {elapsed:.2f}s")


def random_tokens(t, tpf, d, seed) -> TokenSequence:
    feats = SeededRng(seed).normals(t * tpf * d).reshape(t * tpf, d)
    return TokenSequence(feats, np.repeat(np.arange(t), tpf))


def dense_oracle(q, k, v, frames, admit_frame) -> np.ndarray:
    """O(n^2) reference: full logit matrix, -inf at masked pairs."""
    n, d = q.shape
    fi = frames[:, None]
    fj = frames[None, :]
    mask = admit_frame(fi, fj)
    logits = np.where(mask, (q @ k.T) / np.sqrt(d), -np.inf)
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (shifted / shifted.sum(axis=1, keepdims=True)) @ v


def test_criterion_1_spectral_identity():
    report_checks("criterion-1 spectral identity", check_fft_roundtrip, check_parseval,
                  seconds=5.0)


def test_criterion_2_band_partition():
    report_checks("criterion-2 band partition and edges", check_band_partition)


def test_criterion_3_attention_oracle_equivalence():
    rng = SeededRng(2024)
    cases, worst = 0, 0.0
    for trial in range(110):
        u = rng.uniforms(5)
        t = int(u[0] * 16) + 1
        tpf = int(u[1] * 8) + 1
        d = 2 * (int(u[2] * 4) + 1)
        if trial >= 105:  # a few cases at the 1024-token limit
            t, tpf = 16, 64
        toks = random_tokens(t, tpf, d, 5000 + trial)
        q, k, v = project_qkv(toks, block_weights(d, SeededRng(6000 + trial)))
        kind = trial % 3
        if kind == 0:
            span = int(u[3] * 2 * t) + 1
            out = masked_attention(q, k, v, toks.frame_index, AttentionWindow.local(span))
            radius = span // 2
            if radius == 0:
                admit = lambda fi, fj: fi == fj
            else:
                admit = lambda fi, fj: np.abs(fi - fj) < radius
        elif kind == 1:
            frac = 0.25 + 0.75 * u[4]
            keys = uniform_keyframes(t, frac)
            out = sparse_attention(q, k, v, toks.frame_index, keys)
            key_set = np.zeros(t, dtype=bool)
            key_set[keys] = True
            admit = lambda fi, fj: key_set[fj]
        else:
            out = masked_attention(q, k, v, toks.frame_index, AttentionWindow.for_span(t, t))
            admit = lambda fi, fj: np.ones_like(fi + fj, dtype=bool)
        oracle = dense_oracle(q, k, v, toks.frame_index, admit)
        worst = max(worst, float(np.abs(out.features - oracle).max()))
        cases += 1
    ok = cases >= 100 and worst <= 1e-6
    report("criterion-3 attention oracle equivalence", ok,
           f"{cases} cases, max err {worst:.2e}")


def test_criterion_4_reduction_chain():
    report_checks("criterion-4 reduction chain at native length", check_short_input_idempotence)


def test_criterion_5_band_ownership():
    report_checks("criterion-5 band ownership", check_band_ownership)


def test_criterion_6_specmix_limits_and_variance():
    report_checks("criterion-6 noise-mix limits and variance",
                  check_specmix_determinism_and_limits, check_specmix_variance, seconds=60.0)


def test_criterion_7_distortion_trend():
    ref = gaussian_latent((4, 8, 8, 8), SeededRng(700))
    raw = gaussian_latent((4, 32, 8, 8), SeededRng(701))
    lpf = gaussian_lowpass((32, 8, 8), 0.25, "temporal")
    ext = ifft3(fft3(raw) * lpf.weights)
    rep = relative_snr(ref, ext, [0.25 * np.pi], threshold=0.9)
    low, high = (float(r) for r in rep.ratios)
    ok = low >= 0.95 and high <= 0.7 and high < low
    ok &= bool(rep.available[0]) and not bool(rep.available[1])
    report("criterion-7 high-band distortion trend", ok,
           f"low {low:.3f}, high {high:.3f}")


def test_criterion_8_attention_structure():
    t, tpf, d = 32, 16, 8
    toks = random_tokens(t, tpf, d, 800)
    q, k, _ = project_qkv(toks, block_weights(d, SeededRng(801)))
    windowed = attention_map(q, k, toks.frame_index, window=AttentionWindow.local(8))
    global_ = attention_map(q, k, toks.frame_index)
    score_w = diagonality(aggregate_attention([windowed], t))
    score_g = diagonality(aggregate_attention([global_], t))
    ok = score_w >= 2.0 * score_g
    report("criterion-8 windowed attention diagonality", ok,
           f"windowed {score_w:.3f} vs global {score_g:.3f}")


def test_criterion_9_sparse_efficiency():
    toks = random_tokens(32, 16, 8, 900)
    weights = block_weights(8, SeededRng(901))
    dense_plan = FusionPlan(t_alpha=8, alphas=(1, 2, 4))
    sparse_plan = FusionPlan(t_alpha=8, alphas=(1, 2, 4), sparse_global=True)
    dense_ctr, sparse_ctr = MacCounter(), MacCounter()
    dense_out = _branch_latents(toks, weights, dense_plan, (4, 4), [None, None, dense_ctr])
    sparse_out = _branch_latents(toks, weights, sparse_plan, (4, 4), [None, None, sparse_ctr])
    ratio = sparse_ctr.macs / dense_ctr.macs
    masks = band_masks((1, 2, 4), (32, 4, 4))
    dense_spec = fused_spectrum(dense_out, masks)
    sparse_spec = fused_spectrum(sparse_out, masks)
    # fused_spectrum keeps the masks' half layout: every dropped bin is the
    # conjugate of a kept one. Multiplying by the 0/1 band is exact.
    _, index = _half_layout(*(m.weights for m in masks))
    inside = masks[-1].weights[index]
    same_outside = np.array_equal(dense_spec * (1.0 - inside),
                                  sparse_spec * (1.0 - inside))
    differs_inside = float(np.abs((dense_spec - sparse_spec) * inside).max()) > 0.0
    ok = ratio <= 0.55 and same_outside and differs_inside
    report("criterion-9 sparse key-frame efficiency", ok,
           f"mac ratio {ratio:.3f}, outside-band identical {same_outside}")


def test_criterion_10_determinism(tmp_path):
    scene_cfg = tmp_path / "scene.cfg"
    scene_cfg.write_text(
        "shape = 2,16,4,4\nseed = 7\nnoise_level = 1.0\n"
        "tones = t:0.39269908169872414:2.0\n"
    )
    plan_cfg = tmp_path / "plan.cfg"
    plan_cfg.write_text("t_alpha = 8\nalphas = 1,2,4\n")

    def pipeline(tag: str) -> tuple:
        lat = tmp_path / f"lat-{tag}.spfu"
        fused = tmp_path / f"fused-{tag}.spfu"
        noise = tmp_path / f"noise-{tag}.spfu"
        csv = tmp_path / f"snr-{tag}.csv"
        amap = tmp_path / f"map-{tag}.csv"
        blend = tmp_path / f"blend-{tag}.spfu"
        texts = []
        for argv in (
            ["scene", "--config", str(scene_cfg), "--out", str(lat)],
            ["fuse", "--input", str(lat), "--plan", str(plan_cfg),
             "--weights-seed", "5", "--out", str(fused)],
            ["specmix", "--frames", "16", "--t-alpha", "8", "--seed", "1",
             "--out", str(noise)],
            ["analyze", "--ref", str(lat), "--ext", str(fused), "--out", str(csv)],
            ["attnmap", "--input", str(lat), "--span", "8",
             "--weights-seed", "2", "--out", str(amap)],
            ["blend", "--global", str(lat), "--local", str(fused),
             "--out", str(blend)],
        ):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(argv)
            assert code == 0, argv
            texts.append(buf.getvalue())
        files = tuple(p.read_bytes() for p in (lat, fused, noise, csv, amap, blend))
        return files, tuple(texts)

    report("criterion-10 determinism", pipeline("a") == pipeline("b"), "cli outputs byte-stable")
