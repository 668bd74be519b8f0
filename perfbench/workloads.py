"""The benchmark workloads: inputs made from a seed, one op, and its outputs.

Each workload builds its inputs once in `setup` (not timed) and then runs
`op` repeatedly. The program sees only the generated inputs: the benchmark
draws its own tones, noise and projection weights from a Philox stream, so
a change to the program's samplers cannot change what a workload feeds it.
Every call into specfuse goes through a module attribute
(`fusion.multiband_attention`, not a name bound at import), so the tracing
wrappers, which replace those attributes, see each call.

Inputs depend on the seed only through `variant_of(seed)`, so that
`reference.json` can hold recorded outputs for every input a run can get.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from specfuse import analysis, attention, cli, fusion, harness, noise_init, spectral, tensor_core

# Every plan in the benchmark uses this native length; the traced branch
# metrics name a window of span s as alpha = s // T_ALPHA.
T_ALPHA = 8
VARIANTS = 16


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def normals(key: int, n: int) -> np.ndarray:
    """n standard normals: Box-Muller over a Philox stream's raw bits.

    Raw Philox bits are stable across numpy versions, unlike the
    Generator's samplers, so recorded references stay valid.
    """
    pairs = (n + 1) // 2
    raw = np.random.Philox(key=key).random_raw(2 * pairs)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1).reshape(-1)[:n]


def tone_frequencies(key: int) -> tuple[float, float]:
    """Frequencies of the T and H tones of a scene drawn with this key."""
    return math.pi * (1 + key % 7) / 16, math.pi * (1 + (key // 7) % 5) / 8


def tone_scene(shape: tuple[int, int, int, int], key: int) -> tensor_core.VideoLatent:
    """Cosine tones along T and H, with key-dependent frequencies, plus noise."""
    c, t, h, w = shape
    omega_t, omega_h = tone_frequencies(key)
    data = (np.cos(omega_t * np.arange(t))[None, :, None, None]
            + 0.5 * np.cos(omega_h * np.arange(h))[None, None, :, None]
            + 0.5 * normals(key, c * t * h * w).reshape(shape))
    return tensor_core.VideoLatent(data.astype(np.float32))


def projection_weights(d: int, key: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w = normals(key, 3 * d * d).reshape(3, d, d) / math.sqrt(d)
    return w[0], w[1], w[2]


@dataclass(frozen=True)
class Workload:
    """One workload: its why, the tokens one op processes, and its op.

    `setup(variant, workdir)` returns the inputs; `op(inputs)` returns the
    outputs as name -> array. `files` names output files the op writes in
    the work directory; their bytes are outputs too, read after the op.
    """

    name: str
    tokens_per_op: int
    setup: Callable[[int, Path], dict]
    op: Callable[[dict], dict]
    files: tuple[str, ...] = ()


# --- long-fuse: one multiband_attention call at the long shape ------------

LONG_SHAPE = (16, 64, 16, 16)


def _long_setup(variant: int, workdir: Path) -> dict:
    key = 1000 + variant
    return {
        "tokens": fusion.tokens_from_latent(tone_scene(LONG_SHAPE, key)),
        "weights": projection_weights(LONG_SHAPE[0], key + 500),
        "plan": fusion.FusionPlan(t_alpha=T_ALPHA, alphas=(1, 2, 4, 8)),
    }


def _long_op(inp: dict) -> dict:
    fused = fusion.multiband_attention(inp["tokens"], inp["weights"], inp["plan"],
                                       LONG_SHAPE[2:])
    return {"fused": fused.features}


# --- desk-pipeline: the README's CLI sequence in-process, then run_stack --

DESK_FILES = ("long.spfu", "ref.spfu", "noise.spfu", "fused3.spfu", "fused2.spfu",
              "blend.spfu", "snr.csv", "map.csv")


def _scene_text(shape: str, key: int) -> str:
    omega_t, omega_h = tone_frequencies(key)
    return (f"shape = {shape}\nseed = {key}\nnoise_level = 0.5\n"
            f"tones = t:{omega_t!r}:1.0, h:{omega_h!r}:0.5\n")


def _desk_setup(variant: int, workdir: Path) -> dict:
    key = 2000 + variant
    texts = {
        "long.cfg": _scene_text("8,32,8,8", key),
        "ref.cfg": _scene_text("8,8,8,8", key + 100),
        "bands3.cfg": f"t_alpha = {T_ALPHA}\nalphas = 1,2,4\nsparse_global = true\n",
        "bands2.cfg": f"t_alpha = {T_ALPHA}\nalphas = 1,4\n",
    }
    for name, text in texts.items():
        (workdir / name).write_text(text, encoding="utf-8")
    p = {name: str(workdir / name) for name in (*texts, *DESK_FILES)}
    wseed = str(key + 300)
    commands = [
        ("scene", ["scene", "--config", p["long.cfg"], "--out", p["long.spfu"]]),
        ("scene", ["scene", "--config", p["ref.cfg"], "--out", p["ref.spfu"]]),
        ("specmix", ["specmix", "--frames", "32", "--t-alpha", str(T_ALPHA),
                     "--seed", str(key + 200), "--channels", "8", "--height", "8",
                     "--width", "8", "--out", p["noise.spfu"]]),
        ("fuse", ["fuse", "--input", p["long.spfu"], "--plan", p["bands3.cfg"],
                  "--weights-seed", wseed, "--out", p["fused3.spfu"]]),
        ("fuse", ["fuse", "--input", p["long.spfu"], "--plan", p["bands2.cfg"],
                  "--weights-seed", wseed, "--out", p["fused2.spfu"]]),
        ("blend", ["blend", "--global", p["fused2.spfu"], "--local", p["fused3.spfu"],
                   "--d0", "0.25", "--out", p["blend.spfu"]]),
        ("analyze", ["analyze", "--ref", p["ref.spfu"], "--ext", p["blend.spfu"],
                     "--bands", "16", "--out", p["snr.csv"]]),
        ("attnmap", ["attnmap", "--input", p["long.spfu"], "--span", "8",
                     "--weights-seed", wseed, "--out", p["map.csv"]]),
    ]
    return {
        "commands": commands,
        "long": p["long.spfu"],
        "stack_plan": fusion.FusionPlan(t_alpha=T_ALPHA, alphas=(1, 4)),
        "stack_seed": key + 300,
    }


def _desk_op(inp: dict) -> dict:
    codes = []
    stdout = {}
    for name, argv in inp["commands"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main(argv))
        if buf.tell():
            stdout[f"{name}.stdout"] = buf.getvalue().encode("utf-8")
    tokens = fusion.tokens_from_latent(tensor_core.read_tensor(inp["long"]))
    stack = harness.run_stack(tokens, inp["stack_plan"], 2, inp["stack_seed"], (8, 8))
    return {"exit_codes": np.array(codes), **stdout, "stack": stack.features}


# --- signal-diag: spectral, noise, I/O and diagnostics; no _attend call ---

SIGNAL_CHW = (16, 16, 16)
SIGNAL_FRAMES = 256
ATTN_SHAPE = (16, 64, 8, 8)


def _signal_setup(variant: int, workdir: Path) -> dict:
    key = 3000 + variant
    c, h, w = SIGNAL_CHW
    return {
        "noise_params": noise_init.SpecMixParams(frames=SIGNAL_FRAMES, t_alpha=16,
                                                 seed_base=key, seed_res=key + 1,
                                                 seed_perm=key + 2),
        "scene": tone_scene((c, SIGNAL_FRAMES, h, w), key),
        "reference": tone_scene((c, 16, h, w), key + 100),
        "attn_latent": tone_scene(ATTN_SHAPE, key + 200),
        "weights": projection_weights(ATTN_SHAPE[0], key + 300),
        "path": str(workdir / "blend.spfu"),
    }


def _signal_op(inp: dict) -> dict:
    noise = noise_init.specmix(inp["noise_params"], SIGNAL_CHW)
    lpf = spectral.gaussian_lowpass(noise.shape[1:], 0.25, "radial")
    blended = fusion.spectral_blend(inp["scene"], noise, lpf)
    tensor_core.write_tensor(inp["path"], blended)
    back = tensor_core.read_tensor(inp["path"])
    report = analysis.relative_snr(inp["reference"], back, analysis.uniform_band_edges(32))
    tokens = fusion.tokens_from_latent(inp["attn_latent"])
    q, k, _ = attention.project_qkv(tokens, inp["weights"])
    window = attention.AttentionWindow.for_span(16, tokens.num_frames)
    amap = analysis.aggregate_attention(
        [attention.attention_map(q, k, tokens.frame_index, window=window)], tokens.num_frames)
    return {
        "noise": noise.data,
        "blend": blended.data,
        "readback": back.data,
        "snr": report.ratios,
        "attnmap": amap.matrix,
        "diagonality": np.array([analysis.diagonality(amap)]),
    }


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("long-fuse", LONG_SHAPE[1] * LONG_SHAPE[2] * LONG_SHAPE[3],
                 _long_setup, _long_op),
        Workload("desk-pipeline", 32 * 8 * 8, _desk_setup, _desk_op, DESK_FILES),
        Workload("signal-diag", SIGNAL_FRAMES * SIGNAL_CHW[1] * SIGNAL_CHW[2],
                 _signal_setup, _signal_op),
    )
}
