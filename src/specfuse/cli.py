"""Command-line surface: deterministic pipelines over .spfu tensor files.

Exit codes: 0 success, 1 runtime failure (single `error: ...` line on
stderr), 2 usage error. Outputs go only to the paths named by flags, so
identical invocations produce identical bytes.

SPFU_THREADS caps the threads of the attention core's query frames and
of the fusion's channel blocks, plus the BLAS pools: above 0 it sets
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS, over any
values already set. numpy's FFT has no thread pool of its own (0 or
unset = library default: one thread per usable core, capped by
OMP_NUM_THREADS). It is applied before the numeric modules load; the
package imports them lazily for this.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .config import DOMAIN_MODES, check_seed, thread_cap
from .errors import InvalidParameterError


def _apply_thread_cap() -> None:
    n = thread_cap()
    if n > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(n)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="specfuse",
        description="Windowed attention, spectral fusion and noise tools for video latents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene", help="synthesize a latent from a scene config")
    p.add_argument("--config", required=True, help="scene spec (key = value file)")
    p.add_argument("--out", required=True, help="output .spfu path")

    p = sub.add_parser("blend", help="two-branch spectral blend of precomputed latents")
    p.add_argument("--global", dest="global_path", required=True,
                   help="latent carrying the low band (.spfu)")
    p.add_argument("--local", dest="local_path", required=True,
                   help="latent carrying the high band (.spfu)")
    p.add_argument("--d0", type=float, default=0.25, help="low-pass stop frequency")
    p.add_argument("--domain", choices=DOMAIN_MODES, default="radial",
                   help="frequency distance mode for the low-pass filter")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fuse", help="multi-scale attention fusion over a latent's tokens")
    p.add_argument("--input", required=True, help="input latent (.spfu)")
    p.add_argument("--plan", required=True, help="fusion plan config file")
    p.add_argument("--weights-seed", type=int, default=None,
                   help="seed for Q/K/V projections (omit for identity)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("specmix", help="seeded noise initialization for extended sequences")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--t-alpha", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; residual and shuffle streams use seed+1, seed+2")
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="band-wise relative SNR of extended vs reference")
    p.add_argument("--ref", required=True, help="reference latent (.spfu)")
    p.add_argument("--ext", required=True, help="extended latent (.spfu)")
    p.add_argument("--bands", type=int, default=16)
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--domain", choices=DOMAIN_MODES, default="temporal")
    p.add_argument("--out", required=True, help="CSV path (band_lo,band_hi,ratio,available)")

    p = sub.add_parser("attnmap", help="frame-level attention map and diagonality score")
    p.add_argument("--input", required=True, help="input latent (.spfu)")
    p.add_argument("--span", type=int, default=None,
                   help="local window span in frames (omit for global attention)")
    p.add_argument("--weights-seed", type=int, default=None,
                   help="seed for Q/K projections (omit for identity)")
    p.add_argument("--out", required=True, help="CSV path for the T x T map")

    sub.add_parser("selftest", help="run the built-in invariant suite")

    return parser


def _projection_weights(d: int, seed):
    import numpy as np

    from .harness import block_weights
    from .tensor_core import SeededRng

    if seed is None:
        eye = np.eye(d)
        return eye, eye, eye
    return block_weights(d, SeededRng(check_seed(seed, "weights_seed")))


def _cmd_scene(args) -> int:
    from .harness import SyntheticScene, make_scene
    from .tensor_core import write_tensor

    with open(args.config, "r", encoding="utf-8") as fh:
        scene = SyntheticScene.from_text(fh.read())
    write_tensor(args.out, make_scene(scene))
    return 0


def _cmd_blend(args) -> int:
    from .fusion import spectral_blend
    from .spectral import gaussian_lowpass
    from .tensor_core import read_tensor, write_tensor

    z_global = read_tensor(args.global_path)
    z_local = read_tensor(args.local_path)
    lpf = gaussian_lowpass(z_global.shape[1:], args.d0, args.domain)
    write_tensor(args.out, spectral_blend(z_global, z_local, lpf))
    return 0


def _cmd_fuse(args) -> int:
    from .fusion import FusionPlan, latent_from_tokens, multiband_attention, tokens_from_latent
    from .tensor_core import read_tensor, write_tensor

    latent = read_tensor(args.input)
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = FusionPlan.from_text(fh.read())
    tokens = tokens_from_latent(latent)
    weights = _projection_weights(tokens.d_model, args.weights_seed)
    fused = multiband_attention(tokens, weights, plan, latent.shape[2:])
    write_tensor(args.out, latent_from_tokens(fused, latent.shape[2:]))
    return 0


def _cmd_specmix(args) -> int:
    from .noise_init import SpecMixParams, specmix
    from .tensor_core import write_tensor

    seed = check_seed(args.seed, "seed", offset=2)
    params = SpecMixParams(
        frames=args.frames,
        t_alpha=args.t_alpha,
        seed_base=seed,
        seed_res=seed + 1,
        seed_perm=seed + 2,
    )
    out = specmix(params, (args.channels, args.height, args.width))
    write_tensor(args.out, out)
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import relative_snr, uniform_band_edges
    from .tensor_core import read_tensor

    report = relative_snr(
        read_tensor(args.ref),
        read_tensor(args.ext),
        uniform_band_edges(args.bands),
        threshold=args.threshold,
        domain_mode=args.domain,
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_csv())
    sys.stdout.write(report.to_text())
    return 0


def _cmd_attnmap(args) -> int:
    from .analysis import diagonality
    from .attention import AttentionWindow, frame_attention, project_qkv
    from .fusion import tokens_from_latent
    from .tensor_core import read_tensor

    latent = read_tensor(args.input)
    tokens = tokens_from_latent(latent)
    t = tokens.num_frames
    q, k, _ = project_qkv(tokens, _projection_weights(tokens.d_model, args.weights_seed))
    window = AttentionWindow.for_span(args.span, t) if args.span is not None else None
    attn = frame_attention(q, k, tokens.frame_index, window=window)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for row in attn.matrix:
            fh.write(",".join(f"{x:.10g}" for x in row) + "\n")
    sys.stdout.write(f"diagonality {diagonality(attn):.10g}\n")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest(sys.stdout) else 1


_HANDLERS = {
    "scene": _cmd_scene,
    "blend": _cmd_blend,
    "fuse": _cmd_fuse,
    "specmix": _cmd_specmix,
    "analyze": _cmd_analyze,
    "attnmap": _cmd_attnmap,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # deliberate catch-all: one-line diagnostics
        message = str(exc).replace("\n", " ") or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
