"""Windowed-attention and multi-band spectral fusion toolkit for video latents.

Every public name below can be imported from the package, but its module
loads on first access (PEP 562). `import specfuse.cli` therefore loads no
numpy, so the CLI can apply SPFU_THREADS before the thread pools start.
"""

import importlib

_EXPORTS = {
    "analysis": ("AttnMap", "SnrReport", "aggregate_attention", "band_energy", "diagonality",
                 "relative_snr", "uniform_band_edges"),
    "attention": ("AttentionWindow", "MacCounter", "TokenSequence", "attention_map",
                  "frame_attention", "masked_attention", "project_qkv", "sparse_attention",
                  "uniform_keyframes"),
    "errors": ("BadMagicError", "DegenerateInputError", "InvalidParameterError",
               "InvalidPlanError", "InvalidShapeError", "NonFiniteValueError",
               "ShapeMismatchError", "SpecfuseError", "TensorFileError",
               "TruncatedPayloadError", "UnsupportedFormatError"),
    "fusion": ("FusionPlan", "fused_spectrum", "latent_from_tokens", "multiband_attention",
               "multiband_fuse", "spectral_blend", "spectral_blend_attention",
               "tokens_from_latent"),
    "harness": ("SyntheticScene", "Tone", "block_weights", "make_scene", "run_stack"),
    "noise_init": ("SpecMixParams", "base_noise", "specmix"),
    "spectral": ("FrequencyMask", "band_masks", "fft3", "frequency_grid", "gaussian_lowpass",
                 "ifft3"),
    "tensor_core": ("SeededRng", "VideoLatent", "gaussian_latent", "read_tensor",
                    "write_tensor"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Looked up in the defining module on every access, never cached here,
    # so a name replaced on its module is replaced for the package too.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
