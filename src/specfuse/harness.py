"""Synthetic scenes and fusion stacks for end-to-end exercises.

Scenes are sums of cosine tones with analytically known spectral content
plus optional seeded noise, so every downstream check can predict where
the energy lands. Desk-scale defaults keep brute-force oracles tractable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import config
from .attention import TokenSequence
from .errors import InvalidParameterError, InvalidShapeError
from .fusion import FusionPlan, _check_spatial, multiband_attention, spectral_blend_attention
from .tensor_core import SeededRng, VideoLatent, gaussian_latent

AXIS_NAMES = ("t", "h", "w")


@dataclass(frozen=True)
class Tone:
    """One cosine component along a named axis ("t", "h" or "w")."""

    axis: str
    omega: float
    amplitude: float

    def __post_init__(self):
        config.check_choice(self.axis, "axis", AXIS_NAMES)
        object.__setattr__(self, "omega", config.check_real(self.omega, "omega", 0, np.pi))
        object.__setattr__(self, "amplitude",
                           config.check_real(self.amplitude, "amplitude", 0, low_open=True))


def _parse_tone(item: str, key: str) -> Tone:
    """One `axis:omega:amplitude` item of a scene file's tones list; its errors name `key`."""
    parts = item.split(":")
    try:
        if len(parts) != 3:
            raise InvalidParameterError(f"tone must be axis:omega:amplitude, got {item!r}")
        return Tone(parts[0].strip(), *map(config.parse_float, parts[1:], ("omega", "amplitude")))
    except InvalidParameterError as err:
        raise InvalidParameterError(f"{key}: {err}") from None


@dataclass(frozen=True)
class SyntheticScene:
    """Recipe for a test latent: tones plus noise at a given shape (four ints
    >= 1, else InvalidShapeError); tones not a sequence of Tones raise
    InvalidParameterError."""

    shape: tuple[int, int, int, int]
    tones: tuple[Tone, ...] = ()
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "noise_level",
                           config.check_real(self.noise_level, "noise_level", 0))
        config.check_seed(self.seed, "seed")
        object.__setattr__(self, "shape", config.check_sequence(
            self.shape, "shape", InvalidShapeError, 4, config.check_size))
        object.__setattr__(self, "tones", config.check_sequence(
            self.tones, "tones", item=functools.partial(config.check_instance, kind=Tone)))

    @classmethod
    def from_text(cls, text: str) -> "SyntheticScene":
        return cls(**config.read_record(text, "scene", {
            "shape": config.parse_list,
            "seed": config.parse_number,
            "noise_level": config.parse_float,
            "tones": lambda value, key: config.parse_list(value, key, _parse_tone),
        }, required=("shape",)))


def make_scene(scene: SyntheticScene) -> VideoLatent:
    """Materialize a scene. Tones broadcast over every other axis."""
    config.check_instance(scene, "scene", kind=SyntheticScene)
    data = np.zeros(scene.shape, dtype=np.float64)
    for tone in scene.tones:
        axis = 1 + AXIS_NAMES.index(tone.axis)
        shape = [1, 1, 1, 1]
        shape[axis] = scene.shape[axis]
        data += (tone.amplitude * np.cos(tone.omega * np.arange(shape[axis]))).reshape(shape)
    if scene.noise_level > 0.0:
        noise = gaussian_latent(scene.shape, SeededRng(scene.seed)).data
        data += scene.noise_level * noise
    return VideoLatent(data)


def block_weights(d_model: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q/K/V projections scaled by 1/sqrt(d) so logits stay O(1)."""
    d_model = config.check_integer(d_model, "d_model", minimum=1)
    config.check_instance(rng, "rng", kind=SeededRng)
    scale = 1.0 / np.sqrt(d_model)
    return tuple(
        scale * rng.normals(d_model * d_model).reshape(d_model, d_model) for _ in range(3)
    )


def run_stack(tokens: TokenSequence, plan: FusionPlan, depth: int, seed: int,
              spatial: tuple[int, int]) -> TokenSequence:
    """Apply `depth` fusion blocks, each with its own seeded projections.

    Plans with two scales run the low-pass blend path; longer plans run
    the banded fusion path. Weight draws come from one stream seeded with
    `seed`, three matrices per block, so the run is reproducible. A bad
    `spatial` raises ShapeMismatchError before the first block.
    """
    config.check_instance(tokens, "tokens", kind=TokenSequence)
    config.check_instance(plan, "plan", kind=FusionPlan)
    depth = config.check_integer(depth, "depth", minimum=1)
    spatial = _check_spatial(spatial, tokens.tokens_per_frame)
    fuse = spectral_blend_attention if len(plan.alphas) == 2 else multiband_attention
    rng = SeededRng(seed)
    d = tokens.d_model
    out = tokens
    for _ in range(depth):
        out = fuse(out, block_weights(d, rng), plan, spatial)
    return out
