"""Synthetic scenes and fusion stacks for end-to-end exercises.

Scenes are sums of cosine tones with analytically known spectral content
plus optional seeded noise, so every downstream check can predict where
the energy lands. Desk-scale defaults keep brute-force oracles tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .attention import TokenSequence
from .errors import InvalidParameterError
from .fusion import FusionPlan, multiband_attention, spectral_blend_attention
from .tensor_core import SeededRng, VideoLatent, gaussian_latent

AXIS_NAMES = ("t", "h", "w")


@dataclass(frozen=True)
class Tone:
    """One cosine component along a named axis ("t", "h" or "w")."""

    axis: str
    omega: float
    amplitude: float

    def __post_init__(self):
        if self.axis not in AXIS_NAMES:
            raise InvalidParameterError(f"axis must be one of {AXIS_NAMES}, got {self.axis!r}")
        if not 0.0 <= self.omega <= np.pi:
            raise InvalidParameterError(f"tone frequency must lie in [0, pi], got {self.omega}")
        if self.amplitude <= 0.0:
            raise InvalidParameterError(f"amplitude must be positive, got {self.amplitude}")


@dataclass(frozen=True)
class SyntheticScene:
    """Recipe for a test latent: tones plus noise at a given shape."""

    shape: tuple[int, int, int, int]
    tones: tuple[Tone, ...] = ()
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_level < 0.0:
            raise InvalidParameterError(f"noise_level must be >= 0, got {self.noise_level}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "tones", tuple(self.tones))

    @classmethod
    def from_text(cls, text: str) -> "SyntheticScene":
        pairs = config.parse_kv(text)
        known = {"shape", "seed", "noise_level", "tones"}
        unknown = set(pairs) - known
        if unknown:
            raise InvalidParameterError(f"unknown scene keys: {sorted(unknown)}")
        if "shape" not in pairs:
            raise InvalidParameterError("scene needs a shape")
        shape = tuple(config.parse_number(n, "shape") for n in pairs["shape"].split(","))
        if len(shape) != 4:
            raise InvalidParameterError("shape must have four axes C,T,H,W")
        tones = []
        for item in pairs.get("tones", "").split(","):
            item = item.strip()
            if not item:
                continue
            parts = item.split(":")
            if len(parts) != 3:
                raise InvalidParameterError(f"tone must be axis:omega:amplitude, got {item!r}")
            tones.append(Tone(parts[0].strip(), config.parse_number(parts[1], "tones", float),
                              config.parse_number(parts[2], "tones", float)))
        return cls(
            shape=shape,
            tones=tuple(tones),
            noise_level=config.parse_number(pairs.get("noise_level", "0"), "noise_level", float),
            seed=config.parse_number(pairs.get("seed", "0"), "seed"),
        )


def make_scene(scene: SyntheticScene) -> VideoLatent:
    """Materialize a scene. Tones broadcast over every other axis."""
    c, t, h, w = scene.shape
    data = np.zeros((c, t, h, w), dtype=np.float64)
    lengths = {"t": t, "h": h, "w": w}
    axis_of = {"t": 1, "h": 2, "w": 3}
    for tone in scene.tones:
        n = lengths[tone.axis]
        wave = tone.amplitude * np.cos(tone.omega * np.arange(n))
        shape = [1, 1, 1, 1]
        shape[axis_of[tone.axis]] = n
        data += wave.reshape(shape)
    if scene.noise_level > 0.0:
        noise = gaussian_latent(scene.shape, SeededRng(scene.seed)).data
        data += scene.noise_level * noise
    return VideoLatent(data)


def block_weights(d_model: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q/K/V projections scaled by 1/sqrt(d) so logits stay O(1)."""
    scale = 1.0 / np.sqrt(d_model)
    return tuple(
        scale * rng.normals(d_model * d_model).reshape(d_model, d_model) for _ in range(3)
    )


def run_stack(tokens: TokenSequence, plan: FusionPlan, depth: int, seed: int,
              spatial: tuple[int, int], identity_weights: bool = False) -> TokenSequence:
    """Apply `depth` fusion blocks, each with its own seeded projections.

    Plans with two scales run the low-pass blend path; longer plans run
    the banded fusion path. Weight draws come from one stream seeded with
    `seed`, three matrices per block, so the run is reproducible.
    """
    if config.check_integer(depth, "depth") < 1:
        raise InvalidParameterError(f"depth must be >= 1, got {depth}")
    fuse = spectral_blend_attention if len(plan.alphas) == 2 else multiband_attention
    rng = SeededRng(seed)
    d = tokens.d_model
    out = tokens
    for _ in range(depth):
        weights = (np.eye(d),) * 3 if identity_weights else block_weights(d, rng)
        out = fuse(out, weights, plan, spatial)
    return out
