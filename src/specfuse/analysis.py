"""Spectral and attention-structure diagnostics.

Relative SNR here means the ratio of normalized per-band spectral energy
(band energy over total energy) between an extended sequence and a short
reference. A band whose ratio reaches the availability threshold still
carries its share of the spectrum; bands far below it have been
attenuated or redistributed. Band energies transform one channel at a
time, in float64, in the half layout `spectral._half_layout` gives their
frequency grid: only along the axes it varies on (T in "temporal" mode,
(T, H, W) in "radial" mode), keeping the half spectrum of the last of
them. Frame-level attention maps quantify how concentrated attention
stays around the diagonal; `aggregate_attention` pools a dense map in one
read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_integer
from .errors import DegenerateInputError, InvalidParameterError
from .spectral import _half_layout, _rfftn, frequency_grid
from .tensor_core import VideoLatent

DEFAULT_THRESHOLD = 0.9


def uniform_band_edges(num_bands: int) -> np.ndarray:
    """Interior edges splitting [0, pi] into `num_bands` equal bands."""
    if check_integer(num_bands, "num_bands") < 1:
        raise InvalidParameterError(f"num_bands must be >= 1, got {num_bands}")
    return np.arange(1, num_bands) * (np.pi / num_bands)


def _check_edges(edges) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1:
        raise InvalidParameterError("edges must be a flat list")
    if not np.isfinite(edges).all():
        raise InvalidParameterError("edges must be finite")
    if edges.size and ((np.diff(edges) <= 0).any() or edges[0] < 0 or edges[-1] > np.pi):
        raise InvalidParameterError("edges must be strictly ascending within [0, pi]")
    return edges


def band_energy(x: VideoLatent, edges, domain_mode: str = "temporal") -> np.ndarray:
    """Spectral energy per band; bands tile [0, pi] between the edges.

    A bin exactly on an edge counts toward the lower band, matching the
    band-mask convention, so the energies always sum to the total. Each
    channel is transformed by `_rfftn` in the grid's half layout
    (`spectral._half_layout`): only along the axes the frequency grid
    varies on, T alone in "temporal" mode, (T, H, W) in "radial" mode. By
    Parseval, summing the energy over the other axes leaves each bin's
    energy unchanged. The latent is real, so the last transformed axis
    keeps its half spectrum: bins 1 .. (n-1)//2 stand for their conjugate
    mirrors too and count twice, and the frequency grid is symmetric, so
    a mirror falls in the same band.
    """
    edges = _check_edges(edges)
    grid = frequency_grid(x.shape[1:], domain_mode)
    axes, index = _half_layout(grid)
    summed = tuple(a for a in range(3) if a not in axes)
    n = grid.shape[axes[-1]]
    grid = grid[index]
    energy = np.zeros(grid.shape, dtype=np.float64)
    for channel in x.data:
        spec = _rfftn(channel, axes)
        energy += (np.square(spec.real) + np.square(spec.imag)).sum(axis=summed, keepdims=True)
    np.moveaxis(energy, axes[-1], -1)[..., 1 : (n + 1) // 2] *= 2.0
    band_idx = np.searchsorted(edges, grid, side="left")
    return np.bincount(band_idx.ravel(), weights=energy.ravel(), minlength=edges.size + 1)


@dataclass(frozen=True, eq=False)
class SnrReport:
    """Per-band relative energy ratios plus the availability summary.

    Both arrays are read-only float64 copies of the inputs, so the
    caller's arrays are neither aliased nor frozen.
    """

    boundaries: np.ndarray  # band edges including 0 and pi, length n+1
    ratios: np.ndarray  # extended-over-reference normalized energy, length n
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        bounds = np.array(self.boundaries, dtype=np.float64)
        ratios = np.array(self.ratios, dtype=np.float64)
        if bounds.size != ratios.size + 1:
            raise InvalidParameterError("need one more boundary than ratios")
        if (ratios < 0).any():
            raise InvalidParameterError("ratios must be non-negative")
        bounds.flags.writeable = False
        ratios.flags.writeable = False
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "ratios", ratios)

    @property
    def num_bands(self) -> int:
        return self.ratios.size

    @property
    def available(self) -> np.ndarray:
        return self.ratios >= self.threshold

    @property
    def available_count(self) -> int:
        return int(self.available.sum())

    def to_csv(self) -> str:
        """Rows of band_lo,band_hi,ratio,available — one per band, no header."""
        lines = []
        for i in range(self.num_bands):
            lines.append(
                f"{self.boundaries[i]:.10g},{self.boundaries[i + 1]:.10g},"
                f"{self.ratios[i]:.10g},{1 if self.available[i] else 0}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = []
        for i in range(self.num_bands):
            mark = "available" if self.available[i] else "degraded"
            lines.append(
                f"band [{self.boundaries[i]:.4f}, {self.boundaries[i + 1]:.4f}] "
                f"ratio {self.ratios[i]:.6g} {mark}"
            )
        lines.append(
            f"available {self.available_count}/{self.num_bands} "
            f"at threshold {self.threshold:.10g}"
        )
        return "\n".join(lines) + "\n"


def relative_snr(reference: VideoLatent, extended: VideoLatent, edges,
                 threshold: float = DEFAULT_THRESHOLD,
                 domain_mode: str = "temporal") -> SnrReport:
    """Band-wise normalized-energy ratio of an extended sequence vs a reference.

    Temporal axes (and shapes generally) may differ; normalization by each
    input's total energy makes the ratios scale-free. A ratio of 1 means
    the band holds the same share of the spectrum in both inputs.
    """
    edges = _check_edges(edges)
    ref_e = band_energy(reference, edges, domain_mode)
    ext_e = band_energy(extended, edges, domain_mode)
    ref_total = ref_e.sum()
    ext_total = ext_e.sum()
    if ref_total <= 0.0:
        raise DegenerateInputError("reference has zero total spectral energy")
    if ext_total <= 0.0:
        raise DegenerateInputError("extended input has zero total spectral energy")
    ref_frac = ref_e / ref_total
    ext_frac = ext_e / ext_total
    ratios = np.empty_like(ref_frac)
    for i in range(ratios.size):
        if ref_frac[i] > 0.0:
            ratios[i] = ext_frac[i] / ref_frac[i]
        else:
            # The reference is empty in this band: matching emptiness is a
            # perfect match, anything else is unbounded excess.
            ratios[i] = 1.0 if ext_frac[i] == 0.0 else np.inf
    boundaries = np.concatenate(([0.0], edges, [np.pi]))
    return SnrReport(boundaries, ratios, threshold=threshold)


@dataclass(frozen=True, eq=False)
class AttnMap:
    """Frame-level attention map: (T, T), rows summing to 1.

    The matrix is a read-only, C-contiguous float64 copy of the input.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidParameterError(f"map must be square, got {m.shape}")
        if (m < 0).any():
            raise InvalidParameterError("map entries must be non-negative")
        if np.abs(m.sum(axis=1) - 1.0).max() > 1e-6:
            raise InvalidParameterError("map rows must sum to 1")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def frames(self) -> int:
        return self.matrix.shape[0]


def aggregate_attention(maps, num_frames: int) -> AttnMap:
    """Pool token-level weight matrices to one frame-level map.

    Each input is an (n, n) row-stochastic matrix over the same frame
    grid. Token pairs are mean-pooled within frame pairs, the collection
    is averaged, and rows are renormalized to sum 1.
    """
    maps = [np.asarray(m, dtype=np.float64) for m in maps]
    if not maps:
        raise InvalidParameterError("need at least one attention matrix")
    t = int(num_frames)
    if t < 1:
        raise InvalidParameterError(f"num_frames must be >= 1, got {num_frames}")
    pooled = np.zeros((t, t), dtype=np.float64)
    for m in maps:
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % t:
            raise InvalidParameterError(f"matrix shape {m.shape} does not tile {t} frames")
        n = m.shape[0]
        tpf = n // t
        # Each key frame's weight per query row: the one read of the map,
        # as one BLAS matrix-vector pass.
        per_frame = (m.reshape(n * t, tpf) @ np.ones(tpf)).reshape(n, t)
        if np.abs(per_frame.sum(axis=1) - 1.0).max() > 1e-6:
            raise InvalidParameterError("input matrices must be row-stochastic")
        pooled += per_frame.reshape(t, tpf, t).mean(axis=1) / tpf
    pooled /= len(maps)
    pooled /= pooled.sum(axis=1, keepdims=True)
    return AttnMap(pooled)


def diagonality(attn: AttnMap) -> float:
    """Fraction of attention mass within |i - j| <= max(1, T // 16)."""
    t = attn.frames
    radius = max(1, t // 16)
    i = np.arange(t)
    band = np.abs(i[:, None] - i[None, :]) <= radius
    total = attn.matrix.sum()
    return float(attn.matrix[band].sum() / total)
