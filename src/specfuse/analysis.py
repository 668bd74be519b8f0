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

from .config import check_instance, check_integer, check_real, check_sequence
from .errors import DegenerateInputError, InvalidParameterError, InvalidShapeError
from .spectral import _half_layout, _rfftn, frequency_grid
from .tensor_core import VideoLatent, _check_kind, check_array, check_shape

DEFAULT_THRESHOLD = 0.9


def uniform_band_edges(num_bands: int) -> np.ndarray:
    """Interior edges splitting [0, pi] into `num_bands` equal bands."""
    num_bands = check_integer(num_bands, "num_bands", minimum=1)
    return np.arange(1, num_bands) * (np.pi / num_bands)


def _check_edges(edges, name: str = "edges", closed: bool = False) -> np.ndarray:
    """Reals in [0, pi], strictly ascending; `closed` boundaries: 2 or more, ascending."""
    edges = np.array(check_sequence(edges, name, item=lambda e, n, _: check_real(e, n, 0, np.pi)))
    steps = np.diff(edges)
    if (len(edges) < 2 or (steps < 0).any()) if closed else (steps <= 0).any():
        rule = "2 or more ascending reals" if closed else "strictly ascending"
        raise InvalidParameterError(f"{name} must be {rule} within [0, pi]")
    return edges


def band_energy(x: VideoLatent, edges, domain_mode: str = "temporal") -> np.ndarray:
    """Spectral energy per band; bands tile [0, pi] between the edges.

    Edges not a strictly ascending sequence of reals in [0, pi] raise
    InvalidParameterError. A bin exactly on an edge counts toward the lower
    band, matching the band-mask convention, so the energies always sum to
    the total. Each channel is transformed by `_rfftn` in the grid's half
    layout (`spectral._half_layout`): only along the axes the frequency grid
    varies on, T alone in "temporal" mode, (T, H, W) in "radial" mode. By
    Parseval, summing the energy over the other axes leaves each bin's energy
    unchanged. The latent is real, so the last transformed axis keeps its
    half spectrum: bins 1 .. (n-1)//2 stand for their conjugate mirrors too
    and count twice, and the grid is symmetric, so a mirror is in its band.
    An `x` that is not a VideoLatent raises InvalidParameterError.
    """
    check_instance(x, "x", kind=VideoLatent)
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
    caller's arrays are neither aliased nor frozen. The boundaries pass
    `check_array` and `_check_edges` (closed); the ratios pass its kind
    step, one per band, and are non-negative, +inf included.
    """

    boundaries: np.ndarray  # band edges including 0 and pi, length n+1
    ratios: np.ndarray  # extended-over-reference normalized energy, length n
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        bounds = check_array(self.boundaries, "boundaries", 1, copy=True)
        _check_edges(bounds.tolist(), "boundaries", closed=True)
        ratios = np.asarray(self.ratios)
        _check_kind(ratios, "ratios")
        ratios = check_shape(np.array(ratios, dtype=np.float64), "ratios", (len(bounds) - 1,))
        if not (ratios >= 0).all():  # also NaN
            raise InvalidParameterError("ratios must be non-negative")
        object.__setattr__(self, "threshold", check_real(self.threshold, "threshold"))
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
    input's total energy makes the ratios scale-free. A ratio of 1 means the
    band holds the same share of the spectrum in both inputs. Edges as in
    `band_energy`; inputs that are not VideoLatents raise InvalidParameterError.
    """
    check_instance(reference, "reference", kind=VideoLatent)
    check_instance(extended, "extended", kind=VideoLatent)
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
    with np.errstate(divide="ignore", invalid="ignore"):
        # An empty reference band reads 1 if the extended band is also
        # empty (a perfect match), else inf (unbounded excess).
        ratios = np.where(ref_frac > 0.0, ext_frac / ref_frac,
                          np.where(ext_frac == 0.0, 1.0, np.inf))
    boundaries = np.concatenate(([0.0], edges, [np.pi]))
    return SnrReport(boundaries, ratios, threshold=threshold)


@dataclass(frozen=True, eq=False)
class AttnMap:
    """Frame-level attention map: (T, T), rows summing to 1.

    The matrix passes `check_array` and is kept as its read-only copy.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = check_array(self.matrix, "map entries", 2, copy=True)
        check_shape(m, "map entries", (len(m), len(m)), InvalidShapeError)
        if (m < 0).any():
            raise InvalidParameterError("map entries must be non-negative")
        if np.abs(m.sum(axis=1) - 1.0).max() > 1e-6:
            raise InvalidParameterError("map rows must sum to 1")
        object.__setattr__(self, "matrix", m)

    @property
    def frames(self) -> int:
        return self.matrix.shape[0]


def aggregate_attention(maps, num_frames: int) -> AttnMap:
    """Pool token-level weight matrices to one frame-level map.

    Each input is an (n, n) row-stochastic matrix of reals over the same
    frame grid (`check_array`'s kind step; no finiteness pass, which would
    add a temporary of n * n bytes). Token pairs are mean-pooled within
    frame pairs, the collection is averaged, and rows are renormalized to
    sum 1. A map that is not 2-D or not square raises InvalidShapeError; one
    that is empty or does not tile `num_frames`, or `maps` that are not a
    sequence, raise InvalidParameterError.
    """
    maps = check_sequence(maps, "attention matrices")
    if not maps:
        raise InvalidParameterError("need at least one attention matrix")
    t = check_integer(num_frames, "num_frames", minimum=1)
    pooled = np.zeros((t, t), dtype=np.float64)
    for m in maps:
        m = np.asarray(m)
        if m.ndim != 2:
            raise InvalidShapeError(
                f"attention matrices must have 2 non-empty axes, got shape {m.shape}")
        _check_kind(m, "attention matrices")
        check_shape(m, "attention matrices", (len(m), len(m)), InvalidShapeError)
        m = m.astype(np.float64, copy=False)
        if m.shape[0] % t or m.size == 0:
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
    """Fraction of attention mass within |i - j| <= max(1, T // 16); an `attn`
    that is not an AttnMap raises InvalidParameterError."""
    t = check_instance(attn, "attn", kind=AttnMap).frames
    radius = max(1, t // 16)
    i = np.arange(t)
    band = np.abs(i[:, None] - i[None, :]) <= radius
    total = attn.matrix.sum()
    return float(attn.matrix[band].sum() / total)
