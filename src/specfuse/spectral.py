"""3D Fourier transforms over (T, H, W) and frequency mask construction.

Transforms are orthonormal (1/sqrt(N) per axis in each direction), so
energy is preserved bin-for-bin and Parseval holds directly.

Frequency convention: bin k of an axis of length N maps to the normalized
angular frequency w = 2*pi*min(k, N-k)/N, covering [0, pi]. Masks are
defined on that grid in one of two modes:

* "temporal": only the temporal frequency matters; the mask is constant
  over spatial bins.
* "radial": the Euclidean norm of the per-axis normalized frequencies
  (each scaled to [0, 1]), clamped to 1, then rescaled to [0, pi].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ShapeMismatchError
from .tensor_core import SpectralTensor, VideoLatent

DOMAIN_MODES = ("temporal", "radial")


def _fftn(x) -> np.ndarray:
    """Orthonormal 3D FFT over (T, H, W) of a VideoLatent or a real (C, T, H, W) array."""
    data = x.data if isinstance(x, VideoLatent) else x
    return np.fft.fftn(np.asarray(data, dtype=np.float64), axes=(1, 2, 3), norm="ortho")


def _ifftn_real(spectrum: np.ndarray, max_imag: float | None = None) -> np.ndarray:
    """Real part of the orthonormal inverse 3D FFT, in float64; see ifft3."""
    full = np.fft.ifftn(spectrum, axes=(1, 2, 3), norm="ortho")
    if max_imag is not None:
        residue = float(np.abs(full.imag).max())
        limit = max_imag * max(1.0, float(np.abs(full.real).max()))
        if residue > limit:
            raise InvalidParameterError(
                f"imaginary residue {residue:.3e} exceeds {limit:.3e}; "
                "spectrum is not conjugate-symmetric"
            )
    return full.real


def fft3(x) -> SpectralTensor:
    """Orthonormal 3D FFT over the (T, H, W) axes, per channel.

    `x` is a VideoLatent or a real (C, T, H, W) array; either is
    transformed in float64.
    """
    return SpectralTensor(_fftn(x))


def ifft3(spectrum: SpectralTensor, max_imag: float | None = None) -> VideoLatent:
    """Orthonormal inverse 3D FFT; the imaginary residue is discarded.

    If `max_imag` is given, raises InvalidParameterError when the largest
    absolute imaginary component of the inverse exceeds
    max_imag * max(1, largest absolute real component). A spectrum built
    from a real latent through symmetric masks keeps the residue at
    rounding level relative to the signal, whatever its amplitude.
    """
    return VideoLatent(_ifftn_real(spectrum.data, max_imag))


def axis_frequencies(n: int) -> np.ndarray:
    """Normalized angular frequency of each FFT bin along one axis, in [0, pi]."""
    k = np.arange(n)
    return 2.0 * np.pi * np.minimum(k, n - k) / n


def frequency_grid(shape: tuple[int, int, int], domain_mode: str) -> np.ndarray:
    """Per-bin normalized angular frequency over a (T, H, W) grid.

    In "temporal" mode this is the temporal-axis frequency broadcast over
    space; in "radial" mode it is pi times the clamped Euclidean norm of
    the per-axis frequencies scaled to [0, 1]. Either way values lie in
    [0, pi] and are symmetric under per-axis frequency negation.
    """
    if domain_mode not in DOMAIN_MODES:
        raise InvalidParameterError(f"unknown domain_mode {domain_mode!r}")
    t, h, w = shape
    wt = axis_frequencies(t)
    if domain_mode == "temporal":
        return np.broadcast_to(wt[:, None, None], (t, h, w)).copy()
    ft = wt / np.pi
    fh = axis_frequencies(h) / np.pi
    fw = axis_frequencies(w) / np.pi
    radial = np.sqrt(
        ft[:, None, None] ** 2 + fh[None, :, None] ** 2 + fw[None, None, :] ** 2
    )
    return np.pi * np.minimum(radial, 1.0)


@dataclass(frozen=True, eq=False)
class FrequencyMask:
    """Real weights in [0, 1] over a (T, H, W) frequency grid.

    Masks are symmetric under frequency negation, which keeps filtered
    real signals real after the inverse transform. They broadcast over
    the channel axis when applied to a spectrum.
    """

    weights: np.ndarray
    domain_mode: str = "temporal"

    def __post_init__(self):
        arr = np.array(self.weights, dtype=np.float64, order="C")
        if arr.ndim != 3:
            raise InvalidParameterError(f"mask must be (T, H, W), got rank {arr.ndim}")
        if self.domain_mode not in DOMAIN_MODES:
            raise InvalidParameterError(f"unknown domain_mode {self.domain_mode!r}")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise InvalidParameterError("mask weights must lie in [0, 1]")
        flipped = np.roll(arr[::-1, ::-1, ::-1], (1, 1, 1), axis=(0, 1, 2))
        if not np.array_equal(flipped, arr):
            raise InvalidParameterError("mask is not symmetric under frequency negation")
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.weights.shape

    def complement(self) -> "FrequencyMask":
        return FrequencyMask(1.0 - self.weights, self.domain_mode)


def gaussian_lowpass(
    shape: tuple[int, int, int], d0: float, domain_mode: str = "radial"
) -> FrequencyMask:
    """Gaussian low-pass mask: weight = exp(-d^2 / (2 d0^2)).

    d is the normalized frequency distance in [0, 1] (grid frequency over
    pi), so d0 is the normalized stop frequency. Weight is 1 at DC and
    monotone non-increasing in d.
    """
    if not 0.0 < d0 <= 1.0:
        raise InvalidParameterError(f"d0 must lie in (0, 1], got {d0}")
    d = frequency_grid(shape, domain_mode) / np.pi
    weights = np.exp(-(d**2) / (2.0 * d0**2))
    return FrequencyMask(weights, domain_mode)


def _check_alphas(alphas) -> tuple[int, ...]:
    alphas = tuple(int(a) for a in alphas)
    if not alphas:
        raise InvalidParameterError("alphas must be non-empty")
    if alphas[0] < 1:
        raise InvalidParameterError(f"alphas must be >= 1, got {alphas}")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise InvalidParameterError(f"alphas must be strictly ascending, got {alphas}")
    return alphas


def band_masks(
    alphas, shape: tuple[int, int, int], domain_mode: str = "temporal"
) -> list[FrequencyMask]:
    """Indicator masks per scale, a partition of unity over the grid.

    Returned masks align with the (ascending) alphas list: masks[i] keeps
    the band owned by alphas[i]. Each scale alpha owns frequencies up to
    pi/(2*alpha): the coarsest scale keeps [0, pi/(2*alpha_max)], each
    finer scale keeps (pi/(2*alphas[i+1]), pi/(2*alphas[i])], and the
    finest scale runs up to pi instead of pi/2, so the bands tile the
    whole spectrum and a lone scale keeps everything. A bin exactly on a
    band edge belongs to the coarser band, so every bin is claimed exactly
    once and the masks sum to 1 everywhere.
    """
    alphas = _check_alphas(alphas)
    grid = frequency_grid(shape, domain_mode)
    # Interior edges ascending: pi/(2*alpha) for every scale but the finest.
    edges = np.pi / (2.0 * np.array(alphas[:0:-1], dtype=np.float64))
    # Index 0 = coarsest band; ties (side="left") fall to the coarser side.
    # Indexing by edge, not by each band's [lo, hi], keeps a Nyquist bin that
    # rounds one ulp above pi (T = 26, 52, 94, ...) in the finest band.
    coarse_idx = np.searchsorted(edges, grid, side="left")
    return [FrequencyMask((coarse_idx == len(alphas) - 1 - i).astype(np.float64), domain_mode)
            for i in range(len(alphas))]


def apply_mask(spectrum: SpectralTensor, mask: FrequencyMask) -> SpectralTensor:
    """Elementwise complex-by-real product, broadcast over channels."""
    if spectrum.shape[1:] != mask.shape:
        raise ShapeMismatchError(
            f"mask shape {mask.shape} does not match spectrum {spectrum.shape[1:]}"
        )
    return SpectralTensor(spectrum.data * mask.weights[None, :, :, :])


def parseval_energy(x) -> float:
    """Total squared magnitude of a latent or spectrum, accumulated in f64."""
    data = x.data
    return float((np.abs(data.astype(np.complex128)) ** 2).sum())
