"""3D Fourier transforms over (T, H, W) and frequency mask construction.

Transforms are orthonormal (1/sqrt(N) per axis in each direction), so
energy is preserved bin-for-bin and Parseval holds directly. `fft3` and
`ifft3` map latents to and from full complex arrays; no pipeline runs
them. The fusion path and band energy, whose inputs are real latents,
use the private real-input pair `_rfftn` / `_irfftn_real`, in the one
layout `_half_layout` defines: only the axes the masks vary on are transformed
(T alone in temporal mode), since a mask commutes with the transform
along an axis it is constant on, and the last of them keeps its half
(numpy's rfftn layout), the rest being its conjugate mirror. Both write
into caller-owned arrays (`out=`, which numpy's FFT takes from 2.0 on),
so the fusion runs them one channel block at a time; `_irfftn_real` returns its imaginary residue and largest
output instead of raising, and `_check_residue` checks them once for a
signal inverted in blocks.

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

from .config import check_integer, check_real
from .errors import InvalidParameterError, InvalidShapeError
from .tensor_core import VideoLatent, check_array

DOMAIN_MODES = ("temporal", "radial")


def fft3(x) -> np.ndarray:
    """Orthonormal 3D FFT over the (T, H, W) axes, per channel, as complex128.

    `x` is a VideoLatent or a real (C, T, H, W) array; either is
    transformed in float64. Both it and the spectrum pass `check_array`.
    """
    data = check_array(x.data if isinstance(x, VideoLatent) else x, "latent values", 4)
    return check_array(np.fft.fftn(data, axes=(1, 2, 3), norm="ortho"), "spectrum values", 4,
                       np.complex128)


def ifft3(spectrum) -> VideoLatent:
    """Orthonormal inverse 3D FFT of a complex (C, T, H, W) array; the imaginary part is dropped."""
    spectrum = check_array(spectrum, "spectrum values", 4, np.complex128)
    return VideoLatent(np.fft.ifftn(spectrum, axes=(1, 2, 3), norm="ortho").real)


def _half_layout(*grids: np.ndarray) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    """The real-input spectrum layout of one or more (T, H, W) weight grids.

    Returns `(axes, index)`. `axes` are the grid axes, from T = 0, along
    which any grid varies; constant grids give `(0,)`, an axis to run on.
    `index` maps a grid onto the half spectrum `_rfftn(x, axes)`: every
    bin of the transformed axes but n//2+1 of the last (length n), and bin
    0, kept as length 1 so it broadcasts, of the others.
    """
    axes = tuple(a for a in range(3)
                 if any((g != g.take([0], axis=a)).any() for g in grids)) or (0,)
    index = [slice(None) if a in axes else slice(1) for a in range(3)]
    index[axes[-1]] = slice(_half_shape(grids[0].shape, axes)[axes[-1]])
    return axes, tuple(index)


def _half_shape(shape: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, ...]:
    """The shape of `_rfftn(x, axes)` for an x of `shape`, whose last three
    axes are (T, H, W): the last transformed axis, of length n, keeps
    n//2+1 bins."""
    k = len(shape) - 3 + axes[-1]
    return (*shape[:k], shape[k] // 2 + 1, *shape[k + 1 :])


def _rfftn(x, axes: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal real-input FFT over `_half_layout`'s axes, in float64.

    `x` is a VideoLatent or a real array whose last three axes are
    (T, H, W). Returns the half of its spectrum that keeps bins 0 .. n//2
    of the last transformed axis (length n): the others are the
    conjugates of bins (n-1)//2 .. 1 at the negated frequencies of the
    other transformed axes, so the half holds the whole spectrum. With
    `out`, a complex128 array of the half's shape, the half is written
    there and `out` is returned.
    """
    data = x.data if isinstance(x, VideoLatent) else x
    return np.fft.rfftn(np.asarray(data, dtype=np.float64), axes=[a - 3 for a in axes],
                        norm="ortho", out=out)


def _irfftn_real(half: np.ndarray, axes: tuple[int, ...], n: int,
                 out: np.ndarray) -> tuple[float, float]:
    """Orthonormal inverse of a `_rfftn(x, axes)` half spectrum, into `out`.

    `out` is the float64 array the real signal is written to; `half` is
    overwritten. `n` is the length of the last transformed axis, passed
    because n = 2m and n = 2m+1 share the half length m+1. The inverse
    over the other transformed axes runs first, in place; the inverse
    over the last then treats every bin as the conjugate of its mirror,
    which drops one thing: the imaginary part of its self-conjugate planes
    (bin 0, and bin n/2 when n is even). Every other bin pairs with its
    mirror into a real signal, so those planes alone make up the
    imaginary residue the full complex inverse would have: at most
    (|Im P_0| + |Im P_n/2|) / sqrt(n) per output sample, P being a plane
    after the first inverse. Returns that bound's largest value and the
    largest absolute output, for `_check_residue`: a signal inverted in
    parts is checked once, against the largest of its parts.
    """
    last = axes[-1] - 3
    if len(axes) > 1:
        np.fft.ifftn(half, axes=[a - 3 for a in axes[:-1]], norm="ortho", out=half)
    np.fft.irfft(half, n=n, axis=last, norm="ortho", out=out)
    imag = np.abs(half.take(0, axis=last).imag)
    if n % 2 == 0:
        imag += np.abs(half.take(n // 2, axis=last).imag)
    return float(imag.max()) / np.sqrt(n), max(float(out.max()), -float(out.min()))


def _check_residue(residue: float, largest: float, max_imag: float) -> None:
    """InvalidParameterError when `_irfftn_real`'s residue exceeds
    max_imag * max(1, largest absolute output): real latents under
    symmetric masks keep it at rounding level relative to the signal,
    whatever its amplitude."""
    limit = max_imag * max(1.0, largest)
    if residue > limit:
        raise InvalidParameterError(
            f"imaginary residue {residue:.3e} exceeds {limit:.3e}; "
            "spectrum is not conjugate-symmetric"
        )


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
    if len(shape) != 3:
        raise InvalidShapeError(f"grid shape must be (T, H, W), got {tuple(shape)}")
    t, h, w = (check_integer(n, "grid axes", InvalidShapeError, minimum=1) for n in shape)
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

    The weights pass `check_array` and are kept as its read-only copy.
    Masks are symmetric under frequency negation, which keeps filtered
    real signals real after the inverse transform. They broadcast over
    the channel axis when applied to a spectrum.
    """

    weights: np.ndarray

    def __post_init__(self):
        arr = check_array(self.weights, "mask weights", 3, copy=True)
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise InvalidParameterError("mask weights must lie in [0, 1]")
        flipped = np.roll(arr[::-1, ::-1, ::-1], (1, 1, 1), axis=(0, 1, 2))
        if not np.array_equal(flipped, arr):
            raise InvalidParameterError("mask is not symmetric under frequency negation")
        object.__setattr__(self, "weights", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.weights.shape

    def complement(self) -> "FrequencyMask":
        return FrequencyMask(1.0 - self.weights)


def gaussian_lowpass(
    shape: tuple[int, int, int], d0: float, domain_mode: str = "radial"
) -> FrequencyMask:
    """Gaussian low-pass mask: weight = exp(-d^2 / (2 d0^2)).

    d is the normalized frequency distance in [0, 1] (grid frequency over
    pi), so d0 is the normalized stop frequency. Weight is 1 at DC and
    monotone non-increasing in d.
    """
    d0 = check_real(d0, "d0", 0, 1, low_open=True)
    d = frequency_grid(shape, domain_mode) / np.pi
    weights = np.exp(-(d**2) / (2.0 * d0**2))
    return FrequencyMask(weights)


def _check_alphas(alphas, error: type) -> tuple[int, ...]:
    """`alphas` as a non-empty, strictly ascending tuple of ints >= 1, else `error`."""
    alphas = tuple(check_integer(a, "alphas", error, minimum=1) for a in alphas)
    if not alphas:
        raise error("alphas must be non-empty")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise error(f"alphas must be strictly ascending, got {alphas}")
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
    alphas = _check_alphas(alphas, InvalidParameterError)
    grid = frequency_grid(shape, domain_mode)
    # Interior edges ascending: pi/(2*alpha) for every scale but the finest.
    edges = np.pi / (2.0 * np.array(alphas[:0:-1], dtype=np.float64))
    # Index 0 = coarsest band; ties (side="left") fall to the coarser side.
    # Indexing by edge, not by each band's [lo, hi], keeps a Nyquist bin that
    # rounds one ulp above pi (T = 26, 52, 94, ...) in the finest band.
    coarse_idx = np.searchsorted(edges, grid, side="left")
    return [FrequencyMask((coarse_idx == len(alphas) - 1 - i).astype(np.float64))
            for i in range(len(alphas))]
