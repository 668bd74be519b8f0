"""Dense 4-axis video tensors, deterministic sampling, and the .spfu file format.

Axis order is fixed to (C, T, H, W): channels, frames, height, width.
Real tensors are stored as float32; all reductions and transforms elsewhere
in the toolkit accumulate in 64-bit.

File format (little-endian, no padding, no compression):

    magic   4 bytes  b"SPFU"
    version u16      = 1
    dtype   u8       0 = float32
    rank    u8       = 4
    dims    4 x u32  (C, T, H, W)
    payload C*T*H*W float32 values, row-major with W fastest
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .config import check_integer
from .errors import (
    BadMagicError,
    InvalidParameterError,
    InvalidShapeError,
    NonFiniteValueError,
    TruncatedPayloadError,
    UnsupportedFormatError,
)

MAGIC = b"SPFU"
FORMAT_VERSION = 1
DTYPE_F32 = 0
_HEADER = struct.Struct("<4sHBB4I")


def _check_shape4(shape: tuple) -> tuple[int, int, int, int]:
    if len(shape) != 4:
        raise InvalidShapeError(f"expected 4 axes (C, T, H, W), got {len(shape)}")
    dims = tuple(int(n) for n in shape)
    if any(n < 1 for n in dims):
        raise InvalidShapeError(f"all axes must be >= 1, got {dims}")
    return dims


@dataclass(frozen=True, eq=False)
class VideoLatent:
    """Real-valued (C, T, H, W) tensor holding features or noise.

    The backing array is a float32, C-contiguous copy of the input, marked
    read-only, so the caller's array is neither aliased nor frozen;
    instances are safe to share across threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float32, order="C")
        _check_shape4(arr.shape)
        if not np.isfinite(arr).all():
            raise NonFiniteValueError("latent values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class SpectralTensor:
    """Complex-valued (C, T, H, W) spectrum of either kind: a latent's full
    3D-FFT image (`fft3`), or the half spectrum `fusion.fused_spectrum`
    keeps in its masks' layout, (C, T//2+1, H, W) for temporal masks.

    Like VideoLatent, it holds a read-only, C-contiguous copy of its input.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128, order="C")
        _check_shape4(arr.shape)
        if not np.isfinite(arr).all():
            raise NonFiniteValueError("spectrum values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape


class SeededRng:
    """Deterministic random source: Philox-4x64-10 counter stream.

    Derived variates are fully specified so alternate implementations can
    reproduce the streams:

    * uniforms: u = ((raw >> 11) + 0.5) * 2**-53, strictly inside (0, 1)
    * normals: Box-Muller pairs
      z0 = sqrt(-2 ln u1) cos(2 pi u2), z1 = sqrt(-2 ln u1) sin(2 pi u2),
      emitted interleaved (z0, z1, z0, z1, ...)
    * permutations: Fisher-Yates, descending i, j = floor(u * (i + 1))

    Same seed gives a bit-identical stream across runs; transcendental
    calls (log, cos, sin) bind the normal stream to the platform libm.
    Instances are stateful and single-owner: do not share across threads.
    """

    def __init__(self, seed: int):
        if not 0 <= check_integer(seed, "seed") < 2**64:
            raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self._bits = np.random.Philox(key=self.seed)

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values uniform on the open interval (0, 1)."""
        raw = self._bits.random_raw(int(n))
        return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n float64 standard-normal values."""
        n = int(n)
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """A permutation of range(n) as int64, via Fisher-Yates."""
        n = int(n)
        perm = np.arange(n, dtype=np.int64)
        if n > 1:
            u = self.uniforms(n - 1)
            for step, i in enumerate(range(n - 1, 0, -1)):
                j = int(u[step] * (i + 1))
                perm[i], perm[j] = perm[j], perm[i]
        return perm


def gaussian_latent(shape: tuple, rng: SeededRng) -> VideoLatent:
    """Sample a latent of i.i.d. standard-normal entries.

    Deterministic given the rng state; consumes ceil(n/2)*2 stream values.
    """
    dims = _check_shape4(shape)
    n = int(np.prod(dims))
    return VideoLatent(rng.normals(n).reshape(dims))


def write_tensor(path, latent: VideoLatent) -> None:
    """Write a latent to `path` in the .spfu format."""
    c, t, h, w = latent.shape
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, DTYPE_F32, 4, c, t, h, w)
    payload = latent.data.astype("<f4", copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)


def read_tensor(path) -> VideoLatent:
    """Read a latent from a .spfu file.

    Raises BadMagicError, UnsupportedFormatError, TruncatedPayloadError or
    NonFiniteValueError depending on how the file is malformed.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagicError(f"not a .spfu file: bad magic {blob[:4]!r}")
    if len(blob) < _HEADER.size:
        raise TruncatedPayloadError(f"header truncated at {len(blob)} bytes")
    _, version, dtype, rank, c, t, h, w = _HEADER.unpack_from(blob)
    if version != FORMAT_VERSION:
        raise UnsupportedFormatError(f"unsupported format version {version}")
    if dtype != DTYPE_F32:
        raise UnsupportedFormatError(f"unsupported dtype code {dtype}")
    if rank != 4:
        raise UnsupportedFormatError(f"unsupported rank {rank}")
    dims = _check_shape4((c, t, h, w))
    expected = 4 * int(np.prod(dims))
    size = len(blob) - _HEADER.size
    if size < expected:
        raise TruncatedPayloadError(f"payload holds {size} bytes, header declares {expected}")
    if size > expected:
        raise UnsupportedFormatError(f"{size - expected} trailing bytes after payload")
    # VideoLatent rejects a payload holding NaN or Inf (NonFiniteValueError).
    return VideoLatent(np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(dims))
