"""Dense 4-axis video tensors, deterministic sampling, and the .spfu file format.

Axis order is fixed to (C, T, H, W): channels, frames, height, width.
Latents are stored as float32; reductions and transforms elsewhere in
the toolkit accumulate in 64-bit, into plain float64 or complex128 arrays.

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


def check_array(value, name: str, ndim: int, dtype=np.float64, error: type = InvalidShapeError,
                copy: bool | None = None) -> np.ndarray:
    """`value` as a `dtype` array of `ndim` axes, none empty: the one array rule.

    Raises `error` for a wrong rank or an empty axis, then `error` for bools
    or entries not of `dtype`'s kind or a narrower one, then
    NonFiniteValueError for a NaN or Inf; every message names `name`.
    `copy=True` gives a new, read-only, C-contiguous array for a value type
    to keep; `copy=None` returns an array that already has `dtype` as it
    is, views included."""
    arr = np.asarray(value)
    if arr.ndim != ndim or 0 in arr.shape:
        raise error(f"{name} must have {ndim} non-empty axes, got shape {arr.shape}")
    if arr.dtype == bool or not np.can_cast(arr.dtype, dtype, "same_kind"):
        noun = {"i": "integers", "c": "complex numbers"}.get(np.dtype(dtype).kind, "real numbers")
        raise error(f"{name} must hold {noun}, got {arr.dtype}")
    arr = np.array(arr, dtype=dtype, order="C" if copy else "K", copy=copy)
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        raise NonFiniteValueError(f"{name} must be finite")
    if copy:
        arr.flags.writeable = False
    return arr


def _check_shape4(shape: tuple) -> tuple[int, int, int, int]:
    if len(shape) != 4:
        raise InvalidShapeError(f"expected 4 axes (C, T, H, W), got {len(shape)}")
    return tuple(check_integer(n, "shape", InvalidShapeError, minimum=1) for n in shape)


@dataclass(frozen=True, eq=False)
class VideoLatent:
    """Real-valued (C, T, H, W) tensor holding features or noise.

    The backing array is a float32, C-contiguous copy of the input, marked
    read-only, so the caller's array is neither aliased nor frozen;
    instances are safe to share across threads.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data",
                           check_array(self.data, "latent values", 4, np.float32, copy=True))

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
        self.seed = check_integer(seed, "seed", minimum=0)
        if self.seed >= 2**64:
            raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._bits = np.random.Philox(key=self.seed)

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values uniform on the open interval (0, 1)."""
        raw = self._bits.random_raw(check_integer(n, "n", minimum=0))
        return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n float64 standard-normal values."""
        n = check_integer(n, "n", minimum=0)
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
        n = check_integer(n, "n", minimum=0)
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
