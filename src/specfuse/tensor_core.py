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

from .config import check_instance, check_integer, check_seed, check_sequence, check_size
from .errors import (
    BadMagicError,
    InvalidShapeError,
    NonFiniteValueError,
    ShapeMismatchError,
    TruncatedPayloadError,
    UnsupportedFormatError,
)

MAGIC = b"SPFU"
FORMAT_VERSION = 1
DTYPE_F32 = 0
_HEADER = struct.Struct("<4sHBB4I")
# Normal pairs per block of the stream: a block's Philox words, uniforms and
# Box-Muller terms (56 bytes a pair, 448 KiB) stay in L2.
_BLOCK_PAIRS = 2**13


def _check_kind(arr: np.ndarray, name: str, dtype=np.float64,
                error: type = InvalidShapeError) -> None:
    """`check_array`'s kind step: raise `error` unless `arr` holds numbers of
    `dtype`'s kind or a narrower one, and no bools."""
    if arr.dtype == bool or not np.can_cast(arr.dtype, dtype, "same_kind"):
        noun = {"i": "integers", "c": "complex numbers"}.get(np.dtype(dtype).kind, "real numbers")
        raise error(f"{name} must hold {noun}, got {arr.dtype}")


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
    _check_kind(arr, name, dtype, error)
    arr = np.array(arr, dtype=dtype, order="C" if copy else "K", copy=copy)
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        raise NonFiniteValueError(f"{name} must be finite")
    if copy:
        arr.flags.writeable = False
    return arr


def check_shape(arr: np.ndarray, name: str, shape, error: type = ShapeMismatchError) -> np.ndarray:
    """`arr` if its shape is `shape`, else `error` naming `name`: the one shape rule
    for every operand whose shape another operand fixes."""
    if arr.shape != tuple(shape):
        raise error(f"{name} must have shape {tuple(shape)}, got {arr.shape}")
    return arr


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

    @classmethod
    def _adopt(cls, data: np.ndarray) -> "VideoLatent":
        """A latent that takes `data`, a new float32 (C, T, H, W) C-contiguous
        array of finite values that no one else holds, without the copy and
        the finiteness pass."""
        data.flags.writeable = False
        latent = cls.__new__(cls)
        object.__setattr__(latent, "data", data)
        return latent

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

    Normals are made in blocks of `_BLOCK_PAIRS` pairs: each block's words,
    uniforms and Box-Muller terms live in scratch reused from block to
    block, and only the caller's array, in the caller's dtype, is written
    at full size. The blocks change no value and no stream position.
    """

    def __init__(self, seed: int):
        self.seed = check_seed(seed, "seed")
        self._bits = np.random.Philox(key=self.seed)

    def _uniforms_into(self, u: np.ndarray) -> None:
        """Fill the float64 1-D array `u` with the next u.size uniforms."""
        raw = self._bits.random_raw(u.size)
        np.right_shift(raw, 11, out=raw)
        u[...] = raw
        u += 0.5
        u *= 2.0**-53

    def _normals_into(self, out: np.ndarray) -> None:
        """Fill the 1-D float array `out` with the next out.size normals, rounded
        once to its dtype; consumes ceil(out.size/2)*2 stream values.

        The one normal path. Each block of pairs runs the Box-Muller
        formula in float64 scratch, in the order of the spec, then writes
        its z0 and z1 interleaved into `out`. An odd size drops the last
        pair's z1, as a pair-buffered stream does.
        """
        n = out.size
        pairs = (n + 1) // 2
        step = max(1, min(pairs, _BLOCK_PAIRS))
        u, r, cos, sin = np.empty(2 * step), np.empty(step), np.empty(step), np.empty(step)
        for first in range(0, pairs, step):
            m = min(step, pairs - first)
            lo, hi = 2 * first, min(2 * (first + m), n)
            u_, r_, cos_, sin_ = u[: 2 * m], r[:m], cos[:m], sin[:m]
            self._uniforms_into(u_)
            np.log(u_[0::2], out=r_)
            r_ *= -2.0
            np.sqrt(r_, out=r_)
            np.multiply(u_[1::2], 2.0 * np.pi, out=sin_)
            np.cos(sin_, out=cos_)
            np.sin(sin_, out=sin_)
            np.multiply(r_, cos_, out=out[lo:hi:2])
            odd = (hi - lo) // 2
            np.multiply(r_[:odd], sin_[:odd], out=out[lo + 1 : hi : 2])

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values uniform on the open interval (0, 1)."""
        u = np.empty(check_integer(n, "n", minimum=0))
        self._uniforms_into(u)
        return u

    def normals(self, n: int) -> np.ndarray:
        """n float64 standard-normal values."""
        out = np.empty(check_integer(n, "n", minimum=0))
        self._normals_into(out)
        return out

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

    A `shape` not four ints >= 1 raises InvalidShapeError. Deterministic
    given the rng state; consumes ceil(n/2)*2 stream values. The stream is
    written straight into the float32 data, each value rounded once from
    its float64 normal, so no float64 array of the latent's size exists.
    """
    dims = check_sequence(shape, "shape", InvalidShapeError, 4, check_size)
    check_instance(rng, "rng", kind=SeededRng)
    data = np.empty(dims, dtype=np.float32)
    rng._normals_into(data.reshape(-1))
    return VideoLatent._adopt(data)


def write_tensor(path, latent: VideoLatent) -> None:
    """Write a latent to `path` in the .spfu format."""
    c, t, h, w = check_instance(latent, "latent", kind=VideoLatent).shape
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
    dims = check_sequence((c, t, h, w), "shape", InvalidShapeError, 4, check_size)
    expected = 4 * int(np.prod(dims))
    size = len(blob) - _HEADER.size
    if size < expected:
        raise TruncatedPayloadError(f"payload holds {size} bytes, header declares {expected}")
    if size > expected:
        raise UnsupportedFormatError(f"{size - expected} trailing bytes after payload")
    # VideoLatent rejects a payload holding NaN or Inf (NonFiniteValueError).
    return VideoLatent(np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(dims))
