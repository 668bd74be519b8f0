"""Tensor construction, seeded sampling, and the .spfu file format."""

import numpy as np
import pytest

from specfuse import selftest
from specfuse import (
    BadMagicError,
    InvalidParameterError,
    InvalidShapeError,
    NonFiniteValueError,
    SeededRng,
    TruncatedPayloadError,
    UnsupportedFormatError,
    VideoLatent,
    gaussian_latent,
    read_tensor,
    write_tensor,
)


class TestSeededRng:
    test_same_seed_same_stream = staticmethod(selftest.check_rng_reproducible)

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).normals(16), SeededRng(2).normals(16))

    def test_stream_is_sequential(self):
        rng = SeededRng(9)
        first = rng.normals(5)
        second = rng.normals(3)
        rng2 = SeededRng(9)
        # Pair-buffered Box-Muller: 5 requested values consume 3 pairs.
        combined = rng2.normals(6)
        assert np.array_equal(first, combined[:5])
        assert second.shape == (3,)

    def test_uniforms_open_interval(self):
        u = SeededRng(4).uniforms(10000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_permutation_is_valid(self):
        perm = SeededRng(5).permutation(17)
        assert sorted(perm.tolist()) == list(range(17))

    def test_permutation_deterministic(self):
        assert np.array_equal(SeededRng(6).permutation(12), SeededRng(6).permutation(12))

    @pytest.mark.parametrize("draw", ["uniforms", "normals", "permutation"])
    @pytest.mark.parametrize("n, message", [(4.5, "an integer"), (3.0, "an integer"),
                                            (True, "an integer"), (-1, ">= 0")])
    def test_bad_sample_count_rejected(self, draw, n, message):
        with pytest.raises(InvalidParameterError, match=f"^n must be {message}"):
            getattr(SeededRng(3), draw)(n)

    @pytest.mark.parametrize("draw", ["uniforms", "normals", "permutation"])
    def test_numpy_integer_and_zero_counts_accepted(self, draw):
        rng = SeededRng(3)
        assert getattr(rng, draw)(np.int64(5)).shape == (5,)
        assert getattr(rng, draw)(0).shape == (0,)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InvalidParameterError, match="seed must be an integer"):
            SeededRng(seed)


class TestGaussianLatent:
    test_single_value_deterministic = staticmethod(selftest.check_rng_reproducible)

    def test_sample_statistics(self):
        # N = 4096: mean inside 0.05 of 0, variance inside 0.1 of 1.
        lat = gaussian_latent((4, 16, 8, 8), SeededRng(7))
        values = lat.data.astype(np.float64)
        assert abs(values.mean()) < 0.05
        assert abs(values.var() - 1.0) < 0.1

    def test_zero_axis_rejected(self):
        with pytest.raises(InvalidShapeError):
            gaussian_latent((2, 0, 4, 4), SeededRng(1))

    def test_wrong_rank_rejected(self):
        with pytest.raises(InvalidShapeError):
            gaussian_latent((2, 4, 4), SeededRng(1))

    @pytest.mark.parametrize("shape", [(1, 4.5, 2, 2), (1, 4, 2, True), (1.0, 4, 2, 2)],
                             ids=["float", "bool", "integral-float"])
    def test_non_integer_axis_rejected(self, shape):
        with pytest.raises(InvalidShapeError, match="^shape must be an integer"):
            gaussian_latent(shape, SeededRng(1))

    def test_numpy_integer_axes_accepted(self):
        shape = tuple(np.int64(n) for n in (1, 4, 2, 3))
        lat = gaussian_latent(shape, SeededRng(1))
        assert lat.shape == (1, 4, 2, 3)
        assert np.array_equal(lat.data, gaussian_latent((1, 4, 2, 3), SeededRng(1)).data)


class TestVideoLatent:
    def test_rejects_non_finite(self):
        data = np.zeros((1, 2, 2, 2), dtype=np.float32)
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(InvalidShapeError):
            VideoLatent(data)

    def test_non_finite_is_its_own_error(self):
        data = np.zeros((1, 2, 2, 2), dtype=np.float32)
        data[0, 1, 0, 0] = np.inf
        with pytest.raises(NonFiniteValueError):
            VideoLatent(data)

    def test_copies_the_callers_array(self):
        data = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        before = data.copy()
        lat = VideoLatent(data)
        assert data.flags.writeable and np.array_equal(data, before)
        data[0, 0, 0, 0] = 99.0
        assert np.array_equal(lat.data, before)

    def test_immutable(self):
        lat = gaussian_latent((1, 2, 2, 2), SeededRng(3))
        with pytest.raises(ValueError):
            lat.data[0, 0, 0, 0] = 1.0


class TestFileFormat:
    test_value_roundtrip = staticmethod(selftest.check_file_roundtrip)

    def test_byte_roundtrip(self, tmp_path):
        lat = gaussian_latent((3, 2, 2, 2), SeededRng(12))
        p1, p2 = tmp_path / "a.spfu", tmp_path / "b.spfu"
        write_tensor(p1, lat)
        write_tensor(p2, read_tensor(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.spfu"
        write_tensor(path, gaussian_latent((1, 1, 2, 2), SeededRng(1)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.spfu"
        write_tensor(path, gaussian_latent((1, 5, 5, 4), SeededRng(2)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])  # drop one value of the declared 100
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.spfu"
        write_tensor(path, gaussian_latent((1, 1, 2, 2), SeededRng(3)))
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(UnsupportedFormatError):
            read_tensor(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "t.spfu"
        write_tensor(path, gaussian_latent((1, 1, 2, 2), SeededRng(4)))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedFormatError):
            read_tensor(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "t.spfu"
        write_tensor(path, gaussian_latent((1, 1, 1, 2), SeededRng(5)))
        blob = bytearray(path.read_bytes())
        blob[-8:-4] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteValueError):
            read_tensor(path)

    def test_zero_axis_header(self, tmp_path):
        path = tmp_path / "t.spfu"
        write_tensor(path, gaussian_latent((1, 1, 2, 2), SeededRng(6)))
        blob = bytearray(path.read_bytes())
        blob[8:12] = (0).to_bytes(4, "little")  # C = 0
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidShapeError):
            read_tensor(path)
