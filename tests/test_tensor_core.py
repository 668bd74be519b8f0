"""Tensor construction, seeded sampling, and the .spfu file format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noise_oracle import OracleRng
from specfuse import selftest, tensor_core
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


def stream_lengths(block: int) -> list[int]:
    """Normal counts around the block edges: 0, 1, 2, B-1, B, B+1 and 2B+3
    pairs, each as 2p and, for p >= 1, the odd 2p - 1 values."""
    pairs = sorted({0, 1, 2, block - 1, block, block + 1, 2 * block + 3})
    return sorted({n for p in pairs for n in (2 * p, 2 * p - 1) if n >= 0})


class TestBlockedStream:
    """The blocked normal stream against the one-shot Box-Muller formula."""

    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    def test_normals_match_the_one_shot_formula(self, block, monkeypatch):
        monkeypatch.setattr(tensor_core, "_BLOCK_PAIRS", block)
        for n in stream_lengths(block):
            rng, oracle = SeededRng(11), OracleRng(11)
            assert rng.normals(n).tobytes() == oracle.normals(n).tobytes(), n
            # The stream position: the next draws of either kind agree too.
            assert rng.uniforms(3).tobytes() == oracle.uniforms(3).tobytes(), n
            assert rng.permutation(6).tobytes() == oracle.permutation(6).tobytes(), n
            assert rng.normals(5).tobytes() == oracle.normals(5).tobytes(), n

    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    def test_float32_latent_rounds_the_one_shot_formula_once(self, block, monkeypatch):
        monkeypatch.setattr(tensor_core, "_BLOCK_PAIRS", block)
        for n in stream_lengths(block)[1:]:
            rng, oracle = SeededRng(12), OracleRng(12)
            lat = gaussian_latent((1, n, 1, 1), rng)
            assert lat.data.dtype == np.float32
            assert lat.data.tobytes() == oracle.normals(n).astype(np.float32).tobytes(), n
            assert rng.uniforms(3).tobytes() == oracle.uniforms(3).tobytes(), n

    def test_default_block_at_its_edges(self):
        block = tensor_core._BLOCK_PAIRS
        for n in (2 * block - 1, 2 * block, 2 * block + 1, 4 * block + 3):
            assert SeededRng(13).normals(n).tobytes() == OracleRng(13).normals(n).tobytes()

    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 200), block=st.integers(1, 40),
           float32=st.booleans())
    def test_drawn_lengths_and_blocks(self, seed, n, block, float32):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor_core, "_BLOCK_PAIRS", block)
            rng, oracle = SeededRng(seed), OracleRng(seed)
            want = oracle.normals(n)
            if float32 and n:
                got = gaussian_latent((1, 1, 1, n), rng).data.ravel()
                want = want.astype(np.float32)
            else:
                got = rng.normals(n)
            assert got.tobytes() == want.tobytes()
            assert rng.uniforms(2).tobytes() == oracle.uniforms(2).tobytes()

    def test_latent_working_set(self):
        # 2**20 values: the float32 data (4 MiB) and one block's scratch; the
        # one-shot formula held 28 MiB of float64 and uint64 temporaries.
        tracemalloc.start()
        try:
            gaussian_latent((16, 256, 16, 16), SeededRng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


class TestGaussianLatent:
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
