"""One-shot oracles for the seeded streams and the spatial noise mix.

Each function is the whole-array formula of the stream spec in
`SeededRng`'s docstring, written out without blocks, scratch or `out=`
arguments, so the library's blocked passes can be checked byte for byte.
"""

import numpy as np

from specfuse import SpecMixParams


class OracleRng:
    """The Philox-4x64-10 stream of `SeededRng(seed)`, each draw as one formula."""

    def __init__(self, seed: int):
        self._bits = np.random.Philox(key=seed)

    def uniforms(self, n: int) -> np.ndarray:
        raw = self._bits.random_raw(n)
        return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        perm = np.arange(n, dtype=np.int64)
        if n > 1:
            u = self.uniforms(n - 1)
            for step, i in enumerate(range(n - 1, 0, -1)):
                j = int(u[step] * (i + 1))
                perm[i], perm[j] = perm[j], perm[i]
        return perm


def gaussian_data(shape, seed: int) -> np.ndarray:
    """`gaussian_latent(shape, SeededRng(seed)).data`: float64 normals rounded to float32."""
    return OracleRng(seed).normals(int(np.prod(shape))).reshape(shape).astype(np.float32)


def base_data(params: SpecMixParams, chw) -> np.ndarray:
    """`base_noise(params, chw).data`, the whole base built frame by frame."""
    c, h, w = chw
    t, ta = params.frames, params.t_alpha
    first = gaussian_data((c, ta, h, w), params.seed_base)
    out = np.empty((c, t, h, w), dtype=np.float32)
    out[:, :ta] = first
    perm_rng = OracleRng(params.seed_perm)
    for start in range(ta, t, ta):
        length = min(ta, t - start)
        out[:, start : start + length] = first[:, perm_rng.permutation(ta)[:length]]
    return out


def mix_weights(frames: int) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of d * pi/2 per temporal index, the extreme indices exactly 0/1.

    d = |t - c| / c is index t's distance to the centre c = (frames - 1) / 2.
    """
    if frames == 1:
        return np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1))
    centre = (frames - 1) / 2
    theta = np.array([abs(t - centre) / centre for t in range(frames)]) * np.pi / 2
    cos_w, sin_w = np.cos(theta), np.sin(theta)
    cos_w[-1] = cos_w[0] = 0.0
    sin_w[-1] = sin_w[0] = 1.0
    return cos_w[None, :, None, None], sin_w[None, :, None, None]


def mix_inputs(params: SpecMixParams, chw) -> tuple[np.ndarray, np.ndarray]:
    """The whole base and residual noise `specmix` mixes, in float64."""
    c, h, w = chw
    res = gaussian_data((c, params.frames, h, w), params.seed_res)
    return base_data(params, chw).astype(np.float64), res.astype(np.float64)


def spatial_mix(params: SpecMixParams, chw) -> np.ndarray:
    """`specmix(params, chw).data`: cos_w * base + sin_w * residual over whole
    float64 copies, rounded once to float32."""
    base, res = mix_inputs(params, chw)
    cos_w, sin_w = mix_weights(params.frames)
    return (cos_w * base + sin_w * res).astype(np.float32)
