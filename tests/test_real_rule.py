"""The one real-number rule, `config.check_real`, at every parameter that takes
a real number: a stop frequency, a fraction, a tone, a noise level or a threshold.

Each parameter gets the same inputs: a string, None, a bool and NaN, which
must fail, and one value past each end of its interval, which must fail with
the interval in the message; a numpy float inside it must pass.
"""

import re

import numpy as np
import pytest

from specfuse import (
    FusionPlan,
    SnrReport,
    SyntheticScene,
    Tone,
    gaussian_lowpass,
    uniform_keyframes,
)
from specfuse.errors import InvalidParameterError

# (id, call, parameter name, interval as the message shows it, a value below it,
#  a value above it, a valid value)
ENTRIES = [
    ("plan-d0", lambda v: FusionPlan(t_alpha=8, alphas=(1, 2), d0=v),
     "d0", "(0, 1]", 0.0, 1.5, 0.3),
    ("gaussian_lowpass-d0", lambda v: gaussian_lowpass((4, 2, 2), v),
     "d0", "(0, 1]", 0.0, 1.5, 0.3),
    ("uniform_keyframes-fraction", lambda v: uniform_keyframes(8, v),
     "fraction", "(0, 1]", 0.0, 1.5, 0.5),
    ("tone-omega", lambda v: Tone("t", v, 1.0), "omega", f"[0, {np.pi}]", -0.5, 3.5, 1.0),
    ("tone-amplitude", lambda v: Tone("t", 1.0, v), "amplitude", "(0, inf)", 0.0, np.inf, 2.0),
    ("scene-noise_level", lambda v: SyntheticScene(shape=(1, 2, 2, 2), noise_level=v),
     "noise_level", "[0, inf)", -0.5, np.inf, 0.5),
    ("snr-threshold", lambda v: SnrReport([0.0, 1.0, np.pi], [1.0, 0.5], threshold=v),
     "threshold", "(-inf, inf)", -np.inf, np.inf, 0.9),
]


@pytest.mark.parametrize("kind", ["str", "none", "bool", "nan", "below", "above", "numpy"])
@pytest.mark.parametrize("call, name, interval, below, above, valid", [e[1:] for e in ENTRIES],
                         ids=[e[0] for e in ENTRIES])
def test_real_rule(call, name, interval, below, above, valid, kind):
    if kind == "numpy":
        call(np.float64(valid))
        call(np.float32(valid))
        return
    value = {"str": str(valid), "none": None, "bool": True, "nan": np.nan,
             "below": below, "above": above}[kind]
    message = f"{name} must be a finite real number in {interval}, got {value!r}"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        call(value)
