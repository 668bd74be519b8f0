"""The one choice rule, `config.check_choice`, at every entry point that takes a
mode, kind or axis name: window kinds, plan and mask domain modes and tone
axes, from constructors and from plan and scene files.

Each site gets the same inputs: a two-member str array, None, an int, bytes, a
list holding a member and a wrong-case member, which must fail with the entry's
error type and the rule's message, and an `np.str_` member, which must give
what the plain str gives. The plan's one flag, `sparse_global`, is read by the
class rule. The Hypothesis properties draw text and non-str values.
"""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specfuse import (
    AttentionWindow,
    FusionPlan,
    SeededRng,
    SyntheticScene,
    Tone,
    band_energy,
    band_masks,
    frequency_grid,
    gaussian_latent,
    gaussian_lowpass,
    relative_snr,
)
from specfuse import config
from specfuse.errors import InvalidParameterError, SpecfuseError
from specfuse.harness import AXIS_NAMES

LATENT = gaussian_latent((1, 4, 2, 2), SeededRng(0))
EDGES = [0.0, 1.0, np.pi]
KINDS = ("local", "global")
DOMAINS = config.DOMAIN_MODES

# (id, call, error, parameter name, vocabulary, prefix of file errors or None).
# A file site writes the value's text into its file, so its message shows that text.
SITES = [
    ("window-kind", lambda v: AttentionWindow(4, kind=v), InvalidParameterError, "kind", KINDS,
     None),
    ("plan-domain", lambda v: FusionPlan(t_alpha=2, alphas=(1, 2), domain_mode=v),
     InvalidParameterError, "domain_mode", DOMAINS, None),
    ("plan-file-domain",
     lambda v: FusionPlan.from_text(f"t_alpha = 2\nalphas = 1,2\ndomain_mode = {v}\n"),
     InvalidParameterError, "domain_mode", DOMAINS, ""),
    ("frequency_grid", lambda v: frequency_grid((4, 2, 2), v),
     InvalidParameterError, "domain_mode", DOMAINS, None),
    ("gaussian_lowpass", lambda v: gaussian_lowpass((4, 2, 2), 0.2, v),
     InvalidParameterError, "domain_mode", DOMAINS, None),
    ("band_masks", lambda v: band_masks((1, 2), (4, 2, 2), v),
     InvalidParameterError, "domain_mode", DOMAINS, None),
    ("band_energy", lambda v: band_energy(LATENT, EDGES, v),
     InvalidParameterError, "domain_mode", DOMAINS, None),
    ("relative_snr", lambda v: relative_snr(LATENT, LATENT, EDGES, domain_mode=v),
     InvalidParameterError, "domain_mode", DOMAINS, None),
    ("tone-axis", lambda v: Tone(v, 1.0, 1.0), InvalidParameterError, "axis", AXIS_NAMES, None),
    ("scene-file-axis",
     lambda v: SyntheticScene.from_text(f"shape = 1,4,2,2\ntones = {v}:1:1\n"),
     InvalidParameterError, "axis", AXIS_NAMES, "tones: "),
]
DIRECT = [site for site in SITES if site[5] is None]
FILES = [site for site in SITES if site[5] is not None]
BAD = {
    "array": lambda choices: np.array(choices[:2]),
    "none": lambda choices: None,
    "int": lambda choices: 1,
    "bytes": lambda choices: choices[0].encode(),
    "list": lambda choices: [choices[0]],
    "wrong-case": lambda choices: choices[-1].upper(),
}


def result_bytes(result):
    """What an entry returns, comparable with ==: the bytes of its arrays, or the object."""
    if isinstance(result, (list, tuple)):
        return b"".join(map(result_bytes, result))
    if isinstance(result, np.ndarray):
        return result.tobytes()
    for field in ("data", "weights", "ratios"):
        if hasattr(result, field):
            return getattr(result, field).tobytes()
    return result


def rejects(site, value):
    _, call, error, name, choices, prefix = site
    shown = value if prefix is None else str(value)
    message = f"{prefix or ''}{name} must be one of {choices}, got {shown!r}"
    with pytest.raises(SpecfuseError, match=f"^{re.escape(message)}$") as info:
        call(value)
    assert type(info.value) is error


def site_params(sites):
    return pytest.mark.parametrize("site", sites, ids=[s[0] for s in sites])


@pytest.mark.parametrize("kind", BAD)
@site_params(SITES)
def test_non_member_rejected(site, kind):
    rejects(site, BAD[kind](site[4]))


@site_params(SITES)
def test_numpy_str_member_accepted(site):
    _, call, _, _, choices, _ = site
    for member in choices:
        assert result_bytes(call(np.str_(member))) == result_bytes(call(member))


@pytest.mark.parametrize("flag, got", [(np.True_, "numpy.bool"), (1, "int"), ("true", "str")],
                         ids=["numpy-bool", "int", "str"])
def test_non_bool_sparse_global_rejected(flag, got):
    message = f"sparse_global must be of type bool, got {got}"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        FusionPlan(t_alpha=2, alphas=(1, 2), sparse_global=flag)


NON_STR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.binary(),
                    st.lists(st.text(max_size=8), max_size=2),
                    st.lists(st.text(max_size=8), min_size=1, max_size=3).map(np.array))


@given(site=st.sampled_from(DIRECT), data=st.data())
def test_drawn_value_accepted_exactly_when_a_member(site, data):
    _, call, _, _, choices, _ = site
    value = data.draw(st.one_of(st.sampled_from(choices), st.text(max_size=10), NON_STR),
                      label="value")
    if isinstance(value, str) and value in choices:
        call(value)
    else:
        rejects(site, value)


# A file holds one line per key and commas between list items, so the drawn
# words for a file site are plain: letters, digits and underscores.
WORDS = st.from_regex(r"[A-Za-z0-9_]{1,10}", fullmatch=True)


@given(site=st.sampled_from(FILES), data=st.data())
def test_drawn_file_word_accepted_exactly_when_a_member(site, data):
    _, call, _, _, choices, _ = site
    word = data.draw(st.one_of(st.sampled_from(choices), WORDS), label="word")
    if word in choices:
        call(word)
    else:
        rejects(site, word)
