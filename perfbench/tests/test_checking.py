"""The output checker accepts recorded outputs and rejects perturbed ones."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import checking, workloads

REFERENCE = json.loads((Path(checking.__file__).parent / "reference.json").read_text())


def _ramp(n=1000):
    return np.linspace(-2.0, 2.0, n).astype(np.float32)


def test_identical_output_passes():
    x = _ramp()
    assert checking.compare(checking.summarize(x), checking.summarize(x.copy())) == []


@pytest.mark.parametrize("perturb", [
    lambda x: x.__setitem__(checking.probe_positions(x.size)[5], x[checking.probe_positions(x.size)[5]] + 2e-6),
    lambda x: x.__setitem__(1, x[1] + 0.5),  # not a probe position: moves rms and mean
    lambda x: x.__imul__(np.float32(1.0001)),
    lambda x: x.__setitem__(3, np.inf),
])
def test_perturbed_output_is_rejected(perturb):
    x = _ramp()
    reference = checking.summarize(x)
    y = x.copy()
    perturb(y)
    assert checking.compare(checking.summarize(y), reference)


def test_shape_change_is_rejected():
    x = _ramp(1000)
    assert checking.compare(checking.summarize(x.reshape(10, 100)), checking.summarize(x))


def test_text_numbers_compare_numerically_not_as_bytes():
    csv = b"0,0.1963495408,0.5,0\n0.1963495408,0.3926990817,inf,1\n"
    reformatted = b"0.0,0.19634954080,5e-1,0\n0.1963495408,0.3926990817,inf,1\n"
    assert checking.compare(checking.summarize(reformatted), checking.summarize(csv)) == []
    changed = csv.replace(b"0.5,", b"0.5001,")
    assert checking.compare(checking.summarize(changed), checking.summarize(csv))


def test_missing_or_extra_output_is_rejected():
    ref = {"a": checking.summarize(_ramp())}
    assert checking.check_outputs({}, ref) == ["a: missing"]
    assert checking.check_outputs({"a": _ramp(), "b": _ramp()}, ref) == ["b: not in reference"]


def test_desk_pipeline_matches_reference_and_rejects_a_changed_file(tmp_path):
    wl = workloads.WORKLOADS["desk-pipeline"]
    outputs = wl.op(wl.setup(2, tmp_path))
    for name in wl.files:
        outputs[name] = (tmp_path / name).read_bytes()
    reference = REFERENCE["workloads"]["desk-pipeline"]["2"]
    assert checking.check_outputs(outputs, reference) == []

    payload = bytearray(outputs["fused2.spfu"])
    offset = 24 + 4 * checking.probe_positions((len(payload) - 24) // 4)[0]
    value = np.frombuffer(bytes(payload[offset:offset + 4]), "<f4")[0]
    payload[offset:offset + 4] = np.float32(value + 1e-3).tobytes()
    outputs["fused2.spfu"] = bytes(payload)
    assert checking.check_outputs(outputs, reference)
