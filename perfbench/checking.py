"""Output checks: recorded reference summaries compared at the oracle tolerance.

An output is summarised by its shape, the mean, root mean square and
largest magnitude of its finite entries, the number of non-finite entries,
and the values at up to PROBES fixed positions (every value of a small
output). `reference.json` holds these summaries for every workload and
input variant, recorded at the seed commit. A run passes when each number
lies within TOLERANCE of the recorded one (non-finite values must match
exactly). Each bound is implied by the repository's oracle criterion,
max |a - b| <= 1e-6 over all entries, so the check is never looser.

The summary is not the whole output. Byte identity, between repeated ops
and between traced and untraced ops of one run, is checked on a digest of
the full output bytes.
"""

from __future__ import annotations

import hashlib
import re
import struct

import numpy as np

TOLERANCE = 1e-6
PROBES = 48
SPFU_MAGIC = b"SPFU"
_SPFU_HEADER = struct.Struct("<4sHBB4I")
_NUMBER = re.compile(r"[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def as_array(value) -> np.ndarray:
    """Numeric form of an output: arrays as given, .spfu bytes as their
    float32 payload, any other bytes as the numbers in the text."""
    if isinstance(value, np.ndarray):
        return value
    if value[:4] == SPFU_MAGIC:
        dims = _SPFU_HEADER.unpack_from(value)[4:]
        return np.frombuffer(value, dtype="<f4", offset=_SPFU_HEADER.size).reshape(dims)
    return np.array([float(x) for x in _NUMBER.findall(value.decode("utf-8"))])


def probe_positions(n: int) -> list[int]:
    """Every index of a small output; PROBES spread indices of a large one."""
    if n <= 2 * PROBES:
        return list(range(n))
    stride = n // PROBES
    return [k * stride + (k * 7919) % stride for k in range(PROBES)]


def summarize(value) -> dict:
    arr = as_array(value)
    flat = np.asarray(arr, dtype=np.float64).reshape(-1)
    finite = flat[np.isfinite(flat)]
    return {
        "shape": list(arr.shape),
        "nonfinite": int(flat.size - finite.size),
        "mean": float(finite.mean()) if finite.size else 0.0,
        "rms": float(np.sqrt(np.mean(finite * finite))) if finite.size else 0.0,
        "absmax": float(np.abs(finite).max()) if finite.size else 0.0,
        "probes": [float(flat[i]) for i in probe_positions(flat.size)],
    }


def _close(a: float, b: float) -> bool:
    if np.isfinite(a) and np.isfinite(b):
        return abs(a - b) <= TOLERANCE
    return a == b or (np.isnan(a) and np.isnan(b))


def compare(summary: dict, reference: dict) -> list[str]:
    """Mismatches between one output's summary and its reference; [] if none."""
    if summary["shape"] != reference["shape"]:
        return [f"shape {summary['shape']} != {reference['shape']}"]
    problems = []
    if summary["nonfinite"] != reference["nonfinite"]:
        problems.append(f"nonfinite {summary['nonfinite']} != {reference['nonfinite']}")
    for key in ("mean", "rms", "absmax"):
        if not _close(summary[key], reference[key]):
            problems.append(f"{key} {summary[key]!r} != {reference[key]!r}")
    bad = [i for i, (a, b) in enumerate(zip(summary["probes"], reference["probes"]))
           if not _close(a, b)]
    if bad:
        i = bad[0]
        problems.append(f"{len(bad)} probes differ, first #{i}: "
                        f"{summary['probes'][i]!r} != {reference['probes'][i]!r}")
    return problems


def check_outputs(outputs: dict, reference: dict) -> list[str]:
    """Compare every output of one op with the recorded summaries."""
    problems = [f"{name}: missing" for name in reference if name not in outputs]
    problems += [f"{name}: not in reference" for name in outputs if name not in reference]
    for name in outputs:
        if name in reference:
            problems += [f"{name}: {p}" for p in compare(summarize(outputs[name]),
                                                       reference[name])]
    return problems


def digest(outputs: dict) -> str:
    """sha256 over every output's name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        value = outputs[name]
        h.update(name.encode("utf-8") + b"\0")
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode("ascii"))
            value = np.ascontiguousarray(value).tobytes()
        h.update(value)
    return h.hexdigest()
