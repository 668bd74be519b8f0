"""Plain-text key = value config dialect shared by plans and scene specs,
and the SPFU_THREADS environment variable.

One `key = value` pair per line; blank lines and lines starting with '#'
are ignored. Keys are case-sensitive. No sections, no nesting.

This module loads no numpy, so the CLI can read SPFU_THREADS before the
thread pools start.
"""

from __future__ import annotations

import numbers
import os

from .errors import InvalidParameterError


def parse_kv(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise InvalidParameterError(f"line {lineno}: empty key")
        if key in pairs:
            raise InvalidParameterError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def format_kv(pairs: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def parse_bool(value: str, key: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise InvalidParameterError(f"{key} must be 'true' or 'false', got {value!r}")


def parse_number(value: str, key: str, kind: type = int):
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InvalidParameterError(f"{key} must be {noun}, got {value!r}") from None


def check_integer(value, name: str, error: type = InvalidParameterError):
    """`value` if it is an int or a numpy integer, else `error` naming `name`."""
    if not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


def thread_cap() -> int:
    """SPFU_THREADS as an integer >= 0; 0 when unset, meaning no cap."""
    n = parse_number(os.environ.get("SPFU_THREADS", "0"), "SPFU_THREADS")
    if n < 0:
        raise InvalidParameterError(f"SPFU_THREADS must be >= 0, got {n}")
    return n
