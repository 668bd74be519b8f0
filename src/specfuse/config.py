"""Plain-text key = value config dialect shared by plans and scene specs,
the SPFU_THREADS environment variable, and the thread pool that splits a
pass into shares.

One `key = value` pair per line; blank lines and lines starting with '#'
are ignored. Keys are case-sensitive. No sections, no nesting.

`run_shares` is the one share runner: the attention core splits its
query frames and the fusion its channel blocks through it, `pool_width()`
shares wide. Callers reach both through this module, so patching
`config.pool_width` pins the width of every split.

This module loads no numpy, so the CLI can read SPFU_THREADS before the
thread pools start.
"""

from __future__ import annotations

import contextvars
import numbers
import os
from concurrent.futures import ThreadPoolExecutor

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
    """`value` if it is an int or a numpy integer (not a bool), else `error` naming `name`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


def thread_cap() -> int:
    """SPFU_THREADS as an integer >= 0; 0 when unset, meaning no cap."""
    n = parse_number(os.environ.get("SPFU_THREADS", "0"), "SPFU_THREADS")
    if n < 0:
        raise InvalidParameterError(f"SPFU_THREADS must be >= 0, got {n}")
    return n


def pool_width() -> int:
    """Threads that share a split pass, the calling thread included.

    The usable core count, capped by SPFU_THREADS when that is set above
    0, else by OMP_NUM_THREADS. A SPFU_THREADS that is not an integer
    >= 0 raises InvalidParameterError, as it does in the CLI.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    cap = thread_cap()
    if cap == 0:
        try:
            cap = int(os.environ.get("OMP_NUM_THREADS", "0"))
        except ValueError:  # OpenMP's own syntax, such as "4,2", is not a cap here
            cap = 0
    return max(1, min(cores, cap) if cap > 0 else cores)


def run_shares(task, shares) -> None:
    """Call `task(*share)` for every share, on one thread each.

    The calling thread runs the first share; pool threads, started for
    the call and joined before it returns (also when a share raises), run
    the rest. One share starts no thread. Each pool task runs in a copy
    of the caller's context: NumPy keeps np.errstate in a context
    variable, so errors and warnings follow the caller's settings on
    every thread. Memory a pool thread allocates stays cached in its
    malloc arena after the call and adds to the process's peak RSS, so
    callers allocate every share's scratch on the calling thread and pass
    it in the share.
    """
    first, *rest = shares
    if not rest:
        task(*first)
        return
    with ThreadPoolExecutor(len(rest), thread_name_prefix="specfuse") as pool:
        futures = [pool.submit(contextvars.copy_context().run, task, *share) for share in rest]
        task(*first)
    for future in futures:
        future.result()
