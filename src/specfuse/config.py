"""Plain-text key = value config dialect shared by plans and scene specs,
the integer (with its seed form), real-number, sequence and choice rules,
the domain modes, the SPFU_THREADS environment variable, and the thread
pool that splits a pass into shares.

One `key = value` pair per line; blank lines and lines starting with '#'
are ignored. Keys are case-sensitive. No sections, no nesting.

`run_shares` is the one share runner: the attention core splits its
query frames and the fusion its channel blocks through it, and it alone
picks the split, `pool_width()` shares wide, so patching
`config.pool_width` pins the width of every split.

This module loads no numpy, so the CLI can read SPFU_THREADS before the
thread pools start.
"""

from __future__ import annotations

import contextvars
import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidParameterError

# The domain modes, defined here so the library's checks and the CLI's
# choices read the same tuple without loading numpy.
DOMAIN_MODES = ("temporal", "radial")


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


parse_float = functools.partial(parse_number, kind=float)


def parse_list(value: str, key: str, item=parse_number) -> list:
    """Comma-separated `item(text, key)` values: an empty value is [], and an
    empty item (as in '1,,2' or '1,2,') raises naming `key`."""
    items = [text.strip() for text in value.split(",")] if value else []
    if "" in items:
        raise InvalidParameterError(f"{key} has an empty list item, got {value!r}")
    return [item(text, key) for text in items]


def read_record(text: str, kind: str, parsers: dict, required) -> dict:
    """The one reader of plan and scene files: the keys a `kind` file sets, each
    value read by `parsers[key](value, key)`. Unknown keys and missing `required`
    keys raise; absent keys are left out, so they take the dataclass defaults."""
    pairs = parse_kv(text)
    unknown = set(pairs) - set(parsers)
    if unknown:
        raise InvalidParameterError(f"unknown {kind} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in pairs]
    if missing:
        raise InvalidParameterError(f"{kind} is missing required keys: {missing}")
    return {key: parsers[key](value, key) for key, value in pairs.items()}


def check_integer(value, name: str, error: type = InvalidParameterError,
                  minimum: int | None = None) -> int:
    """`value` as an int if it is an int or a numpy integer (not a bool) of
    at least `minimum`, else `error` naming `name`: the one integer rule
    for every count, span, seed and dimension."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_seed(value, name: str, offset: int = 0) -> int:
    """`value` as a seed: the integer rule from 0, with `value + offset` below
    2**64, so that it and the `offset` seeds a caller derives after it
    (value + 1, ..., value + offset) each key a 64-bit Philox stream; else
    InvalidParameterError naming `name`, with the value as given."""
    seed = check_integer(value, name, minimum=0)
    if seed + offset >= 2**64:
        bound = ("a 64-bit unsigned integer" if offset == 0 else
                 f"<= {2**64 - 1 - offset}, so that {name} + {offset} is a 64-bit unsigned integer")
        raise InvalidParameterError(f"{name} must be {bound}, got {value}")
    return seed


def check_real(value, name: str, low: float = -math.inf, high: float = math.inf,
               low_open: bool = False) -> float:
    """`value` as a float if it is a finite real (an int, a float or a numpy
    number, not a bool) in [low, high], or in (low, high] when `low_open`,
    else InvalidParameterError naming `name`: the one real-number rule."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value)
            or not low <= value <= high or (low_open and value == low)):
        left, right = "(" if low_open or low == -math.inf else "[", ")" if high == math.inf else "]"
        raise InvalidParameterError(
            f"{name} must be a finite real number in {left}{low}, {high}{right}, got {value!r}")
    return float(value)


def check_sequence(value, name: str, error: type = InvalidParameterError,
                   length: int | None = None, item=None) -> tuple:
    """`value`'s items as a tuple, each read by `item(x, name, error)` if given:
    the one sequence rule. Any iterable but a str or bytes is a sequence, a
    generator too; anything else (a scalar, None, a 0-d array), or a length
    other than `length` when given, raises `error` naming `name`."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__") \
            or getattr(value, "ndim", None) == 0:
        raise error(f"{name} must be a sequence, got {value!r}")
    items = tuple(value)
    if length is not None and len(items) != length:
        raise error(f"{name} must have {length} items, got {len(items)}")
    return items if item is None else tuple(item(x, name, error) for x in items)


check_size = functools.partial(check_integer, minimum=1)


def check_instance(value, name: str, error: type = InvalidParameterError, *, kind: type):
    """`value` if it is a `kind`, else `error` naming `name`: the class rule for
    typed parameters, and with `kind` bound, an item reader for `check_sequence`.
    A class of the same name as `kind` is shown with its module: numpy.bool."""
    if not isinstance(value, kind):
        got = type(value)
        got = f"{got.__module__}.{got.__name__}" if got.__name__ == kind.__name__ else got.__name__
        raise error(f"{name} must be of type {kind.__name__}, got {got}")
    return value


def check_choice(value, name: str, choices: tuple, error: type = InvalidParameterError) -> str:
    """`value` if it is a str (a subclass too, such as numpy's) among `choices`,
    else `error` naming `name`: the one rule for every mode, kind and axis name."""
    if not (isinstance(value, str) and value in choices):
        raise error(f"{name} must be one of {choices}, got {value!r}")
    return value


def thread_cap() -> int:
    """SPFU_THREADS as an integer >= 0; 0 when unset, meaning no cap."""
    return check_integer(parse_number(os.environ.get("SPFU_THREADS", "0"), "SPFU_THREADS"),
                         "SPFU_THREADS", minimum=0)


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


def run_shares(task, count: int, scratch) -> None:
    """Run items 0 .. count-1 (count >= 1) as `task(items, scratch())`, one share per thread.

    The split is `width = min(pool_width(), count)` shares, item i going
    to share i mod width, so each share's `items` is a range. The calling
    thread runs share 0; pool threads, started for the call and joined
    before it returns (also when a share raises), run the rest. One share
    starts no thread. `scratch()` is called once per share, here on the
    calling thread: memory a pool thread allocates stays cached in its
    malloc arena after the call and adds to the process's peak RSS. Each
    pool task runs in a copy of the caller's context: NumPy keeps
    np.errstate in a context variable, so errors and warnings follow the
    caller's settings on every thread.
    """
    width = min(pool_width(), count)
    first, *rest = [(range(i, count, width), scratch()) for i in range(width)]
    if not rest:
        task(*first)
        return
    with ThreadPoolExecutor(len(rest), thread_name_prefix="specfuse") as pool:
        futures = [pool.submit(contextvars.copy_context().run, task, *share) for share in rest]
        task(*first)
    for future in futures:
        future.result()
