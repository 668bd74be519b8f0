"""Every registry check is its own tier-1 case, every check is registered,
and the `specfuse selftest` transcript is byte-stable with one line per check.

Tests in other modules do not restate a check: `test_check[<name>]` runs each
one. A few aliases (`test_x = staticmethod(selftest.check_y)`) still re-run a
check under another name; they are redundant with `test_check`.
"""

import inspect
import io

import pytest

from specfuse import selftest
from specfuse.selftest import CHECKS, run_selftest


def _transcript() -> tuple[str, bool]:
    buf = io.StringIO()
    ok = run_selftest(buf)
    return buf.getvalue(), ok


@pytest.fixture(scope="module")
def transcript():
    return _transcript()


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_check(check):
    check()


def test_registry_names_every_check_once():
    names = [name for name, _ in CHECKS]
    assert len(set(names)) == len(names)
    defined = {fn for name, fn in inspect.getmembers(selftest, inspect.isfunction)
               if name.startswith("check_") and fn.__module__ == selftest.__name__}
    assert defined == {fn for _, fn in CHECKS}


def test_output_is_byte_stable(transcript):
    assert _transcript() == transcript


def test_every_check_reports_one_line(transcript):
    out, ok = transcript
    assert ok, out
    # One line per check, in registry order, plus the summary.
    assert out.split("\n") == [f"ok {name}" for name, _ in CHECKS] + [
        f"selftest: {len(CHECKS)} checks, 0 failed", ""]
