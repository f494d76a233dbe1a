"""Shared fixtures plus the acceptance report hook.

test_acceptance.py appends one line per criterion to `acceptance_report`;
after the run those lines are printed as their own terminal section so the
pass/fail status of every criterion is visible in one place.
"""

import numpy as np
import pytest

from oblivjoin import _native
from oblivjoin.harness import placement_uniformity

acceptance_report: list[str] = []


def record(line: str) -> None:
    acceptance_report.append(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def criterion_7_placement():
    """(counts, p) of placement_uniformity on acceptance criterion 7's
    case (n=16, m=64, 10^4 seeds), computed once: it takes about 15 s."""
    return placement_uniformity(16, 64, n_seeds=10_000)


@pytest.fixture(scope="session")
def native_loads(tmp_path_factory):
    """The native module loaded both ways through load()'s parameters:
    "native" built into a fresh cache (None where it cannot be built),
    "fallback" with a compiler that does not exist (always None)."""
    cache = tmp_path_factory.mktemp("native-cache")
    return {"native": _native.load(cache_dir=cache),
            "fallback": _native.load(cc=str(cache / "no-such-cc"),
                                     cache_dir=cache)}


@pytest.fixture
def native(native_loads):
    """The built native module; skips the test where it cannot be built."""
    kernel = native_loads["native"]
    if kernel is None:
        pytest.skip("the native module cannot be built here")
    return kernel


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_report:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_report:
        terminalreporter.write_line(line)
