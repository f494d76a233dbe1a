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
def native_kernels(tmp_path_factory):
    """load() into a fresh cache: the C kernels, or _native.NUMPY where
    they cannot be built."""
    return _native.load(cache_dir=tmp_path_factory.mktemp("native-cache"))


@pytest.fixture
def native(native_kernels):
    """The C kernels; skips the test where they cannot be built."""
    if native_kernels is _native.NUMPY:
        pytest.skip("the native module cannot be built here")
    return native_kernels


@pytest.fixture(params=["native", "numpy"])
def kernels(request, monkeypatch):
    """The kernel set of one path, the C kernels or _native.NUMPY, which
    _native.kernel() returns for the test; the native run skips where
    the C kernels cannot be built."""
    kernels = (request.getfixturevalue("native")
               if request.param == "native" else _native.NUMPY)
    monkeypatch.setattr(_native, "kernel", lambda: kernels)
    return kernels


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_report:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_report:
        terminalreporter.write_line(line)
