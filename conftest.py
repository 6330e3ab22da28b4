"""Repository-wide pytest hooks: the ``timeout`` ini option without
pytest-timeout.

pyproject.toml sets a per-test ceiling (``timeout``).  pytest-timeout
enforces it where it is installed (the CI test extra); without the plugin
the hooks below do, for every suite under this directory (``tests/``,
``benchmarks/``, ``benchmarks/perf/``): a test still running after the
ceiling dumps every thread's traceback through faulthandler and ends the
run.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

_TIMEOUT = pytest.StashKey[float]()
_STDERR_FD = pytest.StashKey[int]()


def pytest_addoption(parser, pluginmanager):
    # pytest-timeout owns the ``timeout`` key when it is installed; without
    # it the key is registered here so the value is enforced, not ignored.
    if not pluginmanager.hasplugin("timeout"):
        parser.addini(
            "timeout",
            "per-test timeout in seconds: a test still running after it dumps "
            "every thread's traceback and ends the run (0 disables)",
            default="0",
        )


def pytest_configure(config):
    if config.pluginmanager.hasplugin("timeout"):
        return
    timeout = float(config.getini("timeout") or 0)
    if timeout > 0:
        config.stash[_TIMEOUT] = timeout
        # A duplicate of the real stderr: output capture redirects fd 2
        # while a test runs, and the dump must reach the terminal.
        config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    fd = config.stash.get(_STDERR_FD, None)
    if fd is not None:
        os.close(fd)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    timeout = item.config.stash.get(_TIMEOUT, 0.0)
    if not timeout:
        yield
        return
    # faulthandler's watchdog thread rather than SIGALRM: the campaign
    # runner's ``alarm_deadline`` owns ITIMER_REAL and would disarm it.
    faulthandler.dump_traceback_later(
        timeout, exit=True, file=item.config.stash[_STDERR_FD]
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
