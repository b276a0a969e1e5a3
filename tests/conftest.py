"""Fixtures and helpers shared by the test modules: how many processes a
run that goes through ``spread._spread`` may use, and whether any is left."""

import os

import pytest

from puerm import spread


def _use_cpus(monkeypatch, n):
    """Let a run use up to ``n`` processes, however many CPUs the host has."""
    monkeypatch.setattr(spread, "_usable_cpus", lambda: n)


def _no_child_process() -> bool:
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def one_cpu(monkeypatch):
    """Run every task in this process, where a monkeypatch sees its calls."""
    _use_cpus(monkeypatch, 1)


@pytest.fixture
def three_cpus(monkeypatch):
    _use_cpus(monkeypatch, 3)
