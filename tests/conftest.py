"""Shared helpers for the test suite."""

import os

import numpy as np
import pytest

from xtcancel.bundle import CouplingMatrices


def random_bundle(rng, n):
    """A random valid bundle: SPD inductance, Maxwellian SPD capacitance.

    L comes from a Gram matrix plus a ridge; C is built as a diagonally
    dominant M-matrix so the sign structure and row sums always pass
    validation.  Magnitudes land near realistic per-unit-length values.
    """
    a = rng.normal(size=(n, n))
    L = (a @ a.T + n * np.eye(n)) * (1e-7 / n)
    g = np.abs(rng.normal(size=(n, n)))
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    C = (np.diag(g.sum(axis=1) + 0.2 + rng.random(n)) - g) * 1e-10
    return CouplingMatrices.from_arrays(L, C, name="random-%d" % n)


def realizable_admittance(rng, n):
    """A random termination-style admittance: symmetric M-matrix, SPD."""
    g = np.abs(rng.normal(size=(n, n))) * 1e-3
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    return np.diag(g.sum(axis=1) + 1e-3 * (0.5 + rng.random(n))) - g


@pytest.fixture
def cpus(monkeypatch):
    """set_cpus(k) makes write_texts see k CPUs; the pids it forks collect
    in set_cpus.forks."""
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            set_cpus.forks.append(pid)
        return pid

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    set_cpus.forks = []
    monkeypatch.setattr(os, "fork", counted_fork)
    return set_cpus
