"""Scaling of timings to a reference machine speed.

On a shared host the CPU speed one process gets drifts by up to 2x and stays
at one level for tens of seconds (other tenants' load; no hardware counters
are exposed, so work cannot be counted instead).  Every pass of a 35 s run
can fall into one slow stretch, so medians of raw times spread between runs
by more than any useful regression bound.  Each timed pass is therefore
bracketed by a fixed calibration kernel that does not touch the program
under test, and scaled:

    scaled = raw * REFERENCE_S / mean(kernel before, kernel after)

A change to the program moves the raw time and not the kernel, so it moves
the scaled time by the same factor.  The kernel mixes the kinds of work the
workloads do: small dense matrix products, dict updates in the interpreter
and large memory copies.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time at the speed scaled times refer to: about the kernel's time
# in the fast stretches of the reference machine (a 2-vCPU x86-64 VM on a
# shared host, one BLAS thread), where scaled and raw times read alike.
REFERENCE_S = 0.012

# Preallocated operands and outputs: the kernel allocates nothing large, so
# it cannot change how the program's own allocations are served.
_MATRIX = np.random.default_rng(0).random((64, 64))
_PRODUCT = np.empty((64, 64))
_BLOCK = np.ones(1 << 19)  # 4 MB: beyond L2, small next to the workloads
_COPY = np.empty_like(_BLOCK)


def _kernel_once():
    start = time.perf_counter()
    for _ in range(400):
        np.matmul(_MATRIX, _MATRIX, out=_PRODUCT)
    table = {}
    for i in range(60000):
        table[i % 977] = i
    for _ in range(8):
        np.copyto(_COPY, _BLOCK)
    return time.perf_counter() - start


def kernel_seconds(repeats=3):
    """Median of ``repeats`` runs of the calibration kernel."""
    return statistics.median(_kernel_once() for _ in range(repeats))


def scaled(seconds, kernels):
    """``seconds`` at reference speed, given the kernel times around it."""
    return seconds * REFERENCE_S / (0.5 * (kernels[0] + kernels[1]))
