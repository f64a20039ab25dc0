"""Resistive termination networks that cancel coupled-line crosstalk.

realize_network() maps an impedance matrix Zc onto physical resistors: one
self resistor per wire to the reference supply and one coupling resistor per
wire pair.  reduce_network() drops elements above practicality cutoffs, since
most far-pair resistors are far too large to matter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bundle import spd_inverse
from .errors import (IsolatedWireError, NonRealizableCouplingError, ValidationError, check_memory,
                     document, integer, number)
from .textio import read_json, write_csv, write_json

NETWORK_SCHEMA_VERSION = 1
DEFAULT_VREF = 0.5  # V, the termination rail when none is given

# Off-diagonal admittance above this is a genuinely negative resistor demand;
# anything smaller in magnitude is treated as no coupling at all.
_REALIZABLE_TOL = 1e-12  # S
# Row sums at or below this get no self resistor.
_FLOATING_TOL = 1e-15  # S

HISTOGRAM_BINS = 40


@dataclass(frozen=True)
class Resistor:
    """One network element; wires are 1-based, cross elements keep i < j."""

    kind: str  # "self" | "cross"
    i: int
    j: int | None
    ohms: float


@dataclass(frozen=True)
class TerminationNetwork:
    """A bag of resistors tying an n-wire bus to a reference supply."""

    n: int
    vref: float
    elements: tuple[Resistor, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("network needs at least one wire")
        # Before anything of n entries is built: network_admittance's n x n.
        check_memory(8.0 * self.n * self.n, "the admittance of a %d-wire network" % self.n,
                     "terminate fewer wires")
        if not math.isfinite(self.vref):
            raise ValidationError("network vref must be finite, got %r" % (self.vref,))
        seen_self = set()
        seen_cross = set()
        for el in self.elements:
            if not (0.0 < el.ohms < float("inf") and 1.0 / el.ohms < float("inf")):
                raise ValidationError("element %s has non-positive or non-finite resistance, "
                                      "or one too small for a finite conductance" % (el,))
            if el.kind == "self":
                if not 1 <= el.i <= self.n or el.j is not None:
                    raise ValidationError("bad self element indices %s" % (el,))
                if el.i in seen_self:
                    raise ValidationError("duplicate self element on wire %d" % el.i)
                seen_self.add(el.i)
            elif el.kind == "cross":
                if el.j is None or not (1 <= el.i < el.j <= self.n):
                    raise ValidationError("bad cross element indices %s" % (el,))
                if (el.i, el.j) in seen_cross:
                    raise ValidationError("duplicate cross element on pair (%d, %d)" % (el.i, el.j))
                seen_cross.add((el.i, el.j))
            else:
                raise ValidationError("unknown element kind %r" % el.kind)

    def to_dict(self):
        return {
            "n": self.n,
            "vref": self.vref,
            "elements": [
                {"kind": el.kind, "i": el.i, "j": el.j, "ohms": el.ohms}
                for el in self.elements
            ],
        }


def realize_network(zc, vref=DEFAULT_VREF):
    """Synthesize the crosstalk-cancelling resistor network for Zc.

    Y = Zc^-1; each negative off-diagonal entry becomes a coupling resistor
    -1/Y[i,j], and each positive row sum becomes a self resistor to the
    reference supply.  Wires whose row sum is ~zero get no self resistor; a
    wire left with no resistor path to the supply is allowed, but warned
    about (see floating_wires).

    Raises:
        NonRealizableCouplingError: some off-diagonal Y entry is positive
            beyond tolerance, i.e. the network would need a negative resistor.
    """
    zc = np.asarray(zc, dtype=float)
    y = spd_inverse(zc, what="impedance matrix")
    n = y.shape[0]
    elements = []
    for i in range(n):
        row_sum = float(y[i, :].sum())
        if row_sum > _FLOATING_TOL:
            elements.append(Resistor(kind="self", i=i + 1, j=None, ohms=1.0 / row_sum))
    for i in range(n - 1):
        for j in range(i + 1, n):
            yij = float(y[i, j])
            if yij > _REALIZABLE_TOL:
                raise NonRealizableCouplingError(i + 1, j + 1, yij)
            if yij >= -_REALIZABLE_TOL:
                continue  # no coupling between this pair
            elements.append(Resistor(kind="cross", i=i + 1, j=j + 1, ohms=-1.0 / yij))
    return _warn_floating(TerminationNetwork(n=n, vref=float(vref), elements=tuple(elements)))


def network_admittance(net):
    """Nodal admittance matrix of the network (reference node eliminated).
    A sum of conductances that overflows is left infinite, without numpy's
    warning: the nodal solves refuse the matrix by name."""
    y = np.zeros((net.n, net.n))
    with np.errstate(over="ignore"):
        for el in net.elements:
            g = 1.0 / el.ohms
            i = el.i - 1
            if el.kind == "self":
                y[i, i] += g
            else:
                j = el.j - 1
                y[i, i] += g
                y[j, j] += g
                y[i, j] -= g
                y[j, i] -= g
    return y


def self_conductances(net):
    """Per-wire conductance to the reference supply (zero where floating)."""
    s = np.zeros(net.n)
    for el in net.elements:
        if el.kind == "self":
            s[el.i - 1] = 1.0 / el.ohms
    return s


def reduce_network(net, self_cutoff, cross_cutoff=None):
    """Drop self elements above self_cutoff and cross elements above
    cross_cutoff, in ohms (inclusive: an element at its cutoff is kept), and
    warn about the wires this leaves floating.

    A cross resistor carries roughly half the current of a self resistor of
    equal value, so cross_cutoff defaults to twice self_cutoff.  Raises
    IsolatedWireError if any wire would lose every element.
    """
    if cross_cutoff is None:
        cross_cutoff = 2.0 * self_cutoff
    if not (self_cutoff > 0.0 and cross_cutoff > 0.0):
        raise ValidationError("cutoffs must be positive")
    kept = tuple(el for el in net.elements
                 if el.ohms <= (self_cutoff if el.kind == "self" else cross_cutoff))
    touched = set()
    for el in kept:
        touched.add(el.i)
        if el.j is not None:
            touched.add(el.j)
    isolated = [w for w in range(1, net.n + 1) if w not in touched]
    if isolated:
        raise IsolatedWireError(isolated)
    return _warn_floating(TerminationNetwork(n=net.n, vref=net.vref, elements=kept))


def _warn_floating(net):
    """net, after a warning that names its floating wires, if any."""
    loose = floating_wires(net)
    if loose:
        warnings.warn("wire(s) %s float relative to the reference supply"
                      % ", ".join(str(w) for w in loose), stacklevel=3)
    return net


def floating_wires(net):
    """Wires with no conductive path to the reference supply.

    Walks the resistor graph from every self-terminated wire; whatever is
    unreached (including fully isolated wires) floats.
    """
    adj = {w: set() for w in range(1, net.n + 1)}
    grounded = set()
    for el in net.elements:
        if el.kind == "self":
            grounded.add(el.i)
        else:
            adj[el.i].add(el.j)
            adj[el.j].add(el.i)
    reached = set()
    stack = list(grounded)
    while stack:
        w = stack.pop()
        if w in reached:
            continue
        reached.add(w)
        stack.extend(adj[w] - reached)
    return tuple(w for w in range(1, net.n + 1) if w not in reached)


def conductance_histogram(net):
    """Log-spaced histogram of element conductances.

    Returns a list of (bin_center_siemens, count) with the geometric center
    of each bin.  Handy for eyeballing where a cutoff should sit.  A center
    is sqrt(a * b) of its edges, or sqrt(a) * sqrt(b) where that product is
    not a normal float (edges past about 1e154 S or under 1e-154 S).
    """
    if not net.elements:
        raise ValidationError("cannot histogram an empty network")
    g = np.array([1.0 / el.ohms for el in net.elements])
    lo = float(g.min())
    hi = float(g.max())
    if lo == hi:
        lo *= 0.999
        hi *= 1.001
    edges = np.geomspace(lo, hi, HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(g, edges)
    a, b = edges[:-1], edges[1:]
    with np.errstate(over="ignore", under="ignore"):
        product = a * b
    centers = np.sqrt(product)
    odd = ~np.isfinite(product) | (product < np.finfo(float).tiny)
    centers[odd] = np.sqrt(a[odd]) * np.sqrt(b[odd])
    return list(zip(centers.tolist(), counts.tolist()))


def write_histogram_csv(net, path):
    write_csv(path, ["siemens", "count"], zip(*conductance_histogram(net)))


def load_network(path):
    return network_from_dict(read_json(path))


def network_from_dict(raw):
    raw = document(raw, "network document", ("n", "vref", "elements"))
    if not isinstance(raw["elements"], list):
        raise ValidationError("network elements must be a list")
    elements = []
    for e in raw["elements"]:
        e = document(e, "network element", ("kind", "i", "ohms"), ("j",))
        elements.append(Resistor(kind=e["kind"], i=integer(e["i"], "i"),
                                 j=None if e.get("j") is None else integer(e["j"], "j"),
                                 ohms=number(e["ohms"], "ohms")))
    return _warn_floating(TerminationNetwork(n=integer(raw["n"], "network n"),
                                             vref=number(raw["vref"], "network vref"),
                                             elements=tuple(elements)))


def save_network(net, path):
    write_json(path, net.to_dict())
