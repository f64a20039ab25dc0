"""Reference bundles and termination designs used by the tests and by
scripts/make_fixtures.py.

Everything here is constructed so its electrical behavior is known in closed
form (scalar and pair bundles) or by explicit construction (the twelve-wire
bus, whose wire-space admittance is written down directly and then converted
to L/C, so the synthesized network can be checked against the generating
values).

The module also carries a reference termination dataset for a twelve-wire
electrode bundle.  The dataset is triangular-incomplete in its raw form; the
missing cells are filled using the bundle's two geometric symmetries (mirror
about the bundle midline, and swapping the outer wires of a layer) plus one
bounded estimate.  Each entry is tagged with how it was obtained so tests
can restrict themselves to directly known values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xtcancel.bundle import (DEFAULT_VELOCITY, CouplingMatrices, characteristic_impedance,
                             lc_from_impedance, spd_inverse)
from xtcancel.errors import ValidationError
from xtcancel.mtlsim import DriverBank, LinkSpec, Segment
from xtcancel.stimulus import StimulusSpec
from xtcancel.termination import Resistor, TerminationNetwork, realize_network

FOUR_INCHES_M = 0.1016


def scalar_bundle(z0=50.0, velocity=2.0e8, name="scalar"):
    """Single wire of characteristic impedance z0 at the given velocity."""
    zc = np.array([[float(z0)]])
    return lc_from_impedance(zc, velocity, name=name)


def pair_bundle(name="pair"):
    """Symmetric two-wire bundle whose synthesized network is known exactly.

    The wire-space admittance is fixed at +18.5 mS diagonal / -6.5 mS
    off-diagonal, i.e. self resistors of 250/3 ohm and a bridge of
    2000/13 ohm.  Both modes travel at DEFAULT_VELOCITY.
    """
    a, b = 0.0185, 0.0065
    det = a * a - b * b
    zc = np.array([[a, b], [b, a]]) / det
    return lc_from_impedance(zc, DEFAULT_VELOCITY, name=name)


def six_wire_bundle(name="six"):
    """Six-wire bus: two stacked layers of three wires.

    The impedance matrix is written down directly with 51 ohm diagonal and
    4 ohm adjacent in-layer coupling, so every adjacent same-layer pair has
    odd/even impedances of exactly 47 and 55 ohm; weaker cross-layer and
    second-neighbor terms round out the bundle.
    """
    zc = np.array([
        [51.0, 4.0, 1.0, 2.0, 0.8, 0.3],
        [4.0, 51.0, 4.0, 0.8, 2.0, 0.8],
        [1.0, 4.0, 51.0, 0.3, 0.8, 2.0],
        [2.0, 0.8, 0.3, 51.0, 4.0, 1.0],
        [0.8, 2.0, 0.8, 4.0, 51.0, 4.0],
        [0.3, 0.8, 2.0, 1.0, 4.0, 51.0],
    ])
    return lc_from_impedance(zc, DEFAULT_VELOCITY, name=name)


TWELVE_WIRE_NEAREST_OHMS = 220.0
TWELVE_WIRE_DECAY = 0.232
TWELVE_WIRE_EDGE_SELF_OHMS = 130.0
TWELVE_WIRE_INNER_SELF_OHMS = 240.0
TWELVE_WIRE_EDGE_WIRES = (1, 2, 11, 12)


def twelve_wire_admittance():
    """Wire-space admittance of the synthetic twelve-wire bus.

    Couplings decay geometrically with wire separation; every off-diagonal
    entry is negative (all 66 bridges exist), and the four edge wires carry
    a stronger self termination than the inner eight.
    """
    n = 12
    y = np.zeros((n, n))
    g1 = 1.0 / TWELVE_WIRE_NEAREST_OHMS
    for i in range(n):
        for j in range(n):
            if i != j:
                d = abs(i - j)
                y[i, j] = -g1 * TWELVE_WIRE_DECAY ** (d - 1)
    for i in range(n):
        wire = i + 1
        self_r = (TWELVE_WIRE_EDGE_SELF_OHMS if wire in TWELVE_WIRE_EDGE_WIRES
                  else TWELVE_WIRE_INNER_SELF_OHMS)
        y[i, i] = 1.0 / self_r - y[i].sum() + y[i, i]
    return y


def twelve_wire_bundle(velocity=DEFAULT_VELOCITY, name="twelve"):
    """Twelve-wire bus built from twelve_wire_admittance(); all modes share
    one velocity, so the synthesized network reproduces the admittance."""
    y = twelve_wire_admittance()
    zc = spd_inverse(y, what="twelve-wire admittance")
    return lc_from_impedance(zc, velocity, name=name)


SPEED_OF_LIGHT = 299792458.0


def microstrip_bundle(es, em, n=12, name="microstrip"):
    """An n-wire microstrip-like bundle whose modes travel at different
    speeds unless es == em.

    In air each wire has 1/(50 c) F/m to ground and mutual capacitances of
    0.15 and 0.03 times that to its first and second neighbours, an M-matrix
    Cair, and L = Cair^-1 / c^2.  The dielectric scales the ground part of
    Cair by es and the mutual part by em.  Twelve wires at es/em 3.4/2.6 and
    3.8/2.2 spread their modal delays over a 0.1016 m line by 28 and 54 ps.
    """
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    mutual = 0.15 * (gap == 1) + 0.03 * (gap == 2)
    mutual = (np.diag(mutual.sum(axis=1)) - mutual) / (50.0 * SPEED_OF_LIGHT)
    ground = np.eye(n) / (50.0 * SPEED_OF_LIGHT)
    ell = spd_inverse(ground + mutual, what="air capacitance") / SPEED_OF_LIGHT ** 2
    return CouplingMatrices.from_arrays(ell, es * ground + em * mutual, name=name)


def non_realizable_bundle(name="inductive-chain"):
    """Valid L/C whose impedance inverse has a positive off-diagonal entry.

    Inductive coupling here reaches two wires over while the capacitive
    coupling is nearest-neighbor only; the resulting characteristic
    admittance has Y[1,3] > 0, which no passive resistor bridge can realize.
    """
    ell = 400e-9 * np.array([[1.0, 0.6, 0.3],
                             [0.6, 1.0, 0.6],
                             [0.3, 0.6, 1.0]])
    cap = 100e-12 * np.array([[1.05, -0.05, 0.0],
                              [-0.05, 1.10, -0.05],
                              [0.0, -0.05, 1.05]])
    return CouplingMatrices.from_arrays(ell, cap, name=name)


def graded_bundles(trials=27, seed=29):
    """(Y, bundle) pairs whose wire scales span six decades.  Y is a seeded
    Maxwellian M-matrix admittance and the bundle's impedance is Y^-1,
    homogeneous at 1.5e8 m/s; trial k has 4 + k % 9 wires."""
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(trials):
        n = 4 + trial % 9
        d = np.logspace(0.0, 6.0, n)
        g = np.sqrt(np.outer(d, d)) * (0.1 + rng.random((n, n)))
        g = 0.5 * (g + g.T)
        np.fill_diagonal(g, 0.0)
        y = (np.diag(g.sum(axis=1) + d * (0.5 + rng.random(n))) - g) * 1e-6
        out.append((y, lc_from_impedance(np.linalg.inv(y), 1.5e8)))
    return out


def fifty_ohm_network(n, vref=0.5, ohms=50.0):
    """Conventional termination: one resistor to the reference per wire."""
    elements = tuple(Resistor(kind="self", i=k + 1, j=None, ohms=float(ohms))
                     for k in range(n))
    return TerminationNetwork(n=n, vref=vref, elements=elements)


def fixture_bundles():
    """The bundles of fixtures/, by file name, as their builders give them."""
    return {
        "scalar.json": scalar_bundle(50.0, 2.0e8, name="scalar-50ohm"),
        "pair.json": pair_bundle(name="pair"),
        "six.json": six_wire_bundle(name="six"),
        "twelve.json": twelve_wire_bundle(name="twelve"),
        "microstrip.json": microstrip_bundle(3.8, 2.2),
    }


def fixture_networks(bundles):
    """The networks of fixtures/, by file name, from fixture_bundles()."""
    nets = {}
    for fname, source in (("pair-network.json", "pair.json"),
                          ("twelve-network.json", "twelve.json"),
                          ("microstrip-network.json", "microstrip.json")):
        basis, _ = characteristic_impedance(bundles[source])
        nets[fname] = realize_network(basis.zc, vref=0.5)
    nets["twelve-50ohm.json"] = fifty_ohm_network(12, vref=0.5)
    nets["50ohm-scalar.json"] = fifty_ohm_network(1, vref=0.5)
    return nets


def simple_link(bundle, network, length_m=FOUR_INCHES_M, data_rate=16e9,
                rs_ohms=1.67, rise_s=10e-12, mode="worst", seed=None,
                prbs_order=7, streams=None,
                v_low=0.0, v_high=1.0, timestep_s=None):
    """One-segment link with uniform driver resistance; keeps tests short."""
    n = bundle.n
    rs = tuple(float(r) for r in rs_ohms) if isinstance(rs_ohms, (tuple, list)) \
        else (float(rs_ohms),) * n
    return LinkSpec(
        segments=(Segment(bundle=bundle, length_m=length_m),),
        drivers=DriverBank(rs_ohms=rs, v_low=v_low, v_high=v_high, rise_s=rise_s),
        termination=network,
        stimulus=StimulusSpec(data_rate=data_rate, prbs_order=prbs_order, seed=seed,
                              mode=mode, streams=streams),
        timestep_s=timestep_s,
    )


@dataclass(frozen=True)
class ReferenceEntry:
    """One cell of the reference termination dataset.

    basis says how the value was obtained: "direct" cells come straight from
    the dataset; "mirror" and "flip" cells are filled in from the bundle's
    symmetries; the single "estimate" cell is bounded but not measured.
    """

    i: int
    j: int
    ohms: float
    basis: str


# Reference termination design for a twelve-wire electrode bundle arranged in
# five stacked layers (wires 1-2 / 3-5 / 6-7 / 8-10 / 11-12).  The design is
# symmetric under mirroring (i, j) -> (13 - j, 13 - i) and under swapping the
# outer wires within each layer (1<->2, 3<->5, 6<->7, 8<->10, 11<->12).
_REFERENCE_DIRECT = (
    # self resistors
    (1, 1, 110.85721), (2, 2, 110.85727), (4, 4, 1417.93431), (5, 5, 224.54736),
    (7, 7, 1942.00554), (8, 8, 224.59869), (10, 10, 224.59879),
    (11, 11, 110.84691), (12, 12, 110.84690),
    # bridges
    (1, 2, 663.03745), (1, 3, 252.17476), (1, 4, 284.86464), (1, 5, 17371.75169),
    (1, 6, 2017.01452), (1, 7, 20628.10818), (1, 8, 15324.10950), (1, 9, 79597.11234),
    (2, 3, 17371.80328), (2, 4, 284.86474), (2, 5, 252.17483), (2, 6, 20628.38651),
    (2, 7, 2017.00556), (2, 9, 79606.24676), (2, 10, 15323.60895),
    (4, 5, 642.15035), (4, 6, 284.48164), (4, 7, 284.48160), (4, 8, 14789.49541),
    (4, 9, 2108.17695), (4, 10, 14789.61216), (4, 11, 79603.82438), (4, 12, 79601.53980),
    (5, 6, 17101.09114), (5, 7, 249.31422), (5, 9, 14788.58366), (5, 10, 568.14056),
    (5, 12, 15318.32199),
    (7, 8, 17101.36652), (7, 9, 284.48133), (7, 10, 249.30967), (7, 11, 20628.62871),
    (7, 12, 2016.97112),
    (8, 9, 642.13988), (8, 11, 252.17010), (8, 12, 17372.40969),
    (10, 11, 17372.18870), (10, 12, 252.17002),
    (11, 12, 663.07539),
)

_REFERENCE_FILLED = (
    # filled by the mirror symmetry (i, j) -> (13 - j, 13 - i)
    (3, 3, 224.59879, "mirror"), (6, 6, 1942.00554, "mirror"), (9, 9, 1417.93431, "mirror"),
    (3, 6, 249.30967, "mirror"), (3, 8, 568.14056, "mirror"), (3, 9, 14789.61216, "mirror"),
    (3, 11, 15323.60895, "mirror"), (6, 8, 249.31422, "mirror"), (6, 9, 284.48160, "mirror"),
    (6, 11, 2017.00556, "mirror"), (6, 12, 20628.10818, "mirror"),
    (9, 11, 284.86474, "mirror"), (9, 12, 284.86464, "mirror"),
    # filled by the in-layer flip (3<->5, 6<->7, 8<->10)
    (3, 4, 642.15035, "flip"), (3, 7, 17101.09114, "flip"), (6, 10, 17101.36652, "flip"),
    (9, 10, 642.13988, "flip"),
    # bounded estimate: the bridge between the middle-layer wires, by analogy
    # with the equivalent edge-layer bridges (1,2) and (11,12)
    (6, 7, 663.0, "estimate"),
)

# Pairs with no resistor in the reference design (couplings too weak to need
# cancellation).  The first nine are directly absent; the last three follow
# from the symmetries.
REFERENCE_ABSENT_PAIRS = (
    (1, 10), (1, 11), (1, 12), (2, 8), (2, 11), (2, 12), (5, 8), (5, 11), (8, 10),
    (3, 5), (3, 10), (3, 12),
)

REFERENCE_TWELVE_WIRE_TABLE = tuple(
    [ReferenceEntry(i=i, j=j, ohms=ohms, basis="direct") for i, j, ohms in _REFERENCE_DIRECT]
    + [ReferenceEntry(i=i, j=j, ohms=ohms, basis=basis) for i, j, ohms, basis in _REFERENCE_FILLED]
)


def reference_exact_cells():
    """Only the directly known cells of the reference dataset."""
    return tuple(e for e in REFERENCE_TWELVE_WIRE_TABLE if e.basis == "direct")


def reference_termination(vref=0.5):
    """The reference twelve-wire design as a TerminationNetwork."""
    elements = []
    for e in REFERENCE_TWELVE_WIRE_TABLE:
        if e.i == e.j:
            elements.append(Resistor(kind="self", i=e.i, j=None, ohms=e.ohms))
        else:
            lo, hi = min(e.i, e.j), max(e.i, e.j)
            elements.append(Resistor(kind="cross", i=lo, j=hi, ohms=e.ohms))
    # self elements first by wire, then cross pairs lexicographically
    elements.sort(key=lambda el: (el.kind == "cross", el.i, el.j or 0))
    net = TerminationNetwork(n=12, vref=vref, elements=tuple(elements))
    covered = {(min(e.i, e.j), max(e.i, e.j)) for e in REFERENCE_TWELVE_WIRE_TABLE}
    absent = set(REFERENCE_ABSENT_PAIRS)
    expect = {(i, j) for i in range(1, 13) for j in range(i, 13)}
    if covered | absent != expect or covered & absent:
        raise ValidationError("reference dataset does not tile the 12-wire matrix")
    return net
