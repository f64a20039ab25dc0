"""A seeded generator of random valid links, for the identities that hold on
every link (tests/test_physics.py).

links(seed, count) draws every case from numpy's default_rng(seed) alone, so
a seed names the same links on every machine.  A case is one link:

- n from 1 to 8 wires;
- a banded M-matrix admittance at a random velocity, every mode at that
  velocity, or a microstrip bundle (designs.microstrip_bundle) whose modes
  travel at different speeds;
- the bundle's realized network, in 30 % of cases pruned of its bridges
  above their median ohms (every self resistor kept, so no wire floats);
- a driver resistance per wire from {0, 1.67, 50} ohm;
- 64, 80 or 100 steps a UI at 4-16 Gb/s, over 1-15 cm;
- in 40 % of cases, uncoupled breakouts of 0.3-3 mm and 30-80 ohm at both
  ends, never shorter than 1.05 timesteps of flight, so no case is refused
  for a step longer than a modal delay;
- PRBS5 in random mode, with a random LFSR seed.

Every link has a whole number of steps a UI, so the DFT-bin oracle of
tests/steady_state.py applies to each.
"""

from dataclasses import dataclass, replace

import numpy as np

from designs import microstrip_bundle, simple_link
from xtcancel.bundle import (DEFAULT_VELOCITY, characteristic_impedance, lc_from_impedance,
                             uncoupled_bundle)
from xtcancel.mtlsim import Segment
from xtcancel.termination import realize_network, reduce_network

DRIVER_OHMS = (0.0, 1.67, 50.0)
STEPS_PER_UI = (64, 80, 100)


@dataclass(frozen=True)
class Case:
    name: str  # what was drawn, for a failure message
    spec: object  # the LinkSpec


def banded_bundle(rng, n):
    """(bundle, description): a banded M-matrix admittance, 30-80 ohm to
    ground a wire and bridges of up to 30 % of that out to 1-3 neighbours,
    decaying with distance, as a homogeneous bundle at 1.2e8-2.5e8 m/s."""
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    ground = 1.0 / rng.uniform(30.0, 80.0, n)
    mutual = np.where((gap >= 1) & (gap <= rng.integers(1, 4)),
                      rng.uniform(0.0, 0.3, (n, n)) * np.sqrt(np.outer(ground, ground))
                      / np.maximum(gap, 1), 0.0)
    mutual = np.triu(mutual) + np.triu(mutual, 1).T
    y = np.diag(ground + mutual.sum(axis=1)) - mutual
    velocity = rng.uniform(1.2e8, 2.5e8)
    bundle = lc_from_impedance(np.linalg.inv(y), velocity, name="banded")
    return bundle, "banded %.3g m/s" % velocity


def links(seed, count):
    """count Cases drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(1, 9))
        if rng.random() < 0.5:
            bundle, what = banded_bundle(rng, n)
        else:
            es, em = rng.uniform(2.5, 4.5), rng.uniform(1.5, 3.5)
            bundle, what = microstrip_bundle(es, em, n=n), "microstrip %.2f/%.2f" % (es, em)
        net = realize_network(characteristic_impedance(bundle)[0].zc)
        pruned = n > 1 and rng.random() < 0.3
        if pruned:
            selfs = [el.ohms for el in net.elements if el.kind == "self"]
            cross = [el.ohms for el in net.elements if el.kind != "self"]
            net = reduce_network(net, max(selfs), float(np.median(cross)))
        rs = tuple(float(r) for r in rng.choice(DRIVER_OHMS, n))
        steps_per_ui = int(rng.choice(STEPS_PER_UI))
        rate = rng.uniform(4e9, 16e9)
        dt = 1.0 / rate / steps_per_ui
        length = rng.uniform(0.01, 0.15)
        spec = simple_link(bundle, net, length_m=length, data_rate=rate, rs_ohms=rs,
                           mode="random", seed=int(rng.integers(1, 32)), prbs_order=5,
                           timestep_s=dt)
        name = "case %d: n=%d %s%s, rs %s, %d steps/UI, %.3g Gb/s, %.3g cm" % (
            k, n, what, ", pruned" if pruned else "", rs, steps_per_ui, rate / 1e9, 100 * length)
        if rng.random() < 0.4:
            short = max(3e-4, 1.05 * DEFAULT_VELOCITY * dt)
            breakout_m, z0 = rng.uniform(short, 3e-3), rng.uniform(30.0, 80.0)
            end = Segment(bundle=uncoupled_bundle(n, z0=z0, velocity=DEFAULT_VELOCITY),
                          length_m=breakout_m)
            spec = replace(spec, segments=(end,) + spec.segments + (end,))
            name += ", %.2f mm %.0f ohm breakouts" % (1e3 * breakout_m, z0)
        out.append(Case(name=name, spec=spec))
    return out
