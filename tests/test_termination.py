"""Termination network realization, reduction, and serialization tests."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import realizable_admittance
from designs import (fixture_bundles, fixture_networks, non_realizable_bundle, pair_bundle,
                     reference_exact_cells, reference_termination, twelve_wire_bundle,
                     REFERENCE_ABSENT_PAIRS, TWELVE_WIRE_EDGE_WIRES)
from xtcancel.bundle import characteristic_impedance, spd_inverse
from xtcancel.errors import (IsolatedWireError, NonRealizableCouplingError,
                             ValidationError)
from xtcancel.termination import (Resistor, TerminationNetwork,
                                  conductance_histogram, floating_wires,
                                  load_network, network_admittance,
                                  network_from_dict, realize_network,
                                  reduce_network, save_network,
                                  self_conductances, write_histogram_csv)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_uncoupled_realization():
    net = realize_network(np.diag([50.0, 50.0]))
    assert len(net.elements) == 2
    assert all(el.kind == "self" and el.ohms == pytest.approx(50.0, abs=1e-12)
               for el in net.elements)


def test_pair_realization_oracle():
    basis, _ = characteristic_impedance(pair_bundle())
    net = realize_network(basis.zc)
    selfs = [el for el in net.elements if el.kind == "self"]
    crosses = [el for el in net.elements if el.kind == "cross"]
    assert len(selfs) == 2 and len(crosses) == 1
    # Y = [[0.0185, -0.0065], [-0.0065, 0.0185]] by fixture construction
    for el in selfs:
        assert abs(el.ohms - 1.0 / 0.012) <= 1e-9 / 0.012
    assert abs(crosses[0].ohms - 1.0 / 0.0065) <= 1e-9 / 0.0065
    y = network_admittance(net)
    want = np.array([[0.0185, -0.0065], [-0.0065, 0.0185]])
    assert np.max(np.abs(y - want)) <= 1e-12


def test_realize_admittance_roundtrip_random():
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = 2 + trial % 9
        y = realizable_admittance(rng, n)
        net = realize_network(spd_inverse(y))
        back = network_admittance(net)
        assert np.max(np.abs(back - y)) <= 1e-9 * np.max(np.abs(y))
        assert len(net.elements) <= n * (n + 1) // 2
        # realize -> admittance -> realize is the identity on element lists
        again = realize_network(spd_inverse(back))
        assert len(again.elements) == len(net.elements)
        for a, b in zip(net.elements, again.elements):
            assert (a.kind, a.i, a.j) == (b.kind, b.i, b.j)
            assert abs(a.ohms - b.ohms) <= 1e-6 * a.ohms


def test_twelve_wire_element_count():
    basis, _ = characteristic_impedance(twelve_wire_bundle())
    net = realize_network(basis.zc)
    assert len(net.elements) == 78
    assert sum(1 for el in net.elements if el.kind == "self") == 12
    assert sum(1 for el in net.elements if el.kind == "cross") == 66


def test_non_realizable_coupling():
    basis, _ = characteristic_impedance(non_realizable_bundle())
    with pytest.raises(NonRealizableCouplingError) as info:
        realize_network(basis.zc)
    assert (info.value.i, info.value.j) == (1, 3)
    assert info.value.admittance > 1e-12
    assert "wires 1 and 3" in str(info.value)


def test_floating_wire_allowed():
    # middle wire's conductance row sums to zero: no self resistor for it
    y = np.array([[0.03, -0.01, 0.0],
                  [-0.01, 0.02, -0.01],
                  [0.0, -0.01, 0.03]])
    # wire 2 has no supply resistor but still reaches it through its
    # bridges, so nothing floats and nothing is warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = realize_network(spd_inverse(y))
    kinds = [(el.kind, el.i, el.j) for el in net.elements]
    assert ("self", 2, None) not in kinds
    assert floating_wires(net) == ()
    assert np.max(np.abs(network_admittance(net) - y)) <= 1e-12
    assert np.allclose(self_conductances(net), [0.02, 0.0, 0.02], atol=1e-15)


def test_floating_pair_warns():
    # wires 1 and 2 sum to ~zero and are bridged only to each other: no
    # path to the supply, which synthesis names as loading does
    g, e = 1e-2, 1e-16
    y = np.array([[g + e, -g, 0.0],
                  [-g, g + e, 0.0],
                  [0.0, 0.0, 0.02]])
    with pytest.warns(UserWarning, match=r"wire\(s\) 1, 2 float relative to the reference supply"):
        net = realize_network(spd_inverse(y))
    assert floating_wires(net) == (1, 2)


def test_reference_table_counts():
    net = reference_termination()
    assert len(net.elements) == 66
    assert sum(1 for el in net.elements if el.kind == "self") == 12
    assert len(reference_exact_cells()) == 48
    assert len(REFERENCE_ABSENT_PAIRS) == 12


def test_reference_reduction_counts():
    net = reference_termination()
    assert len(reduce_network(net, 60e3, 120e3).elements) == 66
    assert len(reduce_network(net, 500.0, 1000.0).elements) == 33
    assert len(reduce_network(net, 300.0, 600.0).elements) == 26


def test_reference_smallest_selfs_on_edge_wires():
    net = reference_termination()
    selfs = sorted((el for el in net.elements if el.kind == "self"),
                   key=lambda el: el.ohms)
    four = selfs[:4]
    assert sorted(el.i for el in four) == sorted(TWELVE_WIRE_EDGE_WIRES)
    for el in four:
        assert abs(el.ohms - 110.85) < 0.02


def test_reduce_inclusive_and_monotone():
    elements = (Resistor(kind="self", i=1, j=None, ohms=100.0),
                Resistor(kind="self", i=2, j=None, ohms=300.0),
                Resistor(kind="cross", i=1, j=2, ohms=200.0))
    net = TerminationNetwork(n=2, vref=0.5, elements=elements)
    # cutoffs exactly at the values keep the elements (inclusive comparison)
    kept = reduce_network(net, 300.0, 200.0)
    assert len(kept.elements) == 3
    tighter = reduce_network(net, 100.0, 200.0)
    assert len(tighter.elements) == 2
    kept_keys = {(el.kind, el.i, el.j) for el in tighter.elements}
    assert kept_keys <= {(el.kind, el.i, el.j) for el in kept.elements}


def test_reduce_isolation_error():
    basis, _ = characteristic_impedance(pair_bundle())
    net = realize_network(basis.zc)
    with pytest.raises(IsolatedWireError):
        reduce_network(net, 1.0, 2.0)


def test_cross_cutoff_defaults_to_twice_self():
    table = reference_termination()
    assert reduce_network(table, 500.0) == reduce_network(table, 500.0, 1000.0)
    net = TerminationNetwork(n=2, vref=0.5, elements=(
        Resistor(kind="self", i=1, j=None, ohms=100.0),
        Resistor(kind="self", i=2, j=None, ohms=100.0),
        Resistor(kind="cross", i=1, j=2, ohms=1000.0)))
    assert reduce_network(net, 500.0) == net
    assert reduce_network(net, 499.0).elements == net.elements[:2]


def test_reduce_warns_about_floating_wires():
    net = TerminationNetwork(n=3, vref=0.5, elements=(
        Resistor(kind="self", i=1, j=None, ohms=50.0),
        Resistor(kind="self", i=2, j=None, ohms=900.0),
        Resistor(kind="cross", i=2, j=3, ohms=100.0)))
    with pytest.warns(UserWarning, match=r"wire\(s\) 2, 3 float relative to the reference supply"):
        kept = reduce_network(net, 500.0, 1000.0)
    assert floating_wires(kept) == (2, 3)


def test_network_validation():
    with pytest.raises(ValidationError):  # duplicate self
        TerminationNetwork(n=2, vref=0.5, elements=(
            Resistor(kind="self", i=1, j=None, ohms=50.0),
            Resistor(kind="self", i=1, j=None, ohms=60.0),
            Resistor(kind="self", i=2, j=None, ohms=50.0)))
    with pytest.raises(ValidationError):  # cross needs i < j
        TerminationNetwork(n=2, vref=0.5, elements=(
            Resistor(kind="cross", i=2, j=1, ohms=50.0),))
    with pytest.raises(ValidationError):  # nonpositive resistance
        TerminationNetwork(n=1, vref=0.5, elements=(
            Resistor(kind="self", i=1, j=None, ohms=0.0),))
    with pytest.raises(ValidationError):  # wire index out of range
        TerminationNetwork(n=2, vref=0.5, elements=(
            Resistor(kind="self", i=3, j=None, ohms=50.0),))


@pytest.mark.parametrize("vref", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_network_vref_must_be_finite(vref):
    with pytest.raises(ValidationError, match="network vref must be finite, got %s" % vref):
        TerminationNetwork(n=1, vref=vref, elements=(
            Resistor(kind="self", i=1, j=None, ohms=50.0),))


def test_floating_wire_detection():
    # a wire with no elements at all never reaches the supply
    bare = TerminationNetwork(n=2, vref=0.5, elements=(
        Resistor(kind="self", i=1, j=None, ohms=50.0),))
    assert floating_wires(bare) == (2,)
    # a bridge to a terminated wire is a path to the supply
    bridged = TerminationNetwork(n=2, vref=0.5, elements=(
        Resistor(kind="self", i=1, j=None, ohms=50.0),
        Resistor(kind="cross", i=1, j=2, ohms=100.0)))
    assert floating_wires(bridged) == ()


def test_cross_only_admittance():
    net = TerminationNetwork(n=2, vref=0.5, elements=(
        Resistor(kind="cross", i=1, j=2, ohms=100.0),))
    y = network_admittance(net)
    assert np.allclose(y, [[0.01, -0.01], [-0.01, 0.01]], atol=1e-15)


def test_empty_network_admittance_is_zero():
    net = TerminationNetwork(n=2, vref=0.5, elements=())
    assert np.array_equal(network_admittance(net), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        conductance_histogram(net)


def test_histogram(tmp_path):
    net = reference_termination()
    rows = conductance_histogram(net)
    assert len(rows) == 40
    assert sum(count for _, count in rows) == len(net.elements)
    centers = [c for c, _ in rows]
    assert all(b > a for a, b in zip(centers, centers[1:]))  # log-spaced ascending
    path = tmp_path / "hist.csv"
    write_histogram_csv(net, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "siemens,count"
    assert len(lines) == 41


def test_network_json_roundtrip(tmp_path):
    net = reference_termination()
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert back.n == net.n and back.vref == net.vref
    assert len(back.elements) == len(net.elements)
    for a, b in zip(net.elements, back.elements):
        assert (a.kind, a.i, a.j, a.ohms) == (b.kind, b.i, b.j, b.ohms)


def test_network_from_dict_errors():
    with pytest.raises(ValidationError):
        network_from_dict({"n": 1, "vref": 0.5})
    with pytest.raises(ValidationError):
        network_from_dict({"n": 1, "vref": 0.5, "elements": [
            {"kind": "diagonal", "i": 1, "j": None, "ohms": 50.0}]})
    with pytest.raises(ValidationError):
        network_from_dict("not an object")
    for bad, field in (({"n": "two", "vref": 0.5, "elements": []}, "n"),
                       ({"n": 1, "vref": None, "elements": []}, "vref"),
                       ({"n": 1, "vref": 0.5, "elements": 5}, "elements"),
                       # non-integer numbers are rejected, not truncated
                       ({"n": 1.9, "vref": 0.5, "elements": []}, "network n"),
                       ({"n": 1, "vref": 0.5, "elements": [
                           {"kind": "self", "i": 1.6, "ohms": 50.0}]}, "bad i"),
                       # true and quoted numbers are not numbers
                       ({"n": 1, "vref": 0.5, "elements": [
                           {"kind": "self", "i": 1, "ohms": "50"}]}, "bad ohms"),
                       ({"n": 1, "vref": 0.5, "elements": [
                           {"kind": "self", "i": 1, "ohms": True}]}, "bad ohms"),
                       ({"n": 1, "vref": 0.5, "elements": [5]},
                        "network element must be a JSON object"),
                       ({"n": 1, "vref": 0.5, "elements": [{"i": 1, "ohms": 50.0}]},
                        r"network element missing field\(s\): kind"),
                       # a misspelt key is refused, not ignored
                       ({"n": 1, "vref": 0.5, "elements": [], "verf": 0.4},
                        r"network document has unknown field\(s\): verf$"),
                       ({"n": 1, "vref": 0.5, "elements": [
                           {"kind": "self", "i": 1, "ohms": 50.0, "ohm": 60.0}]},
                        r"network element has unknown field\(s\): ohm$")):
        with pytest.raises(ValidationError, match=field):
            network_from_dict(bad)


def test_committed_networks_match_their_builders():
    # As with the bundles, the committed networks are the inputs of record:
    # rebuilt, one twelve-network.json bridge of 487 Mohm moves by 2.1e-9.
    for fname, built in fixture_networks(fixture_bundles()).items():
        saved = load_network(str(FIXTURES / fname))
        assert (saved.n, saved.vref) == (built.n, built.vref), fname
        assert ([(el.kind, el.i, el.j) for el in saved.elements]
                == [(el.kind, el.i, el.j) for el in built.elements]), fname
        ohms = np.array([el.ohms for el in saved.elements])
        rebuilt = np.array([el.ohms for el in built.elements])
        assert np.all(np.abs(ohms - rebuilt) <= 1e-8 * ohms), fname
