"""Eigensolver and modal decomposition pipeline tests."""

from pathlib import Path

import numpy as np
import pytest

from conftest import random_bundle, realizable_admittance
from designs import (fixture_bundles, graded_bundles, pair_bundle, scalar_bundle,
                     six_wire_bundle, twelve_wire_bundle)
from xtcancel.bundle import (DEFAULT_VELOCITY, CouplingMatrices, SPEED_OF_LIGHT,
                             bundle_from_dict, characteristic_impedance, lc_from_impedance,
                             load_bundle, save_bundle, spd_inverse, symmetric_eig)
from xtcancel.errors import NonPhysicalBundleError, ValidationError
from xtcancel.termination import network_admittance, realize_network

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_eig_identity():
    w, v = symmetric_eig(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0], rtol=0, atol=1e-14)
    assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)


def test_eig_diagonal():
    w, v = symmetric_eig(np.diag([9.0, 4.0]))
    assert np.allclose(w, [9.0, 4.0], rtol=0, atol=1e-14)
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-14)
    # sign convention: dominant component non-negative
    assert v[0, 0] > 0 and v[1, 1] > 0


def test_eig_analytic_2x2():
    w, v = symmetric_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(w, [3.0, 1.0], atol=1e-14)
    assert np.allclose(v[:, 0], [s, s], atol=1e-14)
    assert np.allclose(v[:, 1], [s, -s], atol=1e-14)


def test_eig_random_properties():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = 1 + trial % 12
        a = rng.normal(size=(n, n))
        a = a + a.T
        w, v = symmetric_eig(a)
        scale = np.linalg.norm(a)
        assert np.all(np.diff(w) <= 1e-12 * max(scale, 1.0))  # descending
        assert np.max(np.abs(a @ v - v * w)) <= 1e-10 * max(scale, 1.0)
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
        for k in range(n):
            col = v[:, k]
            assert col[int(np.argmax(np.abs(col)))] >= 0.0
        w2, v2 = symmetric_eig(a)
        assert np.array_equal(w, w2) and np.array_equal(v, v2)


def test_eig_rejects_asymmetric():
    with pytest.raises(ValidationError):
        symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        symmetric_eig(np.ones((2, 3)))


def test_spd_inverse():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5))
    a = a @ a.T + 5 * np.eye(5)
    inv = spd_inverse(a)
    assert np.max(np.abs(a @ inv - np.eye(5))) < 1e-11
    with pytest.raises(NonPhysicalBundleError):
        spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_graded_bundle_accuracy():
    # Wire scales spanning six decades: the case where a Jacobi solver's high
    # relative accuracy (Demmel & Veselic 1992) would matter.  The admittance
    # is a Maxwellian M-matrix, so its impedance must round-trip through the
    # decomposition and the realized network entry by entry.
    for y, b in graded_bundles():
        zc = characteristic_impedance(b)[0].zc
        assert np.abs(zc @ b.C @ zc - b.L).max() <= 1e-12 * np.abs(b.L).max()
        back = network_admittance(realize_network(zc))
        assert np.all(np.abs(back - y) <= 1e-9 * np.abs(y))


def test_scalar_reduction():
    basis, _ = characteristic_impedance(scalar_bundle())
    assert abs(basis.zc[0, 0] - 50.0) <= 50.0 * 1e-12
    assert abs(basis.velocities[0] - 2.0e8) <= 2.0e8 * 1e-12
    assert abs(basis.mode_vals[0] - 2.5e-17) <= 1e-12 * 2.5e-17


def test_pair_fixture_impedance():
    basis, _ = characteristic_impedance(pair_bundle())
    want = np.array([[61.666666666666667, 21.666666666666667],
                     [21.666666666666667, 61.666666666666667]])
    assert np.max(np.abs(basis.zc - want)) <= 1e-6 * 61.667
    # odd/even impedances of the coupled pair
    assert abs((basis.zc[0, 0] - basis.zc[0, 1]) - 40.0) < 1e-6
    assert abs((basis.zc[0, 0] + basis.zc[0, 1]) - 250.0 / 3.0) < 1e-6


def test_six_wire_layer_impedances():
    b = six_wire_bundle()
    basis, _ = characteristic_impedance(b)
    # adjacent same-layer pair: odd 47, even 55 ohm by construction
    assert abs((basis.zc[0, 0] - basis.zc[0, 1]) - 47.0) < 1e-9
    assert abs((basis.zc[0, 0] + basis.zc[0, 1]) - 55.0) < 1e-9


def test_pipeline_identities_random():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = 2 + trial % 11
        b = random_bundle(rng, n)
        basis, trace = characteristic_impedance(b)
        l_scale = np.linalg.norm(b.L)
        assert np.linalg.norm(basis.zc @ b.C @ basis.zc - b.L) <= 1e-9 * l_scale
        zcc = basis.zc @ b.C
        assert np.max(np.abs(zcc @ zcc - b.L @ b.C)) <= 1e-9 * np.max(np.abs(b.L @ b.C))
        assert np.max(np.abs(basis.mv @ basis.mi - np.eye(n))) <= 1e-9
        assert np.max(np.abs(basis.yc @ basis.zc - np.eye(n))) <= 1e-9
        d = basis.mi @ b.L @ b.C @ basis.mv
        assert np.max(np.abs(d - np.diag(basis.mode_vals))) <= 1e-9 * basis.mode_vals.max()
        assert np.array_equal(basis.velocities, basis.mode_vals ** -0.5)
        assert np.max(np.abs(trace.s_matrix @ trace.s_matrix.T - b.L)) <= 1e-9 * l_scale
        assert np.max(np.abs(trace.m_matrix - trace.m_matrix.T)) == 0.0
        # zc symmetric positive definite
        assert np.array_equal(basis.zc, basis.zc.T)
        assert np.linalg.eigvalsh(basis.zc).min() > 0.0


def test_scaling_law():
    rng = np.random.default_rng(5)
    b = random_bundle(rng, 4)
    alpha = 3.7
    scaled = CouplingMatrices.from_arrays(alpha * b.L, b.C / alpha)
    base, _ = characteristic_impedance(b)
    up, _ = characteristic_impedance(scaled)
    assert np.max(np.abs(up.zc - alpha * base.zc)) <= 1e-9 * np.max(np.abs(base.zc)) * alpha
    assert np.max(np.abs(up.mode_vals - base.mode_vals)) <= 1e-9 * base.mode_vals.max()


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    b = random_bundle(rng, 5)
    perm = rng.permutation(5)
    p = np.eye(5)[perm]
    pb = CouplingMatrices.from_arrays(p @ b.L @ p.T, p @ b.C @ p.T)
    base, _ = characteristic_impedance(b)
    permuted, _ = characteristic_impedance(pb)
    assert np.max(np.abs(permuted.zc - p @ base.zc @ p.T)) <= 1e-9 * np.max(np.abs(base.zc))


def test_lc_from_impedance_scalar():
    b = lc_from_impedance(np.array([[50.0]]), 2.0e8)
    assert abs(b.L[0, 0] - 2.5e-7) <= 1e-15
    assert abs(b.C[0, 0] - 1.0e-10) <= 1e-18


def test_lc_from_impedance_roundtrip_and_velocity():
    zc = np.array([[61.667, 21.667], [21.667, 61.667]])
    v = SPEED_OF_LIGHT / np.sqrt(3.0)
    b = lc_from_impedance(zc, v)
    basis, _ = characteristic_impedance(b)
    assert np.max(np.abs(basis.zc - zc)) <= 1e-9 * 61.667
    assert np.max(np.abs(basis.velocities - v)) <= 1e-9 * v
    assert abs(v - 1.7307e8) < 2e4  # c/sqrt(3)


def test_lc_from_impedance_permutation():
    # zc must invert to a Maxwellian C, so build it from an M-matrix
    rng = np.random.default_rng(13)
    zc = spd_inverse(realizable_admittance(rng, 4))
    perm = rng.permutation(4)
    p = np.eye(4)[perm]
    b = lc_from_impedance(zc, 2e8)
    pb = lc_from_impedance(p @ zc @ p.T, 2e8)
    assert np.max(np.abs(pb.L - p @ b.L @ p.T)) <= 1e-12 * np.max(np.abs(b.L))
    assert np.max(np.abs(pb.C - p @ b.C @ p.T)) <= 1e-12 * np.max(np.abs(b.C))


def test_lc_from_impedance_rejects_non_spd():
    with pytest.raises(NonPhysicalBundleError):
        lc_from_impedance(np.array([[1.0, 2.0], [2.0, 1.0]]), 2e8)
    with pytest.raises(ValidationError):
        lc_from_impedance(np.eye(2), -1.0)


def test_bundle_validation_errors():
    good_l = 2.5e-7 * np.eye(2)
    good_c = 1.0e-10 * np.eye(2)
    with pytest.raises(ValidationError):
        CouplingMatrices.from_arrays(np.ones((2, 3)), good_c)
    with pytest.raises(ValidationError):
        CouplingMatrices.from_arrays(good_l, 1.0e-10 * np.eye(3))
    with pytest.raises(ValidationError):
        CouplingMatrices.from_arrays(np.array([[2.5e-7, 1e-7], [0.0, 2.5e-7]]), good_c)
    with pytest.raises(NonPhysicalBundleError):  # L not positive definite
        CouplingMatrices.from_arrays(np.array([[1e-7, 2e-7], [2e-7, 1e-7]]), good_c)
    with pytest.raises(NonPhysicalBundleError):  # positive off-diagonal C
        CouplingMatrices.from_arrays(good_l, np.array([[1e-10, 1e-12], [1e-12, 1e-10]]))
    with pytest.raises(NonPhysicalBundleError):  # zero row sum in C
        CouplingMatrices.from_arrays(good_l, np.array([[1e-10, -1e-10], [-1e-10, 1e-10]]))
    with pytest.raises(ValidationError, match="bundle needs at least one wire"):
        CouplingMatrices.from_arrays(np.zeros((0, 0)), np.zeros((0, 0)))
    # built directly, past from_arrays' checks: the decomposition names the
    # matrix that is not positive definite
    with pytest.raises(NonPhysicalBundleError, match="inductance matrix has eigenvalue"):
        characteristic_impedance(CouplingMatrices(n=2, L=-good_l, C=good_c))
    with pytest.raises(NonPhysicalBundleError, match="mode matrix has eigenvalue"):
        characteristic_impedance(CouplingMatrices(n=2, L=good_l, C=-good_c))


def test_bundle_rejects_non_finite():
    good_l = 2.5e-7 * np.eye(2)
    good_c = 1.0e-10 * np.eye(2)
    for bad in (np.nan, np.inf, -np.inf):
        worse = np.array([[2.5e-7, bad], [bad, 2.5e-7]])
        with pytest.raises(ValidationError, match="inductance matrix has non-finite entries"):
            CouplingMatrices.from_arrays(worse, good_c)
        with pytest.raises(ValidationError, match="capacitance matrix has non-finite entries"):
            CouplingMatrices.from_arrays(good_l, worse * 4e-4)


def test_symmetrization_within_tolerance():
    l = np.array([[2.5e-7, 1.0e-8 * (1 + 1e-10)], [1.0e-8, 2.5e-7]])
    c = np.array([[1.0e-10, -1e-12], [-1e-12, 1.0e-10]])
    b = CouplingMatrices.from_arrays(l, c)
    assert np.array_equal(b.L, b.L.T)


def test_json_roundtrip(tmp_path):
    b = twelve_wire_bundle()
    path = tmp_path / "b.json"
    save_bundle(b, path)
    back = load_bundle(path)
    assert back.n == 12 and back.name == b.name
    assert np.array_equal(back.L, b.L)
    assert np.array_equal(back.C, b.C)


def test_bundle_from_dict_errors():
    with pytest.raises(ValidationError):
        bundle_from_dict({"L": [[1e-7]]})
    with pytest.raises(ValidationError):
        bundle_from_dict({"n": 2, "L": [[2.5e-7]], "C": [[1e-10]]})
    with pytest.raises(ValidationError):
        bundle_from_dict([1, 2, 3])
    with pytest.raises(ValidationError, match="bundle n"):  # not truncated to 1
        bundle_from_dict({"n": 1.5, "L": [[2.5e-7]], "C": [[1e-10]]})
    with pytest.raises(ValidationError, match="bundle n"):  # true is not 1
        bundle_from_dict({"n": True, "L": [[2.5e-7]], "C": [[1e-10]]})
    with pytest.raises(ValidationError, match="bad inductance matrix: True is not a number"):
        bundle_from_dict({"n": 1, "L": [[True]], "C": [[1e-10]]})  # not a 1 H/m line
    with pytest.raises(ValidationError, match="bad capacitance matrix: True is not a number"):
        bundle_from_dict({"n": 2, "L": [[2.5e-7, 0.0], [0.0, 2.5e-7]],
                          "C": [[True, -1e-11], [-1e-11, 1e-10]]})
    with pytest.raises(ValidationError, match="bad inductance matrix: '2.5e-7' is not a number"):
        bundle_from_dict({"n": 1, "L": [["2.5e-7"]], "C": [[1e-10]]})
    with pytest.raises(ValidationError, match=r"bundle document has unknown field\(s\): nmae$"):
        bundle_from_dict({"n": 1, "L": [[2.5e-7]], "C": [[1e-10]], "nmae": "s"})


def test_pipeline_determinism():
    b = six_wire_bundle()
    a1, _ = characteristic_impedance(b)
    a2, _ = characteristic_impedance(b)
    assert np.array_equal(a1.zc, a2.zc)
    assert np.array_equal(a1.mv, a2.mv)
    assert np.array_equal(a1.mi, a2.mi)


def test_default_velocity_constant():
    assert abs(DEFAULT_VELOCITY - SPEED_OF_LIGHT / np.sqrt(3.0)) == 0.0


def test_committed_bundles_match_their_builders():
    # The committed files are the inputs of record.  Rebuilt on another
    # LAPACK their L/C move in the last digits (up to 3.2e-15 of the largest
    # entry on twelve.json), so they are held to the builders, not re-written.
    for fname, built in fixture_bundles().items():
        saved = load_bundle(str(FIXTURES / fname))
        assert saved.name == built.name
        for a, b in ((saved.L, built.L), (saved.C, built.C)):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max(), fname
