"""Coupled-line bundle description and its modal decomposition.

An n-wire lossless bundle is characterized by per-unit-length inductance and
capacitance matrices L and C (H/m, F/m).  A three-stage symmetric
eigendecomposition turns them into a characteristic impedance matrix Zc and a
modal transform pair (Mv, Mi):

    1. eigensystem of L        ->  eigensystem of L^-1 (reciprocal values)
    2. S = V_Linv * diag(w_Linv^-1/2), so S S^T = L
    3. M = S^T C S (symmetric), eigensystem (W, w_M)
    4. Mv = S W diag(w_M^-1/4),  Mi = Mv^-1,  Zc = Mv Mv^T

The w_M^-1/4 normalization makes every decoupled modal line have unit
characteristic impedance (see docs/modal_notes.md), which the time-domain
simulator relies on.  Mode k propagates at 1/sqrt(w_M[k]) m/s.

Terminating the bundle in Zc absorbs every mode, which is the basis for the
resistive crosstalk-cancelling networks built in the termination module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NonPhysicalBundleError, ValidationError, converted, document, integer,
                     number)
from .textio import read_json, write_json

SPEED_OF_LIGHT = 299792458.0  # m/s
DEFAULT_VELOCITY = SPEED_OF_LIGHT / np.sqrt(3.0)  # homogeneous Er = 3 dielectric

BUNDLE_SCHEMA_VERSION = 1

_SYMMETRY_RTOL = 1e-9


def _float_array(a):
    return np.asarray(a, dtype=float)


def checked_symmetric(a, what="matrix"):
    """Symmetric part of a square, finite matrix that is symmetric within a
    relative 1e-9; otherwise raise ValidationError naming ``what``."""
    a = converted(_float_array, a, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("%s must be square, got shape %s" % (what, a.shape))
    if not np.isfinite(a).all():
        raise ValidationError("%s has non-finite entries" % what)
    scale = float(np.abs(a).max(initial=0.0))
    if scale > 0.0 and float(np.abs(a - a.T).max()) > _SYMMETRY_RTOL * scale:
        raise ValidationError("%s is not symmetric within relative tolerance %g"
                              % (what, _SYMMETRY_RTOL))
    return 0.5 * (a + a.T)


def symmetric_eig(a):
    """Eigensystem of a symmetric matrix (LAPACK, through numpy.linalg.eigh).

    Args:
        a: square matrix, accepted and symmetrized by checked_symmetric().

    Returns:
        (values, vectors): eigenvalues sorted descending and the matching
        orthonormal eigenvector columns.  Each column is signed so that its
        first component of largest magnitude is non-negative, which makes the
        output reproducible bit-for-bit for identical input.

    Raises:
        ValidationError: non-square, non-finite or asymmetric input.
    """
    values, vectors = np.linalg.eigh(checked_symmetric(a))
    vectors = vectors[:, ::-1].copy()
    peak = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors *= np.where(peak < 0.0, -1.0, 1.0)  # negation is exact
    return values[::-1], vectors


def spd_inverse(a, what="matrix"):
    """Inverse of a symmetric positive definite matrix via its eigensystem,
    which gives the smallest eigenvalue when ``a`` is not positive definite."""
    w, v = symmetric_eig(a)
    if w[-1] <= 0.0:
        raise NonPhysicalBundleError("%s is not positive definite (min eigenvalue %g)" % (what, w[-1]))
    inv = (v / w) @ v.T
    return 0.5 * (inv + inv.T)


@dataclass(frozen=True)
class CouplingMatrices:
    """Validated per-unit-length L and C of an n-wire bundle."""

    n: int
    L: np.ndarray  # H/m
    C: np.ndarray  # F/m
    name: str = ""

    @classmethod
    def from_arrays(cls, L, C, name=""):
        """Validate, symmetrize, and wrap raw L/C arrays.

        Raises ValidationError for shape, symmetry or non-finite entries and
        NonPhysicalBundleError for definiteness / sign-structure violations.
        """
        L = checked_symmetric(L, "inductance matrix")
        C = converted(_float_array, C, "capacitance matrix")
        if C.shape != L.shape:
            raise ValidationError("capacitance matrix shape %s does not match inductance %s"
                                  % (C.shape, L.shape))
        C = checked_symmetric(C, "capacitance matrix")
        n = L.shape[0]
        if n < 1:
            raise ValidationError("bundle needs at least one wire")
        _require_spd(L, "inductance matrix")
        _require_spd(C, "capacitance matrix")
        # Maxwellian sign structure: mutual capacitance terms are negative,
        # every wire keeps net capacitance to the reference.
        off_tol = 1e-12 * float(np.abs(C).max())
        off = C - np.diag(np.diag(C))
        if float(off.max(initial=0.0)) > off_tol:
            i, j = np.unravel_index(int(np.argmax(off)), C.shape)
            raise NonPhysicalBundleError(
                "capacitance matrix is not Maxwellian: C[%d,%d] = %g > 0" % (i + 1, j + 1, C[i, j]))
        sums = C.sum(axis=1)
        if float(sums.min()) <= 0.0:
            w = int(np.argmin(sums))
            raise NonPhysicalBundleError(
                "capacitance matrix row %d sums to %g (no net capacitance to reference)"
                % (w + 1, sums[w]))
        return cls(n=n, L=L, C=C, name=str(name))

    def to_dict(self):
        return {"n": self.n, "L": self.L.tolist(), "C": self.C.tolist(), "name": self.name}


def _require_spd(a, label):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NonPhysicalBundleError("non-physical bundle: %s is not positive definite" % label) from None


@dataclass(frozen=True)
class DecompositionTrace:
    """Intermediate stages of the impedance pipeline, kept for verification."""

    linv_vals: np.ndarray   # eigenvalues of L^-1, descending
    linv_vecs: np.ndarray   # matching orthonormal eigenvectors (columns)
    s_matrix: np.ndarray    # S = linv_vecs diag(linv_vals^-1/2); S S^T = L
    m_matrix: np.ndarray    # S^T C S, symmetric positive definite
    m_vals: np.ndarray      # eigenvalues of m_matrix, (s/m)^2, descending
    m_vecs: np.ndarray


@dataclass(frozen=True)
class ModalBasis:
    """Modal transform pair and characteristic impedance of a bundle.

    mv maps modal voltages to wire voltages; mi = mv^-1.  mode_vals[k] is the
    squared slowness of mode k, so velocities[k] = 1/sqrt(mode_vals[k]).
    In this normalization every modal line has unit characteristic impedance,
    zc = mv mv^T and the line admittance yc = zc^-1 = mi^T mi.
    """

    mv: np.ndarray
    mi: np.ndarray
    mode_vals: np.ndarray
    velocities: np.ndarray
    zc: np.ndarray
    yc: np.ndarray


def characteristic_impedance(bundle):
    """Run the modal decomposition pipeline on a bundle.

    Returns:
        (ModalBasis, DecompositionTrace)

    Raises:
        NonPhysicalBundleError: a non-positive eigenvalue shows up anywhere
            in the pipeline (names the offending matrix).
    """
    lw, lv = symmetric_eig(bundle.L)
    if lw[-1] <= 0.0:
        raise NonPhysicalBundleError("non-physical bundle: inductance matrix has eigenvalue %g" % lw[-1])
    # Eigensystem of L^-1: reciprocal eigenvalues, same vectors, reordered so
    # the values are again descending.
    linv_vals = (1.0 / lw)[::-1].copy()
    linv_vecs = lv[:, ::-1].copy()
    s_matrix = linv_vecs * linv_vals ** -0.5
    m_matrix = s_matrix.T @ bundle.C @ s_matrix
    m_matrix = 0.5 * (m_matrix + m_matrix.T)
    mw, mvec = symmetric_eig(m_matrix)
    if mw[-1] <= 0.0:
        raise NonPhysicalBundleError("non-physical bundle: mode matrix has eigenvalue %g" % mw[-1])
    mv = s_matrix @ (mvec * mw ** -0.25)
    # mi = diag(mw^1/4) mvec^T S^-1 with S^-1 = diag(linv_vals^1/2) linv_vecs^T,
    # entirely from the two eigensystems -- no general inverse needed.
    s_inv = linv_vals[:, None] ** 0.5 * linv_vecs.T
    mi = mw[:, None] ** 0.25 * (mvec.T @ s_inv)
    zc = mv @ mv.T
    zc = 0.5 * (zc + zc.T)
    basis = ModalBasis(mv=mv, mi=mi, mode_vals=mw, velocities=mw ** -0.5, zc=zc, yc=mi.T @ mi)
    trace = DecompositionTrace(linv_vals=linv_vals, linv_vecs=linv_vecs,
                               s_matrix=s_matrix, m_matrix=m_matrix,
                               m_vals=mw, m_vecs=mvec)
    return basis, trace


def lc_from_impedance(zc, velocity, name=""):
    """Build L/C for a homogeneous bundle from its impedance matrix.

    For a bundle in a uniform dielectric every mode shares one velocity v and
    L = Zc/v, C = Zc^-1/v.  Round-tripping through
    characteristic_impedance() reproduces zc and reports all modal
    velocities equal to ``velocity``.
    """
    zc = np.asarray(zc, dtype=float)
    if not velocity > 0.0:
        raise ValidationError("velocity must be positive, got %g" % velocity)
    inv = spd_inverse(zc, what="impedance matrix")
    return CouplingMatrices.from_arrays(zc / velocity, inv / velocity, name=name)


def uncoupled_bundle(n=6, z0=50.0, velocity=2.0e8, name="uncoupled"):
    """n identical isolated wires: diagonal L and C, no crosstalk."""
    ell = float(z0) / velocity
    cap = 1.0 / (float(z0) * velocity)
    return CouplingMatrices.from_arrays(np.eye(n) * ell, np.eye(n) * cap, name=name)


def load_bundle(path):
    """Load a bundle JSON file ({"n", "L", "C", "name"})."""
    return bundle_from_dict(read_json(path))


def _number_rows(rows, what):
    """Reject an entry of a matrix row that is not a JSON number: np.asarray
    would read a true as 1 and a quoted "1e-10" as 1e-10.  A bool or string
    in place of a row gives an array of the wrong shape, which
    checked_symmetric rejects."""
    for row in (rows if isinstance(rows, list) else ()):
        if isinstance(row, list) and not set(map(type, row)) <= {float, int}:
            for entry in row:
                number(entry, what)


def bundle_from_dict(raw):
    raw = document(raw, "bundle document", ("n", "L", "C"), ("name",))
    _number_rows(raw["L"], "inductance matrix")
    _number_rows(raw["C"], "capacitance matrix")
    bundle = CouplingMatrices.from_arrays(raw["L"], raw["C"], name=raw.get("name", ""))
    if integer(raw["n"], "bundle n") != bundle.n:
        raise ValidationError("bundle declares n=%s but matrices are %dx%d"
                              % (raw["n"], bundle.n, bundle.n))
    return bundle


def save_bundle(bundle, path):
    write_json(path, bundle.to_dict())
