"""Crosstalk-cancelling termination synthesis and validation for coupled
transmission-line bundles.

The package turns per-unit-length L/C matrices into a resistive termination
network that absorbs every incident wave (self resistors to the reference
rail plus wire-to-wire bridges), scores the network's switching-current and
power figures of merit over logic codes, and checks cancellation end to end
with a lossless modal time-domain simulator and vertical eye measurement.
"""

from .bundle import (BUNDLE_SCHEMA_VERSION, SPEED_OF_LIGHT, CouplingMatrices,
                     ModalBasis, characteristic_impedance, lc_from_impedance,
                     load_bundle, save_bundle, spd_inverse, symmetric_eig)
from .errors import (DegenerateStreamError, EnumerationCapError,
                     IsolatedWireError, NonPhysicalBundleError,
                     NonRealizableCouplingError, SimulationDivergedError,
                     ValidationError, XtcancelError)
from .eye import EyeReport, WireEye, eye_measure, render_eye_svg, write_eye_json
from .fom import ENUMERATION_CAP, FomReport, bundle_fom, bundle_fom_sampled, code_table
from .mtlsim import (DriverBank, LinkSpec, Segment, Waveforms, build_link,
                     link_from_dict, load_link, run_transient)
from .stimulus import StimulusSpec, drive_levels, pattern_assign, prbs
from .termination import (Resistor, TerminationNetwork, conductance_histogram,
                          floating_wires, load_network, network_admittance,
                          realize_network, reduce_network, save_network)

__version__ = "0.1.0"

__all__ = [
    "BUNDLE_SCHEMA_VERSION", "SPEED_OF_LIGHT", "CouplingMatrices", "ModalBasis",
    "characteristic_impedance", "lc_from_impedance", "load_bundle", "save_bundle",
    "spd_inverse", "symmetric_eig",
    "DegenerateStreamError", "EnumerationCapError", "IsolatedWireError",
    "NonPhysicalBundleError", "NonRealizableCouplingError",
    "SimulationDivergedError", "ValidationError", "XtcancelError",
    "EyeReport", "WireEye", "eye_measure", "render_eye_svg", "write_eye_json",
    "ENUMERATION_CAP", "FomReport", "bundle_fom", "bundle_fom_sampled", "code_table",
    "DriverBank", "LinkSpec", "Segment", "Waveforms", "build_link",
    "link_from_dict", "load_link", "run_transient",
    "StimulusSpec", "drive_levels", "pattern_assign", "prbs",
    "Resistor", "TerminationNetwork", "conductance_histogram", "floating_wires",
    "load_network", "network_admittance", "realize_network", "reduce_network",
    "save_network",
    "__version__",
]
