"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies rather than bare ValueError.
converted() turns a malformed field of an input document into a
ValidationError, and integer() does the same for a number that is not whole.
"""


class XtcancelError(Exception):
    """Base class for all package errors."""


class ValidationError(XtcancelError, ValueError):
    """Malformed or inconsistent input data (schema, shape, value range)."""


class NonPhysicalBundleError(ValidationError):
    """A bundle matrix fails positive definiteness or a related physical check."""


class NonRealizableCouplingError(XtcancelError):
    """An impedance matrix demands a negative coupling resistor.

    Carries the offending 1-based wire pair so callers can report it.
    """

    def __init__(self, i, j, admittance):
        self.i = i
        self.j = j
        self.admittance = admittance
        super().__init__(
            "non-realizable coupling between wires %d and %d: "
            "off-diagonal admittance %+.3e S would require a negative resistor"
            % (i, j, admittance)
        )


class IsolatedWireError(ValidationError):
    """Cutoff reduction left one or more wires with no elements at all."""

    def __init__(self, wires):
        self.wires = tuple(wires)
        super().__init__(
            "reduction isolates wire(s) %s: no termination element remains"
            % ", ".join(str(w) for w in self.wires)
        )


class DegenerateStreamError(ValidationError):
    """A bit stream is all ones or all zeros, so no eye can be conditioned."""

    def __init__(self, wire):
        self.wire = wire
        super().__init__("degenerate stream on wire %d (all ones or all zeros)" % wire)


class EnumerationCapError(XtcancelError):
    """Exhaustive code enumeration was requested beyond the supported size."""


class SimulationDivergedError(XtcancelError):
    """A non-finite value appeared during time stepping."""

    def __init__(self, step, detail=""):
        self.step = step
        msg = "non-finite value at step %d" % step
        if detail:
            msg += " (%s)" % detail
        super().__init__(msg)


def converted(convert, value, field):
    """convert(value); a value of the wrong type or form raises
    ValidationError naming field instead of a bare TypeError/ValueError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("bad %s: %s" % (field, exc)) from None


def integer(value, field):
    """value as an int when it is a whole number (7 or 7.0).  Anything else,
    7.9, "7" or null, raises ValidationError naming field rather than being
    truncated the way int() would."""
    whole = converted(int, value, field)
    if whole != value:
        raise ValidationError("bad %s: %r is not an integer" % (field, value))
    return whole
