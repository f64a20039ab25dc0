"""Exception types shared across the package, and the reader of document fields.

Each error type carries the process exit code the CLI returns for it
(exit_code), so library code should raise the most specific type that
applies rather than bare ValueError.
document(), number() and integer() read an input document: a document holds
only the fields its reader knows, a field must hold a JSON number, so a bool
or a quoted number is rejected (RFC 8259), and converted() turns any other
malformed value into a ValidationError.
check_memory() refuses, before allocating, any run (the stepper, eye, sampled
figures of merit) that would hold more than MEMORY_BUDGET_BYTES.
"""

import decimal
import numbers

MEMORY_BUDGET_BYTES = 1 << 30


class XtcancelError(Exception):
    """Base class for all package errors."""
    exit_code = 2


class ValidationError(XtcancelError, ValueError):
    """Malformed or inconsistent input data (schema, shape, value range)."""


class NonPhysicalBundleError(ValidationError):
    """A bundle matrix fails positive definiteness or a related physical check."""


class NonRealizableCouplingError(XtcancelError):
    """An impedance matrix demands a negative coupling resistor.

    Carries the offending 1-based wire pair so callers can report it.
    """
    exit_code = 3

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
    exit_code = 4


class SimulationDivergedError(XtcancelError):
    """A non-finite value appeared during time stepping."""
    exit_code = 5

    def __init__(self, step, detail=""):
        self.step = step
        msg = "non-finite value at step %d" % step
        if detail:
            msg += " (%s)" % detail
        super().__init__(msg)


def check_memory(need, what, remedy):
    """ValidationError naming what and remedy when need bytes are over budget.
    The need is printed rounded up and the budget rounded down, so the need
    never reads as equal to the budget or lower."""
    if need > MEMORY_BUDGET_BYTES:
        raise ValidationError("%s needs about %s GB of memory, over the %s GB budget; %s"
                              % (what, _gigabytes(need, decimal.ROUND_CEILING),
                                 _gigabytes(MEMORY_BUDGET_BYTES, decimal.ROUND_FLOOR), remedy))


def _gigabytes(nbytes, rounding):
    """nbytes in GB to three significant digits, rounded from its exact
    value as rounding says, in %.3g form ("inf" for an infinite need)."""
    gb = decimal.Decimal(nbytes).scaleb(-9)
    return "%.3g" % float(decimal.Context(prec=3, rounding=rounding).plus(gb))


def converted(convert, value, field):
    """convert(value); a value of the wrong type or form raises
    ValidationError naming field instead of a bare TypeError/ValueError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("bad %s: %s" % (field, exc)) from None


def document(raw, what, required=(), optional=()):
    """raw when it is a JSON object holding every key in required and no key
    outside required and optional; otherwise ValidationError naming what and
    the missing or unknown keys (a misspelt key would otherwise be ignored)."""
    if not isinstance(raw, dict):
        raise ValidationError("%s must be a JSON object" % what)
    missing = [k for k in required if k not in raw]
    if missing:
        raise ValidationError("%s missing field(s): %s" % (what, ", ".join(missing)))
    unknown = [k for k in raw if k not in required and k not in optional]
    if unknown:
        raise ValidationError("%s has unknown field(s): %s" % (what, ", ".join(unknown)))
    return raw


def number(value, field):
    """value as a float when it is a real number.  A bool, a string or null
    raises ValidationError naming field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError("bad %s: %r is not a number" % (field, value))
    return converted(float, value, field)  # an int past the float range


def integer(value, field):
    """value as an int when it is a whole number (7 or 7.0).  Anything else,
    7.9, "7", true or null, raises ValidationError naming field rather than
    being truncated the way int() would."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or converted(int, value, field) != value):
        raise ValidationError("bad %s: %r is not an integer" % (field, value))
    return int(value)
