"""Switching-current and power figures of merit over the logic-code space.

For an n-wire bus every code is a bit vector; the launched wire currents are
I = Y (v - vref) with Y either the line admittance Zc^-1 (currents sourced
into the lines) or a realized network's admittance (steady-state supply
currents).  The exact report covers all 2^n codes in closed form, up to
n=40 (EXACT_FOM_CAP: its meet-in-the-middle arrays hold 2^(n/2) code sums);
beyond that use the seeded sampling variant.  The per-code table lists every
code by the exact report's in-place doubling, up to n=20 (ENUMERATION_CAP).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .bundle import checked_symmetric
from .errors import EnumerationCapError, ValidationError, check_memory
from .termination import DEFAULT_VREF
from .textio import on_cpus, write_csv, write_json

REPORT_SCHEMA_VERSION = 1

ENUMERATION_CAP = 20
EXACT_FOM_CAP = 40
DEFAULT_LEVELS = (0.0, 1.0)  # V, logic low and high
# Rows of sampled codes per chunk: even, so every chunk but the last draws a
# whole number of 64-bit words, and small, so one chunk's codes and currents
# (512 KiB each at n=64) stay in cache from the draw to the reductions.
_SAMPLE_ROWS = 1 << 10
# The most codes bundle_fom_sampled draws.  Memory does not grow with the
# count, so this bounds time: 22 s at n=64 on two CPUs with one BLAS thread.
SAMPLE_CAP = 1 << 26


@dataclass(frozen=True)
class FomReport:
    """The figures of merit, exact or sampled.  A sampled report (samples is
    not None) adds the standard errors of the two averages and the seed, and
    its maxima are sample maxima, lower bounds on the true ones."""

    avg_bundle_current: float  # A, mean over codes of |sum of wire currents|
    max_bundle_current: float  # A
    max_wire_current: float    # A, worst single wire over all codes
    avg_power: float           # W, mean over codes of (v-vref)^T Y (v-vref)
    n_codes: int
    avg_bundle_current_stderr: float | None = None
    avg_power_stderr: float | None = None
    samples: int | None = None
    seed: int | None = None

    def to_dict(self):
        out = {
            "avg_bundle_current_a": self.avg_bundle_current,
            "avg_bundle_current_stderr_a": self.avg_bundle_current_stderr,
            "max_bundle_current_a": self.max_bundle_current,
            "max_wire_current_a": self.max_wire_current,
            "avg_power_w": self.avg_power,
            "avg_power_stderr_w": self.avg_power_stderr,
            "n_codes": self.n_codes,
            "samples": self.samples,
            "seed": self.seed,
        }
        out = {k: v for k, v in out.items() if v is not None}
        out["sampled"] = self.samples is not None
        return out


def _code_sums(rows, a, b):
    """sum_k x_k rows[k] for every x of entries a or b, doubled in place
    lowest bit first: row c of the result is code c, x_k = b where bit k of
    c is set.  Nothing but the (2^len(rows),) + rows.shape[1:] result is held."""
    out = np.empty((1 << len(rows),) + rows.shape[1:])
    out[0] = 0.0
    for k, row in enumerate(rows):
        h = 1 << k
        np.add(out[:h], b * row, out=out[h:2 * h])
        out[:h] += a * row
    return out


def _max_abs_linear(rows, a, b):
    """Largest |rows . x| over every x whose entries are each a or b."""
    high = np.maximum(a * rows, b * rows).sum(axis=-1)
    low = np.minimum(a * rows, b * rows).sum(axis=-1)
    return float(max(np.max(high), -np.min(low)))


def _checked_inputs(y, vref, levels):
    """y checked symmetric, then a and b, the two levels less vref, finite."""
    y = checked_symmetric(y, "admittance matrix")
    volts = float(vref), float(levels[0]), float(levels[1])
    if not all(map(math.isfinite, volts)):
        raise ValidationError("vref %r and levels %r must be finite" % (vref, tuple(levels)))
    return y, volts[1] - volts[0], volts[2] - volts[0]


def bundle_fom(y, vref=DEFAULT_VREF, levels=DEFAULT_LEVELS):
    """Exact figures of merit over all 2^n codes (n <= 40), in closed form.

    Every bit is independently a or b (the levels less vref), with mean mu
    and half-swing h, so avg_power = mu^2 sum(Y) + h^2 trace(Y), and each
    maximum of a linear form takes the larger or the smaller level bit by
    bit.  avg_bundle_current = E|c . x| with c = Y 1 is met in the middle:
    the code sums of one half of c are sorted, and each code sum s of the
    other half splits them at -s by searchsorted, with prefix sums giving
    both sides' totals.
    """
    y, a, b = _checked_inputs(y, vref, levels)
    n = y.shape[0]
    if n > EXACT_FOM_CAP:
        raise EnumerationCapError(
            "exact figures of merit capped at %d wires (got %d); pass --samples N to sample"
            % (EXACT_FOM_CAP, n))
    mu, h = 0.5 * (a + b), 0.5 * (b - a)
    c = y.sum(axis=1)
    first = _code_sums(c[:n // 2], a, b)
    second = np.sort(_code_sums(c[n // 2:], a, b))
    prefix = np.concatenate([[0.0], np.cumsum(second)])
    # second[:k] < -s <= second[k:], so the |s + t| over t sum to
    # s (N - 2k) + (sum of all t) - 2 (sum of the first k t).
    k = np.searchsorted(second, -first)
    sum_abs_bundle = (first * (second.size - 2 * k) + prefix[-1] - 2.0 * prefix[k]).sum()
    total = 1 << n
    return FomReport(avg_bundle_current=float(sum_abs_bundle) / total,
                     max_bundle_current=_max_abs_linear(c, a, b),
                     max_wire_current=_max_abs_linear(y, a, b),
                     avg_power=mu * mu * math.fsum(y.flat) + h * h * math.fsum(y.diagonal()),
                     n_codes=total)


def sampled_fom_bytes(n):
    """An upper bound on the memory one process holds drawing a chunk of
    codes of n wires: the codes, currents and raw words, np.take's intp
    copy of the words, the bundle and power values, a temporary for their
    squared deviations, and 64 KiB for small objects.  Nothing is held per
    sample, so the caller and each forked worker hold one chunk whatever
    the sample count."""
    return _SAMPLE_ROWS * (8 * n + 8 * n + 4 * n + 8 * n + 5 * 8) + (1 << 16)


def _merged(a, b):
    """The count, mean and sum of squared deviations of two sets of values
    together, from those of each (Chan, Golub & LeVeque 1979).  Merged into
    (0, 0.0, 0.0), b comes back exactly."""
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    count, delta = n_a + n_b, mean_b - mean_a
    return count, mean_a + delta * (n_b / count), m2_a + m2_b + delta * delta * (n_a * n_b / count)


def bundle_fom_sampled(y, vref=DEFAULT_VREF, levels=DEFAULT_LEVELS, samples=100000, seed=0):
    """Monte Carlo estimate of the figures of merit for wide buses.

    Codes are drawn uniformly with replacement from the 2^n space using a
    seeded generator, so results are reproducible.  Bit k of the flattened
    (samples, n) code array is the top bit of the k-th 32-bit half of the
    generator's 64-bit words, low half first (on a little-endian host): the
    bits that Generator.integers(0, 2) takes.  Standard errors cover the two
    averages; the max fields are sample maxima.  A count over SAMPLE_CAP is
    refused before anything is drawn.

    The codes are drawn in chunks of _SAMPLE_ROWS rows on every CPU this
    process may run on (textio.on_cpus).  Chunk c starts at word
    c * _SAMPLE_ROWS * n / 2 of the generator, which PCG64.advance reaches
    in O(log c) steps, so any process draws any chunk's codes exactly.  A
    chunk sends back seven float64s: its count, the mean and the sum of
    squared deviations of its bundle values and of its power values, its
    largest bundle value and its largest |wire current|.  This process
    merges them in chunk order (_merged), so the report has the same bytes
    on any number of CPUs, and no process holds a value per sample.
    """
    y, a, b = _checked_inputs(y, vref, levels)
    n = y.shape[0]
    if samples < 2:
        raise ValidationError("need at least 2 samples")
    samples, seed = int(samples), int(seed)
    if seed < 0:
        raise ValidationError("sample seed must be >= 0, got %d" % seed)
    if samples > SAMPLE_CAP:
        raise ValidationError("drawing %d samples is over the cap of %d; draw fewer samples"
                              % (samples, SAMPLE_CAP))
    chunk = sampled_fom_bytes(n)
    check_memory(chunk, "drawing codes of %d wires" % n, "score fewer wires")
    words = np.random.default_rng(seed).bit_generator
    first_word = words.state
    volts = np.array([a, b])  # bit 0 or 1 -> x
    # Each chunk reuses the codes and currents buffers in place, in every process.
    rows = min(_SAMPLE_ROWS, samples)
    x_buf, cur_buf = np.empty((rows, n)), np.empty((rows, n))

    def draw(c):
        start = c * _SAMPLE_ROWS
        count = min(_SAMPLE_ROWS, samples - start)
        x, cur = x_buf[:count], cur_buf[:count]
        words.state = first_word
        words.advance(start * n // 2)  # _SAMPLE_ROWS is even
        halves = words.random_raw((count * n + 1) // 2).view(np.uint32)[:count * n]
        np.right_shift(halves, 31, out=halves)
        np.take(volts, halves, out=x.reshape(-1), mode="clip")  # "raise" would buffer out
        np.matmul(x, y, out=cur)
        bundle = np.abs(cur.sum(axis=1))
        x *= cur
        stats = [count]
        for values in (bundle, x.sum(axis=1)):  # the bundle values, then the power values
            mean = values.mean()
            stats += [mean, np.square(values - mean).sum()]
        return np.array(stats + [bundle.max(), max(cur.max(), -cur.min())]).tobytes()

    bundle = power = (0, 0.0, 0.0)
    max_bundle = max_wire = 0.0
    with contextlib.closing(on_cpus(draw, -(-samples // _SAMPLE_ROWS), chunk)) as results:
        for data in results:
            count, *stats, top_bundle, top_wire = np.frombuffer(data).tolist()
            bundle = _merged(bundle, (count, *stats[:2]))
            power = _merged(power, (count, *stats[2:]))
            max_bundle, max_wire = max(max_bundle, top_bundle), max(max_wire, top_wire)
    return FomReport(
        avg_bundle_current=bundle[1],
        max_bundle_current=max_bundle,
        max_wire_current=max_wire,
        avg_power=power[1],
        n_codes=1 << n,
        avg_bundle_current_stderr=math.sqrt(bundle[2] / (samples - 1)) / math.sqrt(samples),
        avg_power_stderr=math.sqrt(power[2] / (samples - 1)) / math.sqrt(samples),
        samples=samples,
        seed=seed,
    )


def code_table(y, vref=DEFAULT_VREF, levels=DEFAULT_LEVELS):
    """Per-code current table, shape (2^n, n): row c is code c, built lowest
    bit first, and bit k of c set puts wire k+1 at levels[1].  Rows c and
    2^n-1-c are exact negations only when the levels sit symmetrically
    about vref."""
    y, a, b = _checked_inputs(y, vref, levels)
    n = y.shape[0]
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            "code table capped at %d wires (got %d)" % (ENUMERATION_CAP, n))
    return _code_sums(y, a, b)


def write_code_table_csv(table, path):
    write_csv(path, ["code"] + ["i%d" % (k + 1) for k in range(table.shape[1])],
              [np.arange(table.shape[0]), *table.T])


def write_report_json(report, path):
    write_json(path, report.to_dict())
