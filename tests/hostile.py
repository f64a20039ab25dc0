"""A seeded mutator of the fixture documents and of waveform CSVs, and the
CLI runs that read them.

A case changes one value or key of one fixture document: it replaces a value
with a hostile one, deletes a key or an item, appends to a list, scales a
number or wraps a value in a list.  It then runs, through cli.main, one
command that reads the document.  cases(seed, count) draws the cases from
random.Random(seed) alone, so a seed names the same cases on every machine.
A case passes when the command returns one of the CLI's exit codes (0, or
2-5 for an error it names) and no exception escapes it.

A waveform case (wave_cases) changes the CSV that sim writes for link-pair or
link-twelve: it flips a bit of a byte, deletes a byte, inserts a byte that is
not UTF-8, drops, duplicates or blanks a line, switches to CRLF endings or
truncates the file inside a row.  eye --waves --svg --folded then reads it
in ranges of WAVE_RANGE_BYTES, once as if on one CPU and once on three; a
case passes when both runs exit with a CLI code, print no traceback, leave
no process behind, and give the same exit code, error stream, eye report,
SVG and folded CSV.

Uses the standard library only (tests/test_hostile.py, scripts/hostile_inputs.py).
"""

import collections
import contextlib
import copy
import io
import json
import os
import random
import resource
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path

from xtcancel import cli, textio

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EXIT_CODES = (0, 2, 3, 4, 5)

# The documents a case mutates, and the commands that read each one ("@"
# stands for the mutated document).  Links name their bundles and networks
# by relative path, so they read the fixtures copied beside them.
COMMANDS = {
    "pair.json": (["synth", "--lc", "@", "-o", "net.json"], ["fom", "--lc", "@", "-o", "fom.json"]),
    "six.json": (["synth", "--lc", "@", "-o", "net.json"], ["fom", "--lc", "@", "-o", "fom.json"]),
    "pair-network.json": (["synth", "--net", "@", "-o", "net.json"],
                          ["fom", "--network", "@", "-o", "fom.json"]),
    "link-pair.json": (["sim", "--link", "@", "-o", "waves.csv"],
                       ["sweep", "--mode", "rs", "--link", "@", "--values", "0,1.67",
                        "-o", "sweep.csv"],
                       ["sweep", "--mode", "uncoupled", "--link", "@", "--values", "0,0.0005",
                        "-o", "sweep.csv"]),
    "link-scalar.json": (["sim", "--link", "@", "-o", "waves.csv"],
                         ["sweep", "--mode", "rs", "--link", "@", "--values", "0,25",
                          "-o", "sweep.csv"]),
}

HOSTILE = (None, True, False, "", "x", "1", "1e-11", 0, 1, -1, 2, 0.0, -0.0, 0.5, 1e308, -1e308,
           1e-320, 10 ** 30, 2 ** 63, -2 ** 63, 2 ** 64, float("nan"), float("inf"),
           float("-inf"), [], {}, [[]], [0], [1, 2], [[1.0, 0.0], [0.0, 1.0]], {"n": 1},
           [None], 1e15, -1e-9, 1e-300)
SCALES = (-1.0, 0.0, 1e-6, 0.5, 2.0, 1e3, 1e9)


@dataclass(frozen=True)
class Case:
    document: str
    mutation: str    # what was done, where
    text: str        # the mutated document
    argv: tuple      # the command, "@" for the document

    def __str__(self):
        return "%s: %s; %s" % (self.document, self.mutation, " ".join(self.argv[:3]))


def _places(node, path=()):
    """The path of every value in node, node itself first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _places(child, path + (key,))


def _mutated(doc, rng):
    """A deep copy of doc with one change, and the change in words.  An
    append to a value that is not a list, or a scale of one that is not a
    number, replaces it instead."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_places(doc))[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    where = "/".join(map(str, path))
    kind = rng.choice(("replace", "replace", "replace", "delete", "append", "scale", "wrap"))
    if kind == "delete":
        del parent[key]
        return doc, "delete %s" % where
    if kind == "append" and isinstance(value, list):
        value.append(rng.choice(HOSTILE))
        return doc, "append %r to %s" % (value[-1], where)
    if kind == "scale" and isinstance(value, (int, float)) and not isinstance(value, bool):
        factor = rng.choice(SCALES)
        parent[key] = value * factor
        return doc, "scale %s by %r" % (where, factor)
    if kind == "wrap":
        parent[key] = [value]
        return doc, "wrap %s in a list" % where
    parent[key] = rng.choice(HOSTILE)
    return doc, "set %s to %r" % (where, parent[key])


def cases(seed, count):
    """count cases drawn from random.Random(seed)."""
    rng = random.Random(seed)
    docs = {name: json.loads((FIXTURES / name).read_text()) for name in COMMANDS}
    out = []
    for _ in range(count):
        name = rng.choice(sorted(COMMANDS))
        doc, mutation = _mutated(docs[name], rng)
        out.append(Case(name, mutation, json.dumps(doc, indent=1), tuple(rng.choice(COMMANDS[name]))))
    return out


def fixtures_in(workdir):
    """Copy every fixture into workdir, where the mutated documents go."""
    for path in FIXTURES.glob("*.json"):
        shutil.copy(path, workdir)


def run(case, workdir):
    """(exit code, error stream) of case's command in workdir, which holds
    the fixtures; exit code None with the traceback when an exception
    escapes cli.main."""
    document = os.path.join(workdir, "case-" + case.document)
    with open(document, "w", encoding="utf-8") as fh:
        fh.write(case.text)
    return _main([document if a == "@" else os.path.join(workdir, a)
                  if a.endswith((".json", ".csv")) else a for a in case.argv])


def _main(argv):
    """(exit code, error stream) of cli.main(argv); exit code None with the
    traceback when an exception escapes it."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        return None, err.getvalue() + traceback.format_exc()
    return code, err.getvalue()


def failures(selected, workdir):
    """Run the selected cases in workdir: the (case, exit code, error
    stream) of every case that fails, and a Counter of the exit codes."""
    bad, codes = [], collections.Counter()
    for case in selected:
        code, err = run(case, workdir)
        codes[code] += 1
        if code not in EXIT_CODES or "Traceback" in err:
            bad.append((case, code, err))
    return bad, codes


@contextlib.contextmanager
def address_space_limit(extra_bytes):
    """Cap this process's address space (and its forks') at what it maps
    now plus extra_bytes, so a defect that allocates without bound ends in
    MemoryError instead of taking the host's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    try:
        with open("/proc/self/statm") as fh:
            mapped = int(fh.read().split()[0]) * resource.getpagesize()
    except FileNotFoundError:  # not Linux: no cap
        yield
        return
    cap = mapped + extra_bytes
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# The links whose waveform CSVs are mutated, the mutations, and the range
# size eye reads them in: 4 KiB, so a 450 kB file is about 110 ranges.
WAVE_LINKS = ("link-pair.json", "link-twelve.json")
WAVE_MUTATIONS = ("flip", "delete", "non-utf8", "drop-line", "duplicate-line", "blank-line",
                  "crlf", "truncate")
WAVE_RANGE_BYTES = 1 << 12


@dataclass(frozen=True)
class WaveCase:
    link: str
    mutation: str
    at: float        # where, as a fraction of the file
    value: int       # the bit flipped, or the byte inserted

    def __str__(self):
        return "%s waveform CSV: %s at %.4f (%d)" % (self.link, self.mutation, self.at, self.value)

    def apply(self, data):
        """The mutated bytes of data, the CSV sim wrote."""
        i = int(self.at * len(data))
        if self.mutation == "flip":
            return data[:i] + bytes([data[i] ^ (1 << self.value)]) + data[i + 1:]
        if self.mutation == "delete":
            return data[:i] + data[i + 1:]
        if self.mutation == "non-utf8":
            return data[:i] + bytes([self.value]) + data[i:]
        if self.mutation == "crlf":
            return data.replace(b"\n", b"\r\n")
        if self.mutation == "truncate":
            return data[:i + (data[i - 1:i] == b"\n")]
        lines = data.split(b"\n")
        j = int(self.at * (len(lines) - 1))
        if self.mutation == "drop-line":
            del lines[j]
        elif self.mutation == "duplicate-line":
            lines.insert(j, lines[j])
        else:
            lines[j] = b""
        return b"\n".join(lines)


def wave_cases(seed, count):
    """count waveform cases drawn from random.Random(seed); case i makes
    mutation i of WAVE_MUTATIONS, in turn."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        mutation = WAVE_MUTATIONS[i % len(WAVE_MUTATIONS)]
        value = rng.randrange(0x80, 0x100) if mutation == "non-utf8" else rng.randrange(8)
        out.append(WaveCase(rng.choice(WAVE_LINKS), mutation, rng.random(), value))
    return out


@contextlib.contextmanager
def cpus_and_ranges(k, range_bytes):
    """Make textio see k CPUs and read CSVs in ranges of range_bytes."""
    saved = os.sched_getaffinity, textio._RANGE_BYTES
    os.sched_getaffinity = lambda pid: set(range(k))
    textio._RANGE_BYTES = range_bytes
    try:
        yield
    finally:
        os.sched_getaffinity, textio._RANGE_BYTES = saved


def _left_a_child():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def _bytes_of(path):
    """The bytes of the file at path, None if there is none."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def wave_failures(selected, workdir):
    """Run the selected waveform cases in workdir, which holds the fixtures,
    on one CPU and on three: the (case, exit codes, error streams and eye
    reports) of every case that fails, and a Counter of the one-CPU exit
    codes."""
    bad, codes, waves = [], collections.Counter(), {}
    path = os.path.join(workdir, "case-waves.csv")
    report, svg, folded = (os.path.join(workdir, name)
                           for name in ("eye.json", "eye.svg", "folded.csv"))
    for case in selected:
        if case.link not in waves:
            base = os.path.join(workdir, "waves-" + case.link[:-5] + ".csv")
            code, err = _main(["sim", "--link", os.path.join(workdir, case.link), "-o", base])
            if code != 0:
                raise RuntimeError("sim on %s exited %s:\n%s" % (case.link, code, err))
            with open(base, "rb") as fh:
                waves[case.link] = fh.read()
        with open(path, "wb") as fh:
            fh.write(case.apply(waves[case.link]))
        runs = []
        for k in (1, 3):
            for out in (report, svg, folded):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(out)
            with cpus_and_ranges(k, WAVE_RANGE_BYTES):
                code, err = _main(["eye", "--waves", path, "--link",
                                   os.path.join(workdir, case.link), "-o", report,
                                   "--svg", svg, "--folded", folded])
            written = [_bytes_of(out) for out in (report, svg, folded)]
            if written[0] is not None:
                err += "\n" + written[0].decode()
            runs.append((code, err, *written[1:], _left_a_child()))
        codes[runs[0][0]] += 1
        if (runs[0] != runs[1] or runs[0][0] not in EXIT_CODES or "Traceback" in runs[0][1]
                or runs[0][-1] or runs[1][-1]):
            drawn = "" if runs[0][2:4] == runs[1][2:4] else "\neye.svg or folded.csv differ"
            bad.append((case, (runs[0][0], runs[1][0]), runs[0][1] + "\n" + runs[1][1] + drawn))
    return bad, codes
