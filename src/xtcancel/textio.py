"""The one CSV writer, the one JSON reader and writer, and on_cpus, which
computes indexed results on every CPU this process may run on, in order:
write_texts writes the big text outputs through it, read_csv_rows parses
the waveform CSV through it in byte ranges, and the sampled figures of merit
draw their chunks through it.

CSV floats are their shortest round-trip repr, so a read gives back the
exact doubles, and integer columns plain decimals.

A run of equal values is formatted once.  A settled lossless line holds its
level exactly, so most receiver samples repeat the one before them, and
formatting a float costs far more than comparing it.  Equal means equal bits
(the float64 viewed as uint64), not float ==: -0.0 == 0.0 although they print
differently, and nan != nan although one text serves every copy of the same
NaN.  Integer columns go through the same run heads, so a column such as the
folded CSV's wire number is formatted once per wire.

Run heads are formatted by map, and the rows of each chunk are joined by
map(",".join, zip(*cells)), so no Python bytecode runs per value or per row.

Formatting is the writers' floor in one process, so write_texts spreads it
over processes: a table is cut into chunks of _CHUNK_CELLS cells (an SVG
into the bytes of one wire), forked workers, one a CPU as far as the memory
budget allows, format some of them and send them back through pipes
(on_cpus), and the bytes are written in order, the same bytes that one
process writes.
"""

import contextlib
import io
import json
import os
import re
import stat
import struct
import sys
import warnings

import numpy as np

from .errors import MEMORY_BUDGET_BYTES, ValidationError

# Cells formatted per write.  Formatting a whole table at once would hold one
# Python object per value (tens of MB for a long waveform) at the same time.
_CHUNK_CELLS = 1 << 13

# Bytes a pipe from a worker holds, so a worker can send a text or more ahead
# of the one being written.  Linux lets an unprivileged process set up to
# /proc/sys/fs/pipe-max-size, 1 MiB by default; a refusal keeps the default.
# On two CPUs the waveform CSV, folded CSV and SVG of link-twelve at PRBS9
# took 0.395 s against 0.434 s through 64 KiB default pipes (median of 30
# alternating pairs, faster in 29).
_PIPE_BYTES = 1 << 20

# Bytes of a CSV's body that read_csv_rows gives one process to read and
# parse at a time: a range, from the first line that begins inside it
# through the line that crosses its end.  A 1 MiB range of the twelve-wire
# waveform CSV is about 4000 rows, parsed in about 13 ms.
_RANGE_BYTES = 1 << 20

# A line ends at \n, \r\n or a \r not before \n (universal newlines).
_LINE_END = re.compile(rb"\r\n?|\n")

# The prefix of everything a worker sends: whether compute raised, and the
# length of the result, or of the exception's "Type: message", that follows.
_FRAME = struct.Struct("<?Q")


def formatted(values, fmt=repr):
    """fmt(v) for every v of a 1-d array, as an object array of str.

    fmt maps one Python scalar to its text (repr, str); the SVG's fixed
    "%.2f" coordinates go through two_decimals instead, which computes the
    digits of whole hundredths with integer ufuncs and no str a value.
    Integer arrays keep their dtype, so fmt sees Python ints and str prints
    uint64 2**64 - 1 exactly; anything else is taken as float64.  Only the
    head of each run of bit-identical values is formatted; the rest of the
    run shares its string.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        keys = values
    else:
        values = values.astype(np.float64, copy=False)
        keys = values.view(np.uint64)
    head = np.ones(values.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    text = np.array(list(map(fmt, values[head].tolist())), dtype=object)
    return text[np.cumsum(head) - 1]


def two_decimals(values):
    """"%.2f" % v for every v of a 1-d float array, as the rows of a uint8
    matrix: row i holds the ASCII text of value i right-aligned, after as
    many NULs as it is shorter than the longest text.

    A value is easy when it has no sign bit, r = 100 v is below 2**31 and r
    is more than 1e-6 from a half-integer.  Below 2**31 the float product is
    within 1.2e-7 of 100 v, so the integer nearest r is the correctly
    rounded number of hundredths k, whose digits (those of k // 100 without
    leading zeros, ".", the two of k % 100) are computed with integer
    ufuncs.  Every other value (a near-tie, a negative or -0.0, a huge or
    non-finite value) is formatted alone with "%.2f" into the same matrix.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        r = values * 100.0
    easy = (r < 2.0 ** 31) & ~np.signbit(values)
    r = np.where(easy, r, 0.0)
    easy &= np.abs(r - np.floor(r) - 0.5) > 1e-6
    whole, cents = np.divmod(np.rint(r).astype(np.uint32), 100)
    digits = len(str(int(whole.max(initial=0))))
    hard = np.flatnonzero(~easy)
    texts = ["%.2f" % v for v in values[hard].tolist()]
    width = max(digits + 3, max(map(len, texts), default=0))
    out = np.zeros((values.size, width), dtype=np.uint8)
    out[:, -1] = cents % 10 + ord("0")
    out[:, -2] = cents // 10 + ord("0")
    out[:, -3] = ord(".")
    out[:, -4] = whole % 10 + ord("0")
    for col in range(5, digits + 4):
        whole //= 10
        out[:, -col] = np.where(whole > 0, whole % 10 + ord("0"), 0)
    if texts:
        block = "".join(text.rjust(width, "\0") for text in texts).encode()
        out[hard] = np.frombuffer(block, dtype=np.uint8).reshape(-1, width)
    return out


def _cells(column):
    """The text of every value of one column chunk, as a list of str."""
    if column.dtype == object:  # already formatted
        return column.tolist()
    return formatted(column, str if column.dtype.kind in "iu" else repr).tolist()


def write_csv(path, header, columns):
    """Write a header line, then row m of every column, for each m.

    header is a sequence of column names; columns are equal-length 1-d
    arrays (or sequences): integer-typed ones are printed as decimals,
    object-typed ones are taken as already-formatted strings, and the rest
    are printed as floats with %r.  A header that names another number of
    columns, or columns of unequal length, raise ValueError.
    """
    write_csv_blocks(path, header, [columns])


def write_csv_blocks(path, header, blocks, worker_bytes=0, held_bytes=0):
    """write_csv for a table given as blocks of rows: each block is a list
    of columns as write_csv takes them, and its rows follow the previous
    block's.  Every block is checked before the file is opened.
    worker_bytes and held_bytes are write_texts'."""
    chunks = []  # (columns, first row, row past the last) of each text
    for columns in blocks:
        columns = [np.asarray(c) for c in columns]
        if len(columns) != len(header):
            raise ValueError("CSV header names %d columns (%s), got %d columns"
                             % (len(header), ", ".join(header), len(columns)))
        if len({c.size for c in columns}) > 1:
            raise ValueError("CSV columns differ in length: " + ", ".join(
                "%s %d" % (name, c.size) for name, c in zip(header, columns)))
        rows = max(1, _CHUNK_CELLS // len(columns))
        chunks += [(columns, start, start + rows) for start in range(0, columns[0].size, rows)]

    def text_of(k):
        columns, start, stop = chunks[k]
        cells = [_cells(c[start:stop]) for c in columns]
        return ("\n".join(map(",".join, zip(*cells))) + "\n").encode()

    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        write_texts(fh, text_of, len(chunks), worker_bytes, held_bytes)


def worker_count(count, worker_bytes=0, held_bytes=0):
    """The processes on_cpus computes count results in: one for each CPU
    this process may run on, at most count, and at most as many as fit
    worker_bytes each beside held_bytes within MEMORY_BUDGET_BYTES.  Never
    fewer than one, the caller, and only it where the platform has no fork
    or no CPU affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    k = min(len(os.sched_getaffinity(0)), count)
    if worker_bytes:
        k = min(k, (MEMORY_BUDGET_BYTES - held_bytes) // worker_bytes)
    return max(1, int(k))


def write_texts(fh, text_of, count, worker_bytes=0, held_bytes=0):
    """Write text_of(i), a bytes object, to the binary file fh for i in
    range(count), in order: the bytes a loop over i writes, computed on
    every CPU this process may run on (on_cpus, which takes worker_bytes and
    held_bytes)."""
    with contextlib.closing(on_cpus(text_of, count, worker_bytes, held_bytes)) as texts:
        for data in texts:
            fh.write(data)
            del data  # not held while the next text is computed


def on_cpus(compute, count, worker_bytes=0, held_bytes=0):
    """Yield compute(i), a bytes object, for i in range(count), in order,
    computed on every CPU this process may run on.  Close the generator
    (contextlib.closing) if it may be left before its end.

    worker_bytes bounds the memory one process holds computing results, and
    held_bytes what the caller holds besides; the caller's memory check
    counts one process, so workers are forked only while every process's
    worker_bytes fit the budget beside held_bytes (worker_count).

    With k = worker_count(...), this process computes result i when k
    divides i, and k - 1 forked workers compute the others, worker j those i
    with i % k == j, each sending its results length-prefixed through its
    own pipe; with k = 1 the same loop computes every result here.  A worker
    computes results and nothing else: it never returns into the caller's
    frames and ends with os._exit, so it flushes no buffer and closes no file
    of the caller's.  A forked worker has only the forking thread, so
    compute must take no lock that another thread could hold at the fork.
    BLAS calls are safe: numpy's OpenBLAS shuts its thread pool down in a
    pthread_atfork handler, so a worker starts its own.
    An exception compute raises in a worker is raised here when result i is
    due, where one process would raise it, as a RuntimeError naming its type
    and message; a worker that dies raises RuntimeError too.  Every worker
    is killed if still running and reaped before the generator is exhausted,
    raises or is closed.
    """
    k = worker_count(count, worker_bytes, held_bytes)
    pids, pipes, done = [], [], False
    try:
        for j in range(1, k):
            import fcntl  # POSIX, as fork is

            read_end, write_end = os.pipe()
            pipes.append(os.fdopen(read_end, "rb"))
            try:
                # not Linux, or over the user's pipe quota: the default size
                with contextlib.suppress(AttributeError, OSError):
                    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
                pid = os.fork()
                if pid == 0:
                    _serve(compute, range(j, count, k), write_end, pipes)
                pids.append(pid)
            finally:
                os.close(write_end)
        for i in range(count):
            j = i % k
            yield compute(i) if j == 0 else _receive(pipes[j - 1], i)
        done = True
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if not done:  # it may be computing a result nobody will read
                import signal  # here: a millisecond of every command's start

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(compute, indices, fd, pipes):
    """A forked worker's whole life: close the read ends of pipes, send
    compute(i) through fd for every i of indices, or the "Type: message" of
    the exception it raises, then _exit.  Never returns."""
    code = 1
    try:
        for pipe in pipes:
            os.close(pipe.fileno())
        for i in indices:
            try:
                data = compute(i)
            except Exception as exc:
                failure = "%s: %s" % (type(exc).__name__, exc)
                _send(fd, True, failure.encode(errors="backslashreplace"))
                break
            _send(fd, False, data)
        else:
            code = 0
    finally:
        os._exit(code)


def _send(fd, failed, data):
    os.write(fd, _FRAME.pack(failed, len(data)))
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _receive(pipe, i):
    """Result i from the worker that writes into pipe; RuntimeError naming
    the exception it raised computing it, or that it ended without sending
    either."""
    head = pipe.read(_FRAME.size)
    if len(head) == _FRAME.size:
        failed, size = _FRAME.unpack(head)
        data = pipe.read(size)
        if len(data) == size:
            if failed:
                raise RuntimeError(data.decode())
            return data
    raise RuntimeError("the worker process computing text %d ended before sending it" % i)


def read_csv_rows(fh, width, rows):
    """The first rows rows of the text that follows the line fh has read, as
    np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=rows)
    parses it, without its warnings: fh is a file opened for reading with
    encoding="utf-8" and universal newlines, and has read exactly its first
    line.  Rows of width values give the same array; a text that loadtxt
    refuses raises its ValueError, numpy's row number included.

    The body of a regular file is parsed in ranges of _RANGE_BYTES through
    on_cpus: each range is read with os.pread by the process that parses
    it, from the first line that begins inside it through the line that
    crosses its end, decoded as fh decodes, and sent back as raw float64
    bytes, which are copied in order into one (rows, width) array.  The map
    is closed as soon as that array is full, so a longer file is read no
    further than the range that fills it.  No process holds the whole file:
    the caller holds the array and one range (range_bytes), each worker one
    range.  A range that fails (a ValueError, or rows of another width)
    makes fh's own loadtxt parse the file again in this process, which
    words the refusal, or reads the rows up to max_rows if the failure lay
    past them.  So does a file that is not a regular one (a pipe), and any
    file where the platform has no os.pread.
    """
    fd = fh.fileno()
    info = os.fstat(fd)
    with warnings.catch_warnings():
        # loadtxt warns about each blank line, which max_rows does not
        # count, and about a file or range with no data rows.
        warnings.simplefilter("ignore", UserWarning)
        if hasattr(os, "pread") and stat.S_ISREG(info.st_mode):
            with contextlib.suppress(ValueError, RuntimeError):
                return _rows_in_ranges(fd, info.st_size, width, rows)
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, max_rows=rows)


def range_bytes(width):
    """An upper bound on the memory one process holds parsing one range of
    rows of width values in read_csv_rows: the range's text, numpy's parse
    of it and the bytes of the rows.  A value takes at least two bytes of
    text (a digit and its comma or newline) and eight as a float64, so the
    parse and the bytes are at most four times the text each; ten times the
    text leaves room for numpy's growing buffer (a range of "0,0" rows
    traced 9.0 times its text).  The line that crosses the range's end is
    taken to hold width reprs of at most 24 characters, as the CSV writer
    prints them."""
    text = _RANGE_BYTES + 25 * width
    return 10 * text + (1 << 16)


def _rows_in_ranges(fd, size, width, rows):
    body = _line_start(fd, 1, size)
    count = -(-(size - body) // _RANGE_BYTES)

    def parse(r):
        start = body + r * _RANGE_BYTES
        lo = body if r == 0 else _line_start(fd, start, size)
        hi = _line_start(fd, start + _RANGE_BYTES, size)
        text = io.TextIOWrapper(io.BytesIO(os.pread(fd, hi - lo, lo)), encoding="utf-8")
        block = np.loadtxt(text, delimiter=",", comments=None, ndmin=2)
        if block.size and block.shape[1] != width:
            raise ValueError("a row of %d values, not %d" % (block.shape[1], width))
        return block.tobytes()

    out = np.empty((rows, width))
    filled = 0
    with contextlib.closing(on_cpus(parse, count, range_bytes(width), out.nbytes)) as blocks:
        for data in blocks:
            block = np.frombuffer(data).reshape(-1, width)
            take = min(len(block), rows - filled)
            out[filled:filled + take] = block[:take]
            filled += take
            if filled == rows:
                break
    return out[:filled]


def _line_start(fd, pos, size):
    """The first offset at or after pos (at least 1) of the file fd, size
    bytes long, where a line begins; size if no line does."""
    pos -= 1
    while True:
        block = os.pread(fd, 1 << 12, pos)
        at_end = pos + len(block) >= size
        end = _LINE_END.search(block)
        # a \r that ends the block may be the first half of a \r\n
        if end and (at_end or end.end() < len(block)):
            return pos + end.end()
        if at_end:
            return size
        pos += len(block) - 1


def write_json(path, doc):
    """Write doc as JSON indented by two spaces, with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _parse_int(text):
    """int(text); past Python's digit limit, a ValueError that names the
    limit but not the interpreter call that raises it."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("an integer of %d digits is over the %d-digit limit"
                         % (len(text.lstrip("-")), sys.get_int_max_str_digits())) from None


def read_json(path):
    """The document in path; malformed text raises ValidationError naming path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_parse_int)
        except (ValueError, RecursionError) as exc:
            raise ValidationError("%s: %s" % (path, exc)) from None
