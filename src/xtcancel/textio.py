"""The one CSV writer, the one JSON reader and writer, and on_cpus, which
computes indexed results on every CPU this process may run on, in order:
write_texts writes the big text outputs through it, and the sampled figures
of merit draw their chunks through it.

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
into one text a wire), forked workers, one a CPU as far as the memory budget
allows, format some of them and send them back through pipes (on_cpus), and
the bytes are written in order, the same bytes that one process writes.
"""

import contextlib
import json
import os
import struct
import sys

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

# The prefix of everything a worker sends: whether compute raised, and the
# length of the result, or of the exception's "Type: message", that follows.
_FRAME = struct.Struct("<?Q")


def formatted(values, fmt=repr):
    """fmt(v) for every v of a 1-d array, as an object array of str.

    fmt maps one Python scalar to its text (repr, str, "%.2f".__mod__).
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
        return "\n".join(map(",".join, zip(*cells))) + "\n"

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
    """Write text_of(i) as UTF-8 to the binary file fh for i in range(count),
    in order: the bytes a loop over i writes, computed on every CPU this
    process may run on (on_cpus, which takes worker_bytes and held_bytes)."""
    with contextlib.closing(on_cpus(lambda i: text_of(i).encode(), count,
                                    worker_bytes, held_bytes)) as texts:
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
