"""The one CSV writer and the one JSON reader and writer.  CSV floats are
their shortest round-trip repr, so a read gives back the exact doubles, and
integer columns plain decimals.

A run of equal values is formatted once.  A settled lossless line holds its
level exactly, so most receiver samples repeat the one before them, and
formatting a float costs far more than comparing it.  Equal means equal bits
(the float64 viewed as uint64), not float ==: -0.0 == 0.0 although they print
differently, and nan != nan although one text serves every copy of the same
NaN.
"""

import json

import numpy as np

# Rows formatted per write.  Formatting a whole table at once would hold one
# Python object per value (tens of MB for a long waveform) at the same time.
_CHUNK_ROWS = 4096


def formatted(values, fmt="%r"):
    """fmt % v for every float v of a 1-d array, as an object array of str.

    Only the head of each run of bit-identical values is formatted; the rest
    of the run shares its string.
    """
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    head = np.ones(values.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    text = np.array([fmt % v for v in values[head].tolist()], dtype=object)
    return text[np.cumsum(head) - 1]


def _cells(column):
    """The text of every value of one column chunk, as a list of str."""
    if column.dtype == object:  # already formatted
        return column.tolist()
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return formatted(column).tolist()


def write_csv(path, header, columns):
    """Write a header line, then row m of every column, for each m.

    header is a sequence of column names; columns are equal-length 1-d
    arrays (or sequences): integer-typed ones are printed as decimals,
    object-typed ones are taken as already-formatted strings, and the rest
    are printed as floats with %r.
    """
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, columns[0].size, _CHUNK_ROWS):
            rows = zip(*[_cells(c[start:start + _CHUNK_ROWS]) for c in columns])
            fh.write("".join([",".join(row) + "\n" for row in rows]))


def write_json(path, doc):
    """Write doc as JSON indented by two spaces, with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
