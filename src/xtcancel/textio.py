"""The one CSV writer: floats as their shortest round-trip repr, so a read
gives back the exact doubles, and integer columns as plain decimals."""

import numpy as np

# Rows formatted per write.  Formatting a whole table at once would hold one
# Python object per value (tens of MB for a long waveform) at the same time.
_CHUNK_ROWS = 4096


def write_csv(path, header, columns):
    """Write a header line, then row m of every column, for each m.

    header is a sequence of column names; columns are equal-length 1-d
    arrays (or sequences), integer-typed ones printed with %d.
    """
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%d" if c.dtype.kind in "iu" else "%r" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, columns[0].size, _CHUNK_ROWS):
            chunk = [c[start:start + _CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join([fmt % row for row in zip(*chunk)]))
