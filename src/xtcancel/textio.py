"""The one CSV writer and the one JSON reader and writer.  CSV floats are
their shortest round-trip repr, so a read gives back the exact doubles, and
integer columns plain decimals.

A run of equal values is formatted once.  A settled lossless line holds its
level exactly, so most receiver samples repeat the one before them, and
formatting a float costs far more than comparing it.  Equal means equal bits
(the float64 viewed as uint64), not float ==: -0.0 == 0.0 although they print
differently, and nan != nan although one text serves every copy of the same
NaN.  Integer columns go through the same run heads, so a column such as the
folded CSV's wire number is formatted once per wire.

Run heads are formatted by map, and the rows of each chunk are joined by
map(",".join, zip(*cells)), so no Python bytecode runs per value or per row.
"""

import json
import sys

import numpy as np

from .errors import ValidationError

# Cells formatted per write.  Formatting a whole table at once would hold one
# Python object per value (tens of MB for a long waveform) at the same time.
_CHUNK_CELLS = 1 << 13


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


def write_csv_blocks(path, header, blocks):
    """write_csv for a table given as blocks of rows: each block is a list
    of columns as write_csv takes them, and its rows follow the previous
    block's.  A block is built only when the rows before it are written."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            columns = [np.asarray(c) for c in columns]
            if len(columns) != len(header):
                raise ValueError("CSV header names %d columns (%s), got %d columns"
                                 % (len(header), ", ".join(header), len(columns)))
            if len({c.size for c in columns}) > 1:
                raise ValueError("CSV columns differ in length: " + ", ".join(
                    "%s %d" % (name, c.size) for name, c in zip(header, columns)))
            rows = max(1, _CHUNK_CELLS // len(columns))
            for start in range(0, columns[0].size, rows):
                cells = [_cells(c[start:start + rows]) for c in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


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
