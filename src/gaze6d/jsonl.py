"""The JSON line encoder that every JSONL writer in gaze6d shares, and the
number formatter that writes their rows' floats a block at a time; the block
reader that both JSONL readers read their lines with, of no line format of
its own: orjson, one stdlib decoder and one column check of the lines'
values; and the one rule for the numbers a dataset row, a convert record or
a transform file holds, with one wording per fault.

`json.dumps(obj, sort_keys=True)` builds a new `JSONEncoder` on every call;
LINE_ENCODER writes the same bytes without that cost.  It holds no state
between calls.

number_rows writes the floats of a block of rows in one orjson call where
orjson's text is LINE_ENCODER's, and through LINE_ENCODER elsewhere.  Both
write a finite double as its shortest correctly rounded round-trip digits
(orjson with Ryu, Python's repr with David Gay's dtoa), so the digits are
the same; they differ only in when and how an exponent is written: below
1e-4 repr writes one where orjson writes none or another (5e-05 against
0.00005, 1e-07 against 1e-7), and from 1e16 repr writes 1e+16 where orjson
writes 1e16.  Between, and at ±0.0, the texts are equal byte for byte.
"""

import functools
import json
import math

import numpy as np
import orjson

from .errors import BAD_INPUT, JSON_NUMBERS, MAX_ABS_VALUE, PhysicalRuleError

# input lines read and checked together by both JSONL readers: one pogz_to_pog_rows
# call costs about as much per row at 1024; a smaller block answers a pipe sooner
# and holds less of a dataset's text at once
BLOCK_LINES = 256

LINE_ENCODER = json.JSONEncoder(sort_keys=True)

# bound at import, not looked up per call: tests swap `orjson` for a decoder alone
_dumps = functools.partial(orjson.dumps, option=orjson.OPT_SERIALIZE_NUMPY)

# the magnitudes, 0 aside, whose orjson text is repr's (see above)
FAST_MAGNITUDES = (1e-4, 1e16)


def number_rows(A) -> list[str]:
    """The text of each row of the float array A (n, k) as LINE_ENCODER
    writes it in a list, without the brackets: its floats' reprs (NaN and
    Infinity as json writes them), joined by ", ".  The rows whose every
    value v is 0 or has FAST_MAGNITUDES[0] <= |v| < FAST_MAGNITUDES[1] come
    from one orjson call over A, whose text there is repr's; any other row
    goes through LINE_ENCODER."""
    A = np.ascontiguousarray(A, dtype=float)
    if not len(A):
        return []
    rows = _dumps(A).decode()[2:-2].replace(",", ", ").split("], [")
    magnitudes = np.abs(A)
    fast = ((magnitudes >= FAST_MAGNITUDES[0]) & (magnitudes < FAST_MAGNITUDES[1]) | (magnitudes == 0)).all(axis=1)
    for k in np.flatnonzero(~fast).tolist():
        rows[k] = LINE_ENCODER.encode(A[k].tolist())[1:-1]
    return rows


def _reject_constant(name: str):
    raise ValueError(f"non-finite value {name}")


# json.loads builds a new decoder per call when given hooks; share one instead
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_json(text: str):
    """The stdlib json value of `text`, read with errors="surrogateescape":
    NaN and Infinity are refused as they are parsed, and a byte that is not
    UTF-8, a lone surrogate in `text`, is named by decoding the text's bytes
    strictly again.  Trailing newlines are dropped first, so the error of a
    line cut short points at its end, not at the start of a line 2."""
    return _DECODER.decode(text.rstrip("\n").encode("utf-8", "surrogateescape").decode())


def find_fault(fields, rule=None) -> list:
    """Raise the first fault of the values of a row, record or transform,
    given as (name, value, length) triples of what decode_json read; else
    return the values as one list of floats.  Field by field, a value is
    a flat list of JSON numbers (float() would take true, "1", null and a
    nested list's items), of its length, none an int too large for a float,
    each finite (1e999 parses to inf).  Then `rule`, if given, of the floats
    raises the reader's own fault, and last every value must be at most
    MAX_ABS_VALUE in magnitude, the physical rule: a PhysicalRuleError."""
    floats = []
    for name, value, n in fields:
        if type(value) is not list or not JSON_NUMBERS.issuperset(map(type, value)):
            raise ValueError(f"{name} must be a flat list of {n} JSON numbers, got {value!r}")
        if len(value) != n:
            raise ValueError(f"{name} has {len(value)} values, expected {n}")
        try:
            values = [float(v) for v in value]
        except BAD_INPUT:
            raise OverflowError(f"{name} has an integer too large for a float, got {value!r}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{name} must be finite, got {values}")
        floats.append((name, values))
    row = [v for _, values in floats for v in values]
    if rule is not None:
        rule(row)
    for name, values in floats:
        if not all(map(MAX_ABS_VALUE.__ge__, map(abs, values))):
            raise PhysicalRuleError(f"{name} values must be at most {MAX_ABS_VALUE:g} in magnitude, got {values}")
    return row


def _numbers_or_nan(values: list) -> list:
    """The JSON values, each that is no JSON number or is beyond MAX_ABS_VALUE
    in magnitude (an int too large for a float included) as NaN."""
    return [v if type(v) in JSON_NUMBERS and abs(v) <= MAX_ABS_VALUE else math.nan for v in values]


def number_columns(values: list, width: int, rule=None) -> tuple[np.ndarray, np.ndarray]:
    """The decoded JSON values of n rows of `width` as (n, width) float
    columns, and which rows pass: every value a JSON number at most
    MAX_ABS_VALUE in magnitude (NaN fails), and `rule` of the columns, if
    given.  A value that is no JSON number (np.array would take true, "1"
    and null) or an int too large for a float fails its row alone."""
    if not JSON_NUMBERS.issuperset(map(type, values)):
        values = _numbers_or_nan(values)
    try:
        columns = np.array(values, dtype=float)
    except BAD_INPUT:   # an int too large for a float
        columns = np.array(_numbers_or_nan(values))
    columns = columns.reshape(-1, width)
    passed = (np.abs(columns) <= MAX_ABS_VALUE).all(axis=1)
    return columns, passed if rule is None else passed & rule(columns)


def read_block(numbered_lines, read, fields: dict, rule=None, check=None):
    """The rows of the lines of [(line number, line)] that are not blank,
    that is, of JSON whitespace alone (space, tab, "\r" and "\n").  `read`
    reads a decoded line's structure: it gives the line's fields, named and
    of the lengths `fields` gives, in its order, and a value of its own, or
    raises a BAD_INPUT exception.  orjson decodes each line that opens no
    more than its object and a list per field (orjson has no nesting limit,
    where json raises RecursionError), and the rows whose fields are lists
    of their lengths are checked as columns (number_columns, with `rule`).
    Each other line (orjson refuses NaN, 1e999, a lone surrogate, a BOM...)
    and each row that fails is decoded once by decode_json, and `read` of
    that gives the row its own value and find_fault of its fields, with
    `check`, the per-row form of `rule`, its fault (or its floats: the row
    passes).  orjson gives what json gives but for an integer outside
    [-2**63, 2**64), as a float beyond any reader's bound: so every value
    kept and every fault is json's.

    Returns (rows, columns, passed, faults): [(line number, own value,
    line)], their (n, width) float columns, which rows pass, and [(line
    number, exception)] in line order, one for each row that does not."""
    lengths, width = list(fields.values()), sum(fields.values())
    containers = 1 + len(fields)   # a line's object and a list per field
    rows, values, faults = [], [], []
    for i, line in numbered_lines:
        if not line.strip(" \t\r\n"):   # JSON whitespace alone
            continue
        row, own = (), None
        if line.count("[") + line.count("{") <= containers:
            try:
                row, own = read(orjson.loads(line))
            except BAD_INPUT:
                pass
        rows.append((i, own, line))
        if [len(v) if type(v) is list else None for v in row] == lengths:
            for v in row:
                values += v
        else:   # fails the column check
            values += [None] * width

    columns, passed = number_columns(values, width, rule)
    for k in np.flatnonzero(~passed).tolist():
        i, _, line = rows[k]
        try:
            row, own = read(decode_json(line))
            rows[k] = (i, own, line)
            columns[k] = find_fault(zip(fields, row, lengths), check)
        except BAD_INPUT as exc:
            faults.append((i, exc))
            continue
        passed[k] = True
    return rows, columns, passed, faults
