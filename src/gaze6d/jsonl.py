"""The JSON line encoder that every JSONL writer in gaze6d shares, and the
block reader that both JSONL readers read their lines with: one line decoder,
and one column check of the lines' values.

`json.dumps(obj, sort_keys=True)` builds a new `JSONEncoder` on every call;
LINE_ENCODER writes the same bytes without that cost.  It holds no state
between calls.
"""

import json

import numpy as np
import orjson

from .errors import BAD_INPUT, JSON_NUMBERS, MAX_ABS_VALUE

# input lines read and checked together by both JSONL readers: one pogz_to_pog_rows
# call costs about as much per row at 1024; a smaller block answers a pipe sooner
# and holds less of a dataset's text at once
BLOCK_LINES = 256

LINE_ENCODER = json.JSONEncoder(sort_keys=True)

# LINE_ENCODER.encode(record) + "\n" of a convert record {"behind": b, "gaze":
# [3 floats], "point": [2 floats]} whose floats are finite, filled with
# (JSON_BOOLS[b], gaze, point): a list of finite Python floats has the repr of
# its JSON text, and the keys are written in sorted order
RECORD_LINE = '{"behind": %s, "gaze": %r, "point": %r}\n'
JSON_BOOLS = ("false", "true")


def decode_line(line: str, read, decode, containers: int):
    """`read` of the value of the JSON text `line`, decoded by orjson, or
    else by `decode`, a stdlib json decoder, whose result (or the exception
    it raises) is then the answer.  `decode` reads the line when orjson
    refuses it (NaN, Infinity, 1e999, a lone surrogate, a BOM...), when
    `read` raises a BAD_INPUT exception for what orjson gives, or when the
    line opens more than `containers` arrays and objects: orjson has no
    nesting limit, where json raises RecursionError.

    Otherwise orjson gives what json gives, but for an integer outside
    [-2**63, 2**64), which it gives as a float, beyond any bound of a
    reader; a reader sends a line whose values break its rules to `decode`
    too, so its checks only ever see values decoded by json."""
    if line.count("[") + line.count("{") <= containers:
        try:
            return read(orjson.loads(line))
        except BAD_INPUT:
            pass
    return read(decode(line))


def number_columns(values: list, width: int, rule=None) -> tuple[np.ndarray, np.ndarray]:
    """The decoded JSON values of n rows of `width` as (n, width) float
    columns, and which rows pass: every value a JSON number at most
    MAX_ABS_VALUE in magnitude (NaN fails), and `rule` of the columns, if
    given.  If any value is no JSON number or an int too large for a float,
    no row passes: check each one alone."""
    n = len(values) // width
    columns, passed = np.zeros((n, width)), np.zeros(n, dtype=bool)
    if JSON_NUMBERS.issuperset(map(type, values)):
        try:
            columns = np.array(values, dtype=float).reshape(n, width)
        except BAD_INPUT:   # an int too large for a float
            pass
        else:
            passed = (np.abs(columns) <= MAX_ABS_VALUE).all(axis=1)
    return columns, passed if rule is None else passed & rule(columns)


def read_block(numbered_lines, read, decode, containers: int, width: int, find_fault, rule=None):
    """The rows of the lines of [(line number, line)] that are not blank.
    `read` (through decode_line, with `decode` and `containers`) reads a
    line's structure: it gives the line's fields, lists whose values make
    its row of `width`, and a value of its own, or raises a BAD_INPUT
    exception.  The rows are checked as columns (number_columns, with
    `rule`); a row that fails is read again by `decode`, and `find_fault`
    of its fields raises what it breaks first, if anything.

    Returns (rows, columns, passed, faults): [(line number, own value,
    line)], their (n, width) float columns, which rows pass, and [(line
    number, exception)] in line order.  A row that neither passes nor has
    a fault breaks only the column checks."""
    rows, values, faults = [], [], []
    for i, line in numbered_lines:
        if not line.strip():
            continue
        try:
            fields, own = decode_line(line, read, decode, containers)
        except BAD_INPUT as exc:
            faults.append((i, exc))
            continue
        rows.append((i, own, line))
        for field in fields:
            values += field

    columns, passed = number_columns(values, width, rule)
    for k in np.flatnonzero(~passed).tolist():
        try:
            fields, _ = read(decode(rows[k][2]))
            find_fault(fields)
        except BAD_INPUT as exc:
            faults.append((rows[k][0], exc))
            continue
        row, ok = number_columns([v for field in fields for v in field], width, rule)
        columns[k], passed[k] = row[0], ok[0]
    return rows, columns, passed, sorted(faults)   # no line has two faults: no exception is compared
