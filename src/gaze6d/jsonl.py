"""The JSON line encoder that every JSONL writer in gaze6d shares, the line
decoder that every JSONL reader reads its lines with, and the column check
that every JSONL reader gives the values of its lines.

`json.dumps(obj, sort_keys=True)` builds a new `JSONEncoder` on every call;
this encoder writes the same bytes without that cost.  It holds no state
between calls.
"""

import json

import numpy as np
import orjson

from .errors import BAD_INPUT, JSON_NUMBERS, MAX_ABS_VALUE

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


def number_columns(values: list, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The decoded JSON values of n rows of `width` as (n, width) float
    columns, and which rows pass: every value a JSON number at most
    MAX_ABS_VALUE in magnitude (NaN fails).  If any value is no JSON number
    or an int too large for a float, no row passes: check each one alone."""
    n = len(values) // width
    columns, passed = np.zeros((n, width)), np.zeros(n, dtype=bool)
    if JSON_NUMBERS.issuperset(map(type, values)):
        try:
            columns = np.array(values, dtype=float).reshape(n, width)
        except BAD_INPUT:   # an int too large for a float
            pass
        else:
            passed = (np.abs(columns) <= MAX_ABS_VALUE).all(axis=1)
    return columns, passed
