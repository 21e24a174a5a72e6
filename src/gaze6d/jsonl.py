"""The JSON line encoder that every JSONL writer in gaze6d shares, and the
column check that every JSONL reader gives the values of its lines.

`json.dumps(obj, sort_keys=True)` builds a new `JSONEncoder` on every call;
this encoder writes the same bytes without that cost.  It holds no state
between calls.
"""

import json

import numpy as np

from .errors import BAD_INPUT, JSON_NUMBERS, MAX_ABS_VALUE

LINE_ENCODER = json.JSONEncoder(sort_keys=True)

# LINE_ENCODER.encode(record) + "\n" of a convert record {"behind": b, "gaze":
# [3 floats], "point": [2 floats]} whose floats are finite, filled with
# (JSON_BOOLS[b], gaze, point): a list of finite Python floats has the repr of
# its JSON text, and the keys are written in sorted order
RECORD_LINE = '{"behind": %s, "gaze": %r, "point": %r}\n'
JSON_BOOLS = ("false", "true")


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
