"""The one JSON line encoder that every JSONL writer in gaze6d shares.

`json.dumps(obj, sort_keys=True)` builds a new `JSONEncoder` on every call;
this encoder writes the same bytes without that cost.  It holds no state
between calls.
"""

import json

LINE_ENCODER = json.JSONEncoder(sort_keys=True)

# LINE_ENCODER.encode(record) + "\n" of a convert record {"behind": b, "gaze":
# [3 floats], "point": [2 floats]} whose floats are finite, filled with
# (JSON_BOOLS[b], gaze, point): a list of finite Python floats has the repr of
# its JSON text, and the keys are written in sorted order
RECORD_LINE = '{"behind": %s, "gaze": %r, "point": %r}\n'
JSON_BOOLS = ("false", "true")
