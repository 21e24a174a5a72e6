"""The one JSON line encoder that every JSONL writer in gaze6d shares.

`json.dumps(obj, sort_keys=True)` builds a new `JSONEncoder` on every call;
this encoder writes the same bytes without that cost.  It holds no state
between calls.
"""

import json

LINE_ENCODER = json.JSONEncoder(sort_keys=True)
