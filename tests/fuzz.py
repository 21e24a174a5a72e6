"""Shared Hypothesis strategies and settings for the boundary property tests."""

from hypothesis import settings
from hypothesis import strategies as st

# derandomized, so that tier-1 runs the same examples every time
FUZZ = settings(derandomize=True, deadline=None, max_examples=300, database=None)

json_scalars = (st.none() | st.booleans() | st.integers()
                | st.sampled_from([10**400, -10**400])
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(max_size=4) | st.sampled_from(["0.5", "1e3"]))
# any JSON value a field could hold: a scalar, a flat list of any length up
# to 8, or a list of lists
json_values = (json_scalars
               | st.integers(0, 8).flatmap(lambda n: st.lists(json_scalars, min_size=n, max_size=n))
               | st.lists(st.lists(json_scalars, max_size=3), max_size=8))
