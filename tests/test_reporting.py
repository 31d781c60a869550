"""The streamed kv_usage.csv writer against the csv.writer reference."""

import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_write_kv_usage
from stagesim.reporting import write_kv_usage
from stagesim.simulation import KvSample

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-10, -1e-10, 5e-10, 1e12, -1e12, 0.1, 2.5e-9, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# pool ids as the topology builds them, plus ones that must be quoted
POOLS = st.one_of(
    st.sampled_from(["pool:llm", "pool:sql_generator", 'pool:write, "v1" sql', "", " ", ",", '"', "a\nb", "a\rb"]),
    st.text(max_size=12),
)
SAMPLES = st.lists(
    st.builds(KvSample, FLOATS, POOLS, st.integers(0, 10**6), FLOATS, st.integers(0, 10**9)),
    max_size=20,
)


def written(writer, samples) -> str:
    handle = io.StringIO(newline="")
    writer(samples, handle)
    return handle.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(SAMPLES)
def test_kv_usage_writer_matches_csv_writer(samples):
    assert written(write_kv_usage, samples) == written(reference_write_kv_usage, samples)

