import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from stagesim.rng import RngStream, stream_uniform


def test_draws_are_pure_functions_of_address():
    assert stream_uniform(1, "arrivals", 0) == stream_uniform(1, "arrivals", 0)
    assert stream_uniform(1, "arrivals", 0) != stream_uniform(1, "arrivals", 1)
    assert stream_uniform(1, "arrivals", 0) != stream_uniform(2, "arrivals", 0)
    assert stream_uniform(1, "arrivals", 0) != stream_uniform(1, "tokens", 0)


def test_uniform_range():
    for i in range(1000):
        u = stream_uniform(42, "x", i)
        assert 0.0 < u <= 1.0


def test_stream_sequence_reproducible():
    a = RngStream(7, "outcomes")
    b = RngStream(7, "outcomes")
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_streams_do_not_interfere():
    # consuming one stream leaves another stream's draws unchanged
    lone = RngStream(7, "a")
    expected = [lone.uniform() for _ in range(5)]

    a = RngStream(7, "a")
    b = RngStream(7, "b")
    got = []
    for _ in range(5):
        b.uniform()
        b.uniform()
        got.append(a.uniform())
    assert got == expected


def test_stream_restart_at_offset():
    a = RngStream(7, "a")
    for _ in range(3):
        a.uniform()
    resumed = RngStream(7, "a", start=3)
    assert resumed.uniform() == RngStream(7, "a", start=3).uniform()
    assert a.uniform() == RngStream(7, "a", start=3).uniform()


def known_answer(seed: int, label: str, index: int) -> float:
    """The draw formula, computed here with hashlib directly."""
    digest = hashlib.sha256(f"{seed}|{label}|{index}".encode()).digest()
    return (int.from_bytes(digest[:8], "big") + 1) / 2**64


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    label=st.one_of(
        st.text(max_size=20),
        st.sampled_from(['req:3:prompt:write, "v1" sql', "tool:it's", "é|ü|∑", "outcome:\U0001f600"]),
    ),
    start=st.integers(min_value=0, max_value=2**40),
    n=st.integers(min_value=1, max_value=4),
)
def test_draws_match_the_known_answer(seed, label, start, n):
    stream = RngStream(seed, label, start)
    for index in range(start, start + n):
        want = known_answer(seed, label, index)
        assert stream_uniform(seed, label, index) == want
        assert stream.uniform() == want
    assert stream.index == start + n


def test_draws_are_pinned():
    # written out, so the formula and its known answer cannot drift together
    assert stream_uniform(1, "arrivals", 0).hex() == "0x1.78cfd9e425b6bp-4"
    assert RngStream(-3, 'req:0:tool:"é"', start=7).uniform().hex() == "0x1.15b343832500cp-1"
