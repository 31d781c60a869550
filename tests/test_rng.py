import hashlib
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stagesim as ss
from stagesim import rng
from stagesim.dists import Distribution
from stagesim.rng import RngStream, stream_uniform
from stagesim.simulation import RequestSim, Simulator
from stagesim.workflow import LLM, SUCCESS, TERMINALS, Outcome, StageSpec, WorkflowSpec, validate_workflow
from stagesim.workloads import Topology


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


def sha256_sources() -> list:
    """(module name, sha256) of each SHA-256 that imports here, in the
    order `stagesim.rng` prefers them."""
    sources = []
    for name in ("_sha2", "_sha256", "hashlib"):
        try:
            sources.append((name, importlib.import_module(name).sha256))
        except ImportError:
            pass
    return sources


def test_draws_use_the_first_sha256_that_imports():
    assert rng.sha256 is sha256_sources()[0][1]


@pytest.mark.parametrize(("name", "sha256"), sha256_sources(), ids=[name for name, _ in sha256_sources()])
def test_each_sha256_source_gives_the_pinned_draws(monkeypatch, name, sha256):
    monkeypatch.setattr(rng, "sha256", sha256)
    test_draws_are_pinned()


def one_stage_config(stage_id: str, seed: int) -> ss.SimConfig:
    stage = StageSpec(
        stage_id=stage_id,
        kind=LLM,
        prefix_tokens=0,
        prompt_tokens=Distribution.constant(10),
        output_tokens=Distribution.constant(10),
        outcomes=(Outcome("done", 1.0, SUCCESS),),
    )
    workflow = validate_workflow(WorkflowSpec("one", (stage,), stage_id, retry_budget=0, slo_seconds=30.0))
    topology = Topology(mode="isolated", llm_engines={stage_id: 1})
    return ss.SimConfig(workflow, topology, ss.PolicyConfig(), arrival_rate=1.0, duration=1.0, warmup=0.0, seed=seed)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    seed=st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64, max_value=2**80), st.integers(0, 2**64)),
    rid=st.integers(min_value=0, max_value=2**40),
    stage_id=st.one_of(
        st.text(min_size=1, max_size=12),
        st.sampled_from(["sql|gen", 'say "it"', "it's", "é|ü|∑", "\U0001f600"]),
    ).filter(lambda sid: sid not in TERMINALS),
    n=st.integers(min_value=1, max_value=4),
)
def test_request_draws_match_the_known_answer(seed, rid, stage_id, n):
    # the request path hashes preformatted bytes: the same draws as the
    # stream `req:{rid}:{kind}:{stage}` of the formula
    sim = Simulator(one_stage_config(stage_id, seed))
    req = RequestSim(rid, 0.0, 30.0, stage_id)
    for kind, label in sim._draw_labels[stage_id].items():
        text = f"req:{rid}:{kind}:{stage_id}"
        for index in range(n):
            want = known_answer(seed, text, index)
            assert sim._draw(req, label) == want == stream_uniform(seed, text, index)
        assert req.streams[label] == n
