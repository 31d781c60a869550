import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_config_tree
from stagesim.config import build_sim_config
from stagesim.dists import Distribution, DistributionError
from stagesim.workloads import GENERATOR


def test_constant():
    d = Distribution.constant(0.3)
    assert d.sample(0.5) == 0.3
    assert d.sample_int(0.99) == 0
    assert d.mean() == 0.3


def test_uniform_float_bounds():
    d = Distribution.uniform(0.1, 0.4)
    rng = random.Random(0)
    for _ in range(200):
        x = d.sample(rng.uniform(1e-12, 1.0))
        assert 0.1 <= x <= 0.4
    assert d.mean() == pytest.approx(0.25)


def test_uniform_degenerate():
    d = Distribution.uniform(0.1, 0.1)
    assert d.sample(0.7) == pytest.approx(0.1)


def test_uniform_int_covers_inclusive_range():
    d = Distribution.uniform(3, 5)
    rng = random.Random(1)
    seen = {d.sample_int(rng.uniform(1e-12, 1.0)) for _ in range(500)}
    seen.add(d.sample_int(1.0))
    assert seen == {3, 4, 5}
    assert d.mean() == 4.0


def test_geometric_inversion_boundaries():
    d = Distribution.geometric(0.5, cap=10)
    # u = 1 is the most likely corner: first trial succeeds
    assert d.sample_int(1.0) == 1
    # tiny u lands deep in the tail, clipped by the cap
    assert d.sample_int(1e-12) == 10
    assert Distribution.geometric(1.0, cap=5).sample_int(0.2) == 1
    # the smallest p whose 1 - p is below 1: the inversion divides by a
    # tiny log(1 - p), not by 0
    assert Distribution.geometric(math.nextafter(2.0**-54, 1.0), cap=50).sample_int(0.5) == 50


def test_geometric_mean_matches_enumeration():
    p, cap = 0.3, 6
    d = Distribution.geometric(p, cap)
    # oracle: E[min(G, cap)] from the geometric pmf directly
    expected = sum(k * (1 - p) ** (k - 1) * p for k in range(1, cap)) + cap * (1 - p) ** (cap - 1)
    assert d.mean() == pytest.approx(expected, abs=1e-12)


# the smallest geometric p the constructor accepts, and a few just above it
TINY_P = [math.nextafter(2.0**-54, 1.0), 2.0**-53, 2e-16, 1e-15, 1e-12]
WHOLE = st.integers(-1000, 10**6).map(float)


@st.composite
def distributions(draw):
    """Every kind, with whole-valued parameters where a kind takes a value,
    since max_int bounds sample_int; geometric p down to its smallest."""
    kind = draw(st.sampled_from(["constant", "uniform", "geometric", "empirical"]))
    if kind == "constant":
        return Distribution.constant(draw(WHOLE))
    if kind == "uniform":
        low, high = sorted((draw(WHOLE), draw(WHOLE)))
        return Distribution.uniform(low, high)
    if kind == "empirical":
        return Distribution.empirical(draw(st.lists(WHOLE, min_size=1, max_size=8)))
    p = draw(st.one_of(st.sampled_from(TINY_P), st.floats(TINY_P[0], 1.0)))
    return Distribution.geometric(p, draw(st.integers(1, 10**9)))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(distributions())
def test_mean_lies_within_the_support(d):
    assert d.min_value() <= d.mean() <= d.max_int()


def test_geometric_mean_of_a_tiny_p_stays_within_its_cap():
    # 1 - (1 - p)**cap loses every digit for p near 2**-54
    assert Distribution.geometric(2e-16, 1000).mean() == pytest.approx(1000.0)
    assert Distribution.geometric(TINY_P[0], 50).mean() == pytest.approx(50.0)


def test_geometric_sampling_frequency():
    p, cap = 0.5, 8
    d = Distribution.geometric(p, cap)
    rng = random.Random(2)
    n = 20000
    ones = sum(1 for _ in range(n) if d.sample_int(rng.uniform(1e-12, 1.0)) == 1)
    assert ones / n == pytest.approx(p, abs=0.02)


def test_empirical():
    d = Distribution.empirical([1.0, 2.0, 4.0])
    assert d.mean() == pytest.approx(7.0 / 3.0)
    rng = random.Random(3)
    seen = {d.sample(rng.uniform(1e-12, 1.0)) for _ in range(200)}
    assert seen == {1.0, 2.0, 4.0}
    assert d.sample(1.0) == 4.0  # top of the unit interval maps to the last value


def test_config_mapping_builds_each_kind():
    # a distribution's config keys are its field names, built like any
    # other dataclass's
    for mapping, want in (
        ({"kind": "constant", "value": 2.5}, Distribution.constant(2.5)),
        ({"kind": "uniform", "low": 1, "high": 9}, Distribution.uniform(1, 9)),
        ({"kind": "geometric", "p": 0.4, "cap": 7}, Distribution.geometric(0.4, 7)),
        ({"kind": "empirical", "values": [1, 2]}, Distribution.empirical([1, 2])),
    ):
        tree = run_config_tree(workflow={"preset": "nl2sql", "params": {"output_tokens": mapping}})
        assert build_sim_config(tree).workflow.stage(GENERATOR).output_tokens == want


@pytest.mark.parametrize(
    "build",
    [
        lambda: Distribution("nope"),
        lambda: Distribution("uniform", low=1.0),
        lambda: Distribution("uniform", low=1.0, high=2.0, p=0.5),
        lambda: Distribution("constant"),
    ],
    ids=["unknown_kind", "missing_parameter", "parameter_of_another_kind", "no_parameter"],
)
def test_constructor_takes_exactly_the_kinds_parameters(build):
    with pytest.raises(DistributionError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Distribution.uniform(2, 1),
        lambda: Distribution.geometric(0.0, 5),
        lambda: Distribution.geometric(0.5, 0),
        lambda: Distribution.empirical([]),
        lambda: Distribution("weird"),
        lambda: Distribution.constant(math.nan),
        lambda: Distribution.uniform(0, math.inf),
        lambda: Distribution.uniform(-math.inf, 0),
        lambda: Distribution.empirical([1.0, math.inf]),
        lambda: Distribution.geometric(2.0**-54, 50),  # 1 - p rounds to 1
        lambda: Distribution.geometric(1e-17, 50),
    ],
)
def test_invalid_parameters(build):
    with pytest.raises(DistributionError):
        build()


def test_single_draw_discipline():
    # every kind consumes exactly the one uniform it is given
    for d in (
        Distribution.constant(1.0),
        Distribution.uniform(0, 10),
        Distribution.geometric(0.5, 4),
        Distribution.empirical([5.0, 6.0]),
    ):
        assert d.sample(0.37) == d.sample(0.37)
        assert d.sample_int(0.37) == d.sample_int(0.37)


def test_geometric_log_inversion_math():
    # P(k <= K) for the inversion: u >= (1-p)^K
    p = 0.25
    d = Distribution.geometric(p, cap=50)
    for k in (1, 2, 5):
        u_edge = (1 - p) ** k
        assert d.sample_int(u_edge + 1e-12) == k
        assert d.sample_int(u_edge - 1e-12) == k + 1
    assert math.isclose(d.mean(), (1 - (1 - p) ** 50) / p)


@pytest.mark.parametrize(
    "d, largest",
    [
        (Distribution.constant(7.6), 8),
        (Distribution.uniform(50, 150.9), 150),
        (Distribution.geometric(0.3, cap=6), 6),
        (Distribution.geometric(1.0, cap=6), 1),
        (Distribution.empirical([3.0, 9.4, 2.0]), 9),
    ],
)
def test_max_int_is_the_largest_sample_int(d, largest):
    assert d.max_int() == largest
    us = [1e-12, 1e-6, 0.001, 0.5, 0.999, 1.0] + [i / 997 for i in range(1, 998)]
    assert max(d.sample_int(u) for u in us) == largest


@pytest.mark.parametrize(
    "d, smallest, infimum",
    [
        (Distribution.constant(-0.4), 0, -0.4),
        (Distribution.constant(-0.6), -1, -0.6),
        (Distribution.uniform(-0.5, 10), 0, -0.5),
        (Distribution.uniform(-300, -100), -300, -300.0),
        (Distribution.geometric(0.3, cap=6), 1, 1.0),
        (Distribution.empirical([3.0, -0.4, 2.0]), 0, -0.4),
    ],
)
def test_min_int_is_the_smallest_sample_int(d, smallest, infimum):
    assert d.min_int() == smallest
    assert d.min_value() == infimum
    us = [1e-12, 1e-6, 0.001, 0.5, 0.999, 1.0] + [i / 997 for i in range(1, 998)]
    assert min(d.sample_int(u) for u in us) == smallest
    assert min(d.sample(u) for u in us) >= infimum
