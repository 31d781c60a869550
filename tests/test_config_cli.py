import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import run_config_tree
from stagesim.cli import main, parse_seeds
from stagesim.config import build_compare_cells, build_sim_config, load_config_file
from stagesim.errors import ConfigError
from stagesim.simulation import SCALAR_METRICS
from stagesim.workflow import LLM
from stagesim.workloads import EXECUTOR, FIXER, GENERATOR

ESTIMATES = {GENERATOR: 1.0, EXECUTOR: 0.5, FIXER: 1.0}
TWO_ENGINES = {GENERATOR: 1, FIXER: 1}
ISOLATED_LLM_POOLS = [f"pool:{GENERATOR}", f"pool:{FIXER}"]


def llm_pool_ids(config) -> list[str]:
    return [p.pool_id for p in config.pools if p.kind == LLM]


def write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


def compare_tree(rate=1.0, duration=20.0):
    return {
        "base": {
            "workflow": {"preset": "nl2sql"},
            "topology": {"mode": "isolated", "llm_engines": TWO_ENGINES},
            "policy": {"kind": "slack"},
            "arrivals": {"rate": rate},
            "duration": duration,
            "warmup": 2.0,
        },
        "cells": [
            {"name": "isolated", "overrides": {}},
            {"name": "shared", "overrides": {"topology": {"mode": "shared"}}},
        ],
    }


def bad_mass_tree():
    return {
        "workflow": {
            "inline": {
                "name": "broken",
                "entry_stage": "a",
                "retry_budget": 0,
                "slo_seconds": 10.0,
                "stages": [
                    {
                        "stage_id": "a",
                        "kind": "llm",
                        "prompt_tokens": {"kind": "constant", "value": 10},
                        "output_tokens": {"kind": "constant", "value": 10},
                        "outcomes": [{"label": "done", "prob": 0.9, "next": "Success"}],
                    }
                ],
            }
        },
        "topology": {"mode": "isolated", "llm_engines": {"a": 1}},
        "arrivals": {"rate": 1.0},
        "duration": 5.0,
    }


# ----------------------------------------------------------------------
# config parsing


def test_build_sim_config_roundtrip():
    config = build_sim_config(run_config_tree())
    assert config.seed == 7
    assert config.duration == 20.0
    assert llm_pool_ids(config) == ISOLATED_LLM_POOLS


def test_unknown_keys_rejected():
    for tree in (
        run_config_tree(bogus=1),
        run_config_tree(topology={"mode": "isolated", "llm_engines": TWO_ENGINES, "gpus": 8}),
        run_config_tree(policy={"kind": "slack", "priority": "high"}),
        # estimates are derived or measured online, never configured
        run_config_tree(policy={"service_estimates": ESTIMATES}),
    ):
        with pytest.raises(ConfigError):
            build_sim_config(tree)


def test_seed_override():
    assert build_sim_config(run_config_tree(), seed_override=99).seed == 99


def test_inline_workflow_parses():
    config = build_sim_config(bad_mass_tree() | {"workflow": {
        "inline": {
            "name": "ok",
            "entry_stage": "a",
            "retry_budget": 0,
            "slo_seconds": 10.0,
            "stages": [
                {
                    "stage_id": "a",
                    "kind": "llm",
                    "prefix_tokens": 100,
                    "prompt_tokens": {"kind": "constant", "value": 10},
                    "output_tokens": {"kind": "constant", "value": 10},
                    "outcomes": [{"label": "done", "prob": 1.0, "next": "Success"}],
                }
            ],
        }
    }})
    assert config.workflow.stage_ids == ("a",)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config files\n", 1)[1]
    example = re.search(r"```json\n(.*?)\n```", section, re.DOTALL).group(1)
    config = build_sim_config(json.loads(example))
    assert llm_pool_ids(config) == ISOLATED_LLM_POOLS
    assert config.seed == 42


def test_readme_library_example_runs(tmp_path):
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)\n```", section, re.DOTALL).group(1)
    proc = subprocess.run(
        [sys.executable, "-c", example],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^completed=\d+ ", proc.stdout, re.MULTILINE), proc.stdout


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        build_sim_config(run_config_tree(workflow={"preset": "nl2sql2"}))


def test_compare_cells_merge():
    cells = build_compare_cells(compare_tree())
    assert [name for name, _ in cells] == ["isolated", "shared"]
    shared_cfg = build_sim_config(cells[1][1])
    assert llm_pool_ids(shared_cfg) == ["pool:llm"]


def test_shared_pool_sums_the_stage_engine_counts():
    engines = {GENERATOR: 2, FIXER: 3}
    config = build_sim_config(run_config_tree(topology={"mode": "shared", "llm_engines": engines}))
    (llm_pool,) = (p for p in config.pools if p.kind == LLM)
    assert llm_pool.n_engines == sum(engines.values())


def test_compare_needs_two_cells():
    tree = compare_tree()
    tree["cells"] = tree["cells"][:1]
    with pytest.raises(ConfigError):
        build_compare_cells(tree)


def test_compare_duplicate_names_rejected():
    tree = compare_tree()
    tree["cells"][1]["name"] = "isolated"
    with pytest.raises(ConfigError):
        build_compare_cells(tree)


def test_load_config_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "absent.json")


def test_parse_seeds_forms():
    assert parse_seeds("1..4") == [1, 2, 3, 4]
    assert parse_seeds("7") == [7]
    assert parse_seeds("3,5,9") == [3, 5, 9]
    with pytest.raises(ConfigError):
        parse_seeds("9..3")
    for text, bad in [("1..x", "x"), ("y..3", "y"), ("1,a", "a"), ("2.5", "2.5")]:
        with pytest.raises(ConfigError, match=f"'{bad}'"):
            parse_seeds(text)


def test_repeated_seeds_exit_2(tmp_path, capsys):
    # comparison.csv would hold a row per copy, comparison.json one report
    # per cell and seed
    for text, repeated in [("1,1", "[1]"), ("3,5,3", "[3]")]:
        with pytest.raises(ConfigError, match=re.escape(f"seeds {repeated} listed more than once")):
            parse_seeds(text)
    path = write_config(tmp_path, compare_tree())
    out = tmp_path / "x"
    assert main(["compare", path, "--seeds", "1,1", "--out", str(out)]) == 2
    assert "listed more than once" in capsys.readouterr().err
    assert not out.exists()


def test_compare_malformed_seeds_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, compare_tree())
    assert main(["compare", path, "--seeds", "1..x", "--out", str(tmp_path / "x")]) == 2
    assert "'x'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CLI: validate


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, run_config_tree())
    assert main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("name, inert", [("nl2sql_shared", True), ("nl2sql_isolated", False)])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_notice_when_borrowing_can_never_act(tmp_path, capsys, name, inert, command):
    # borrowing lends between two single-stage LLM pools; the shared pool
    # serves both LLM stages, so it has none.  A notice, not an error, and
    # the run writes what it writes with borrowing off
    def stderr(tree, label):
        argv = [command, write_config(tmp_path, tree, f"{label}.json")]
        if command == "run":
            argv += ["--out", str(tmp_path / label)]
        assert main(argv) == 0
        return capsys.readouterr().err

    tree = json.loads((Path(__file__).resolve().parents[1] / "configs" / f"{name}.json").read_text())
    tree["duration"] = 20.0
    assert "notice" not in stderr(tree, "off")
    tree["policy"]["borrow"] = {"enabled": True}
    err = stderr(tree, "on")
    assert ("notice: 'policy.borrow.enabled' has no effect" in err) == inert, err
    if command == "run" and inert:
        for file in ("summary.json", "kv_usage.csv", "dispatch.csv", "requests.csv"):
            assert (tmp_path / "on" / file).read_bytes() == (tmp_path / "off" / file).read_bytes(), file


def test_validate_names_probability_mass_error(tmp_path, capsys):
    path = write_config(tmp_path, bad_mass_tree())
    assert main(["validate", path]) == 2
    assert "ProbabilityMassError" in capsys.readouterr().err


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "is not UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "nests JSON too deeply"),
    ],
    ids=["not_utf8", "nested_100000_deep"],
)
def test_unreadable_config_file_exits_2(tmp_path, capsys, content, message):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert main(["validate", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and f"config file {config} {message}" in err, err


def inline_tree(edit):
    tree = bad_mass_tree()
    edit(tree["workflow"]["inline"])
    return tree


def with_nl2sql_params(**params) -> dict:
    return {"workflow": {"preset": "nl2sql", "params": params}}


def nl2sql_param(name: str, value, key: str = "") -> tuple[dict, str]:
    """A run config whose nl2sql param `name` is `value`, and the path of
    `key` under it, which its error must name."""
    return run_config_tree(**with_nl2sql_params(**{name: value})), f"workflow.params.{name}{key}"


def no_success_trees() -> list[dict]:
    """Run configs under which no request can succeed: an inline workflow
    with Success only behind a zero-probability outcome, one with Success
    only past a loop edge and no retry budget (the loop edge is a -> b, so
    every request fails at a), and nl2sql whose executor always fails."""
    llm = bad_mass_tree()
    llm["workflow"]["inline"]["stages"][0]["outcomes"] = [
        {"label": "ok", "prob": 0.0, "next": "Success"},
        {"label": "bad", "prob": 1.0, "next": "Failure"},
    ]
    tool = {"kind": "tool", "service_time": {"kind": "constant", "value": 0.5}}
    loop = bad_mass_tree() | {"topology": {"mode": "isolated", "llm_engines": {}}}
    loop["workflow"]["inline"]["stages"] = [
        tool | {"stage_id": "a", "outcomes": [{"label": "go", "prob": 1.0, "next": "b"}]},
        tool | {
            "stage_id": "b",
            "outcomes": [{"label": "again", "prob": 0.5, "next": "a"}, {"label": "ok", "prob": 0.5, "next": "Success"}],
        },
    ]
    return [llm, loop, run_config_tree(**with_nl2sql_params(p_fail=1.0))]


@pytest.mark.parametrize(
    "tree", no_success_trees(), ids=["zero_prob_success", "loop_without_budget", "nl2sql_always_fails"]
)
def test_validate_rejects_a_workflow_that_never_succeeds(tmp_path, capsys, tree):
    assert main(["validate", write_config(tmp_path, tree)]) == 2
    assert "UnreachableTerminal" in capsys.readouterr().err


def test_validate_accepts_a_large_retry_budget(tmp_path):
    # the remaining-work walk is iterative, so a budget deeper than the
    # interpreter's recursion limit validates
    assert main(["validate", write_config(tmp_path, run_config_tree(**with_nl2sql_params(retry_budget=2000)))]) == 0


@pytest.mark.parametrize(
    "tree, path",
    [
        (run_config_tree(arrivals={"rate": "fast"}), "arrivals.rate"),
        (run_config_tree(seed="x"), "config.seed"),
        (run_config_tree(duration="60"), "config.duration"),
        (run_config_tree(duration=10.0, warmup=10.0), "config.duration"),
        (
            run_config_tree(topology={"mode": "isolated", "llm_engines": {"sql_generator": "two"}}),
            "topology.llm_engines.sql_generator",
        ),
        (run_config_tree(policy={"online_estimates": "false"}), "policy.online_estimates"),
        (run_config_tree(policy={"admission": {"enabled": 1}}), "policy.admission.enabled"),
        # estimates are derived or measured, never configured: the key is
        # unknown, whatever it holds
        (run_config_tree(policy={"service_estimates": {"sql_fixer": "1"}}), "policy.service_estimates"),
        (run_config_tree(policy={"service_estimates": {GENERATOR: 1.0}}), "policy.service_estimates"),
        (run_config_tree(policy={"service_estimates": ESTIMATES | {"typo": 3.0}}), "policy.service_estimates"),
        (run_config_tree(policy={"service_estimates": ESTIMATES | {FIXER: -1.0}}), "policy.service_estimates"),
        (run_config_tree(topology={"mode": "isolated", "llm_engines": TWO_ENGINES, "tool_concurrency": 0}), "topology"),
        (
            run_config_tree(topology={"mode": "isolated", "llm_engines": TWO_ENGINES | {"sql_fixr": 5}}),
            "topology",
        ),
        (
            run_config_tree(topology={"mode": "isolated", "llm_engines": TWO_ENGINES | {EXECUTOR: 3}}),
            "topology",
        ),
        (
            run_config_tree(topology={"mode": "isolated", "llm_engines": TWO_ENGINES, "llm_engines_total": 7}),
            "topology.llm_engines_total",
        ),
        (
            run_config_tree(topology={"mode": "shared", "llm_engines": TWO_ENGINES, "llm_engines_total": 2}),
            "topology.llm_engines_total",
        ),
        (run_config_tree(warmup=-1.0), "config.warmup"),
        (run_config_tree(arrivals={"rate": 0.0}), "arrivals.rate"),
        (run_config_tree(policy={"kind": "edf"}), "policy.kind"),
        (run_config_tree(policy={"ewma_alpha": 0.2}), "policy.ewma_alpha"),  # the weight is fixed
        (inline_tree(lambda wf: wf.update(stages=5)), "workflow.inline.stages"),
        (inline_tree(lambda wf: wf["stages"][0].pop("stage_id")), "workflow.inline.stages[0]"),
        (
            inline_tree(lambda wf: wf["stages"][0]["outcomes"][0].update(prob="p")),
            "workflow.inline.stages[0].outcomes[0].prob",
        ),
        nl2sql_param("output_tokens", {"kind": "constant", "value": "200"}, ".value"),
        nl2sql_param("prompt_tokens", {"kind": "uniform", "low": True, "high": 300}, ".low"),
        nl2sql_param("executor_service_time", {"kind": "empirical", "values": "123"}, ".values"),
        nl2sql_param("executor_service_time", {"kind": "empirical", "values": {"0.2": 1}}, ".values"),
        nl2sql_param("output_tokens", {"kind": "geometric", "p": 0.5, "cap": 99.9}, ".cap"),
        nl2sql_param("output_tokens", {"kind": "geometric", "p": 0.5, "cap": "99"}, ".cap"),
        nl2sql_param("output_tokens", {"kind": "geometric", "p": 1e-17, "cap": 50}),
        nl2sql_param("prompt_tokens", {"kind": "uniform", "low": 100, "high": 300, "p": 0.5}),
        nl2sql_param("prompt_tokens", {"kind": "uniform", "low": 100}),
        nl2sql_param("prompt_tokens", {"low": 100, "high": 300}),
        nl2sql_param("prompt_tokens", "uniform"),
        # the slack key has no selectivity term: the key is unknown
        (run_config_tree(policy={"use_selectivity": True}), "policy.use_selectivity"),
    ],
    ids=[
        "rate",
        "seed",
        "duration",
        "duration_equals_warmup",
        "llm_engines",
        "bool_as_string",
        "bool_as_int",
        "service_estimate",
        "service_estimates_missing_stage",
        "service_estimates_unknown_stage",
        "service_estimate_negative",
        "tool_concurrency",
        "llm_engines_typo",
        "llm_engines_tool_stage",
        "llm_engines_total_isolated",
        "llm_engines_total_shared",
        "warmup_negative",
        "rate_zero",
        "policy_kind",
        "ewma_alpha",
        "stages",
        "stage_id",
        "outcome_prob",
        "dist_value_string",
        "dist_low_bool",
        "dist_values_string",
        "dist_values_mapping",
        "dist_cap_fraction",
        "dist_cap_string",
        "dist_geometric_p_too_small",
        "dist_parameter_of_another_kind",
        "dist_missing_parameter",
        "dist_without_kind",
        "dist_not_mapping",
        "use_selectivity_removed",
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_malformed_values_exit_2(tmp_path, capsys, tree, path, command):
    argv = [command, write_config(tmp_path, tree)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: "), err
    assert f"'{path}'" in err, err
    assert not (tmp_path / "o").exists()


BIG = "1" + "0" * 400  # an integer literal past the float range


def config_text(raw: str, **tree) -> str:
    """A run config's JSON text with the number literal `raw` wherever
    `tree` holds "RAW"."""
    return json.dumps(run_config_tree(**tree)).replace('"RAW"', raw)


def with_engine_params(**params) -> dict:
    return {"topology": {"mode": "isolated", "llm_engines": TWO_ENGINES, "engine_params": params}}


# Raw config text, and the path its error must name: the NaN, Infinity and
# -Infinity literals Python's json reader accepts, and number literals that
# overflow a float (1e999 reads as inf) or that are past its range
NON_FINITE = {
    "rate_nan": (config_text("NaN", arrivals={"rate": "RAW"}), "arrivals.rate"),
    "rate_inf": (config_text("Infinity", arrivals={"rate": "RAW"}), "arrivals.rate"),
    "duration_nan": (config_text("NaN", duration="RAW"), "config.duration"),
    "duration_inf": (config_text("Infinity", duration="RAW"), "config.duration"),
    "warmup_nan": (config_text("NaN", warmup="RAW"), "config.warmup"),
    "warmup_minus_inf": (config_text("-Infinity", warmup="RAW"), "config.warmup"),
    "prefill_rate_nan": (
        config_text("NaN", **with_engine_params(prefill_rate="RAW")),
        "topology.engine_params.prefill_rate",
    ),
    "duration_big_int": (config_text(BIG, duration="RAW"), "config.duration"),
    "base_token_time_1e999": (
        config_text("1e999", **with_engine_params(base_token_time="RAW")),
        "topology.engine_params.base_token_time",
    ),
    "kv_capacity_big_int": (
        config_text(BIG, **with_engine_params(kv_capacity_tokens="RAW")),
        "topology.engine_params.kv_capacity_tokens",
    ),
    "slo_inf": (config_text("Infinity", **with_nl2sql_params(slo_seconds="RAW")), "workflow.params.slo_seconds"),
    "token_high_1e999": (
        config_text("1e999", **with_nl2sql_params(prompt_tokens={"kind": "uniform", "low": 1, "high": "RAW"})),
        "workflow.params.prompt_tokens.high",
    ),
    "token_high_big_int": (
        config_text(BIG, **with_nl2sql_params(prompt_tokens={"kind": "uniform", "low": 1, "high": "RAW"})),
        "workflow.params.prompt_tokens.high",
    ),
    "geometric_cap_1e999": (
        config_text("1e999", **with_nl2sql_params(output_tokens={"kind": "geometric", "p": 0.5, "cap": "RAW"})),
        "workflow.params.output_tokens.cap",
    ),
    "tool_time_cap_big_int": (
        config_text(BIG, **with_nl2sql_params(executor_service_time={"kind": "geometric", "p": 0.5, "cap": "RAW"})),
        "workflow.params.executor_service_time.cap",
    ),
    "tool_time_nan": (
        config_text("NaN", **with_nl2sql_params(executor_service_time={"kind": "empirical", "values": [0.5, "RAW"]})),
        "workflow.params.executor_service_time.values[1]",
    ),
}


# validated only, never run: an infinite duration or rate would not end
@pytest.mark.parametrize("text, path", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_numbers_rejected(tmp_path, capsys, text, path):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["validate", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and f"'{path}'" in err, err
    with pytest.raises(ConfigError):
        build_sim_config(json.loads(text))


NEGATIVE_DISTRIBUTIONS = {
    "prompt_tokens": {"prompt_tokens": {"kind": "uniform", "low": -300, "high": -100}},
    "executor_service_time": {"executor_service_time": {"kind": "uniform", "low": -1.0, "high": -0.5}},
}


@pytest.mark.parametrize("params", NEGATIVE_DISTRIBUTIONS.values(), ids=NEGATIVE_DISTRIBUTIONS.keys())
@pytest.mark.parametrize("command", ["validate", "run"])
def test_negative_distribution_exits_2(tmp_path, capsys, params, command):
    # such a draw used to schedule an event before the clock (exit 3)
    tree = run_config_tree(workflow={"preset": "nl2sql", "params": params})
    argv = [command, write_config(tmp_path, tree)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidStage: "), err
    assert "can sample below 0" in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "tokens",
    [{"kind": "uniform", "low": -0.5, "high": 10}, {"kind": "constant", "value": -0.4}],
    ids=["uniform_truncates_to_0", "constant_rounds_to_0"],
)
def test_token_distribution_with_non_negative_integer_draws_accepted(tmp_path, tokens):
    # token counts are drawn with sample_int, so only its lowest value counts
    tree = run_config_tree(workflow={"preset": "nl2sql", "params": {"prompt_tokens": tokens}})
    assert main(["validate", write_config(tmp_path, tree)]) == 0


def test_validate_compare_config(tmp_path, capsys):
    path = write_config(tmp_path, compare_tree())
    assert main(["validate", path]) == 0
    assert "2 cells" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI: run


def test_run_twice_is_byte_identical(tmp_path):
    path = write_config(tmp_path, run_config_tree(duration=15.0))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--seed", "1", "--out", str(out_a)]) == 0
    assert main(["run", path, "--seed", "1", "--out", str(out_b)]) == 0
    for name in ("summary.json", "kv_usage.csv", "dispatch.csv", "requests.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_zero_duration(tmp_path, capsys):
    # nothing arrives after the warmup, so the report could only be zeros
    path = write_config(tmp_path, run_config_tree(duration=0.0, warmup=0.0))
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("ConfigError: 'config.duration' must be > 'config.warmup'")
    assert not (tmp_path / "o").exists()


def test_kv_budget_too_small_for_any_call_exits_2(tmp_path, capsys):
    # a generator call needs up to 1000 + 300 + 150 = 1450 tokens
    tree = run_config_tree(
        topology={"mode": "isolated", "llm_engines": TWO_ENGINES, "engine_params": {"kv_capacity_tokens": 1200}}
    )
    path = write_config(tmp_path, tree)
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert "1450 KV tokens" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_engine_override_for_non_llm_stage_rejected(tmp_path, capsys):
    for stage in ("nope", "sql_executor"):
        topology = {"mode": "isolated", "llm_engines": TWO_ENGINES, "engine_overrides": {stage: {"max_batch": 2}}}
        path = write_config(tmp_path, run_config_tree(topology=topology))
        assert main(["validate", path]) == 2
        assert f"ConfigError: 'topology': engine override for '{stage}'" in capsys.readouterr().err


def test_tool_stage_with_the_shared_pools_id_rejected(tmp_path, capsys):
    # the shared LLM pool is "pool:llm", the id a tool stage "llm" would get
    tokens = {"kind": "constant", "value": 10}
    stages = [
        {
            "stage_id": "a",
            "kind": "llm",
            "prompt_tokens": tokens,
            "output_tokens": tokens,
            "outcomes": [{"label": "sql", "prob": 1.0, "next": "llm"}],
        },
        {
            "stage_id": "llm",
            "kind": "tool",
            "service_time": {"kind": "constant", "value": 0.1},
            "outcomes": [{"label": "done", "prob": 1.0, "next": "Success"}],
        },
    ]
    tree = inline_tree(lambda wf: wf.update(stages=stages))
    tree["topology"]["mode"] = "shared"
    with pytest.raises(ConfigError, match="stage 'llm'"):
        build_sim_config(tree)
    assert main(["validate", write_config(tmp_path, tree)]) == 2
    assert "ConfigError: 'topology': stage 'llm'" in capsys.readouterr().err
    # isolated mode names each LLM pool after its own stage
    tree["topology"]["mode"] = "isolated"
    assert [pool.pool_id for pool in build_sim_config(tree).pools] == ["pool:a", "pool:llm"]


def test_run_invalid_config_exits_before_simulating(tmp_path):
    path = write_config(tmp_path, run_config_tree(arrivals={"rate": -2.0}))
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_run_rejects_compare_config(tmp_path):
    path = write_config(tmp_path, compare_tree())
    assert main(["run", path]) == 2


def test_run_invariant_violation_exits_3(tmp_path, monkeypatch, capsys):
    from stagesim.errors import InternalInvariantViolation
    from stagesim.simulation import Simulator

    def boom(self):
        raise InternalInvariantViolation("engine 0: kv accounting diverged")

    monkeypatch.setattr(Simulator, "run", boom)
    path = write_config(tmp_path, run_config_tree())
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
    assert "InternalInvariantViolation" in capsys.readouterr().err


def test_run_admission_past_capacity_exits_3(tmp_path, monkeypatch, capsys):
    # routing to a full engine is a programming error, not a config error
    import stagesim.simulation as simulation

    def first_engine(call, prefix_tokens, engines, now):
        return engines[0]

    monkeypatch.setattr(simulation, "route_call", first_engine)
    tree = run_config_tree(topology={"mode": "isolated", "llm_engines": TWO_ENGINES, "engine_params": {"max_batch": 1}})
    assert main(["run", write_config(tmp_path, tree), "--out", str(tmp_path / "o")]) == 3
    assert "cannot admit request" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CLI: compare


def test_compare_writes_cells_by_seeds(tmp_path):
    path = write_config(tmp_path, compare_tree(duration=12.0))
    out = tmp_path / "cmp"
    assert main(["compare", path, "--seeds", "1..3", "--out", str(out)]) == 0
    rows = (out / "comparison.csv").read_text().strip().splitlines()
    assert rows[0] == "cell,seed,metric,value"
    assert len(rows) - 1 == 2 * 3 * len(SCALAR_METRICS)
    summary = json.loads((out / "comparison.json").read_text())
    assert summary["cells"] == ["isolated", "shared"]


def test_compare_single_seed_min_equals_max(tmp_path):
    path = write_config(tmp_path, compare_tree(duration=12.0))
    out = tmp_path / "cmp1"
    assert main(["compare", path, "--seeds", "5", "--out", str(out)]) == 0
    summary = json.loads((out / "comparison.json").read_text())
    for cell in summary["cells"]:
        for metric, agg in summary["aggregate"][cell].items():
            assert agg["min"] == agg["max"] == agg["mean"], metric


def unequal_engine_totals_tree():
    tree = compare_tree()
    tree["cells"][1]["overrides"] = {
        "topology": {"mode": "shared", "llm_engines": {GENERATOR: 2, FIXER: 1}}
    }
    return tree


def test_compare_unequal_engine_totals_rejected(tmp_path):
    path = write_config(tmp_path, unequal_engine_totals_tree())
    assert main(["compare", path, "--seeds", "1..2", "--out", str(tmp_path / "x")]) == 2


def test_validate_rejects_what_compare_rejects(tmp_path, capsys):
    path = write_config(tmp_path, unequal_engine_totals_tree())
    assert main(["validate", path]) == 2
    assert "unequal engine totals" in capsys.readouterr().err


def test_compare_rejects_run_config(tmp_path):
    path = write_config(tmp_path, run_config_tree())
    assert main(["compare", path, "--seeds", "1..2"]) == 2
