import json
import re
from pathlib import Path

import pytest

from helpers import run_config_tree
from stagesim.cli import main, parse_seeds
from stagesim.config import build_compare_cells, build_sim_config, load_config_file
from stagesim.errors import ConfigError
from stagesim.simulation import SCALAR_METRICS
from stagesim.workloads import EXECUTOR, FIXER, GENERATOR

ESTIMATES = {GENERATOR: 1.0, EXECUTOR: 0.5, FIXER: 1.0}


def write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


def compare_tree(rate=1.0, duration=20.0):
    return {
        "base": {
            "workflow": {"preset": "nl2sql"},
            "topology": {"preset": "nl2sql-isolated"},
            "policy": {"kind": "slack"},
            "arrivals": {"rate": rate},
            "duration": duration,
            "warmup": 2.0,
        },
        "cells": [
            {"name": "isolated", "overrides": {}},
            {"name": "shared", "overrides": {"topology": {"preset": "nl2sql-shared"}}},
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
    assert config.topology.mode == "isolated"


def test_unknown_keys_rejected():
    for tree in (
        run_config_tree(bogus=1),
        run_config_tree(topology={"preset": "nl2sql-isolated", "gpus": 8}),
        run_config_tree(policy={"kind": "slack", "priority": "high"}),
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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Config files\n", 1)[1]
    example = re.search(r"```json\n(.*?)\n```", section, re.DOTALL).group(1)
    config = build_sim_config(json.loads(example))
    assert config.topology.mode == "isolated"
    assert config.seed == 42


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        build_sim_config(run_config_tree(workflow={"preset": "nl2sql2"}))
    with pytest.raises(ConfigError):
        build_sim_config(run_config_tree(topology={"preset": "nl2sql-hybrid"}))


def test_compare_cells_merge():
    cells = build_compare_cells(compare_tree())
    assert [name for name, _ in cells] == ["isolated", "shared"]
    shared_cfg = build_sim_config(cells[1][1])
    assert shared_cfg.topology.mode == "shared"


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


def test_validate_names_probability_mass_error(tmp_path, capsys):
    path = write_config(tmp_path, bad_mass_tree())
    assert main(["validate", path]) == 2
    assert "ProbabilityMassError" in capsys.readouterr().err


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def inline_tree(edit):
    tree = bad_mass_tree()
    edit(tree["workflow"]["inline"])
    return tree


@pytest.mark.parametrize(
    "tree, path",
    [
        (run_config_tree(arrivals={"rate": "fast"}), "arrivals.rate"),
        (run_config_tree(seed="x"), "config.seed"),
        (run_config_tree(duration="60"), "config.duration"),
        (run_config_tree(duration=10.0, warmup=10.0), "config.duration"),
        (
            run_config_tree(topology={"preset": "nl2sql-isolated", "llm_engines": {"sql_generator": "two"}}),
            "topology.llm_engines.sql_generator",
        ),
        (run_config_tree(policy={"use_selectivity": "false"}), "policy.use_selectivity"),
        (run_config_tree(policy={"admission": {"enabled": 1}}), "policy.admission.enabled"),
        (run_config_tree(policy={"service_estimates": {"sql_fixer": "1"}}), "policy.service_estimates.sql_fixer"),
        (run_config_tree(policy={"service_estimates": {GENERATOR: 1.0}}), "policy.service_estimates"),
        (run_config_tree(policy={"service_estimates": ESTIMATES | {"typo": 3.0}}), "policy.service_estimates"),
        (
            run_config_tree(policy={"service_estimates": ESTIMATES | {FIXER: -1.0}}),
            f"policy.service_estimates.{FIXER}",
        ),
        (run_config_tree(topology={"preset": "nl2sql-isolated", "tool_concurrency": 0}), "topology"),
        (inline_tree(lambda wf: wf.update(stages=5)), "workflow.inline.stages"),
        (inline_tree(lambda wf: wf["stages"][0].pop("stage_id")), "workflow.inline.stages[0]"),
        (
            inline_tree(lambda wf: wf["stages"][0]["outcomes"][0].update(prob="p")),
            "workflow.inline.stages[0].outcomes[0].prob",
        ),
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
        "stages",
        "stage_id",
        "outcome_prob",
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
        topology={"preset": "nl2sql-isolated", "engine_params": {"kv_capacity_tokens": 1200}}
    )
    path = write_config(tmp_path, tree)
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert "1450 KV tokens" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_engine_override_for_non_llm_stage_rejected(tmp_path, capsys):
    for stage in ("nope", "sql_executor"):
        topology = {"preset": "nl2sql-isolated", "engine_overrides": {stage: {"max_batch": 2}}}
        path = write_config(tmp_path, run_config_tree(topology=topology))
        assert main(["validate", path]) == 2
        assert f"ConfigError: 'topology': engine override for '{stage}'" in capsys.readouterr().err


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
        "topology": {"preset": "nl2sql-shared", "llm_engines_total": 3}
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
