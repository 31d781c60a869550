"""Byte-stability pins: short runs whose output digests must never change.

A refactor that claims identical behaviour must keep these digests; a
deliberate behaviour change updates them and says so.
"""

import hashlib
import json

import pytest

from helpers import run_config_tree
from stagesim.cli import main

OUTPUT_FILES = ("summary.json", "kv_usage.csv", "dispatch.csv", "requests.csv")

QUOTED_LLM = 'write, "v1" sql'
QUOTED_TOOL = 'run "it", now'
QUOTED_WORKFLOW = {
    "name": "quoted",
    "entry_stage": QUOTED_LLM,
    "retry_budget": 1,
    "slo_seconds": 6.0,
    "stages": [
        {
            "stage_id": QUOTED_LLM,
            "kind": "llm",
            "prefix_tokens": 400,
            "prompt_tokens": {"kind": "uniform", "low": 50, "high": 300},
            "output_tokens": {"kind": "uniform", "low": 20, "high": 120},
            "outcomes": [{"label": "ok", "prob": 1.0, "next": QUOTED_TOOL}],
        },
        {
            "stage_id": QUOTED_TOOL,
            "kind": "tool",
            "service_time": {"kind": "uniform", "low": 0.2, "high": 1.5},
            "outcomes": [
                {"label": "ok", "prob": 0.7, "next": "Success"},
                {"label": "retry", "prob": 0.3, "next": QUOTED_LLM},
            ],
        },
    ],
}

# name -> (config overlay, sha256 over OUTPUT_FILES)
GOLDEN_RUNS = {
    "fcfs": (
        {"policy": {"kind": "fcfs"}},
        "2ee40d2bbcca0eacd80ee374d6f1b8aa069aa44ee3cd8cae27f8bb34ad256c22",
    ),
    "las": (
        {"policy": {"kind": "las"}},
        "592cd8d5af10d6ce5e5afad20c06f23abf572dde3aec4fbbd92537fe8209bfe7",
    ),
    "slack": (
        {"policy": {"kind": "slack"}},
        "2c3bbdc9e40d1ca19b0435b430f8d18fc088a6b0c751364fbe7ef3dd340df55f",
    ),
    "shared_borrow_autoscale": (
        {
            "topology": {"preset": "nl2sql-shared", "llm_engines_total": 3},
            "policy": {
                "kind": "slack",
                "use_selectivity": True,
                "online_estimates": True,
                "borrow": {"enabled": True},
                "autoscale": {"enabled": True, "max_engines": 4},
            },
        },
        "23cc5dd815a92ce28be0895241454860340049750906215d3c6a965268c9792c",
    ),
    # the generator queue grows to about 110 calls: dispatch from long queues
    "overload": (
        {"arrivals": {"rate": 4.0}, "duration": 60.0},
        "2ce04f6646145763cafa83540a4652c3e5863e44849efe8be8c128d85aee7836",
    ),
    # autoscaling adds and retires engines, borrowing lends them, and online
    # estimates rebuild the remaining-work table on every completion
    "elastic": (
        {
            "topology": {"preset": "nl2sql-isolated", "llm_engines": {"sql_generator": 1, "sql_fixer": 3}},
            "policy": {
                "kind": "slack",
                "online_estimates": True,
                "borrow": {"enabled": True},
                "autoscale": {"enabled": True, "max_engines": 8},
            },
            "arrivals": {"rate": 4.0},
            "duration": 60.0,
        },
        "50514ea49b1915fc78086e0450c8766583faa53e023aae9e1fda2115bb886da2",
    ),
    # stage ids with a comma, a quote and a space: the `pool:…` and stage
    # cells of kv_usage.csv and dispatch.csv must be quoted
    "quoted_ids": (
        {
            "workflow": {"inline": QUOTED_WORKFLOW},
            "topology": {"mode": "isolated", "llm_engines": {QUOTED_LLM: 2}, "tool_concurrency": 2},
        },
        "f4e3982e07cd5f155142cfa4342089182b1ddd3cddd106c0711d4c1ba1bb6377",
    ),
}


def output_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update(name.encode())
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_bytes_are_pinned(tmp_path, name):
    overlay, expected = GOLDEN_RUNS[name]
    config = tmp_path / "config.json"
    tree = run_config_tree(**{"arrivals": {"rate": 2.5}, "duration": 30.0, "warmup": 3.0, **overlay})
    config.write_text(json.dumps(tree))
    out = tmp_path / "out"
    assert main(["run", str(config), "--seed", "5", "--out", str(out)]) == 0
    assert output_digest(out) == expected
