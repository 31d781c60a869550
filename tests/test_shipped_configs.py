"""The shipped configs: each validates, and the headline comparison still
shows the paper's conclusion, stage-isolated pools beating shared engines."""

import json
from pathlib import Path

import pytest

from stagesim.cli import main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def test_configs_are_shipped():
    assert {p.name for p in CONFIGS} >= {"nl2sql_compare.json", "nl2sql_isolated.json", "nl2sql_shared.json"}


@pytest.mark.parametrize("config", CONFIGS, ids=[p.name for p in CONFIGS])
def test_shipped_config_validates(config, capsys):
    assert main(["validate", str(config)]) == 0
    assert capsys.readouterr().out.startswith("ok")


def test_isolated_beats_shared_on_the_headline_comparison(tmp_path):
    # `stagesim compare configs/nl2sql_compare.json --seeds 1..10`; a change
    # that breaks this changes the conclusion, and must say so
    config = next(p for p in CONFIGS if p.name == "nl2sql_compare.json")
    assert main(["compare", str(config), "--seeds", "1..10", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "comparison.json").read_text())
    assert summary["cells"] == ["isolated", "shared"]
    wins = summary["wins"]
    mean = {cell: {m: agg[m]["mean"] for m in wins} for cell, agg in summary["aggregate"].items()}
    assert wins["throughput"]["isolated"] >= 9, wins
    assert wins["latency_p99"]["isolated"] >= 9, wins
    assert mean["isolated"]["throughput"] > mean["shared"]["throughput"], mean
    assert mean["isolated"]["latency_p99"] < mean["shared"]["latency_p99"], mean
