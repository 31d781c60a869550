"""Byte-stability pins: short runs whose output digests must never change.

A refactor that claims identical behaviour must keep these digests; a
deliberate behaviour change updates them and says so.  Each run also pins
its popped-event count, `_seq - len(_heap)` after the run: the benchmark's
`events` denominator, which counts superseded completions although the loop
skips them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stagesim
import stagesim.cli
from helpers import run_config_tree
from stagesim.cli import main
from stagesim.simulation import Simulator

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

# name -> (config overlay, sha256 over OUTPUT_FILES, popped events)
GOLDEN_RUNS = {
    "fcfs": (
        {"policy": {"kind": "fcfs"}},
        "e23637630d491f3b15f2429709e0769f4dd958557d20168114b36d17990cbb7a",
        535,
    ),
    "las": (
        {"policy": {"kind": "las"}},
        "0f1204f6561b54c4993c8c57aa841472a02585ceaf2535c24ecb1d08dfe3e5e8",
        533,
    ),
    "slack": (
        {"policy": {"kind": "slack"}},
        "13a9c1616386d62d8ef8962c1da3dff8e3256b980973cb80a9cb633bc763c63a",
        535,
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
        "5d24f293b7f50d0b512a9085cf30e6248b461824bdb1623f629a8310950d1c96",
        608,
    ),
    # the generator queue grows to about 110 calls: dispatch from long queues
    "overload": (
        {"arrivals": {"rate": 4.0}, "duration": 60.0},
        "fd911fa5533d725e503e7be53179949e1bab824b20ca773d93a3cc646659a7d4",
        1240,
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
        "47b3c1b51366c5b3ce316ec0d20a65e5fea004194d1d33546947072373fb9845",
        2080,
    ),
    # queue-cap rejections both before the warmup and after it (12 and 49),
    # so the report's warmup-gated admitted and rejected counts are pinned
    "admission": (
        {
            "policy": {"kind": "slack", "admission": {"enabled": True, "max_queue_len": 5}},
            "arrivals": {"rate": 4.0},
            "warmup": 10.0,
        },
        "1b1b2c61357397bcd67e01bc4d442ef4a9068c1b1757728b6b19d15334ef5546",
        585,
    ),
    # stage ids with a comma, a quote and a space: the `pool:…` and stage
    # cells of kv_usage.csv and dispatch.csv must be quoted
    "quoted_ids": (
        {
            "workflow": {"inline": QUOTED_WORKFLOW},
            "topology": {"mode": "isolated", "llm_engines": {QUOTED_LLM: 2}, "tool_concurrency": 2},
        },
        "ba27cd64a2dfca79d74fd5c6603490d4502833663afe07733b1c400c40bae350",
        413,
    ),
}


def golden_config(tmp_path, name):
    """Write golden case `name`'s run config; returns its path."""
    overlay = GOLDEN_RUNS[name][0]
    config = tmp_path / "config.json"
    tree = run_config_tree(**{"arrivals": {"rate": 2.5}, "duration": 30.0, "warmup": 3.0, **overlay})
    config.write_text(json.dumps(tree))
    return config


def output_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update(name.encode())
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_bytes_are_pinned(tmp_path, monkeypatch, name):
    _, expected, expected_popped = GOLDEN_RUNS[name]
    popped = []

    class CountingSimulator(Simulator):
        def run(self):
            result = super().run()
            popped.append(self._seq - len(self._heap))
            return result

    monkeypatch.setattr(stagesim.cli, "Simulator", CountingSimulator)
    out = tmp_path / "out"
    assert main(["run", str(golden_config(tmp_path, name)), "--seed", "5", "--out", str(out)]) == 0
    assert output_digest(out) == expected
    assert popped == [expected_popped]


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    # str hashing, and with it set and dict-of-set iteration order, varies
    # with PYTHONHASHSEED; the pinned bytes must not
    config = golden_config(tmp_path, "elastic")
    out = tmp_path / "out"
    src = str(Path(stagesim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "stagesim.cli", "run", str(config), "--seed", "5", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert output_digest(out) == GOLDEN_RUNS["elastic"][1]
