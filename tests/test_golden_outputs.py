"""Byte-stability pins: short runs whose output digests must never change.

A refactor that claims identical behaviour must keep these digests; a
deliberate behaviour change updates them and says so.  Each run also pins
its popped-event count, `_seq - len(_heap)` after the run: the benchmark's
`events` denominator, which counts superseded completions although the loop
skips them; and its `kv_usage.csv` row count, a row per engine an event
touched, so that a trace grown back to a row per engine per event fails
here.
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
from helpers import QUOTED_LLM, QUOTED_WORKFLOW, assert_same_run, run_config_tree
from stagesim.cli import main
from stagesim.config import build_sim_config, load_config_file
from stagesim.simulation import Simulator

OUTPUT_FILES = ("summary.json", "kv_usage.csv", "dispatch.csv", "requests.csv")
COMPARE_FILES = ("comparison.csv", "comparison.json")
COMPARE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "nl2sql_compare.json"
COMPARE_ARGS = ["compare", str(COMPARE_CONFIG), "--seeds", "1..2"]

# name -> (config overlay, sha256 over OUTPUT_FILES, popped events, kv_usage.csv rows)
GOLDEN_RUNS = {
    "fcfs": (
        {"policy": {"kind": "fcfs"}},
        "74053093356ea06987c7a446f89b7d88e948ac3edc95eaff16197ef26e713a68",
        535,
        270,
    ),
    "las": (
        {"policy": {"kind": "las"}},
        "258135c3d40f194733f5b28810c2eb48efb064d276f914caa3e2d401c1edcc62",
        533,
        269,
    ),
    "slack": (
        {"policy": {"kind": "slack"}},
        "96f527cf51e5ecdacd2741b888e9b48c52f6cfd1572d4cd95e0d2d7bc938a2d3",
        535,
        270,
    ),
    "shared_borrow_autoscale": (
        {
            "topology": {"mode": "shared", "llm_engines": {"sql_generator": 2, "sql_fixer": 1}},
            "policy": {
                "kind": "slack",
                "online_estimates": True,
                "borrow": {"enabled": True},
                "autoscale": {"enabled": True, "max_engines": 4},
            },
        },
        "08046e1015209c6a37c62f4f5823406f4ea8559290f63f8fa79c24ca0ef9bb44",
        608,
        311,
    ),
    # the generator queue grows to about 110 calls: dispatch from long queues
    "overload": (
        {"arrivals": {"rate": 4.0}, "duration": 60.0},
        "8bd05008e02a18053cf3f7e542e3b3352360f7b955650583f6dec2ada89f52c8",
        1240,
        581,
    ),
    # autoscaling adds and retires engines, borrowing lends them, and online
    # estimates rebuild the remaining-work table on every completion
    "elastic": (
        {
            "topology": {"mode": "isolated", "llm_engines": {"sql_generator": 1, "sql_fixer": 3}},
            "policy": {
                "kind": "slack",
                "online_estimates": True,
                "borrow": {"enabled": True},
                "autoscale": {"enabled": True, "max_engines": 8},
            },
            "arrivals": {"rate": 4.0},
            "duration": 60.0,
        },
        "a7571e7a4117d16a5188bc5c055367b9cdee2d8fe7545675e6c75cd5e82db8b4",
        2080,
        1170,
    ),
    # queue-cap rejections both before the warmup and after it (12 and 49),
    # so the report's warmup-gated admitted and rejected counts are pinned
    "admission": (
        {
            "policy": {"kind": "slack", "admission": {"enabled": True, "max_queue_len": 5}},
            "arrivals": {"rate": 4.0},
            "warmup": 10.0,
        },
        "32b09d26f9568b3d99874fe0dba63541c2d43b86c7abdc3a08a37e41d6442221",
        585,
        264,
    ),
    # stage ids with a comma, a quote and a space: the `pool:…` and stage
    # cells of kv_usage.csv and dispatch.csv must be quoted
    "quoted_ids": (
        {
            "workflow": {"inline": QUOTED_WORKFLOW},
            "topology": {"mode": "isolated", "llm_engines": {QUOTED_LLM: 2}, "tool_concurrency": 2},
        },
        "ccd0c40f27df7d03b56cb30959f6631108f397c737c9fbd78d3a1fc085d24cde",
        413,
        287,
    ),
}


def golden_config(tmp_path, name):
    """Write golden case `name`'s run config; returns its path."""
    overlay = GOLDEN_RUNS[name][0]
    config = tmp_path / "config.json"
    tree = run_config_tree(**{"arrivals": {"rate": 2.5}, "duration": 30.0, "warmup": 3.0, **overlay})
    config.write_text(json.dumps(tree))
    return config


def output_digest(out_dir, files=OUTPUT_FILES) -> str:
    digest = hashlib.sha256()
    for name in files:
        digest.update(name.encode())
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_bytes_are_pinned(tmp_path, monkeypatch, name):
    # the shipped simulator's bytes, and the same run as NaiveSimulator's,
    # which runs every fast path the slow way
    _, expected, expected_popped, expected_kv_rows = GOLDEN_RUNS[name]
    config = golden_config(tmp_path, name)
    popped = []

    class CountingSimulator(Simulator):
        def run(self):
            result = super().run()
            popped.append(self._seq - len(self._heap))
            return result

    monkeypatch.setattr(stagesim.cli, "Simulator", CountingSimulator)
    out = tmp_path / "out"
    assert main(["run", str(config), "--seed", "5", "--out", str(out)]) == 0
    assert popped == [expected_popped]
    assert len((out / "kv_usage.csv").read_text().splitlines()) - 1 == expected_kv_rows
    assert output_digest(out) == expected
    assert_same_run(build_sim_config(load_config_file(config), seed_override=5))


def cli_in_fresh_interpreter(argv: list[str | bytes], **env: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter with `env` added to its environment;
    it must exit 0.  Its output is read as UTF-8, whatever this process's
    locale."""
    src = str(Path(stagesim.__file__).resolve().parent.parent)
    env = {**os.environ, **env, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "stagesim.cli", *argv], env=env, capture_output=True, encoding="utf-8"
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# PYTHONHASHSEED: str hashing, and with it set and dict-of-set iteration
# order, varies with it; the pinned bytes must not
@pytest.mark.parametrize("hash_seed", ["1", "12345"])
def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    config = golden_config(tmp_path, "elastic")
    out = tmp_path / "out"
    cli_in_fresh_interpreter(["run", str(config), "--seed", "5", "--out", str(out)], PYTHONHASHSEED=hash_seed)
    assert output_digest(out) == GOLDEN_RUNS["elastic"][1]


def test_output_bytes_do_not_depend_on_the_locale(tmp_path):
    # a stage id that is not ASCII, written by an interpreter whose default
    # encoding is ASCII, must give the bytes of this process's run: UTF-8
    stage = "génér"
    workflow = {
        "name": "accented",
        "entry_stage": stage,
        "retry_budget": 0,
        "slo_seconds": 10.0,
        "stages": [
            {
                "stage_id": stage,
                "kind": "llm",
                "prompt_tokens": {"kind": "constant", "value": 100},
                "output_tokens": {"kind": "constant", "value": 20},
                "outcomes": [{"label": "ok", "prob": 1.0, "next": "Success"}],
            }
        ],
    }
    topology = {"mode": "isolated", "llm_engines": {stage: 1}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run_config_tree(workflow={"inline": workflow}, topology=topology)))
    here, ascii_locale = tmp_path / "here", tmp_path / "ascii"
    assert main(["run", str(config), "--out", str(here)]) == 0
    assert stage.encode() in (here / "dispatch.csv").read_bytes()
    cli_in_fresh_interpreter(
        ["run", str(config), "--out", str(ascii_locale)], LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"
    )
    assert output_digest(ascii_locale) == output_digest(here)


# The headline command on its shipped config, two seeds: sha256 over
# COMPARE_FILES, and sha256 of stdout with its `wrote …` line masked.
COMPARE_DIGEST = "909838cdc3c8f7e8aeac12922e0ca47c181c716f6b6881d7501831da367a9f60"
COMPARE_STDOUT_DIGEST = "c2be11f9512944330aef835dce0d4cdf4fcaa1e64831a1a7b5096bf1af08962e"


def compare_stdout_digest(stdout: str) -> str:
    lines = ["wrote <out>" if line.startswith("wrote ") else line for line in stdout.splitlines()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_compare_bytes_are_pinned(tmp_path, capsys):
    assert main([*COMPARE_ARGS, "--out", str(tmp_path)]) == 0
    assert output_digest(tmp_path, COMPARE_FILES) == COMPARE_DIGEST
    assert compare_stdout_digest(capsys.readouterr().out) == COMPARE_STDOUT_DIGEST


def test_stdout_does_not_depend_on_the_locale(tmp_path):
    # a cell name and an output directory that are not ASCII, printed by an
    # interpreter whose default encoding is ASCII: the bytes of a UTF-8 run
    tree = json.loads(COMPARE_CONFIG.read_text(encoding="utf-8"))
    tree["cells"][0]["name"] = "isolé"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(tree), encoding="utf-8")
    # the directory as UTF-8 bytes, which this process's locale may not encode
    argv = ["compare", str(config), "--seeds", "1", "--out", os.fsencode(tmp_path) + "/sortie_é".encode()]
    utf8 = cli_in_fresh_interpreter(argv, PYTHONUTF8="1")
    assert "isolé" in utf8.stdout and "sortie_é" in utf8.stdout
    ascii_locale = cli_in_fresh_interpreter(argv, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert ascii_locale.stdout == utf8.stdout


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
def test_compare_bytes_do_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    proc = cli_in_fresh_interpreter([*COMPARE_ARGS, "--out", str(tmp_path)], PYTHONHASHSEED=hash_seed)
    assert output_digest(tmp_path, COMPARE_FILES) == COMPARE_DIGEST
    assert compare_stdout_digest(proc.stdout) == COMPARE_STDOUT_DIGEST
