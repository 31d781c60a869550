"""summary.json agrees with requests.csv.

The report's request outcomes are recomputed here from the rows of
requests.csv that arrived at or after the warmup.  Conservation compares
three counts kept apart: admitted arrivals (counted at arrival), finished
requests (the rows) and requests still in flight (counted at the end).
"""

import csv
import json
import math

import pytest

from helpers import run_config_tree
from stagesim.cli import main
from stagesim.workflow import SUCCESS
from test_golden_outputs import GOLDEN_RUNS


def nearest_rank(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


@pytest.mark.parametrize("name", ["fcfs", "admission", "elastic"])
def test_summary_agrees_with_requests_csv(tmp_path, name):
    overlay = GOLDEN_RUNS[name][0]
    config = tmp_path / "config.json"
    tree = run_config_tree(**{"arrivals": {"rate": 2.5}, "duration": 30.0, "warmup": 3.0, **overlay})
    config.write_text(json.dumps(tree))
    out = tmp_path / "out"
    assert main(["run", str(config), "--seed", "5", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    warmup = summary["warmup"]
    with (out / "requests.csv").open(newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if float(row["arrival"]) >= warmup]

    latencies = [float(row["latency"]) for row in rows if row["outcome"] == SUCCESS]
    assert latencies, "no request completed after the warmup"
    assert summary["completed"] == len(latencies)
    assert summary["failed_budget"] == len(rows) - len(latencies)
    for q in (50, 95, 99):
        assert summary[f"latency_p{q}"] == pytest.approx(nearest_rank(latencies, q), abs=1e-9)
    violations = sum(int(row["violated_slo"]) for row in rows)
    assert summary["slo_violation_rate"] == pytest.approx(violations / len(rows), abs=1e-9)
    window = summary["duration"] - warmup
    assert summary["throughput"] == pytest.approx(len(latencies) / window, abs=1e-9)
    assert summary["arrivals_admitted"] == (
        summary["completed"] + summary["failed_budget"] + summary["in_flight_at_end"]
    )
    if name == "admission":
        assert summary["rejected"] > 0
