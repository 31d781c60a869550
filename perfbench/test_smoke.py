"""Smoke test for the benchmark: every workload, both modes, tiny duration.

    python3 -m pytest perfbench/test_smoke.py -q

No timing thresholds: it checks that each run passes its output gates,
that every metric is emitted with a unit and a direction, and that traced
and untraced invocations agree on the output digest and the deterministic
counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compare", "overload", "elastic")

END_TO_END = (
    "wall_s",
    "setup_s",
    "events_per_s",
    "peak_rss_mb",
    "failed_run_ratio",
    "sim_goodput_rps",
    "sim_slo_attainment",
    "sim_latency_p50_s",
    "sim_latency_p99_s",
)
PER_LAYER = (
    "scheduling.select_next.self_s",
    "scheduling.select_next.calls",
    "scheduling.keys_per_select",
    "scheduling.dispatch_yield",
    "scheduling.route.self_s",
    "scheduling.route.calls",
    "scheduling.route_fallbacks",
    "scheduling.route_fallback_fail_ratio",
    "scheduling.borrows",
    "scheduling.returns",
    "scheduling.lent_admissions",
    "scheduling.scale_events",
    "scheduling.queue_delay_mean_s",
    "engines.advance_decode.self_s",
    "engines.advance_decode.calls",
    "engines.invariant_recompute.self_s",
    "engines.prefix_hit_ratio",
    "engines.evictions",
    "engines.decode_batch_mean",
    "engines.kv_used_mean_tokens",
    "engines.peak_live",
    "workflow.expected_remaining_work.self_s",
    "workflow.expected_remaining_work.calls",
    "workflow.next_step.calls",
    "simulation.events",
    "simulation.stale_events",
    "simulation.stale_ratio",
    "simulation.advance_clock.self_s",
    "simulation.check_invariants.self_s",
    "simulation.kv_samples.self_s",
    "simulation.handlers.self_s",
    "simulation.dispatch.self_s",
    "simulation.kv_sample_rows",
    "simulation.init_s",
    "config.build_sim_config.s",
    "simulation.heap_peak",
    "simulation.requests_retained",
    "rng.streams_retained",
    "rng.draws",
    "rng.uniform.self_s",
    "reporting.write_run_outputs.s",
    "reporting.bytes_written",
    "reporting.write_comparison_outputs.s",
    "tracing.overhead_s",
)
DETERMINISTIC = (
    "simulation.events",
    "scheduling.keys_per_select",
    "sim_goodput_rps",
    "sim_slo_attainment",
    "sim_latency_p50_s",
    "sim_latency_p99_s",
)


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0", "--trace", str(trace), "--duration", "30"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    assert detail_line.startswith("detail: ")
    return json.loads(detail_line[len("detail: "):]), json.loads(result_line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {trace: parse(bench(ROOT, workload, trace)) for trace in (0, 1)}
    for trace, (detail, result) in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        wanted = declared["per_layer"] if trace else declared["end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
            assert metric["unit"], name
        assert detail["tracing_not_installed"] == []
    untraced, traced = runs[0][0], runs[1][0]
    for name in END_TO_END + PER_LAYER:
        entry = traced["metrics"][name]
        assert entry["unit"], name
        assert entry["better"] in ("higher", "lower"), name
    for name in END_TO_END:
        assert untraced["metrics"][name]["better"] in ("higher", "lower"), name
    assert traced["traced_runs"] >= 1
    # Two separate invocations, one of them traced, produce the same outputs.
    assert untraced["digest"] == traced["digest"]
    assert untraced["deterministic"] == traced["deterministic"]
    assert set(untraced["deterministic"]) >= set(DETERMINISTIC)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "compare", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
