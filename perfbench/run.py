"""stagesim benchmark: host cost and simulated service of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--duration D]

Run from the repository root.  NAME is a file in perfbench/workloads/.
The workload's run config is written and checked with `stagesim validate`
first; then fresh single-threaded processes (perfbench/worker.py) drive
`stagesim.cli.main` on src/ again and again for S seconds: a run that
would end past them is not started.
Every run is gated: exit code 0, a clean `replay_dispatch_audit` of every
dispatch.csv, and requests conserved in every summary.  Every run must
also reproduce the first run's output digest and deterministic counts.

With --trace 0 all runs are untraced and the last line reports the
end-to-end metrics of BENCHMARK.json, as medians over runs (events_per_s
from each simulation's median host time, see `events_per_s`), with host
times in seconds at a reference host speed (see REFERENCE_S).  With
--trace 1 untraced and traced runs alternate; traced runs record spans
around each layer (perfbench/tracer.py) and the last line reports the
per-layer metrics, as medians over traced runs.  --duration overrides the
simulated duration of every simulation (for the smoke test).

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is a detail record (machine, digests, every metric
with its unit and direction).  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 170

# Host times are reported in seconds at a reference host speed: each run's
# times are scaled by REFERENCE_S over the median time, in that run, of the
# reference loop the worker times after every simulation (worker.py).  The
# host's speed for interpreted code drifts by up to 40%, over seconds to
# minutes, on a shared VM; the loop slows with it, so the scaled times keep
# what the program costs.  Per-layer times are not scaled.  REFERENCE_S is
# about the loop's time on a 2-core Xeon VM, so scaled seconds read close
# to seconds there.
REFERENCE_S = 0.006

# Counts that tracing must not change, compared between every run.
DETERMINISTIC = (
    "simulation.events",
    "scheduling.select_next.calls",
    "scheduling.keys_per_select",
    "sim_goodput_rps",
    "sim_slo_attainment",
    "sim_latency_p50_s",
    "sim_latency_p99_s",
)


# Reported next to the end-to-end metrics but not declared in BENCHMARK.json:
# it is 0 on every correct run, and the result line already carries it as
# `failed` over `attempted`.
FAILED_RUN_RATIO = {"unit": "ratio", "better": "lower"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or an invalid config)."""


def nearest_rank(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, as stagesim reports it; 0.0 without samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = -(-q * len(ordered) // 100)
    return ordered[max(int(rank), 1) - 1]


def deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def tree_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over every output file (relative path and bytes), and the
    total bytes written."""
    sha = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        sha.update(str(path.relative_to(out_dir)).encode() + b"\0")
        sha.update(hashlib.sha256(data).digest())
    return sha.hexdigest(), total


def conserved(summary: dict) -> bool:
    return summary["arrivals_admitted"] == (
        summary["completed"] + summary["failed_budget"] + summary["in_flight_at_end"]
    )


class Workload:
    """A workload file resolved into the CLI invocations of one run."""

    def __init__(self, name: str, seed: int, duration: float | None, work: Path) -> None:
        spec_path = HERE / "workloads" / f"{name}.json"
        if not spec_path.is_file():
            raise BenchError(f"unknown workload '{name}'")
        spec = json.loads(spec_path.read_text())
        self.name = name
        self.seeds = list(range(seed, seed + spec["seeds"]))
        if "config" in spec:  # a compare config, run as shipped
            self.subcommand = "compare"
            source = ROOT / spec["config"]
            tree = self._read(source)
            self.sims_per_run = len(tree["cells"]) * len(self.seeds)
            if duration is None:
                self.config = source
                return
            tree["base"]["duration"] = duration
        else:  # a run config derived from a compare config's base
            self.subcommand = "run"
            tree = deep_merge(self._read(ROOT / spec["base"])["base"], spec["overrides"])
            tree.pop("out_dir", None)
            if duration is not None:
                tree["duration"] = duration
            self.sims_per_run = len(self.seeds)
        self.config = work / f"{name}.json"
        self.config.write_text(json.dumps(tree, indent=2) + "\n")

    @staticmethod
    def _read(path: Path) -> dict:
        if not path.is_file():
            raise BenchError(f"missing {path.relative_to(ROOT)}")
        return json.loads(path.read_text())

    def argv(self, out: Path) -> list[list[str]]:
        if self.subcommand == "compare":
            seeds = f"{self.seeds[0]}..{self.seeds[-1]}"
            return [["compare", str(self.config), "--seeds", seeds, "--out", str(out)]]
        return [
            ["run", str(self.config), "--seed", str(s), "--out", str(out / f"seed{s}")]
            for s in self.seeds
        ]


def spawn_worker(argv: list[list[str]], record: Path, log: Path, spans: Path | None = None):
    """Run one worker process; returns (wall seconds, spawn time, exit code)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--record", str(record), "--argv", json.dumps(argv)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with log.open("w") as handle:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=handle, stderr=subprocess.STDOUT, timeout=RUN_TIMEOUT_S
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = -1
        wall = time.monotonic() - spawned
    return wall, spawned, code


def check_outputs(workload: Workload, out: Path) -> list[str]:
    """Output correctness gate for one run; returns one line per failing
    simulation."""
    from stagesim.reporting import replay_dispatch_audit

    problems = []
    if workload.subcommand == "compare":
        reports = json.loads((out / "comparison.json").read_text())["reports"]
        if len(reports) != workload.sims_per_run:
            problems.append(f"comparison.json holds {len(reports)} reports")
        for key, summary in sorted(reports.items()):
            if not conserved(summary):
                problems.append(f"{key}: requests not conserved")
        return problems
    for seed in workload.seeds:
        seed_dir = out / f"seed{seed}"
        summary = json.loads((seed_dir / "summary.json").read_text())
        violations = replay_dispatch_audit(seed_dir / "dispatch.csv")
        if violations:
            problems.append(f"seed {seed}: {len(violations)} dispatch audit violations: {violations[0]}")
        elif not conserved(summary):
            problems.append(f"seed {seed}: requests not conserved")
    return problems


def sim_metrics(sims: list[dict]) -> dict[str, float]:
    latencies = [x for s in sims for x in s["latencies"]]
    good = sum(s["good"] for s in sims)
    return {
        "sim_goodput_rps": good / sum(s["window"] for s in sims),
        "sim_slo_attainment": good / max(1, sum(s["arrivals"] for s in sims)),
        "sim_latency_p50_s": nearest_rank(latencies, 50),
        "sim_latency_p99_s": nearest_rank(latencies, 99),
    }


def layer_metrics(record: dict, spans: Path, bytes_written: int) -> dict[str, float]:
    from tracer import self_times

    self_s, total_s, calls = self_times(spans)
    counts = record["counts"]
    sims = record["sims"]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    events = sum(s["events"] for s in sims)
    selects = calls.get("scheduling.select_next", 0)
    fallbacks = calls.get("scheduling.route_fallback", 0)
    return {
        "scheduling.select_next.self_s": self_s.get("scheduling.select_next", 0.0),
        "scheduling.select_next.calls": selects,
        "scheduling.keys_per_select": ratio(counts.get("select_keys", 0), selects),
        "scheduling.dispatch_yield": ratio(sum(s["dispatches"] for s in sims), selects),
        "scheduling.route.self_s": self_s.get("scheduling.route", 0.0),
        "scheduling.route.calls": calls.get("scheduling.route", 0),
        "scheduling.route_fallback.self_s": self_s.get("scheduling.route_fallback", 0.0),
        "scheduling.route_fallbacks": fallbacks,
        "scheduling.route_fallback_fail_ratio": ratio(counts.get("fallback_failures", 0), fallbacks),
        "scheduling.borrows": sum(s["borrows"] for s in sims),
        "scheduling.returns": sum(s["returns"] for s in sims),
        "scheduling.lent_admissions": sum(s["lent_admissions"] for s in sims),
        "scheduling.scale_events": sum(s["scale_events"] for s in sims),
        "scheduling.queue_delay_mean_s": mean([q for s in sims for q in s["queue_delay_mean"]]),
        "engines.advance_decode.self_s": self_s.get("engines.advance_decode", 0.0),
        "engines.advance_decode.calls": calls.get("engines.advance_decode", 0),
        "engines.invariant_recompute.self_s": self_s.get("engines.invariant_recompute", 0.0),
        "engines.prefix_hit_ratio": ratio(counts.get("prefix_hits", 0), counts.get("admits", 0)),
        "engines.evictions": counts.get("evictions", 0),
        "engines.decode_batch_mean": ratio(
            counts.get("decode_batch_time", 0.0), counts.get("decode_busy_time", 0.0)
        ),
        "engines.kv_used_mean_tokens": mean([k for s in sims for k in s["kv_used_mean"]]),
        "engines.peak_live": counts.get("engines_peak_live", 0),
        "workflow.expected_remaining_work.self_s": self_s.get("workflow.expected_remaining_work", 0.0),
        "workflow.expected_remaining_work.calls": calls.get("workflow.expected_remaining_work", 0),
        "workflow.next_step.calls": calls.get("workflow.next_step", 0),
        "simulation.events": events,
        "simulation.stale_events": counts.get("stale_events", 0),
        "simulation.stale_ratio": ratio(counts.get("stale_events", 0), events),
        "simulation.loop.self_s": self_s.get("simulation.run", 0.0),
        "simulation.advance_clock.self_s": self_s.get("simulation.advance_clock", 0.0),
        "simulation.check_invariants.self_s": self_s.get("simulation.check_invariants", 0.0),
        "simulation.kv_samples.self_s": self_s.get("simulation.kv_samples", 0.0),
        "simulation.handlers.self_s": self_s.get("simulation.handlers", 0.0),
        "simulation.dispatch.self_s": self_s.get("simulation.dispatch", 0.0),
        "simulation.kv_sample_rows": sum(s["kv_sample_rows"] for s in sims),
        "simulation.init_s": total_s.get("simulation.init", 0.0),
        "config.build_sim_config.s": total_s.get("config.build_sim_config", 0.0),
        "simulation.heap_peak": counts.get("heap_peak", 0),
        "simulation.requests_retained": max(s["requests_retained"] for s in sims),
        "rng.streams_retained": max(s["streams_retained"] for s in sims),
        "rng.draws": calls.get("rng.uniform", 0),
        "rng.uniform.self_s": self_s.get("rng.uniform", 0.0),
        "reporting.write_run_outputs.s": total_s.get("reporting.write_run_outputs", 0.0),
        "reporting.bytes_written": bytes_written,
        "reporting.write_comparison_outputs.s": total_s.get("reporting.write_comparison_outputs", 0.0),
    }


def run_once(workload: Workload, index: int, traced: bool, work: Path) -> dict:
    """One worker process, gated and summarised."""
    rep = work / f"run{index}"
    out = rep / "out"
    out.mkdir(parents=True)
    record_path = rep / "record.json"
    spans = rep / "spans.bin" if traced else None
    wall, spawned, code = spawn_worker(workload.argv(out), record_path, rep / "log.txt", spans)
    result = {"traced": traced, "process_s": wall, "exit_code": code, "problems": []}
    record = json.loads(record_path.read_text()) if record_path.is_file() else None
    if code != 0 or record is None or len(record["sims"]) != workload.sims_per_run:
        tail = (rep / "log.txt").read_text()[-2000:]
        result["problems"].append(f"run {index} exited {code}: {tail}")
        result["failed"] = workload.sims_per_run
        return result
    problems = check_outputs(workload, out)
    result["problems"] += problems
    result["failed"] = len(problems)
    digest, bytes_written = tree_digest(out)
    sims = record["sims"]
    events = sum(s["events"] for s in sims)
    reference = statistics.median(s["reference_s"] for s in sims)
    scale = REFERENCE_S / reference
    result.update(
        digest=digest,
        reference_s=reference,
        wall_s=(wall - sum(s["reference_s"] for s in sims)) * scale,
        setup_s=(record["first_run"] - spawned) * scale,
        sim_host_s=[s["host_s"] * scale for s in sims],
        peak_rss_mb=record["peak_rss_mb"],
        **sim_metrics(sims),
    )
    result["simulation.events"] = events
    result["scheduling.select_next.calls"] = record["select_calls"]
    result["scheduling.keys_per_select"] = record["select_keys"] / max(1, record["select_calls"])
    if traced:
        result["layers"] = layer_metrics(record, spans, bytes_written)
        result["missing"] = record["missing"]
    shutil.rmtree(out)
    if spans is not None:
        spans.unlink()
    return result


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def events_per_s(runs: list[dict]) -> float:
    """Events of one run over the sum, across its simulations, of each
    simulation's median host seconds over the runs.  Every run simulates the
    same seeds, so a slow moment of the host shifts one sample of a few
    simulations instead of the whole run's ratio."""
    per_sim = zip(*(r["sim_host_s"] for r in runs))
    return runs[0]["simulation.events"] / sum(statistics.median(t) for t in per_sim)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", type=float, default=None)
    args = parser.parse_args()

    load_1m = os.getloadavg()[0]
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "stagesim" / "cli.py").is_file() or not bench_file.is_file():
        raise BenchError("run from a stagesim checkout: src/stagesim and BENCHMARK.json are needed")
    bench = json.loads(bench_file.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = Workload(args.workload, args.seed, args.duration, work)

    # Validation imports and byte-compiles the package, so it also warms
    # the caches every timed run would otherwise pay for on first use.
    _, _, code = spawn_worker(
        [["validate", str(workload.config)]], work / "validate.json", work / "validate.txt"
    )
    if code != 0:
        raise BenchError(f"stagesim validate failed:\n{(work / 'validate.txt').read_text()}")

    # A run that the last two runs say would end past the deadline is not
    # started, so an invocation takes about --seconds whatever a run takes.
    runs: list[dict] = []
    deadline = time.monotonic() + args.seconds
    min_runs = 2 if args.trace else 1
    while len(runs) < min_runs or time.monotonic() + max(r["process_s"] for r in runs[-2:]) < deadline:
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_once(workload, len(runs), traced, work))

    problems = [p for r in runs for p in r["problems"]]
    passed = [r for r in runs if not r["problems"]]
    if passed:
        reference = passed[0]
        for r in passed[1:]:
            if r["digest"] != reference["digest"]:
                r["failed"] = workload.sims_per_run
                problems.append(f"output digest {r['digest']} != {reference['digest']} (traced={r['traced']})")
            for key in DETERMINISTIC:
                if r[key] != reference[key]:
                    r["failed"] = workload.sims_per_run
                    problems.append(f"{key} {r[key]} != {reference[key]} (traced={r['traced']})")
    attempted = workload.sims_per_run * len(runs)
    failed = sum(r["failed"] for r in runs)
    correct = not problems

    untraced = [r for r in runs if not r["traced"] and not r["problems"]]
    traced_runs = [r for r in runs if r["traced"] and not r["problems"]]
    end_to_end = {}
    if untraced:
        end_to_end = {m: median_of(untraced, m) for m in ("wall_s", "setup_s", "peak_rss_mb")}
        end_to_end["events_per_s"] = events_per_s(untraced)
        end_to_end.update({m: untraced[0][m] for m in DETERMINISTIC if m.startswith("sim_")})
    end_to_end["failed_run_ratio"] = failed / attempted
    per_layer = {}
    if traced_runs:
        names = traced_runs[0]["layers"]
        per_layer = {m: statistics.median(r["layers"][m] for r in traced_runs) for m in names}
        if untraced:
            per_layer["tracing.overhead_s"] = median_of(traced_runs, "wall_s") - end_to_end["wall_s"]

    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    table = {}
    for name, value in {**end_to_end, **per_layer}.items():
        meta = FAILED_RUN_RATIO if name == "failed_run_ratio" else declared[name]
        table[name] = {"value": value, "unit": meta["unit"], "better": meta["better"]}
        print(f"{name:44s} {value:>16.6f} {meta['unit']:16s} {meta['better']}")
    for p in problems:
        print(f"check failed: {p}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    if correct:
        missing = [m["name"] for m in wanted if m["name"] not in table]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        metrics = {m["name"]: {"value": table[m["name"]]["value"], "unit": m["unit"]} for m in wanted}
    detail = {
        "workload": args.workload,
        "seeds": workload.seeds,
        "runs": len(runs),
        "traced_runs": sum(r["traced"] for r in runs),
        "run_walls_s": [round(r["process_s"], 4) for r in runs],
        "run_reference_s": [r.get("reference_s") for r in runs],
        "digest": runs[0].get("digest"),
        "deterministic": {m: runs[0].get(m) for m in DETERMINISTIC},
        "tracing_not_installed": next((r["missing"] for r in traced_runs), []),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": git_commit(),
            "loadavg_1m_at_start": load_1m,
        },
        "metrics": table,
    }
    (work / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit: subprocess.run then kills and waits for
    # the running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
