"""One benchmark process: drive `stagesim.cli.main` and record what it cost.

    python3 perfbench/worker.py --record FILE --argv JSON [--spans FILE]

`--argv` is a JSON list of CLI argument lists, run in order in this one
process.  Without `--spans` the run is untraced: only `Simulator.run` and
`select_next` are wrapped, each by a constant-cost counter.  With it,
every layer entry point records spans (see tracer.py), written to that
file at exit.  The record is a JSON file with the host-side measurements
(`time.monotonic()` of the first `Simulator.run` call) and one summary
per simulation, with its host seconds inside `Simulator.run` and the time
of a reference loop run right after it; the exit code is the first
non-zero CLI exit code, or 0.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Iterations of the reference loop timed after every simulation (about
# 6 ms on a 2-core Xeon VM).  run.py scales host times by its speed.
REFERENCE_ITERATIONS = 100_000


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes now: how fast the host runs
    interpreted code at this moment."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i
    return time.perf_counter() - start


def summarize(sim, result, success: str) -> dict:
    """Per-simulation facts the benchmark reports, read after the run."""
    report = result.report
    warmup = report.warmup
    good = 0
    latencies = []
    for r in result.traces.requests:
        if r.arrival < warmup or r.outcome != success:
            continue
        latencies.append(r.latency)
        if not r.violated_slo:
            good += 1
    audit = result.audit
    return {
        "events": sim._seq - len(sim._heap),
        "window": report.duration - warmup,
        "arrivals": report.arrivals_admitted + report.rejected,
        "good": good,
        "latencies": latencies,
        "dispatches": len(result.traces.dispatches),
        "kv_sample_rows": len(result.traces.kv_samples),
        "queue_delay_mean": list(report.queue_delay_mean.values()),
        "kv_used_mean": list(report.kv_used_mean.values()),
        "borrows": len(audit.borrows),
        "returns": len(audit.returns),
        "scale_events": len(audit.scale_events),
        "lent_admissions": audit.lent_admissions,
        "requests_retained": len(getattr(sim, "requests", ())),
        "streams_retained": len(getattr(sim, "_streams", ())),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--argv", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import stagesim.cli as cli
    import stagesim.simulation as simulation
    from stagesim.workflow import SUCCESS

    tracer = None
    if args.spans:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    record = {"first_run": None, "sims": [], "select_calls": 0, "select_keys": 0}
    select_next = getattr(simulation, "select_next", None)
    if tracer is None and select_next is not None:

        def counted_select_next(queue, *args, **kwargs):
            record["select_calls"] += 1
            record["select_keys"] += len(queue)
            return select_next(queue, *args, **kwargs)

        simulation.select_next = counted_select_next

    run = simulation.Simulator.run

    def timed_run(sim):
        start = time.monotonic()
        if record["first_run"] is None:
            record["first_run"] = start
        result = run(sim)
        host_s = time.monotonic() - start
        summary = summarize(sim, result, SUCCESS)
        summary["host_s"] = host_s
        summary["reference_s"] = reference_s()
        record["sims"].append(summary)
        return result

    simulation.Simulator.run = timed_run

    code = 0
    try:
        for argv in json.loads(args.argv):
            code = cli.main(argv)
            if code != 0:
                break
    except Exception:  # the parent reports the run as failed, with this log
        traceback.print_exc()
        code = 1
    finally:
        record["exit_code"] = code
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.write(args.spans)
            record["counts"] = tracer.counts
            record["select_calls"] = tracer.counts.get("select_calls", 0)
            record["select_keys"] = tracer.counts.get("select_keys", 0)
            record["missing"] = tracer.missing
        Path(args.record).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
