"""Byte-stable output files and the comparison aggregation.

All floats print with 9 decimal places, every row order is fixed and every
file is UTF-8, so two runs of the same config produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

from .simulation import SCALAR_METRICS, DispatchRecord, KvSample, MetricsReport, RequestRecord, RunResult

KV_CSV = "kv_usage.csv"
DISPATCH_CSV = "dispatch.csv"
REQUESTS_CSV = "requests.csv"
SUMMARY_JSON = "summary.json"
COMPARISON_CSV = "comparison.csv"
COMPARISON_JSON = "comparison.json"


def _key_str(key: tuple[float, ...] | None) -> str:
    if key is None:
        return ""
    return "|".join(f"{k:.9f}" for k in key)


class _CsvCells(dict):
    """Text cell -> the cell as csv.writer writes it within a row, quoted
    where needed; computed once per distinct value."""

    def __missing__(self, text: str) -> str:
        if text:  # a lone empty field would be written as ""
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerow((text,))
            cell = buffer.getvalue()[:-1]
        else:
            cell = text
        self[text] = cell
        return cell


# The one quoter of every text cell: pool, engine label, stage, outcome and
# cell names.  It is never cleared, so it grows with every distinct text
# cell the process writes; a run's cells come from its config and engine
# ids, so it stays small.
_cell = _CsvCells()

# Each row kind has one formatter returning its finished line, byte for
# byte what csv.writer(lineterminator="\n") writes for the row with every
# float formatted with 9 decimals.  A row is one f-string rather than a
# csv.writer call: kv_usage.csv alone has a row per engine touched by each
# event.
KV_HEADER = "time,pool,engine,kv_used_tokens,kv_tokens_per_s,resident_prefix_tokens\n"
DISPATCH_HEADER = (
    "time,pool,request,slack,expected_service,engine,stage,queue_delay,key,best_waiting_key\n"
)
REQUESTS_HEADER = "request,arrival,done,outcome,latency,violated_slo\n"
COMPARISON_HEADER = "cell,seed,metric,value\n"


def kv_line(sample: KvSample) -> str:
    time, pool, engine_id, kv_used, kv_slope, resident = sample
    return f"{time:.9f},{_cell[pool]},{engine_id},{kv_used:.9f},{kv_slope:.9f},{resident}\n"


def dispatch_line(d: DispatchRecord) -> str:
    return (
        f"{d.time:.9f},{_cell[d.pool]},{d.request_id},{d.slack:.9f},{d.expected_service:.9f},"
        f"{_cell[d.engine]},{_cell[d.stage_id]},{d.queue_delay:.9f},"
        f"{_key_str(d.key)},{_key_str(d.best_waiting_key)}\n"
    )


def request_line(r: RequestRecord) -> str:
    return (
        f"{r.request_id},{r.arrival:.9f},{r.done:.9f},{_cell[r.outcome]},"
        f"{r.latency:.9f},{int(r.violated_slo)}\n"
    )


def comparison_line(cell: str, seed: int, metric: str, value: float) -> str:
    return f"{_cell[cell]},{seed},{metric},{value:.9f}\n"


def write_run_outputs(result: RunResult, out_dir: str | Path) -> dict[str, Path]:
    """Write summary.json plus the three trace CSVs; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"summary": out / SUMMARY_JSON}
    paths["summary"].write_text(
        json.dumps(result.report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    traces = result.traces
    for name, file_name, header, records, line in (
        ("kv_usage", KV_CSV, KV_HEADER, traces.kv_samples, kv_line),
        ("dispatch", DISPATCH_CSV, DISPATCH_HEADER, traces.dispatches, dispatch_line),
        ("requests", REQUESTS_CSV, REQUESTS_HEADER, traces.requests, request_line),
    ):
        paths[name] = out / file_name
        with paths[name].open("w", encoding="utf-8") as handle:
            handle.write(header)
            handle.writelines(map(line, records))
    return paths


def replay_dispatch_audit(path: str | Path) -> list[str]:
    """Re-check from dispatch.csv that every dispatched call carried the
    minimal key among its queue at dispatch time; returns violations."""
    violations: list[str] = []
    with Path(path).open(encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            best_waiting = row["best_waiting_key"]
            if not best_waiting:
                continue
            dispatched = tuple(float(x) for x in row["key"].split("|"))
            waiting = tuple(float(x) for x in best_waiting.split("|"))
            if dispatched > waiting:
                violations.append(
                    f"t={row['time']} pool={row['pool']} request={row['request']}: "
                    f"dispatched key {dispatched} > waiting key {waiting}"
                )
    return violations


@dataclass(frozen=True)
class CellResult:
    cell: str
    seed: int
    report: MetricsReport


def aggregate_comparison(results: list[CellResult]) -> dict:
    """Per-cell mean/min/max for every scalar metric plus per-seed win
    counts for throughput (higher wins) and p99 latency (lower wins)."""
    cells: list[str] = []
    for res in results:
        if res.cell not in cells:
            cells.append(res.cell)
    by_cell: dict[str, dict[str, list[float]]] = {c: {m: [] for m in SCALAR_METRICS} for c in cells}
    by_seed: dict[int, dict[str, MetricsReport]] = {}
    for res in results:
        report = res.report.to_dict()
        for metric in SCALAR_METRICS:
            by_cell[res.cell][metric].append(float(report[metric]))
        by_seed.setdefault(res.seed, {})[res.cell] = res.report

    aggregate = {
        cell: {
            metric: {
                "mean": round(sum(vals) / len(vals), 9),
                "min": round(min(vals), 9),
                "max": round(max(vals), 9),
            }
            for metric, vals in metrics.items()
        }
        for cell, metrics in by_cell.items()
    }

    wins = {"throughput": {c: 0 for c in cells}, "latency_p99": {c: 0 for c in cells}}
    for seed in sorted(by_seed):
        reports = by_seed[seed]
        if len(reports) != len(cells):
            continue
        best_tp = max(r.throughput for r in reports.values())
        top = [c for c in cells if reports[c].throughput == best_tp]
        if len(top) == 1:
            wins["throughput"][top[0]] += 1
        best_p99 = min(r.latency_p99 for r in reports.values())
        low = [c for c in cells if reports[c].latency_p99 == best_p99]
        if len(low) == 1:
            wins["latency_p99"][low[0]] += 1
    return {"cells": cells, "aggregate": aggregate, "wins": wins}


def write_comparison_outputs(results: list[CellResult], summary: dict, out_dir: str | Path) -> dict[str, Path]:
    """Write comparison.csv from `results` and comparison.json from their
    `summary`, `aggregate_comparison(results)`, plus each run's report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"csv": out / COMPARISON_CSV, "json": out / COMPARISON_JSON}

    reports = {}
    with paths["csv"].open("w", encoding="utf-8") as handle:
        handle.write(COMPARISON_HEADER)
        for res in results:
            report = reports[f"{res.cell}:{res.seed}"] = res.report.to_dict()
            handle.writelines(
                comparison_line(res.cell, res.seed, metric, report[metric]) for metric in SCALAR_METRICS
            )
    paths["json"].write_text(
        json.dumps(summary | {"reports": reports}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths


def format_comparison_table(summary: dict) -> str:
    cells = summary["cells"]
    width = max(len(m) for m in SCALAR_METRICS) + 2
    col = 32  # a column's text padded to this, then two spaces however long it is
    lines = ["metric".ljust(width) + "".join(c.ljust(col) + "  " for c in cells)]
    for metric in SCALAR_METRICS:
        line = metric.ljust(width)
        for cell in cells:
            agg = summary["aggregate"][cell][metric]
            line += f"{agg['mean']:.6f} [{agg['min']:.6f}, {agg['max']:.6f}]".ljust(col) + "  "
        lines.append(line)
    for metric, counts in summary["wins"].items():
        lines.append(
            f"wins ({metric}): " + ", ".join(f"{cell}={counts[cell]}" for cell in cells)
        )
    return "\n".join(lines)
