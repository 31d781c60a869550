"""Byte-stable output files and the comparison aggregation.

All floats print with 9 decimal places and every row order is fixed, so
two runs of the same config produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

from .simulation import SCALAR_METRICS, MetricsReport, RunResult

KV_CSV = "kv_usage.csv"
DISPATCH_CSV = "dispatch.csv"
REQUESTS_CSV = "requests.csv"
SUMMARY_JSON = "summary.json"
COMPARISON_CSV = "comparison.csv"
COMPARISON_JSON = "comparison.json"


def _f(x: float) -> str:
    return f"{x:.9f}"


def _key_str(key: tuple[float, ...] | None) -> str:
    if key is None:
        return ""
    return "|".join(_f(k) for k in key)


def _writer(handle):
    return csv.writer(handle, lineterminator="\n")


class _CsvCells(dict):
    """Text cell -> the cell as `_writer` writes it, quoted where needed;
    computed once per distinct value."""

    def __missing__(self, text: str) -> str:
        if text:  # a lone empty field would be written as ""
            buffer = io.StringIO()
            _writer(buffer).writerow((text,))
            cell = buffer.getvalue()[:-1]
        else:
            cell = text
        self[text] = cell
        return cell


def write_kv_usage(samples, handle) -> None:
    """kv_usage.csv, byte for byte as `_writer` and `_f` would write it.

    The trace has a row per engine whose KV changed at each event, so rows
    are formatted directly and streamed rather than passed through
    csv.writer one call at a time, or joined into one string.
    """
    handle.write("time,pool,engine,kv_used_tokens,resident_prefix_tokens\n")
    cells = _CsvCells()
    handle.writelines(
        f"{time:.9f},{cells[pool]},{engine_id},{kv_used:.9f},{resident}\n"
        for time, pool, engine_id, kv_used, resident in samples
    )


def write_run_outputs(result: RunResult, out_dir: str | Path) -> dict[str, Path]:
    """Write summary.json plus the three trace CSVs; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "summary": out / SUMMARY_JSON,
        "kv_usage": out / KV_CSV,
        "dispatch": out / DISPATCH_CSV,
        "requests": out / REQUESTS_CSV,
    }

    paths["summary"].write_text(
        json.dumps(result.report.to_dict(), indent=2, sort_keys=True) + "\n"
    )

    with paths["kv_usage"].open("w") as handle:
        write_kv_usage(result.traces.kv_samples, handle)

    with paths["dispatch"].open("w") as handle:
        rows = _writer(handle)
        rows.writerow(
            [
                "time",
                "pool",
                "request",
                "slack",
                "expected_service",
                "engine",
                "stage",
                "queue_delay",
                "key",
                "best_waiting_key",
            ]
        )
        for d in result.traces.dispatches:
            rows.writerow(
                [
                    _f(d.time),
                    d.pool,
                    d.request_id,
                    _f(d.slack),
                    _f(d.expected_service),
                    d.engine,
                    d.stage_id,
                    _f(d.queue_delay),
                    _key_str(d.key),
                    _key_str(d.best_waiting_key),
                ]
            )

    with paths["requests"].open("w") as handle:
        rows = _writer(handle)
        rows.writerow(["request", "arrival", "done", "outcome", "latency", "violated_slo"])
        for r in result.traces.requests:
            rows.writerow(
                [r.request_id, _f(r.arrival), _f(r.done), r.outcome, _f(r.latency), int(r.violated_slo)]
            )
    return paths


def replay_dispatch_audit(path: str | Path) -> list[str]:
    """Re-check from dispatch.csv that every dispatched call carried the
    minimal key among its queue at dispatch time; returns violations."""
    violations: list[str] = []
    with Path(path).open() as handle:
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


def comparison_rows(results: list[CellResult]) -> list[tuple[str, int, str, float]]:
    rows = []
    for res in results:
        report = res.report.to_dict()
        for metric in SCALAR_METRICS:
            rows.append((res.cell, res.seed, metric, float(report[metric])))
    return rows


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

    with paths["csv"].open("w") as handle:
        rows = _writer(handle)
        rows.writerow(["cell", "seed", "metric", "value"])
        for cell, seed, metric, value in comparison_rows(results):
            rows.writerow([cell, seed, metric, _f(value)])

    reports = {res.cell + ":" + str(res.seed): res.report.to_dict() for res in results}
    paths["json"].write_text(json.dumps(summary | {"reports": reports}, indent=2, sort_keys=True) + "\n")
    return paths


def format_comparison_table(summary: dict) -> str:
    cells = summary["cells"]
    width = max(len(m) for m in SCALAR_METRICS) + 2
    col = 34
    lines = ["metric".ljust(width) + "".join(c.ljust(col) for c in cells)]
    for metric in SCALAR_METRICS:
        line = metric.ljust(width)
        for cell in cells:
            agg = summary["aggregate"][cell][metric]
            line += f"{agg['mean']:.6f} [{agg['min']:.6f}, {agg['max']:.6f}]".ljust(col)
        lines.append(line)
    for metric, counts in summary["wins"].items():
        lines.append(
            f"wins ({metric}): " + ", ".join(f"{cell}={counts[cell]}" for cell in cells)
        )
    return "\n".join(lines)
