"""Every output row formatter against the csv.writer reference, and the
files `write_run_outputs` and `write_comparison_outputs` write with them."""

import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import stagesim as ss
from helpers import reference_csv, sim_config
from stagesim.reporting import (
    COMPARISON_HEADER,
    DISPATCH_HEADER,
    KV_HEADER,
    REQUESTS_HEADER,
    CellResult,
    comparison_line,
    dispatch_line,
    format_comparison_table,
    kv_line,
    request_line,
    write_comparison_outputs,
    write_run_outputs,
)
from stagesim.simulation import SCALAR_METRICS, DispatchRecord, KvSample, RequestRecord

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-10, -1e-10, 5e-10, 1e12, -1e12, 0.1, 2.5e-9, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# ids as the simulator writes them, plus ones that must be quoted
TEXT = st.one_of(
    st.sampled_from(
        ["pool:llm", "pool:sql_generator", 'pool:write, "v1" sql', "3", "success", "", " ", ",", '"', "a\nb", "a\rb"]
    ),
    st.text(max_size=12),
)
INTS = st.integers(0, 10**9)
KEYS = st.lists(FLOATS, max_size=4).map(tuple)
SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)


def written(header: str, line, records) -> str:
    return header + "".join(map(line, records))


@SETTINGS
@given(st.lists(st.builds(KvSample, FLOATS, TEXT, INTS, FLOATS, FLOATS, INTS), max_size=20))
def test_kv_usage_writer_matches_csv_writer(samples):
    assert KV_HEADER == "time,pool,engine,kv_used_tokens,kv_tokens_per_s,resident_prefix_tokens\n"
    assert written(KV_HEADER, kv_line, samples) == reference_csv("kv_usage.csv", samples)


@SETTINGS
@given(
    st.lists(
        st.builds(DispatchRecord, FLOATS, TEXT, INTS, FLOATS, FLOATS, TEXT, TEXT, FLOATS, KEYS, st.none() | KEYS),
        max_size=20,
    )
)
def test_dispatch_writer_matches_csv_writer(dispatches):
    assert written(DISPATCH_HEADER, dispatch_line, dispatches) == reference_csv("dispatch.csv", dispatches)


@SETTINGS
@given(st.lists(st.builds(RequestRecord, INTS, FLOATS, FLOATS, TEXT, FLOATS, st.booleans(), INTS, INTS), max_size=20))
def test_requests_writer_matches_csv_writer(requests):
    assert written(REQUESTS_HEADER, request_line, requests) == reference_csv("requests.csv", requests)


@SETTINGS
@given(st.lists(st.tuples(TEXT, INTS, st.sampled_from(SCALAR_METRICS), FLOATS | INTS), max_size=20))
def test_comparison_writer_matches_csv_writer(rows):
    written_rows = COMPARISON_HEADER + "".join(comparison_line(*row) for row in rows)
    assert written_rows == reference_csv("comparison.csv", rows)


def read(path) -> str:
    with path.open(newline="") as handle:
        return handle.read()


def test_output_files_match_csv_writer(tmp_path):
    result = ss.run(sim_config(rate=2.0, duration=15.0, warmup=2.0, seed=3))
    traces = result.traces
    paths = write_run_outputs(result, tmp_path / "run")
    assert sorted(paths) == ["dispatch", "kv_usage", "requests", "summary"]
    for name, records in (
        ("kv_usage", traces.kv_samples),
        ("dispatch", traces.dispatches),
        ("requests", traces.requests),
    ):
        assert records, name
        assert paths[name] == tmp_path / "run" / f"{name}.csv"
        assert read(paths[name]) == reference_csv(f"{name}.csv", records), name

    results = [CellResult("isolated", 1, result.report), CellResult('shared, "b"', 2, result.report)]
    paths = write_comparison_outputs(results, {}, tmp_path / "cmp")
    assert paths == {"csv": tmp_path / "cmp" / "comparison.csv", "json": tmp_path / "cmp" / "comparison.json"}
    rows = [
        (res.cell, res.seed, metric, res.report.to_dict()[metric]) for res in results for metric in SCALAR_METRICS
    ]
    assert read(paths["csv"]) == reference_csv("comparison.csv", rows)


def test_comparison_table_keeps_two_spaces_between_columns():
    # a cell text of 33 or more characters used to run into the next column
    cells = ["isolated", "a_cell_name_of_33_characters_long"]
    short = {"mean": 1.5, "min": 1.0, "max": 2.0}  # "1.500000 [1.000000, 2.000000]": 30 chars
    long = {"mean": 149.2, "min": 138.0, "max": 164.0}  # 35 chars
    summary = {
        "cells": cells,
        "aggregate": {cell: {m: long if m == "completed" else short for m in SCALAR_METRICS} for cell in cells},
        "wins": {},
    }
    lines = format_comparison_table(summary).split("\n")
    assert re.split(r" {2,}", lines[0].strip()) == ["metric", *cells]
    width = max(map(len, SCALAR_METRICS)) + 2
    for metric, line in zip(SCALAR_METRICS, lines[1:]):
        agg = long if metric == "completed" else short
        text = f"{agg['mean']:.6f} [{agg['min']:.6f}, {agg['max']:.6f}]"
        assert re.split(r" {2,}", line.strip()) == [metric, text, text]
        if metric != "completed":  # rows that fit keep their 34-character columns
            assert line == metric.ljust(width) + text.ljust(34) * 2
