"""Command line entry point.

Subcommands:
  validate <config>                      check a config (and its workflow)
  run <config> [--seed N] [--out DIR]    run one simulation, write outputs
  compare <config> --seeds A..B [--out DIR]
                                         run every cell x seed, write the
                                         comparison table

Exit codes: 0 ok, 2 config/validation error, 3 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import (
    build_compare_cells,
    build_sim_config,
    is_compare_config,
    load_config_file,
)
from .errors import ConfigError, InternalInvariantViolation
from .reporting import (
    CellResult,
    aggregate_comparison,
    format_comparison_table,
    write_comparison_outputs,
    write_run_outputs,
)
from .simulation import SimConfig, Simulator
from .workflow import WorkflowValidationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def parse_seeds(text: str) -> list[int]:
    """Accept 'A..B' ranges and comma lists, e.g. '1..10' or '3,5,9'."""
    text = text.strip()

    def seed(part: str) -> int:
        try:
            return int(part)
        except ValueError:
            raise ConfigError(f"seed '{part.strip()}' in '{text}' is not an integer") from None

    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = seed(lo_s), seed(hi_s)
        if hi < lo:
            raise ConfigError(f"empty seed range '{text}'")
        return list(range(lo, hi + 1))
    seeds = [seed(part) for part in text.split(",") if part.strip()]
    if not seeds:
        raise ConfigError(f"no seeds in '{text}'")
    return seeds


def cmd_validate(args) -> int:
    tree = load_config_file(args.config)
    if is_compare_config(tree):
        print(f"ok: {len(_compare_configs(tree))} cells valid")
    else:
        build_sim_config(tree)
        print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    tree = load_config_file(args.config)
    if is_compare_config(tree):
        raise ConfigError("this is a compare config; use the 'compare' subcommand")
    config = build_sim_config(tree, seed_override=args.seed)
    out_dir = args.out or tree.get("out_dir") or "out"
    result = Simulator(config).run()
    paths = write_run_outputs(result, out_dir)
    print(result.report.summary_line())
    print(f"wrote {paths['summary'].parent}")
    return EXIT_OK


def _check_fair_cells(configs) -> None:
    totals = {name: cfg.topology.llm_engine_total() for name, cfg in configs}
    if len(set(totals.values())) > 1:
        raise ConfigError(f"cells have unequal engine totals: {totals}")
    slots = {name: cfg.topology.tool_concurrency_total() for name, cfg in configs}
    if len(set(slots.values())) > 1:
        raise ConfigError(f"cells have unequal tool concurrency: {slots}")


def _compare_configs(tree: dict) -> list[tuple[str, SimConfig]]:
    """Each cell's name and config, built once and checked to compare
    cells on equal resources."""
    configs = [(name, build_sim_config(cell_tree)) for name, cell_tree in build_compare_cells(tree)]
    _check_fair_cells(configs)
    return configs


def cmd_compare(args) -> int:
    tree = load_config_file(args.config)
    if not is_compare_config(tree):
        raise ConfigError("this is a run config; use the 'run' subcommand")
    seeds = parse_seeds(args.seeds)
    configs = _compare_configs(tree)

    results: list[CellResult] = []
    for name, config in configs:
        for seed in seeds:
            report = Simulator(replace(config, seed=seed)).run().report
            results.append(CellResult(name, seed, report))
    out_dir = args.out or tree.get("base", {}).get("out_dir") or "out"
    summary = aggregate_comparison(results)
    paths = write_comparison_outputs(results, summary, out_dir)
    print(format_comparison_table(summary))
    print(f"wrote {paths['csv'].parent}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagesim",
        description="Discrete-event simulator for stage-isolated agentic LLM serving",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a config file")
    p_validate.add_argument("config")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run one simulation")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run cells across seeds and aggregate")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--seeds", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WorkflowValidationError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalInvariantViolation as exc:
        print(f"InternalInvariantViolation: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
