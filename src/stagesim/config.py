"""Run configuration files.

A config is a JSON key tree; unknown keys are rejected so typos fail fast.
A run config describes one simulation; a compare config carries a shared
base plus named cell overlays (e.g. isolated vs shared topology) that are
swept over seeds.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import sys
import types
import typing
from pathlib import Path

from .engines import EngineParams
from .errors import ConfigError
from .simulation import PolicyConfig, SimConfig
from .workflow import ValidatedWorkflow, WorkflowSpec, validate_workflow
from .workloads import DEFAULT_ENGINE_PARAMS, Nl2SqlParams, Topology, build_nl2sql

# Config keys that are not dataclass fields, by section, with their JSON
# types; `dict` and `list` values are checked further down.
_RUN_FIELDS = {
    "workflow": dict,
    "topology": dict,
    "policy": dict,
    "arrivals": dict,
    "duration": float,
    "warmup": float,
    "seed": int,
    "out_dir": str,
}
_ARRIVAL_FIELDS = {"rate": float}
_COMPARE_FIELDS = {"base": dict, "cells": list}
_CELL_FIELDS = {"name": str, "overrides": dict}
_WORKFLOW_FIELDS = {"preset": str, "params": dict, "inline": dict}

_TYPE_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "a mapping",
    list: "a list",
}


def _call(path: str, fn, *args, **kwargs):
    """`fn(*args, **kwargs)`; a ValueError, TypeError or OverflowError it
    raises on bad input becomes a ConfigError naming `path`."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"'{path}': {exc}") from exc


def _typed(value, tp, path: str):
    """`value` checked against the declared type `tp`.

    Booleans are only JSON true/false, and a JSON integer is accepted
    where a float is declared.  Every number must convert to a finite
    float.  A `tuple[X, ...]` is read from a list, and a dataclass (a
    distribution among them) from its mapping.
    """
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = (arg for arg in typing.get_args(tp) if arg is not type(None))
        return _typed(value, tp, path)
    if origin is dict:
        item_tp = typing.get_args(tp)[1]
        return {k: _typed(v, item_tp, f"{path}.{k}") for k, v in _typed(value, dict, path).items()}
    if origin is tuple:
        item_tp = typing.get_args(tp)[0]
        return tuple(_typed(v, item_tp, f"{path}[{i}]") for i, v in enumerate(_typed(value, list, path)))
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, path)
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, (int, float) if tp is float else tp):
        raise ConfigError(f"'{path}' must be {_TYPE_NAMES[tp]}")
    if tp in (int, float):
        if not abs(value) <= sys.float_info.max:  # NaN, infinities and integers past the float range
            raise ConfigError(f"'{path}' must be a finite number")
        return tp(value)
    return value


def _fields(types_by_key: dict, obj, path: str, required=()) -> dict:
    """The keys present in mapping `obj`, each checked against its type;
    unknown keys are rejected and `required` ones must be present."""
    obj = _typed(obj, dict, path)
    unknown = sorted(set(obj) - set(types_by_key))
    if unknown:
        raise ConfigError(f"unknown key '{path}.{unknown[0]}'")
    for key in required:
        if key not in obj:
            raise ConfigError(f"'{path}' missing '{key}'")
    return {key: _typed(value, types_by_key[key], f"{path}.{key}") for key, value in obj.items()}


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


@functools.cache
def _required_fields(cls) -> tuple:
    missing = dataclasses.MISSING
    return tuple(
        f.name for f in dataclasses.fields(cls) if f.default is missing and f.default_factory is missing
    )


def _build(cls, obj, path: str, base=None, **built):
    """Dataclass `cls` from config mapping `obj`, keyed by its fields, plus
    the already built field values `built`.  An absent field keeps `base`'s
    value when `base` is given, else its default; one with no default is
    required."""
    required = () if base is not None else [key for key in _required_fields(cls) if key not in built]
    kwargs = _fields(_field_types(cls), obj, path, required) | built
    if base is not None:
        return _call(path, dataclasses.replace, base, **kwargs)
    return _call(path, cls, **kwargs)


def load_config_file(path: str | Path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        tree = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config file {p} nests JSON too deeply") from None
    return _typed(tree, dict, str(p))


def is_compare_config(tree: dict) -> bool:
    return "cells" in tree


def _parse_workflow(obj, path: str) -> ValidatedWorkflow:
    obj = _fields(_WORKFLOW_FIELDS, obj, path)
    if ("preset" in obj) == ("inline" in obj):
        raise ConfigError(f"'{path}' needs exactly one of 'preset' or 'inline'")
    if "preset" in obj:
        if obj["preset"] != "nl2sql":
            raise ConfigError(f"unknown workflow preset '{obj['preset']}'")
        spec = build_nl2sql(_build(Nl2SqlParams, obj.get("params", {}), f"{path}.params"))
    else:
        spec = _build(WorkflowSpec, obj["inline"], f"{path}.inline")
    return validate_workflow(spec)


def _parse_topology(obj, path: str) -> Topology:
    """The topology section: a Topology from its fields.  `engine_params`
    patches DEFAULT_ENGINE_PARAMS, and each of `engine_overrides` patches
    `engine_params`."""
    obj = dict(_typed(obj, dict, path))
    params_path, overrides_path = f"{path}.engine_params", f"{path}.engine_overrides"
    params = _build(EngineParams, obj.pop("engine_params", {}), params_path, DEFAULT_ENGINE_PARAMS)
    overrides = {
        sid: _build(EngineParams, patch, f"{overrides_path}.{sid}", params)
        for sid, patch in _typed(obj.pop("engine_overrides", {}), dict, overrides_path).items()
    }
    return _build(Topology, obj, path, engine_params=params, engine_overrides=overrides)


def build_sim_config(tree: dict, seed_override: int | None = None) -> SimConfig:
    """Turn a run-config tree into a validated SimConfig."""
    tree = _fields(_RUN_FIELDS, tree, "config", required=("workflow", "topology", "arrivals", "duration"))
    vw = _parse_workflow(tree["workflow"], "workflow")
    topology = _parse_topology(tree["topology"], "topology")
    policy = _build(PolicyConfig, tree.get("policy", {}), "policy")
    arrivals = _fields(_ARRIVAL_FIELDS, tree["arrivals"], "arrivals", required=("rate",))
    kwargs = {key: tree[key] for key in ("duration", "warmup", "seed") if key in tree}
    if seed_override is not None:
        kwargs["seed"] = seed_override
    config = SimConfig(
        workflow=vw, topology=topology, policy=policy, arrival_rate=arrivals["rate"], **kwargs
    )
    config.validate()
    return config


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def build_compare_cells(tree: dict) -> list[tuple[str, dict]]:
    """Expand a compare config into (cell name, run-config tree) pairs."""
    tree = _fields(_COMPARE_FIELDS, tree, "config")
    base = tree.get("base", {})
    cells_obj = tree.get("cells", [])
    if len(cells_obj) < 2:
        raise ConfigError("compare config needs a 'cells' list with at least two entries")
    cells: list[tuple[str, dict]] = []
    names = set()
    for i, cell in enumerate(cells_obj):
        cell = _fields(_CELL_FIELDS, cell, f"cells[{i}]")
        name = cell.get("name")
        if not name or name in names:
            raise ConfigError(f"cells[{i}] needs a unique 'name'")
        names.add(name)
        cells.append((name, _deep_merge(base, cell.get("overrides", {}))))
    return cells
