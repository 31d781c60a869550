"""The benchmark's tracing points must exist in the code they trace.

perfbench/tracer.py wraps layer entry points by name (for example
`stagesim.simulation.select_next`, whose first argument it takes the
len() of); a name that is gone is only listed as missing and its layer
reads 0.  This installs the tracer in a fresh process, so its patches
stay out of this one, and runs one short simulation through it.  The
layers asserted below must also record spans: a refactor that stops
calling a traced name (inlines it, say) fails here instead of silently
zeroing a layer of the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

from helpers import run_config_tree

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
root, config, out, spans = sys.argv[1:]
sys.path[:0] = [root + "/perfbench", root + "/src"]
from tracer import Tracer, install, self_times
tracer = Tracer()
install(tracer)
from stagesim.cli import main
code = main(["run", config, "--out", out])
tracer.write(spans)
calls = self_times(spans)[2]
print(json.dumps({"code": code, "missing": tracer.missing, "counts": tracer.counts, "calls": calls}))
"""

# span names whose layers the elastic workload's per-event cost is split into
PER_EVENT_LAYERS = (
    "simulation.advance_clock",
    "simulation.check_invariants",
    "simulation.kv_samples",
    "engines.advance_decode",
    "engines.invariant_recompute",
    "workflow.expected_remaining_work",
)


def test_every_tracing_point_is_installed_and_runs(tmp_path):
    config = tmp_path / "config.json"
    # online estimates: the remaining-work table is rebuilt during the run
    tree = run_config_tree(arrivals={"rate": 3.0}, duration=10.0, policy={"kind": "slack", "online_estimates": True})
    config.write_text(json.dumps(tree))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT), str(config), str(tmp_path / "out"), str(tmp_path / "spans")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["missing"] == []
    assert result["counts"]["select_calls"] > 0
    for name in PER_EVENT_LAYERS:
        assert result["calls"].get(name, 0) > 0, name
