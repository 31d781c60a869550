"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with -s to see them
on success).  AC-5 is defined last: it audits every run the suite produced.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import stagesim as ss
from helpers import RetainingSimulator, engine_params, expected_fixer_invocations, nl2sql_vw, sim_config
from stagesim.cli import main
from stagesim.dists import Distribution
from stagesim.reporting import replay_dispatch_audit, write_run_outputs
from stagesim.workflow import expected_remaining_work
from stagesim.workloads import EXECUTOR, FIXER, GENERATOR

REGISTRY: list[tuple[RetainingSimulator, ss.RunResult]] = []


def run_and_register(cfg: ss.SimConfig) -> ss.RunResult:
    sim = RetainingSimulator(cfg)
    result = sim.run()
    REGISTRY.append((sim, result))
    return result


@contextmanager
def criterion(name: str, claim: str):
    try:
        yield
    except BaseException:
        print(f"{name} FAIL: {claim}")
        raise
    print(f"{name} PASS: {claim}")


# ----------------------------------------------------------------------
# AC-1: prefix duplication, exactly 4P shared vs 2P isolated


def test_ac1_prefix_duplication():
    with criterion("AC-1", "steady-state resident-prefix KV is 4P shared vs 2P isolated (tolerance 0)"):
        prefix = 1000
        totals = {}
        for mode in ("shared", "isolated"):
            cfg = sim_config(
                mode=mode,
                policy=ss.PolicyConfig(kind="fcfs"),
                rate=2.5,
                duration=40.0,
                warmup=10.0,
                seed=1,
            )
            result = run_and_register(cfg)
            final = {}
            for sample in result.traces.kv_samples:
                if sample.time >= cfg.warmup:
                    final[sample.engine_id] = sample.resident_prefix_tokens
            assert len(final) == 2
            totals[mode] = sum(final.values())
            if mode == "shared":
                # under FCFS spillover every engine served both stages
                assert set(final.values()) == {2 * prefix}
            else:
                assert set(final.values()) == {prefix}
        assert totals["shared"] == 4 * prefix
        assert totals["isolated"] == 2 * prefix


# ----------------------------------------------------------------------
# AC-2: isolated beats shared near saturation when duplicated prefixes
# bind the batch size


def test_ac2_throughput_and_tail_benefit():
    with criterion("AC-2", "isolated wins throughput and p99 in >= 8 of 10 paired seeds"):
        params = engine_params(
            kv_capacity_tokens=3200,  # 2P + room for ~4 mean-sized calls
            max_batch=12,
            prefill_rate=2000.0,
            base_token_time=0.02,
            batch_slope=0.1,
        )
        wins_tp = wins_p99 = 0
        for seed in range(1, 11):
            reports = {}
            for mode in ("isolated", "shared"):
                cfg = sim_config(
                    mode=mode, params=params, rate=2.1, duration=80.0, warmup=10.0, seed=seed
                )
                reports[mode] = run_and_register(cfg).report
            wins_tp += reports["isolated"].throughput > reports["shared"].throughput
            wins_p99 += reports["isolated"].latency_p99 < reports["shared"].latency_p99
        assert wins_tp >= 8, f"isolated won throughput only {wins_tp}/10"
        assert wins_p99 >= 8, f"isolated won p99 only {wins_p99}/10"


# ----------------------------------------------------------------------
# AC-3: byte-identical outputs for identical config and seed


def test_ac3_determinism(tmp_path):
    with criterion("AC-3", "identical config+seed produces byte-identical summary.json and CSVs"):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            '{"workflow": {"preset": "nl2sql"}, "topology": {"preset": "nl2sql-isolated"},'
            ' "policy": {"kind": "slack"}, "arrivals": {"rate": 2.0},'
            ' "duration": 25.0, "warmup": 2.0, "seed": 42}'
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config_path), "--out", str(out_a)]) == 0
        assert main(["run", str(config_path), "--out", str(out_b)]) == 0
        for name in ("summary.json", "kv_usage.csv", "dispatch.csv", "requests.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# ----------------------------------------------------------------------
# AC-4: retry-expectation oracles


def test_ac4_retry_expectation_oracles():
    with criterion("AC-4", "closed forms match Monte Carlo (1%) and exhaustive enumeration (1e-9)"):
        rng = np.random.default_rng(11)
        for p in (0.1, 0.5, 0.9):
            for budget in (1, 3, 5):
                fails = rng.random((100_000, budget)) < p
                mc = np.cumprod(fails, axis=1).sum(axis=1).mean()
                exact = expected_fixer_invocations(p, budget)
                assert abs(mc - exact) / exact <= 0.01, (p, budget, mc, exact)

        vw = nl2sql_vw()
        estimates = {GENERATOR: 2.04, EXECUTOR: 0.25, FIXER: 2.04}

        def enumerate_paths(sid, retries):
            total = 0.0
            frontier = [(sid, retries, 1.0, 0.0)]
            while frontier:
                stage_id, r, prob, cost = frontier.pop()
                if stage_id in ("Success", "Failure"):
                    total += prob * cost
                    continue
                stage = vw.stage(stage_id)
                cost += estimates[stage_id]
                for out in stage.outcomes:
                    if out.prob == 0.0:
                        continue
                    target = out.next
                    if target in ("Success", "Failure"):
                        frontier.append((target, r, prob * out.prob, cost))
                    elif vw.is_loop_edge(stage_id, target):
                        if r >= vw.retry_budget:
                            frontier.append(("Failure", r, prob * out.prob, cost))
                        else:
                            frontier.append((target, r + 1, prob * out.prob, cost))
                    else:
                        frontier.append((target, r, prob * out.prob, cost))
            return total

        table = expected_remaining_work(vw, estimates)
        for sid in vw.stage_ids:
            for retries in range(vw.retry_budget + 1):
                assert abs(table[(sid, retries)] - enumerate_paths(sid, retries)) <= 1e-9


# ----------------------------------------------------------------------
# AC-6: dispatch-order audit replay from the CSV


def test_ac6_dispatch_audit(tmp_path):
    with criterion("AC-6", "dispatch.csv replay finds zero priority-order violations"):
        cfg = sim_config(rate=3.0, duration=30.0, warmup=3.0, seed=13)
        result = run_and_register(cfg)
        paths = write_run_outputs(result, tmp_path)
        contended = sum(1 for d in result.traces.dispatches if d.best_waiting_key is not None)
        assert contended > 0, "run produced no queue contention to audit"
        assert replay_dispatch_audit(paths["dispatch"]) == []


# ----------------------------------------------------------------------
# AC-7: admission control bounds the bottleneck queue


def test_ac7_admission_bounds_queues():
    with criterion(
        "AC-7",
        "admission keeps all queues <= cap at 2x capacity; without it the bottleneck exceeds 5x",
    ):
        vw = nl2sql_vw(p_fail=0.1)
        params = engine_params(max_batch=4)
        # generator is the bottleneck: ~ b / t(b) / mean output tokens
        capacity = 4 / (0.02 * 1.3) / 100
        rate = 2 * capacity
        cap = 10
        reports = {}
        for enabled in (True, False):
            policy = ss.PolicyConfig(
                admission=ss.AdmissionConfig(enabled=enabled, max_queue_len=cap)
            )
            cfg = sim_config(
                vw=vw,
                params=params,
                policy=policy,
                rate=rate,
                duration=40.0,
                warmup=0.0,
                seed=2,
                tool_concurrency=8,
            )
            reports[enabled] = run_and_register(cfg).report
        assert all(q <= cap for q in reports[True].max_queue_len.values()), reports[True].max_queue_len
        assert reports[True].rejected > 0
        bottleneck = reports[False].end_queue_len[f"pool:{GENERATOR}"]
        assert bottleneck > 5 * cap, f"bottleneck queue {bottleneck} <= {5 * cap}"


# ----------------------------------------------------------------------
# AC-8: borrowing an idle generator engine raises completions


def test_ac8_borrowing_increases_completions():
    with criterion(
        "AC-8",
        "lending an idle generator engine to the saturated fixer strictly raises completions",
    ):
        vw = nl2sql_vw(
            p_fail=0.9,
            retry_budget=5,
            prompt_tokens=Distribution.constant(50),
            output_tokens=Distribution.constant(25),
        )
        slow_fixer = {FIXER: engine_params(base_token_time=0.08, max_batch=2)}
        completed = {}
        audits = {}
        for enabled in (False, True):
            policy = ss.PolicyConfig(
                borrow=ss.BorrowConfig(enabled=enabled, util_low=0.2, util_high=0.8),
                autoscale=ss.AutoscaleConfig(enabled=False, check_interval=1.0),
            )
            cfg = sim_config(
                vw=vw,
                engines=(2, 1),
                overrides=slow_fixer,
                policy=policy,
                rate=0.4,
                duration=60.0,
                warmup=0.0,
                seed=3,
            )
            result = run_and_register(cfg)
            completed[enabled] = result.report.completed
            audits[enabled] = result.audit
        assert audits[True].borrows, "borrowing never happened"
        assert audits[True].lent_admissions > 0, "lent engine never served the borrower"
        assert audits[False].borrows == []
        # single-stage batch purity on lent engines is enforced by the
        # in-run invariant checker; both runs completing proves it held
        assert completed[True] > completed[False], completed


# ----------------------------------------------------------------------
# AC-9: autoscaler locality


def test_ac9_autoscaler_scales_only_the_slow_pool():
    with criterion(
        "AC-9",
        "4x fixer service time draws scale-outs only in the fixer pool across 5 seeds",
    ):
        slow_fixer = {FIXER: engine_params(base_token_time=0.08)}
        for seed in range(1, 6):
            policy = ss.PolicyConfig(
                autoscale=ss.AutoscaleConfig(
                    enabled=True,
                    check_interval=2.0,
                    queue_delay_slo=0.75,
                    scale_out_threshold=0.5,
                    scale_in_threshold=0.05,
                    cooldown=4.0,
                    min_engines=1,
                    max_engines=4,
                )
            )
            cfg = sim_config(
                engines=(2, 1),
                overrides=slow_fixer,
                policy=policy,
                rate=0.9,
                duration=60.0,
                warmup=0.0,
                seed=seed,
                tool_concurrency=8,
            )
            result = run_and_register(cfg)
            ups = [pool for _, pool, delta in result.audit.scale_events if delta > 0]
            assert ups, f"seed {seed}: fixer overload never triggered a scale-out"
            assert set(ups) == {f"pool:{FIXER}"}, f"seed {seed}: scale-outs in {set(ups)}"


# ----------------------------------------------------------------------
# AC-5 (defined last so it audits every registered run in this suite):
# conservation and KV capacity on every run


def test_ac5_conservation_and_capacity_on_all_runs():
    with criterion(
        "AC-5", "every run conserves requests and never samples KV above capacity"
    ):
        # a few extra corners beyond what AC-1..9 already produced
        run_and_register(sim_config(mode="shared", policy=ss.PolicyConfig(kind="las"), rate=3.0, duration=25.0, warmup=2.0, seed=19))
        run_and_register(
            sim_config(
                params=engine_params(kv_capacity_tokens=2600, max_batch=16),
                rate=3.0,
                duration=25.0,
                warmup=0.0,
                seed=23,
            )
        )
        run_and_register(
            sim_config(
                policy=ss.PolicyConfig(
                    admission=ss.AdmissionConfig(enabled=True, max_queue_len=6),
                    borrow=ss.BorrowConfig(enabled=True, util_low=0.1, util_high=0.7),
                    autoscale=ss.AutoscaleConfig(enabled=True, check_interval=1.5, queue_delay_slo=0.5),
                ),
                rate=4.0,
                duration=25.0,
                warmup=2.0,
                seed=29,
            )
        )
        assert len(REGISTRY) >= 30
        for sim, result in REGISTRY:
            report = result.report
            assert (
                report.arrivals_admitted
                == report.completed + report.failed_budget + report.in_flight_at_end
            )
            caps = {
                eid: eng.params.kv_capacity_tokens
                for eid, eng in sim.all_engines.items()
            }
            for sample in result.traces.kv_samples:
                assert sample.kv_used <= caps[sample.engine_id] + 1e-6
