"""Array-engine benchmark: 100-tenant fleet, array engine vs reference loop.

The array engine's gate: a 100-tenant open-loop workload (tenants cycling
the four baseline methods, so many tenants share each plan while per-tenant
bookkeeping dominates) on a generated 32-device fleet is driven
once through the naive per-request reference loop (``mode="reference"``:
one scalar :meth:`~repro.runtime.evaluator.PlanEvaluator.evaluate` call
per request, the semantics oracle) and through the array engine
(``mode="batched"`` — per-tenant memoized evaluations, NumPy column
commits and epoch speculation, the contention-free batched loop), both in
this same run.  The array rounds
run first, so their throughput matches what ``bench-obs`` measures on the
same workload with tracing off.

The gate asserts the array engine serves the workload at least
``MIN_SPEEDUP`` (10x) faster in wall time than the reference loop, and
that the two reports are bit-identical (the parity contract, re-checked on
the gated workload itself).  The reference loop takes about a minute on
this workload, so it runs once; the array engine keeps the best of
``ROUNDS`` cold-start rounds.  Nothing here needs multiple cores, so the
gate is enforced everywhere.  Numbers land in ``BENCH_engine.json`` via
the shared :mod:`_gate` bookkeeping; ``array_requests_per_s`` is also the
baseline the ``bench-obs`` gate reads.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from _gate import record_gate_result

from repro.baselines import BASELINE_REGISTRY
from repro.experiments.scenarios import generate_scenario
from repro.nn import model_zoo
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.serving import SLO, PoissonArrivals, ServingSimulator, TenantSpec
from repro.serving.simulator import assert_reports_equal

NUM_DEVICES = 32
NUM_TENANTS = 100
TENANT_METHODS = ("coedge", "modnn", "mednn", "offload")
RATE_RPS = 2.0
DURATION_S = 60.0
DEADLINE_MS = 500.0
ROUNDS = 3
MIN_SPEEDUP = 10.0
MODEL_NAME = "vgg16"
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def _make_tenants(model, devices, network):
    plans = {
        method: BASELINE_REGISTRY[method]().plan(model, devices, network)
        for method in TENANT_METHODS
    }
    tenants = []
    for i in range(NUM_TENANTS):
        method = TENANT_METHODS[i % len(TENANT_METHODS)]
        tenants.append(
            TenantSpec(
                name=f"{method}-{i}",
                plan=plans[method],
                traffic=PoissonArrivals(rate_rps=RATE_RPS, seed=1000 + i),
                slo=SLO(deadline_ms=DEADLINE_MS),
            )
        )
    return tenants


def _best_of(fn, rounds=ROUNDS):
    best_t, report = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        report = fn()
        best_t = min(best_t, time.perf_counter() - start)
    return best_t, report


def test_bench_array_engine(benchmark):
    scenario = generate_scenario(NUM_DEVICES, seed=17)
    devices, network = scenario.build(seed=17)
    model = model_zoo.get(MODEL_NAME)
    tenants = _make_tenants(model, devices, network)

    # Reference loop: one scalar evaluation per request (the oracle).
    def run_reference():
        simulator = ServingSimulator(PlanEvaluator(devices, network))
        return simulator.run(tenants, duration_s=DURATION_S, mode="reference")

    # Array engine: fresh batch evaluator per round so the cold first epoch
    # is included (no cross-round cache carry).
    def run_array():
        simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
        return simulator.run(tenants, duration_s=DURATION_S, mode="batched")

    # Array rounds first: timed after the reference run, they would pay for
    # the collector walking the reference loop's leftover heap.
    t_array, array_report = _best_of(run_array)
    t_reference, reference_report = _best_of(run_reference, rounds=1)

    assert_reports_equal(array_report, reference_report)
    assert array_report.engine == "array"
    completed = array_report.total_completed
    speedup = t_reference / t_array

    rows = {
        "scenario": scenario.name,
        "model": MODEL_NAME,
        "num_devices": NUM_DEVICES,
        "num_tenants": NUM_TENANTS,
        "tenant_methods": list(TENANT_METHODS),
        "arrival_rate_rps_per_tenant": RATE_RPS,
        "duration_s": DURATION_S,
        "requests_completed": completed,
        "epochs": array_report.epochs,
        "speculated": array_report.speculated,
        "rounds": ROUNDS,
        "reference_rounds": 1,
        "reference_s": t_reference,
        "array_s": t_array,
        "reference_requests_per_s": completed / t_reference,
        "array_requests_per_s": completed / t_array,
        "speedup_array_over_reference": speedup,
        "bit_identical": True,  # assert_reports_equal above would have raised
        "deadline_miss_rate": array_report.deadline_miss_rate,
        "min_speedup_gate": MIN_SPEEDUP,
    }

    benchmark.pedantic(run_array, rounds=1, iterations=1, warmup_rounds=0)

    recorded = record_gate_result(BENCH_PATH, rows)
    print(f"\nBENCH_engine: {json.dumps(recorded, indent=2)}")

    assert speedup >= MIN_SPEEDUP, (
        f"array engine regressed: {speedup:.2f}x over the reference loop is below "
        f"the {MIN_SPEEDUP}x gate ({completed} requests, {NUM_TENANTS} tenants, "
        f"{NUM_DEVICES} devices, reference {t_reference:.1f} s, "
        f"array {t_array * 1000:.0f} ms)"
    )
