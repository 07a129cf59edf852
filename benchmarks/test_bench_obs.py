"""Observability overhead gate: tracing must be free when off, cheap when on.

The ``repro.obs`` integration contract has two halves, and this bench
gates both on the array engine's own gated workload (the 100-tenant,
32-device fleet of ``test_bench_engine.py``):

* **Off is free.**  With no tracer/metrics attached (the default), the
  instrumented loops pay one ``enabled`` attribute check per hook site.
  The gate asserts throughput within ``MAX_OFF_LOSS`` (5%) of the
  committed ``BENCH_engine.json`` array throughput — the same workload,
  measured on the last enforced run.  Re-record that file whenever the
  engine's own speed changes: against a stale, slower baseline the 5%
  gate cannot catch a regression.
* **On is bounded.**  With a live ``Tracer`` + ``MetricsRegistry``, the
  run slows by at most ``MAX_ON_OVERHEAD`` (25%): lifecycle derivation is
  deferred (``Tracer.defer_report`` is O(1); events materialise at first
  trace read, i.e. export time), so the run itself pays only live
  emission and the metrics recording.

Both halves re-assert bit-identical reports (tracing must never touch a
committed float).  When the committed engine baseline is missing or its
gate did not enforce, the absolute comparison is meaningless on this
machine and the gate records a skip instead.

* **Export is streamed.**  On one traced run's tracer, the streamed
  compact ``Tracer.write_chrome`` and the dict-then-``json.dumps(indent=2)``
  export it replaced are timed in the same process; the two files must be
  ``json.loads``-equal and the streamed writer at least
  ``MIN_EXPORT_SPEEDUP`` (2x) faster.  This half needs no committed
  baseline, so it is enforced even when the off gate skips.

Numbers land in ``BENCH_obs.json`` via the shared :mod:`_gate`
bookkeeping; the ``speedup_*`` ratios feed the trend check.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from _gate import record_gate_result

from repro.baselines import BASELINE_REGISTRY
from repro.experiments.scenarios import generate_scenario
from repro.nn import model_zoo
from repro.obs import MetricsRegistry, Tracer
from repro.runtime.batch import BatchPlanEvaluator
from repro.serving import SLO, PoissonArrivals, ServingSimulator, TenantSpec
from repro.serving.simulator import assert_reports_equal

NUM_DEVICES = 32
NUM_TENANTS = 100
TENANT_METHODS = ("coedge", "modnn", "mednn", "offload")
RATE_RPS = 2.0
DURATION_S = 60.0
DEADLINE_MS = 500.0
ROUNDS = 3
MAX_OFF_LOSS = 0.05
MAX_ON_OVERHEAD = 0.25
MIN_EXPORT_SPEEDUP = 2.0
EXPORT_ROUNDS = 5
MODEL_NAME = "vgg16"
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"
ENGINE_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def _make_tenants(model, devices, network):
    plans = {
        method: BASELINE_REGISTRY[method]().plan(model, devices, network)
        for method in TENANT_METHODS
    }
    return [
        TenantSpec(
            name=f"{TENANT_METHODS[i % len(TENANT_METHODS)]}-{i}",
            plan=plans[TENANT_METHODS[i % len(TENANT_METHODS)]],
            traffic=PoissonArrivals(rate_rps=RATE_RPS, seed=1000 + i),
            slo=SLO(deadline_ms=DEADLINE_MS),
        )
        for i in range(NUM_TENANTS)
    ]


def _best_of(fn, rounds=ROUNDS):
    best_t, report = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        report = fn()
        best_t = min(best_t, time.perf_counter() - start)
    return best_t, report


def _committed_engine_rps():
    try:
        data = json.loads(ENGINE_BENCH_PATH.read_text())
    except (OSError, ValueError):
        return None
    if not data.get("gate_enforced"):
        return None
    value = data.get("array_requests_per_s")
    return float(value) if isinstance(value, (int, float)) else None


def _export_leg(tracer, out_dir):
    """Time the streamed export against the in-memory indented one."""
    tracer.sorted_events()  # derive and sort once, outside both timings
    streamed_path, dict_path = out_dir / "streamed.json", out_dir / "dict.json"

    def write_stream():
        tracer.write_chrome(str(streamed_path))

    def write_dict():
        dict_path.write_text(json.dumps(tracer.to_chrome(), indent=2) + "\n")

    # Interleaved rounds, so a noisy stretch of a shared host hits both.
    t_stream = t_dict = float("inf")
    for _ in range(EXPORT_ROUNDS):
        t_stream = min(t_stream, _best_of(write_stream, rounds=1)[0])
        t_dict = min(t_dict, _best_of(write_dict, rounds=1)[0])
    assert json.loads(streamed_path.read_text()) == json.loads(dict_path.read_text())
    return {
        "export_events": len(tracer.events),
        "export_stream_s": t_stream,
        "export_dict_s": t_dict,
        "export_stream_mb": streamed_path.stat().st_size / 1e6,
        "export_dict_mb": dict_path.stat().st_size / 1e6,
        "speedup_export_stream_vs_dict": t_dict / t_stream,
        "export_rounds": EXPORT_ROUNDS,
        "min_export_speedup_gate": MIN_EXPORT_SPEEDUP,
    }


def _assert_export_gate(export):
    assert export["speedup_export_stream_vs_dict"] >= MIN_EXPORT_SPEEDUP, (
        f"streamed trace export only {export['speedup_export_stream_vs_dict']:.2f}x "
        f"faster than the in-memory indented export (gate {MIN_EXPORT_SPEEDUP}x; "
        f"stream {export['export_stream_s'] * 1000:.0f} ms, "
        f"dict {export['export_dict_s'] * 1000:.0f} ms, "
        f"{export['export_events']} events)"
    )


def test_bench_observability_overhead(benchmark, tmp_path):
    scenario = generate_scenario(NUM_DEVICES, seed=17)
    devices, network = scenario.build(seed=17)
    model = model_zoo.get(MODEL_NAME)
    tenants = _make_tenants(model, devices, network)

    # Off: the default no-op hooks — must match the committed engine bench.
    def run_off():
        simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
        return simulator.run(tenants, duration_s=DURATION_S, mode="batched")

    # On: a live tracer and metrics registry attached to the same run.
    def run_on():
        simulator = ServingSimulator(BatchPlanEvaluator(devices, network))
        return simulator.run(
            tenants,
            duration_s=DURATION_S,
            mode="batched",
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        )

    t_off, off_report = _best_of(run_off)
    t_on, on_report = _best_of(run_on)
    traced = Tracer()
    ServingSimulator(BatchPlanEvaluator(devices, network)).run(
        tenants, duration_s=DURATION_S, mode="batched", tracer=traced
    )
    export = _export_leg(traced, tmp_path)

    assert_reports_equal(on_report, off_report)
    completed = off_report.total_completed
    off_rps = completed / t_off
    on_rps = completed / t_on
    overhead = t_on / t_off
    committed_rps = _committed_engine_rps()

    rows = {
        "scenario": scenario.name,
        "model": MODEL_NAME,
        "num_devices": NUM_DEVICES,
        "num_tenants": NUM_TENANTS,
        "duration_s": DURATION_S,
        "requests_completed": completed,
        "rounds": ROUNDS,
        "off_requests_per_s": off_rps,
        "on_requests_per_s": on_rps,
        "tracing_overhead_ratio": overhead,
        "committed_engine_array_requests_per_s": committed_rps,
        "bit_identical": True,  # assert_reports_equal above would have raised
        "max_off_loss_gate": MAX_OFF_LOSS,
        "max_on_overhead_gate": MAX_ON_OVERHEAD,
        **export,
    }

    benchmark.pedantic(run_off, rounds=1, iterations=1, warmup_rounds=0)

    if committed_rps is None:
        recorded = record_gate_result(
            BENCH_PATH,
            {},
            enforced=False,
            skip_info={
                **rows,
                "reason": "no enforced committed BENCH_engine.json baseline",
            },
        )
        print(f"\nBENCH_obs (gate skipped): {json.dumps(recorded, indent=2)}")
        _assert_export_gate(export)
        return

    rows["speedup_off_vs_committed_engine"] = off_rps / committed_rps
    rows["speedup_on_vs_off"] = on_rps / off_rps
    recorded = record_gate_result(BENCH_PATH, rows)
    print(f"\nBENCH_obs: {json.dumps(recorded, indent=2)}")

    _assert_export_gate(export)
    assert off_rps >= committed_rps * (1.0 - MAX_OFF_LOSS), (
        f"observability hooks slowed the tracing-OFF path: {off_rps:.0f} req/s "
        f"vs committed {committed_rps:.0f} req/s "
        f"(> {MAX_OFF_LOSS:.0%} loss; {completed} requests, "
        f"off {t_off * 1000:.0f} ms)"
    )
    assert overhead <= 1.0 + MAX_ON_OVERHEAD, (
        f"tracing-ON overhead too high: {overhead:.2f}x the off run "
        f"(gate {1.0 + MAX_ON_OVERHEAD:.2f}x; on {t_on * 1000:.0f} ms, "
        f"off {t_off * 1000:.0f} ms)"
    )
