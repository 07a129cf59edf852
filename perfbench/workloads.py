"""The benchmark's workloads: one realistic user session each.

Every workload is a ``setup(seed)`` that resolves the fleet, plans the
tenants/baselines and resolves churn, and a ``session(prepared, out_dir)``
that does what a user's command would do with it and writes every output.
Sessions call only the public ``repro`` API, through module attributes, so
the traced run's wrappers (see :mod:`layers`) see every call.

The seed drives traffic, retry jitter and the OSDS search.  The fleet, the
churn schedule and the LC-PSS partition stay fixed (see ``CHURN_SEED`` and
``LCPSS_SEED``): each of them changes how much work a session does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import checks
from repro.baselines import BASELINE_REGISTRY
from repro.core.distredge import DistrEdge, DistrEdgeConfig
from repro.core.osds import OSDSConfig
from repro.experiments import reporting, scenarios
from repro.nn import model_zoo
from repro.obs import analysis as obs_analysis
from repro.obs.slo import BurnRateRule, SLOMonitor
from repro.obs.trace import Tracer
from repro.runtime import faults
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.serialization import evaluation_to_dict, plan_to_dict
from repro.runtime.streaming import StreamingSimulator
from repro.serving import SLO, ClusterPolicy, PoissonArrivals, ServingSimulator, TenantSpec

MODEL_NAME = "vgg16"
#: The serve-* fleet: procedurally generated, fixed for every seed.
FLEET_SPEC = "gen:n=32,seed=17"
FLEET_SEED = 17
#: The churn schedule (which devices crash, leave or join, and when) is
#: fixed with the fleet: which device fails changes a contended session's
#: work by up to 3x, so a seeded draw would swamp every cross-seed
#: comparison.  Retry jitter still follows the seed.
CHURN_SEED = FLEET_SEED
TENANT_METHODS = ("coedge", "modnn", "mednn", "offload")
DEADLINE_MS = 500.0
#: ``repro serve --alerts`` defaults.
ALERT_RULE = ("burn", 5.0, 30.0, 1.0)
ALERT_TARGET = 0.05
LCPSS_SEED = 0
#: Images streamed per plan when plan-db rescores (the paper streams 5000).
STREAM_IMAGES = 5000


def write_report(path: Path, sections: Dict[str, Any]) -> None:
    """Write a JSON report; values with ``to_dict`` are converted."""
    payload = {
        key: value.to_dict() if hasattr(value, "to_dict") else value
        for key, value in sections.items()
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


@dataclass
class Outcome:
    """What a session produced, for the checks, the digest and the metrics."""

    #: Simulated outputs the digest covers (identical for a given seed).
    simulated: Dict[str, Any]
    #: Simulated figures reported as ``sim.*`` metrics.
    sim: Dict[str, float]
    #: Program counters reported as per-layer metrics.
    counters: Dict[str, float]
    #: Simulated requests completed and the host seconds ServingSimulator.run took.
    sim_requests: int
    sim_host_s: float
    #: Runs the session's serving call again on the same inputs; returns
    #: ``(requests completed, host seconds)``.
    replay: Callable[[], Tuple[int, float]]
    #: Objects the checks read.
    artifacts: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]
    session: Callable[[Any, Path], Outcome]
    #: Checks the session's artifacts; returns failure messages.
    check: Callable[[Dict[str, Any]], List[str]]


# ---------------------------------------------------------------------- #
# plan-db
# ---------------------------------------------------------------------- #
@dataclass
class PlanPrepared:
    seed: int
    model: Any
    devices: list
    network: Any
    baselines: Dict[str, Any]


def plan_setup(seed: int) -> PlanPrepared:
    scenario = scenarios.resolve_scenario("DB")
    devices, network = scenario.build(seed=0)
    model = model_zoo.get(MODEL_NAME)
    baselines = {
        name: BASELINE_REGISTRY[name]().plan(model, devices, network)
        for name in sorted(BASELINE_REGISTRY)
    }
    return PlanPrepared(seed, model, devices, network, baselines)


def plan_session(prep: PlanPrepared, out_dir: Path) -> Outcome:
    # `repro plan` defaults (200 episodes, 30 random splits, alpha 0.75).
    # LC-PSS keeps the default seed: its partition sets the number of DDPG
    # updates (4 to 6 volumes x 200 episodes over seeds 0-11), so a seeded
    # partition would vary the session's work by half; OSDS follows the seed.
    config = DistrEdgeConfig(
        alpha=0.75,
        num_random_splits=30,
        osds=OSDSConfig(max_episodes=200, seed=prep.seed, episode_batch=8, policy_refresh=8),
        seed=LCPSS_SEED,
    )
    result = DistrEdge(config).plan_detailed(prep.model, prep.devices, prep.network)
    plans = {"distredge": result.plan, **prep.baselines}
    evaluator = PlanEvaluator(prep.devices, prep.network)
    evaluations = {method: evaluator.evaluate(plan) for method, plan in plans.items()}

    def stream():
        streamer = StreamingSimulator(BatchPlanEvaluator(prep.devices, prep.network))
        start = time.perf_counter()
        streams = {
            method: streamer.run(plan, num_images=STREAM_IMAGES)
            for method, plan in plans.items()
        }
        return streams, time.perf_counter() - start

    def replay():
        streams, seconds = stream()
        return sum(s.num_images for s in streams.values()), seconds

    streams, stream_s = stream()
    ips = {method: evaluation.ips for method, evaluation in evaluations.items()}
    table = reporting.format_ips_table({"DB": ips}, methods=list(plans))
    write_report(
        out_dir / "plan.json",
        {
            "plan": plan_to_dict(result.plan),
            "predicted_ips": result.predicted_ips,
            "methods": {
                method: {
                    "evaluation": evaluation_to_dict(evaluations[method]),
                    "streamed_ips": streams[method].ips,
                }
                for method in plans
            },
        },
    )
    (out_dir / "plan.txt").write_text(table + "\n")
    best_baseline = max(value for method, value in ips.items() if method != "distredge")
    return Outcome(
        simulated={
            "distredge_boundaries": list(result.plan.boundaries),
            "distredge_cuts": [list(d.cuts) for d in result.plan.decisions],
            "distredge_head": result.plan.head_device,
            "ips": {method: repr(value) for method, value in sorted(ips.items())},
        },
        sim={
            "sim.distredge_ips": ips["distredge"],
            "sim.distredge_over_best_baseline": ips["distredge"] / best_baseline,
        },
        counters={},
        sim_requests=sum(s.num_images for s in streams.values()),
        sim_host_s=stream_s,
        replay=replay,
        artifacts={
            "plan": result.plan,
            "predicted_ips": result.predicted_ips,
            "devices": prep.devices,
            "network": prep.network,
            "streamed_ips": {method: streamed.ips for method, streamed in streams.items()},
            "ips": ips,
        },
    )


# ---------------------------------------------------------------------- #
# serve-*
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServeShape:
    tenants: int
    rate_rps: float
    duration_s: float
    engine: str = "object"
    policy: Optional[Dict[str, Any]] = None
    churn: Optional[str] = None


@dataclass
class ServePrepared:
    shape: ServeShape
    devices: list
    network: Any
    tenants: List[Any]
    fault_trace: Any
    retry: Any


def arrival_seed(seed: int, tenant: int) -> int:
    return seed * 1000 + tenant


def serve_setup(shape: ServeShape, seed: int) -> ServePrepared:
    scenario = scenarios.resolve_scenario(FLEET_SPEC)
    devices, network = scenario.build(seed=FLEET_SEED)
    model = model_zoo.get(MODEL_NAME)
    plans = {
        method: BASELINE_REGISTRY[method]().plan(model, devices, network)
        for method in TENANT_METHODS
    }
    tenants = [
        TenantSpec(
            name=f"{TENANT_METHODS[i % len(TENANT_METHODS)]}-{i}",
            plan=plans[TENANT_METHODS[i % len(TENANT_METHODS)]],
            traffic=PoissonArrivals(rate_rps=shape.rate_rps, seed=arrival_seed(seed, i)),
            slo=SLO(deadline_ms=DEADLINE_MS),
        )
        for i in range(shape.tenants)
    ]
    fault_trace = retry = None
    if shape.churn is not None:
        # Churn lands between 5% and 95% of the arrival horizon.
        horizon_ms = shape.duration_s * 1000.0
        spec = (
            f"{shape.churn},seed={CHURN_SEED},start_ms={0.05 * horizon_ms:g},"
            f"window_ms={0.9 * horizon_ms:g}"
        )
        fault_trace = faults.resolve_churn(spec, scenario.num_devices)
        retry = faults.RetryPolicy(seed=seed)
    return ServePrepared(shape, devices, network, tenants, fault_trace, retry)


def serve_session(prep: ServePrepared, out_dir: Path) -> Outcome:
    shape = prep.shape

    def serve():
        tracer = Tracer()
        simulator = ServingSimulator(BatchPlanEvaluator(prep.devices, prep.network))
        policy = ClusterPolicy(**shape.policy) if shape.policy is not None else None
        start = time.perf_counter()
        report = simulator.run(
            prep.tenants,
            duration_s=shape.duration_s,
            mode="batched",
            policy=policy,
            engine=shape.engine,
            faults=prep.fault_trace,
            retry=prep.retry,
            tracer=tracer,
        )
        return report, tracer, time.perf_counter() - start

    def replay():
        report, _, seconds = serve()
        return report.total_completed, seconds

    report, tracer, run_s = serve()
    # Alerts before the export, so their instants land in the trace (the
    # order `repro serve --alerts --trace-json` uses).
    timeline = SLOMonitor(rules=(BurnRateRule(*ALERT_RULE),), default_target=ALERT_TARGET).evaluate(
        report, tracer=tracer
    )
    attribution = obs_analysis.analyze_serving(report, tracer)
    trace_path = out_dir / "trace.json"
    tracer.write_chrome(str(trace_path))
    text = "\n".join(
        part
        for part in (
            reporting.format_serving_table(report),
            reporting.format_fleet_table(report) if report.fleet is not None else "",
            reporting.format_fault_report(report) if report.faults is not None else "",
            reporting.format_alert_timeline(timeline),
            reporting.format_attribution_table(attribution),
            reporting.format_bottleneck_table(attribution, top=5),
        )
        if part
    )
    write_report(
        out_dir / "report.json",
        {"report": report, "analysis": attribution, "alerts": timeline},
    )
    (out_dir / "report.txt").write_text(text + "\n")
    return _serve_outcome(report, tracer, attribution, trace_path, run_s, replay)


def _serve_outcome(report, tracer, attribution, trace_path: Path, run_s: float, replay) -> Outcome:
    responses = np.concatenate(
        [t.response_ms for t in report.tenants if t.num_completed] or [np.zeros(0)]
    )
    arrivals = sum(t.num_arrivals for t in report.tenants)
    late = sum(int(np.count_nonzero(t.response_ms > t.slo.deadline_ms)) for t in report.tenants)
    refused = sum(
        t.num_rejected + t.num_denied + t.num_shed + t.num_abandoned for t in report.tenants
    )
    p50 = float(np.percentile(responses, 50))
    p99 = float(np.percentile(responses, 99))
    miss_rate = (late + refused) / arrivals
    counts = [
        [
            t.name,
            t.num_arrivals,
            t.num_completed,
            t.num_rejected,
            t.num_denied,
            t.num_shed,
            t.num_abandoned,
        ]
        for t in report.tenants
    ]
    fleet_report = report.fleet
    fault_report = report.faults
    return Outcome(
        simulated={
            "tenants": counts,
            "p50_response_ms": repr(p50),
            "p99_response_ms": repr(p99),
            "miss_rate": repr(miss_rate),
        },
        sim={
            "sim.p50_response_ms": p50,
            "sim.p99_response_ms": p99,
            "sim.response_samples": float(responses.size),
            "sim.miss_rate": miss_rate,
            "sim.contended_share": (
                float(fleet_report.contended_share) if fleet_report is not None else 0.0
            ),
            "sim.lane_wait_ms": (
                float(fleet_report.total_wait_ms) if fleet_report is not None else 0.0
            ),
        },
        counters={
            "serving.denied": float(report.total_denied),
            "faults.lost_attempts": float(fault_report.lost_attempts if fault_report else 0),
            "faults.retried": float(fault_report.retried_requests if fault_report else 0),
            "faults.shed": float(report.total_shed),
            "obs.events": float(len(tracer.events)),
            "obs.export_mb": trace_path.stat().st_size / 1e6,
        },
        sim_requests=int(responses.size),
        sim_host_s=run_s,
        replay=replay,
        artifacts={"report": report, "analysis": attribution, "trace_path": trace_path,
                   "trace_events": len(tracer.events)},
    )


def _serve(shape: ServeShape):
    return (lambda seed: serve_setup(shape, seed)), serve_session, checks.check_serve


SERVE_FLEET = ServeShape(
    tenants=100,
    rate_rps=2.0,
    duration_s=300.0,
    engine="array",
    churn="churn:crashes=4,leaves=2,joins=2",
)
SERVE_CONTENDED = ServeShape(
    tenants=16,
    rate_rps=1.0,
    duration_s=120.0,
    policy={"discipline": "wfq", "admission": "predictive", "on_predicted_miss": "reject"},
    churn="churn:crashes=4,leaves=2,joins=2",
)
SERVE_MEMO = ServeShape(
    tenants=8,
    rate_rps=0.125,
    duration_s=1200.0,
    policy={"discipline": "fifo"},
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("plan-db", plan_setup, plan_session, checks.check_plan),
        Workload("serve-fleet", *_serve(SERVE_FLEET)),
        Workload("serve-contended", *_serve(SERVE_CONTENDED)),
        Workload("serve-memo", *_serve(SERVE_MEMO)),
    )
}
