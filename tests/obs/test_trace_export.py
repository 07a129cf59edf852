"""Streamed Chrome export: same JSON as the in-memory object, one shared sort.

:meth:`Tracer.write_chrome` streams compact JSON a chunk of records at a
time; :meth:`Tracer.to_chrome` builds the whole object.  Both read one
record generator, so the file must be ``json.loads``-equal to the object —
checked here on an empty tracer and on a churned, contended (``wfq``),
predictive-admission trace with lane spans, retries, denials and alert
instants.  The canonical sort is cached per event set; events added after
a read (alert instants, a report derived straight into ``events``) must
still show up in the next read.
"""

from __future__ import annotations

import json

import pytest

from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.obs import Tracer, trace_serving_report
from repro.obs import trace as trace_module
from repro.obs.analysis import analyze_chrome, analyze_serving
from repro.obs.slo import BurnRateRule, SLOMonitor
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.faults import RetryPolicy
from repro.runtime.plan import DistributionPlan
from repro.serving import SLO, ClusterPolicy, PoissonArrivals, ServingSimulator, TenantSpec

PROVENANCE = {"repro_version": "x", "argv": ["serve", "--trace-json"], "scenario": None}


@pytest.fixture(scope="module")
def traced_run():
    """Churn, wfq contention and predictive admission tight enough to deny."""
    model = model_zoo.small_vgg(64)
    devices = make_cluster([("nano", 70), ("nano", 70), ("tx2", 70), ("nano", 70)])
    network = NetworkModel.constant_from_devices(devices)
    tenants = [
        TenantSpec(
            "alpha",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(150.0, seed=3),
            slo=SLO(deadline_ms=6.0, target_miss_rate=0.05),
            weight=3.0,
        ),
        TenantSpec(
            "beta",
            DistributionPlan.single_device(model, devices, 0),
            traffic=PoissonArrivals(100.0, seed=4),
            slo=SLO(deadline_ms=8.0, target_miss_rate=0.05),
        ),
    ]
    policy = ClusterPolicy(
        discipline="wfq", admission="predictive", on_predicted_miss="reject", max_inflight=4
    )
    tracer = Tracer()
    report = ServingSimulator(BatchPlanEvaluator(devices, network)).run(
        tenants,
        duration_s=2.0,
        policy=policy,
        faults="churn:events=crash:0@120;leave:1@400;join:0@900",
        retry=RetryPolicy(max_attempts=3, backoff_ms=20.0, jitter_ms=5.0, seed=7),
        tracer=tracer,
    )
    # Analyze first, then alerts, then export: the order `repro serve
    # --alerts --trace-json` and the benchmark sessions use.
    analysis = analyze_serving(report, tracer)
    SLOMonitor(rules=(BurnRateRule("fast", 0.2, 0.5, 1.0),), tick_s=0.1).evaluate(
        report, tracer=tracer
    )
    return report, tracer, analysis


def _streamed(tracer, tmp_path, provenance=PROVENANCE):
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path), provenance=provenance)
    return path.read_text()


def _in_memory(tracer, provenance=PROVENANCE):
    return json.loads(json.dumps(tracer.to_chrome(provenance=provenance)))


class TestStreamedExport:
    def test_trace_covers_the_hard_cases(self, traced_run):
        _, tracer, _ = traced_run
        kinds = {(e.track.split(":")[0], e.kind, e.name) for e in tracer.events}
        assert ("lane", "lane", "compute") in kinds
        assert ("tenant", "fault", "retry") in kinds
        assert ("tenant", "admission", "deny") in kinds
        assert any(track == "control" and kind == "alert" for track, kind, _ in kinds)

    @pytest.mark.parametrize("chunk", [1, 7, 2048])
    def test_streamed_equals_in_memory(self, traced_run, tmp_path, monkeypatch, chunk):
        _, tracer, _ = traced_run
        # Small chunks put many encoder seams inside the record stream.
        monkeypatch.setattr(trace_module, "_EXPORT_CHUNK", chunk)
        assert json.loads(_streamed(tracer, tmp_path)) == _in_memory(tracer)

    def test_without_provenance(self, traced_run, tmp_path):
        _, tracer, _ = traced_run
        loaded = json.loads(_streamed(tracer, tmp_path, provenance=None))
        assert "provenance" not in loaded
        assert loaded == _in_memory(tracer, provenance=None)

    @pytest.mark.parametrize("provenance", [None, PROVENANCE])
    def test_empty_tracer(self, tmp_path, provenance):
        tracer = Tracer()
        loaded = json.loads(_streamed(tracer, tmp_path, provenance=provenance))
        assert loaded == _in_memory(tracer, provenance=provenance)
        assert loaded["traceEvents"] == []

    def test_file_is_compact(self, traced_run, tmp_path):
        _, tracer, _ = traced_run
        text = _streamed(tracer, tmp_path)
        assert text.endswith("}\n") and text.count("\n") == 1
        assert '", "' not in text and '": ' not in text

    def test_reimported_analysis_matches(self, traced_run, tmp_path):
        report, tracer, _ = traced_run
        streamed = analyze_chrome(json.loads(_streamed(tracer, tmp_path)))
        # Byte-identical to analysing the in-memory export.  (Against the
        # live tracer the microsecond round trip of timestamps can move a
        # ts-derived float by an ulp — see events_from_chrome — so the live
        # comparison is on the exactness anchors.)
        assert streamed.lines() == analyze_chrome(_in_memory(tracer)).lines()
        streamed.check_exact()
        live = analyze_serving(report, tracer)
        assert streamed.num_requests == live.num_requests
        for tenant in live.tenants:
            assert streamed.tenant(tenant.name).latency_ms == tenant.latency_ms


class TestSortCache:
    def test_instant_after_a_read_is_seen(self, traced_run):
        _, tracer, _ = traced_run
        # The fixture analyzed before the alert instants landed: the cached
        # sort from that read must not hide them.
        alerts = [e for e in tracer.sorted_events() if e.kind == "alert"]
        assert alerts
        assert len(tracer.sorted_events()) == len(tracer.events)
        tracer2 = Tracer()
        tracer2.instant(1.0, "t", "k", "first")
        assert [e.name for e in tracer2.sorted_events()] == ["first"]
        tracer2.instant(0.5, "t", "k", "second")
        assert [e.name for e in tracer2.sorted_events()] == ["second", "first"]
        assert tracer2.lines() == [e.to_line() for e in sorted(tracer2.events)]

    def test_direct_derivation_invalidates(self, traced_run):
        report = traced_run[0]
        tracer = Tracer()
        tracer.instant(0.0, "fleet", "fault", "crash")
        assert len(tracer.sorted_events()) == 1
        trace_serving_report(tracer, report)  # appends to tracer.events
        assert tracer.sorted_events() == sorted(tracer.events)
        derived = len(tracer.sorted_events())
        assert derived > 1
        tracer.defer_report(report)  # derives on the next read
        assert len(tracer.sorted_events()) == 2 * derived - 1

    def test_callers_get_a_copy(self):
        tracer = Tracer()
        tracer.instant(2.0, "t", "k", "late")
        tracer.instant(1.0, "t", "k", "early")
        tracer.sorted_events().reverse()  # same length: the count key cannot notice
        assert [e.name for e in tracer.sorted_events()] == ["early", "late"]
        assert tracer.lines() == [e.to_line() for e in sorted(tracer.events)]
