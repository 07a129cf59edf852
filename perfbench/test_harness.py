"""Tests of the benchmark's own harness (not of the program it measures)."""

from __future__ import annotations

import types

import numpy as np
import pytest

from layers import LayerTracer, Target, repro_targets


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = LayerTracer([], clock=clock)
    outer = tracer.enter("serving.run")
    clock.now += 1.0
    inner = tracer.enter("runtime.contention_predict")
    clock.now += 2.0
    innermost = tracer.enter("runtime.fleet_commit")
    clock.now += 4.0
    tracer.exit(innermost)
    clock.now += 8.0
    tracer.exit(inner)
    sibling = tracer.enter("obs.derive")
    clock.now += 16.0
    tracer.exit(sibling)
    clock.now += 32.0
    tracer.exit(outer)

    assert tracer.stats("serving.run").incl_s == 63.0
    assert tracer.stats("serving.run").self_s == 1.0 + 32.0
    assert tracer.stats("runtime.contention_predict").incl_s == 14.0
    assert tracer.stats("runtime.contention_predict").self_s == 10.0
    assert tracer.stats("runtime.fleet_commit").self_s == 4.0
    assert tracer.stats("obs.derive").self_s == 16.0
    assert tracer.self_total_s == 63.0
    # Nested spans of one layer count once in its inclusive time.
    assert tracer.layer_incl_s["runtime"] == 14.0
    assert tracer.layer_self_s["runtime"] == 14.0
    assert tracer.layer_calls["runtime"] == 1


def test_recursive_span_counts_once():
    clock = FakeClock()
    tracer = LayerTracer([], clock=clock)
    outer = tracer.enter("baselines.plan")
    clock.now += 1.0
    inner = tracer.enter("baselines.plan")
    clock.now += 2.0
    tracer.exit(inner)
    tracer.exit(outer)
    stats = tracer.stats("baselines.plan")
    assert (stats.calls, stats.incl_s, stats.self_s) == (1, 3.0, 3.0)


class Base:
    def plan(self):
        return "base"


class Child(Base):
    def evaluate(self, x):
        return x * 2


def test_wrappers_are_removed_on_exit_even_after_an_error():
    module = types.ModuleType("fake")
    module.analyze = lambda events: len(events)
    before = dict(vars(Child)), module.analyze, dict(vars(Base))
    targets = [
        Target(Child, "evaluate", "runtime.batch_eval"),
        Target(Child, "plan", "baselines.plan"),  # inherited from Base
        Target(module, "analyze", "obs.analyze"),
    ]
    with pytest.raises(RuntimeError):
        with LayerTracer(targets) as tracer:
            assert Child().evaluate(3) == 6
            assert Child().plan() == "base"
            assert module.analyze([1, 2]) == 2
            raise RuntimeError("session failed")
    assert dict(vars(Child)) == before[0]
    assert module.analyze is before[1]
    assert dict(vars(Base)) == before[2]
    assert "plan" not in vars(Child)
    assert tracer.stats("runtime.batch_eval").calls == 1
    assert tracer.stats("obs.analyze").calls == 1


def test_program_functions_are_restored_before_untraced_runs():
    targets = repro_targets()
    originals = [(t.owner, t.attr, vars(t.owner).get(t.attr)) for t in targets]
    with LayerTracer(targets):
        assert all(vars(owner).get(attr) is not fn for owner, attr, fn in originals)
    for owner, attr, fn in originals:
        assert vars(owner).get(attr) is fn, f"{owner!r}.{attr} still wrapped"


def test_counter_classifies_calls_that_leave_it_unchanged_as_misses():
    class Memo:
        hits = 0

        def predict(self, hit):
            if hit:
                self.hits += 1

    target = Target(Memo, "predict", "runtime.contention_predict", counter=lambda m: m.hits)
    with LayerTracer([target]) as tracer:
        memo = Memo()
        for hit in (True, False, True, False, False):
            memo.predict(hit)
    stats = tracer.stats("runtime.contention_predict")
    assert stats.calls == 5
    assert len(stats.miss_durations_s) == 3


def test_seed_changes_arrivals_but_not_the_fleet_or_churn():
    import workloads

    a = workloads.serve_setup(workloads.SERVE_CONTENDED, seed=1)
    b = workloads.serve_setup(workloads.SERVE_CONTENDED, seed=2)
    assert [d.type_name for d in a.devices] == [d.type_name for d in b.devices]
    assert [a.network.nominal_mbps(i) for i in range(len(a.devices))] == [
        b.network.nominal_mbps(i) for i in range(len(b.devices))
    ]
    assert [t.plan.boundaries for t in a.tenants] == [t.plan.boundaries for t in b.tenants]
    horizon = workloads.SERVE_CONTENDED.duration_s
    for ta, tb in zip(a.tenants, b.tenants):
        arrivals_a = ta.traffic.arrival_times(horizon)
        assert np.array_equal(arrivals_a, ta.traffic.arrival_times(horizon))
        assert not np.array_equal(arrivals_a, tb.traffic.arrival_times(horizon))
    # The churn schedule is part of the fixed world; only retry jitter follows the seed.
    assert a.fault_trace.events == b.fault_trace.events
    assert a.retry.seed != b.retry.seed

    plan_a, plan_b = workloads.plan_setup(1), workloads.plan_setup(2)
    assert [d.type_name for d in plan_a.devices] == [d.type_name for d in plan_b.devices]
    assert {m: p.boundaries for m, p in plan_a.baselines.items()} == {
        m: p.boundaries for m, p in plan_b.baselines.items()
    }


def test_untraced_session_after_a_traced_one_runs_the_program_unwrapped(tmp_path):
    import run
    import workloads
    from repro.experiments.scenarios import Scenario

    original_build = vars(Scenario)["build"]
    seen = []

    def session(prepared, out_dir):
        seen.append(vars(Scenario)["build"] is original_build)
        prepared.build()
        return workloads.Outcome(
            {"seed": 1}, {}, {}, sim_requests=1, sim_host_s=1.0, replay=lambda: (1, 1.0)
        )

    stub = workloads.Workload(
        "stub", lambda seed: Scenario.adhoc([("nano", 300.0)]), session, lambda _: []
    )
    traced, _ = run.run_rep(stub, 1, tmp_path / "traced", traced=True)
    untraced, _ = run.run_rep(stub, 1, tmp_path / "untraced", traced=False)
    assert seen == [False, True]
    assert vars(Scenario)["build"] is original_build
    assert traced.tracer.stats("experiments.scenario_build").calls == 1
    assert untraced.tracer is None
    assert traced.digest == untraced.digest
