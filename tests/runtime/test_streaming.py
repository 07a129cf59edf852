"""Tests for the image-stream simulator (IPS protocol)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.specs import make_cluster
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.nn.splitting import SplitDecision
from repro.runtime.batch import BatchPlanEvaluator
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.plan import DistributionPlan
from repro.runtime.streaming import StreamingSimulator


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


@pytest.fixture()
def setup(model):
    devices = make_cluster([("nano", 100), ("nano", 100)])
    network = NetworkModel.constant_from_devices(devices)
    evaluator = PlanEvaluator(devices, network)
    plan = DistributionPlan.single_device(model, devices, 0)
    return devices, network, evaluator, plan


class TestStreaming:
    def test_ips_matches_single_image_latency_on_constant_network(self, setup):
        _, _, evaluator, plan = setup
        sim = StreamingSimulator(evaluator)
        result = sim.run(plan, num_images=20)
        single = evaluator.evaluate(plan)
        assert result.num_images == 20
        assert result.mean_latency_ms == pytest.approx(single.end_to_end_ms, rel=1e-6)
        assert result.ips == pytest.approx(single.ips, rel=1e-3)

    def test_time_advances_between_images(self, setup):
        _, _, evaluator, plan = setup
        result = StreamingSimulator(evaluator).run(plan, num_images=5)
        assert np.all(np.diff(result.image_start_s) > 0)

    def test_extra_gap_reduces_throughput(self, setup):
        _, _, evaluator, plan = setup
        tight = StreamingSimulator(evaluator).run(plan, num_images=10)
        spaced = StreamingSimulator(evaluator, extra_gap_ms=100.0).run(plan, num_images=10)
        assert spaced.ips < tight.ips
        # Per-image latency is unchanged; only the pacing differs.
        assert spaced.mean_latency_ms == pytest.approx(tight.mean_latency_ms)

    def test_max_duration_truncates(self, setup):
        _, _, evaluator, plan = setup
        result = StreamingSimulator(evaluator).run_duration(plan, duration_s=1.0)
        assert result.total_time_s >= 1.0
        assert result.num_images < 100_000

    def test_adaptation_hook_swaps_plan(self, model):
        devices = make_cluster([("xavier", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        evaluator = PlanEvaluator(devices, network)
        slow_plan = DistributionPlan.single_device(model, devices, 1, method="slow")
        fast_plan = DistributionPlan.single_device(model, devices, 0, method="fast")

        def hook(t, index, current, history):
            return fast_plan if index == 3 else None

        result = StreamingSimulator(evaluator).run(slow_plan, num_images=6, adaptation_hook=hook)
        assert result.method == "fast"
        assert result.per_image_latency_ms[0] > result.per_image_latency_ms[-1]

    def test_replan_counts_content_not_identity(self, model):
        """Equal-but-reconstructed hook plans must not pollute replan_times_s.

        The simulator historically compared ``replacement is not
        current_plan``: a controller rebuilding an identical plan every image
        logged a "replan" per image.  Replans are now counted by strategy
        content (:meth:`DistributionPlan.same_strategy`)."""
        devices = make_cluster([("nano", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        evaluator = PlanEvaluator(devices, network)
        plan = DistributionPlan.single_device(model, devices, 0)

        def rebuilding_hook(t, index, current, history):
            # Same strategy, freshly constructed object each image.
            return DistributionPlan.single_device(model, devices, 0)

        result = StreamingSimulator(evaluator).run(
            plan, num_images=5, adaptation_hook=rebuilding_hook
        )
        assert result.replan_times_s == []

        def switching_hook(t, index, current, history):
            return DistributionPlan.single_device(model, devices, 1) if index == 2 else None

        result = StreamingSimulator(evaluator).run(
            plan, num_images=5, adaptation_hook=switching_hook
        )
        # One genuine strategy change, logged once.
        assert len(result.replan_times_s) == 1

    def test_latency_series_shape(self, setup):
        _, _, evaluator, plan = setup
        result = StreamingSimulator(evaluator).run(plan, num_images=4)
        series = result.latency_series()
        assert series.shape == (4, 2)

    def test_p95_at_least_mean_for_varying_latencies(self, model):
        devices = make_cluster([("nano", 70)] * 2)
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=0)
        evaluator = PlanEvaluator(devices, network)
        boundaries = [0, 6, model.num_spatial_layers]
        volumes = model.partition(boundaries)
        plan = DistributionPlan(
            model, devices, boundaries,
            [SplitDecision.equal(2, v.output_height) for v in volumes],
        )
        result = StreamingSimulator(evaluator, extra_gap_ms=2000.0).run_duration(
            plan, duration_s=120.0
        )
        assert result.p95_latency_ms >= result.mean_latency_ms

    def test_invalid_arguments(self, setup):
        _, _, evaluator, plan = setup
        with pytest.raises(ValueError):
            StreamingSimulator(evaluator, extra_gap_ms=-1)
        with pytest.raises(ValueError):
            StreamingSimulator(evaluator).run(plan, num_images=0)
        with pytest.raises(ValueError):
            StreamingSimulator(evaluator).run_duration(plan, duration_s=0)


def _assert_results_identical(fast, reference):
    """Bit-for-bit equality of two :class:`StreamingResult` objects."""
    for name in ("per_image_latency_ms", "image_start_s"):
        a, b = getattr(fast, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert fast.total_time_s == reference.total_time_s
    assert fast.method == reference.method
    assert fast.replan_times_s == reference.replan_times_s


class TestArrayEngineStreaming:
    """A batch evaluator streams through the array engine, bit-identical to
    the per-image reference loop a scalar evaluator runs."""

    @staticmethod
    def _both(devices, network, run):
        fast = run(StreamingSimulator(BatchPlanEvaluator(devices, network)))
        reference = run(StreamingSimulator(PlanEvaluator(devices, network)))
        _assert_results_identical(fast, reference)
        return fast

    @staticmethod
    def _split_plan(model, devices):
        boundaries = [0, 6, model.num_spatial_layers]
        volumes = model.partition(boundaries)
        return DistributionPlan(
            model, devices, boundaries,
            [SplitDecision.equal(len(devices), v.output_height) for v in volumes],
        )

    def test_batch_evaluator_skips_the_reference_loop(self, model, monkeypatch):
        from repro.serving.simulator import ServingSimulator

        def refuse(*args, **kwargs):
            raise AssertionError("streamed through the reference loop")

        monkeypatch.setattr(ServingSimulator, "_run_reference", refuse)
        devices = make_cluster([("nano", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        plan = DistributionPlan.single_device(model, devices, 0)
        result = StreamingSimulator(BatchPlanEvaluator(devices, network)).run(plan, num_images=5)
        assert result.num_images == 5
        with pytest.raises(AssertionError, match="reference loop"):
            StreamingSimulator(PlanEvaluator(devices, network)).run(plan, num_images=5)

    def test_constant_network(self, model):
        devices = make_cluster([("xavier", 100), ("nano", 100)])
        network = NetworkModel.constant_from_devices(devices)
        plan = self._split_plan(model, devices)
        result = self._both(
            devices, network, lambda sim: sim.run(plan, num_images=200, start_time_s=1.5)
        )
        assert result.num_images == 200

    def test_dynamic_trace_with_gap(self, model):
        devices = make_cluster([("nano", 70)] * 2)
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=0)
        plan = self._split_plan(model, devices)
        result = self._both(
            devices, network, lambda sim: StreamingSimulator(
                sim.evaluator, extra_gap_ms=250.0
            ).run(plan, num_images=300)
        )
        assert np.unique(result.per_image_latency_ms).size > 1

    def test_max_duration(self, model):
        devices = make_cluster([("nano", 70)] * 2)
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=1)
        plan = self._split_plan(model, devices)
        result = self._both(
            devices, network, lambda sim: sim.run_duration(plan, duration_s=20.0)
        )
        assert result.total_time_s >= 20.0

    def test_adaptation_hook(self, model):
        devices = make_cluster([("xavier", 100), ("nano", 100)])
        network = NetworkModel.from_devices(devices, kind="dynamic", seed=2)
        plans = [
            DistributionPlan.single_device(model, devices, 1, method="slow"),
            DistributionPlan.single_device(model, devices, 0, method="fast"),
            self._split_plan(model, devices),
        ]

        def hook(t, index, current, history):
            # Depends on the clock, the image index and the latency history,
            # so both loops must call it with the same arguments.
            if index and index % 7 == 0:
                return plans[(index + len(history) + int(t)) % len(plans)]
            return None

        result = self._both(
            devices, network,
            lambda sim: sim.run(plans[0], num_images=60, adaptation_hook=hook),
        )
        assert result.replan_times_s
