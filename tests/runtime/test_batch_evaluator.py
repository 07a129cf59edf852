"""Parity and caching tests for the batched plan-evaluation engine.

The batch evaluator's contract is stronger than "close enough": it mirrors
the scalar evaluator operation-for-operation, so every quantity it reports
must agree to 1e-9 — and in practice bit-exactly, which the routing of
DDPG/LC-PSS/OSDS through the batch path relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.profiler import LatencyProfiler
from repro.devices.profiles import (
    KNNProfile,
    LinearProfile,
    PiecewiseLinearProfile,
    TabularProfile,
)
from repro.devices.specs import make_cluster
from repro.experiments.scenarios import ScenarioCatalog, generate_scenario
from repro.network.topology import NetworkModel
from repro.nn import model_zoo
from repro.nn.splitting import SplitDecision
from repro.runtime.batch import BatchPlanEvaluator, network_state_signature
from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.oracles import MemoizedComputeOracle, ProfileComputeOracle, profiles_by_device
from repro.runtime.plan import DistributionPlan
from repro.utils.rng import as_rng

TOL = 1e-9


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


@pytest.fixture(scope="module")
def mixed_devices():
    return make_cluster([("xavier", 300), ("tx2", 200), ("nano", 100), ("pi3", 50)])


def random_plans(model, devices, boundaries, count, seed=7, drop_rate=0.3):
    """Random plans including occasional zero-row (non-participating) devices."""
    rng = as_rng(seed)
    volumes = model.partition(boundaries)
    n = len(devices)
    plans = []
    for _ in range(count):
        decisions = []
        for volume in volumes:
            fractions = rng.random(n)
            if rng.random() < drop_rate:
                fractions[int(rng.integers(n))] = 0.0
            decisions.append(SplitDecision.from_fractions(fractions, volume.output_height))
        plans.append(DistributionPlan(model, devices, boundaries, decisions))
    return plans


def assert_results_match(scalar_result, batch_result):
    """Every reported quantity agrees to 1e-9 (bit-exact in practice)."""
    assert batch_result.end_to_end_ms == pytest.approx(scalar_result.end_to_end_ms, abs=TOL)
    assert batch_result.scatter_end_ms == pytest.approx(scalar_result.scatter_end_ms, abs=TOL)
    assert batch_result.head_device == scalar_result.head_device
    assert batch_result.head_compute_ms == pytest.approx(scalar_result.head_compute_ms, abs=TOL)
    np.testing.assert_allclose(
        batch_result.per_device_compute_ms, scalar_result.per_device_compute_ms, atol=TOL
    )
    np.testing.assert_allclose(
        batch_result.per_device_send_ms, scalar_result.per_device_send_ms, atol=TOL
    )
    np.testing.assert_allclose(
        batch_result.per_device_recv_ms, scalar_result.per_device_recv_ms, atol=TOL
    )
    assert len(batch_result.volume_timings) == len(scalar_result.volume_timings)
    for vt_b, vt_s in zip(batch_result.volume_timings, scalar_result.volume_timings):
        np.testing.assert_allclose(vt_b.finish_ms, vt_s.finish_ms, atol=TOL)
        np.testing.assert_allclose(vt_b.ready_ms, vt_s.ready_ms, atol=TOL)
        np.testing.assert_allclose(vt_b.compute_ms, vt_s.compute_ms, atol=TOL)
        np.testing.assert_allclose(vt_b.recv_bytes, vt_s.recv_bytes, atol=TOL)


class TestParity:
    def test_ground_truth_parity_mixed_cluster(self, model, mixed_devices):
        network = NetworkModel.constant_from_devices(mixed_devices)
        scalar = PlanEvaluator(mixed_devices, network, memoize_compute=False)
        batch = BatchPlanEvaluator(mixed_devices, network)
        boundaries = [0, 3, 7, model.num_spatial_layers]
        plans = random_plans(model, mixed_devices, boundaries, 24)
        batch_results = batch.evaluate_plans(plans)
        for plan, batch_result in zip(plans, batch_results):
            assert_results_match(scalar.evaluate(plan), batch_result)

    def test_bit_exact_end_to_end(self, model, mixed_devices):
        """The stronger guarantee the OSDS routing relies on: bit equality."""
        network = NetworkModel.constant_from_devices(mixed_devices)
        scalar = PlanEvaluator(mixed_devices, network, memoize_compute=False)
        batch = BatchPlanEvaluator(mixed_devices, network)
        boundaries = [0, 5, model.num_spatial_layers]
        plans = random_plans(model, mixed_devices, boundaries, 16, seed=11)
        for plan, batch_result in zip(plans, batch.evaluate_plans(plans)):
            scalar_result = scalar.evaluate(plan)
            assert batch_result.end_to_end_ms == scalar_result.end_to_end_ms
            for vt_b, vt_s in zip(batch_result.volume_timings, scalar_result.volume_timings):
                assert np.array_equal(vt_b.finish_ms, vt_s.finish_ms)

    def test_parity_on_dynamic_network_at_nonzero_time(self, model, mixed_devices):
        # A hand-built dynamic trace plus the fleets and traces the scenario
        # builders produce (catalogue and generated).
        worlds = [
            (mixed_devices, NetworkModel.from_devices(mixed_devices, kind="dynamic", seed=3)),
            ScenarioCatalog.dynamic_nano().build(seed=0),
            generate_scenario(12, seed=5, trace_kind="dynamic").build(seed=0),
        ]
        boundaries = [0, 6, model.num_spatial_layers]
        for devices, network in worlds:
            scalar = PlanEvaluator(devices, network, memoize_compute=False)
            batch = BatchPlanEvaluator(devices, network)
            plans = random_plans(model, devices, boundaries, 8, seed=5)
            for t_seconds in (0.0, 17.25, 137.5):
                for plan, batch_result in zip(plans, batch.evaluate_plans(plans, t_seconds)):
                    assert_results_match(scalar.evaluate(plan, t_seconds), batch_result)

    def test_parity_without_dense_head(self, mixed_devices):
        """YOLOv2 has no FC head: outputs return directly to the requester."""
        yolo = model_zoo.yolov2(416)
        network = NetworkModel.constant_from_devices(mixed_devices)
        scalar = PlanEvaluator(mixed_devices, network, memoize_compute=False)
        batch = BatchPlanEvaluator(mixed_devices, network)
        boundaries = [0, 8, yolo.num_spatial_layers]
        plans = random_plans(yolo, mixed_devices, boundaries, 6, seed=2)
        for plan, batch_result in zip(plans, batch.evaluate_plans(plans)):
            assert batch_result.head_device is None
            assert_results_match(scalar.evaluate(plan), batch_result)

    def test_parity_with_profile_oracle(self, model, mixed_devices):
        """The generic (non-vectorised) compute path must agree too."""
        per_type = {}
        for device in mixed_devices:
            if device.type_name not in per_type:
                points = LatencyProfiler(device.dtype, seed=0).profile_model(
                    model, heights_per_layer=8
                )
                per_type[device.type_name] = TabularProfile.from_points(points)
        profiles = profiles_by_device(mixed_devices, per_type)
        network = NetworkModel.constant_from_devices(mixed_devices)
        scalar = PlanEvaluator(
            mixed_devices,
            network,
            compute_oracle=ProfileComputeOracle(mixed_devices, profiles),
            memoize_compute=False,
        )
        batch = BatchPlanEvaluator(
            mixed_devices, network, compute_oracle=ProfileComputeOracle(mixed_devices, profiles)
        )
        boundaries = [0, 4, model.num_spatial_layers]
        plans = random_plans(model, mixed_devices, boundaries, 8)
        for plan, batch_result in zip(plans, batch.evaluate_plans(plans)):
            assert_results_match(scalar.evaluate(plan), batch_result)

    @pytest.mark.parametrize(
        "representation",
        [TabularProfile, LinearProfile, PiecewiseLinearProfile, KNNProfile],
    )
    def test_profile_oracle_bit_exact_per_representation(
        self, model, mixed_devices, representation
    ):
        """The vectorised profile sweep (one array lookup per layer and
        shared profile) must be *bit*-exact for every representation."""
        per_type = {}
        for device in mixed_devices:
            if device.type_name not in per_type:
                points = LatencyProfiler(device.dtype, seed=0).profile_model(
                    model, heights_per_layer=8
                )
                per_type[device.type_name] = representation.from_points(points)
        profiles = profiles_by_device(mixed_devices, per_type)
        network = NetworkModel.constant_from_devices(mixed_devices)
        scalar = PlanEvaluator(
            mixed_devices,
            network,
            compute_oracle=ProfileComputeOracle(mixed_devices, profiles),
            memoize_compute=False,
        )
        batch = BatchPlanEvaluator(
            mixed_devices, network, compute_oracle=ProfileComputeOracle(mixed_devices, profiles)
        )
        boundaries = [0, 4, model.num_spatial_layers]
        plans = random_plans(model, mixed_devices, boundaries, 12, seed=17)
        for plan, batch_result in zip(plans, batch.evaluate_plans(plans)):
            scalar_result = scalar.evaluate(plan)
            assert batch_result.end_to_end_ms == scalar_result.end_to_end_ms
            np.testing.assert_array_equal(
                batch_result.per_device_compute_ms, scalar_result.per_device_compute_ms
            )

    def test_partial_profile_tolerated_for_idle_devices(self, model):
        """Regression: the vectorised sweep must not query a profile for a
        layer none of its devices compute — a partial profile that the scalar
        path tolerates (device always assigned 0 rows) must evaluate too."""
        devices = make_cluster([("xavier", 300), ("tx2", 200), ("pi3", 50)])
        per_type = {}
        for device in devices:
            if device.type_name not in per_type:
                points = LatencyProfiler(device.dtype, seed=0).profile_model(
                    model, heights_per_layer=8
                )
                if device.type_name == "pi3":
                    # The pi3 profile covers only the first layer.
                    first = next(iter(points))
                    points = {first: points[first]}
                per_type[device.type_name] = TabularProfile.from_points(points)
        profiles = profiles_by_device(devices, per_type)
        network = NetworkModel.constant_from_devices(devices)
        scalar = PlanEvaluator(
            devices,
            network,
            compute_oracle=ProfileComputeOracle(devices, profiles),
            memoize_compute=False,
        )
        batch = BatchPlanEvaluator(
            devices, network, compute_oracle=ProfileComputeOracle(devices, profiles)
        )
        boundaries = [0, model.num_spatial_layers]
        rng = as_rng(25)
        volumes = model.partition(boundaries)
        plans = []
        for _ in range(4):
            decisions = [
                SplitDecision.from_fractions(
                    [float(rng.random()), float(rng.random()), 0.0], v.output_height
                )
                for v in volumes
            ]
            plans.append(DistributionPlan(model, devices, boundaries, decisions))
        for plan, batch_result in zip(plans, batch.evaluate_plans(plans)):
            assert batch_result.end_to_end_ms == scalar.evaluate(plan).end_to_end_ms

    def test_profile_memo_seeded_by_batch_path(self, model, mixed_devices):
        """The vectorised profile sweep pre-pays the stepping path's memo."""
        per_type = {}
        for device in mixed_devices:
            if device.type_name not in per_type:
                points = LatencyProfiler(device.dtype, seed=0).profile_model(
                    model, heights_per_layer=8
                )
                per_type[device.type_name] = TabularProfile.from_points(points)
        profiles = profiles_by_device(mixed_devices, per_type)
        network = NetworkModel.constant_from_devices(mixed_devices)
        batch = BatchPlanEvaluator(
            mixed_devices, network, compute_oracle=ProfileComputeOracle(mixed_devices, profiles)
        )
        boundaries = [0, 5, model.num_spatial_layers]
        plans = random_plans(model, mixed_devices, boundaries, 6, seed=9)
        batch_results = batch.evaluate_plans(plans)
        stepping = PlanEvaluator(mixed_devices, network, compute_oracle=batch.oracle)
        misses_before = batch.oracle.cache_info()["misses"]
        for plan, batch_result in zip(plans, batch_results):
            assert stepping.evaluate(plan).end_to_end_ms == batch_result.end_to_end_ms
        assert batch.oracle.cache_info()["misses"] == misses_before

    def test_mixed_groups_in_one_batch(self, model, mixed_devices):
        """Plans with different models/partitions may share one batch call."""
        yolo = model_zoo.yolov2(416)
        network = NetworkModel.constant_from_devices(mixed_devices)
        scalar = PlanEvaluator(mixed_devices, network, memoize_compute=False)
        batch = BatchPlanEvaluator(mixed_devices, network)
        plans = (
            random_plans(model, mixed_devices, [0, 5, model.num_spatial_layers], 4, seed=1)
            + random_plans(yolo, mixed_devices, [0, yolo.num_spatial_layers], 3, seed=2)
            + random_plans(model, mixed_devices, [0, model.num_spatial_layers], 3, seed=3)
        )
        for plan, batch_result in zip(plans, batch.evaluate_plans(plans)):
            assert_results_match(scalar.evaluate(plan), batch_result)

    def test_single_device_offload_plans(self, model, mixed_devices):
        network = NetworkModel.constant_from_devices(mixed_devices)
        scalar = PlanEvaluator(mixed_devices, network, memoize_compute=False)
        batch = BatchPlanEvaluator(mixed_devices, network)
        plans = [
            DistributionPlan.single_device(model, mixed_devices, idx)
            for idx in range(len(mixed_devices))
        ]
        for plan, batch_result in zip(plans, batch.evaluate_plans(plans)):
            assert_results_match(scalar.evaluate(plan), batch_result)

    def test_memo_replay_matches_batch(self, model, mixed_devices):
        """Stepping through a memo seeded by the batch engine is bit-exact."""
        network = NetworkModel.constant_from_devices(mixed_devices)
        batch = BatchPlanEvaluator(mixed_devices, network)
        boundaries = [0, 5, model.num_spatial_layers]
        plans = random_plans(model, mixed_devices, boundaries, 6, seed=9)
        batch_results = batch.evaluate_plans(plans)
        # Scalar stepping through the evaluator's (now seeded) memoized oracle.
        stepping = PlanEvaluator(mixed_devices, network, compute_oracle=batch.oracle)
        for plan, batch_result in zip(plans, batch_results):
            assert stepping.evaluate(plan).end_to_end_ms == batch_result.end_to_end_ms


class TestPlanCache:
    def test_repeat_evaluation_hits(self, model, mixed_devices):
        network = NetworkModel.constant_from_devices(mixed_devices)
        batch = BatchPlanEvaluator(mixed_devices, network)
        plans = random_plans(model, mixed_devices, [0, model.num_spatial_layers], 5)
        first = batch.evaluate_plans(plans)
        hits_after_first = batch.cache_info()["hits"]
        second = batch.evaluate_plans(plans)
        assert batch.cache_info()["hits"] == hits_after_first + len(plans)
        for a, b in zip(first, second):
            assert a.end_to_end_ms == b.end_to_end_ms

    def test_structurally_equal_plans_share_entries(self, model, mixed_devices):
        """A rebuilt plan with the same decisions is a cache hit."""
        network = NetworkModel.constant_from_devices(mixed_devices)
        batch = BatchPlanEvaluator(mixed_devices, network)
        boundaries = [0, model.num_spatial_layers]
        (plan,) = random_plans(model, mixed_devices, boundaries, 1)
        rebuilt = DistributionPlan(
            model, mixed_devices, boundaries, plan.decisions, head_device=plan.head_device
        )
        batch.evaluate(plan)
        misses = batch.cache_info()["misses"]
        batch.evaluate(rebuilt)
        assert batch.cache_info()["misses"] == misses
        assert batch.cache_info()["hits"] >= 1

    def test_time_reuse_on_constant_network_only(self, model, mixed_devices):
        constant = NetworkModel.constant_from_devices(mixed_devices)
        dynamic = NetworkModel.from_devices(mixed_devices, kind="dynamic", seed=4)
        (plan,) = random_plans(model, mixed_devices, [0, model.num_spatial_layers], 1)
        batch_constant = BatchPlanEvaluator(mixed_devices, constant)
        batch_constant.evaluate(plan, t_seconds=0.0)
        batch_constant.evaluate(plan, t_seconds=500.0)
        assert batch_constant.cache_info()["hits"] == 1  # same network state
        # On a dynamic trace the state signature differs, so no stale reuse.
        assert network_state_signature(dynamic, 0.0) != network_state_signature(dynamic, 500.0)
        batch_dynamic = BatchPlanEvaluator(mixed_devices, dynamic)
        r0 = batch_dynamic.evaluate(plan, t_seconds=0.0)
        r1 = batch_dynamic.evaluate(plan, t_seconds=500.0)
        assert batch_dynamic.cache_info()["hits"] == 0
        assert r0.end_to_end_ms != r1.end_to_end_ms

    def test_method_label_patched_on_hit(self, model, mixed_devices):
        network = NetworkModel.constant_from_devices(mixed_devices)
        batch = BatchPlanEvaluator(mixed_devices, network)
        plan_a = DistributionPlan.single_device(model, mixed_devices, 0, method="offload")
        plan_b = DistributionPlan.single_device(model, mixed_devices, 0, method="renamed")
        result_a = batch.evaluate(plan_a)
        result_b = batch.evaluate(plan_b)
        assert batch.cache_info()["hits"] >= 1
        assert result_a.method == "offload"
        assert result_b.method == "renamed"
        assert result_a.end_to_end_ms == result_b.end_to_end_ms

    def test_duplicate_plans_within_one_batch(self, model, mixed_devices):
        network = NetworkModel.constant_from_devices(mixed_devices)
        batch = BatchPlanEvaluator(mixed_devices, network)
        (plan,) = random_plans(model, mixed_devices, [0, model.num_spatial_layers], 1)
        results = batch.evaluate_plans([plan, plan, plan])
        assert len({r.end_to_end_ms for r in results}) == 1

    def test_duplicates_survive_lru_eviction_mid_batch(self, model, mixed_devices):
        """Regression: a duplicate must resolve even if the LRU already
        evicted its entry by the end of the call (cache smaller than batch)."""
        network = NetworkModel.constant_from_devices(mixed_devices)
        batch = BatchPlanEvaluator(mixed_devices, network, cache_size=1)
        boundaries = [0, 5, model.num_spatial_layers]
        plan_a, plan_b = random_plans(model, mixed_devices, boundaries, 2, seed=21)
        results = batch.evaluate_plans([plan_a, plan_b, plan_a])
        assert results[0].end_to_end_ms == results[2].end_to_end_ms
        reference = BatchPlanEvaluator(mixed_devices, network).evaluate(plan_b)
        assert results[1].end_to_end_ms == reference.end_to_end_ms

    def test_plan_signature_structure(self, model, mixed_devices):
        (plan,) = random_plans(model, mixed_devices, [0, 5, model.num_spatial_layers], 1)
        boundaries, cuts, head = plan.signature
        assert boundaries == tuple(plan.boundaries)
        assert len(cuts) == plan.num_volumes
        assert head == plan.head_device

    def test_device_count_mismatch_rejected(self, model, mixed_devices):
        network = NetworkModel.constant_from_devices(mixed_devices)
        batch = BatchPlanEvaluator(mixed_devices, network)
        duo = make_cluster([("xavier", 200), ("nano", 200)])
        plan = DistributionPlan.single_device(model, duo, 0)
        with pytest.raises(ValueError, match="devices"):
            batch.evaluate_plans([plan])


class TestMemoizedComputeOracle:
    def test_hits_across_equal_volumes(self, model, mixed_devices):
        network = NetworkModel.constant_from_devices(mixed_devices)
        evaluator = PlanEvaluator(mixed_devices, network)
        assert isinstance(evaluator.oracle, MemoizedComputeOracle)
        boundaries = [0, model.num_spatial_layers]
        (plan,) = random_plans(model, mixed_devices, boundaries, 1)
        evaluator.evaluate(plan)
        misses = evaluator.oracle.cache_info()["misses"]
        # A structurally identical plan re-partitions the model into *new*
        # volume objects; the structural keys must still hit.
        rebuilt = DistributionPlan(model, mixed_devices, boundaries, plan.decisions)
        evaluator.evaluate(rebuilt)
        assert evaluator.oracle.cache_info()["misses"] == misses

    def test_memoized_values_are_identical(self, model, mixed_devices):
        network = NetworkModel.constant_from_devices(mixed_devices)
        plain = PlanEvaluator(mixed_devices, network, memoize_compute=False)
        memoized = PlanEvaluator(mixed_devices, network)
        boundaries = [0, 4, model.num_spatial_layers]
        for plan in random_plans(model, mixed_devices, boundaries, 6, seed=13):
            assert memoized.evaluate(plan).end_to_end_ms == plain.evaluate(plan).end_to_end_ms
