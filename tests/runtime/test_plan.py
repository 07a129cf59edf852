"""Tests for DistributionPlan and the redistribution arithmetic."""

from __future__ import annotations

import pytest

from repro.nn import model_zoo
from repro.nn.splitting import SplitDecision, split_volume
from repro.runtime.plan import DistributionPlan, redistribution_bytes, scatter_bytes
from repro.utils.units import FP16_BYTES


@pytest.fixture(scope="module")
def model():
    return model_zoo.small_vgg(64)


def equal_plan(model, devices, boundaries=None):
    boundaries = boundaries or [0, 4, 8, model.num_spatial_layers]
    volumes = model.partition(boundaries)
    decisions = [SplitDecision.equal(len(devices), v.output_height) for v in volumes]
    return DistributionPlan(model, devices, boundaries, decisions, method="equal")


class TestRedistributionBytes:
    def test_no_transfer_when_aligned_single_device(self, model):
        volume_a = model.volume(0, 2)
        volume_b = model.volume(2, 4)
        prev = split_volume(volume_a, SplitDecision.single_device(0, 2, volume_a.output_height))
        cur = split_volume(volume_b, SplitDecision.single_device(0, 2, volume_b.output_height))
        row_bytes = volume_b.first.in_w * volume_b.first.in_c * FP16_BYTES
        assert redistribution_bytes(prev, cur, row_bytes) == {}

    def test_full_move_when_device_changes(self, model):
        volume_a = model.volume(0, 2)
        volume_b = model.volume(2, 4)
        prev = split_volume(volume_a, SplitDecision.single_device(0, 2, volume_a.output_height))
        cur = split_volume(volume_b, SplitDecision.single_device(1, 2, volume_b.output_height))
        row_bytes = volume_b.first.in_w * volume_b.first.in_c * FP16_BYTES
        transfers = redistribution_bytes(prev, cur, row_bytes)
        assert list(transfers) == [(0, 1)]
        assert transfers[(0, 1)] == volume_b.first.in_h * row_bytes

    def test_halo_only_when_splits_aligned(self, model):
        """With identical fractions, only the halo rows cross the network."""
        volume_a = model.volume(0, 2)
        volume_b = model.volume(2, 4)
        d_prev = SplitDecision.equal(2, volume_a.output_height)
        d_cur = SplitDecision.equal(2, volume_b.output_height)
        prev = split_volume(volume_a, d_prev)
        cur = split_volume(volume_b, d_cur)
        row_bytes = volume_b.first.in_w * volume_b.first.in_c * FP16_BYTES
        transfers = redistribution_bytes(prev, cur, row_bytes)
        total_rows = sum(v // row_bytes for v in transfers.values())
        # Halo is a handful of rows, far less than the full tensor height.
        assert 0 < total_rows <= 6

    def test_empty_parts_send_and_receive_nothing(self, model):
        volume_a = model.volume(0, 2)
        volume_b = model.volume(2, 4)
        prev = split_volume(volume_a, SplitDecision.from_fractions([1, 0], volume_a.output_height))
        cur = split_volume(volume_b, SplitDecision.from_fractions([1, 0], volume_b.output_height))
        row_bytes = volume_b.first.in_w * volume_b.first.in_c * FP16_BYTES
        transfers = redistribution_bytes(prev, cur, row_bytes)
        assert all(src != 1 and dst != 1 for src, dst in transfers)

    def test_scatter_bytes_counts_only_non_empty(self, model):
        volume = model.volume(0, 2)
        parts = split_volume(volume, SplitDecision.from_fractions([1, 0, 1], volume.output_height))
        assert scatter_bytes(parts) == sum(p.input_bytes for p in parts if not p.is_empty)


class TestDistributionPlan:
    def test_valid_plan_construction(self, model, hetero_cluster):
        plan = equal_plan(model, hetero_cluster)
        assert plan.num_volumes == 3
        assert plan.num_devices == 4

    def test_decision_count_mismatch(self, model, hetero_cluster):
        boundaries = [0, 4, model.num_spatial_layers]
        volumes = model.partition(boundaries)
        decisions = [SplitDecision.equal(4, volumes[0].output_height)]
        with pytest.raises(ValueError):
            DistributionPlan(model, hetero_cluster, boundaries, decisions)

    def test_decision_device_count_mismatch(self, model, hetero_cluster):
        boundaries = [0, model.num_spatial_layers]
        volumes = model.partition(boundaries)
        decisions = [SplitDecision.equal(2, volumes[0].output_height)]
        with pytest.raises(ValueError):
            DistributionPlan(model, hetero_cluster, boundaries, decisions)

    def test_decision_height_mismatch(self, model, hetero_cluster):
        boundaries = [0, model.num_spatial_layers]
        decisions = [SplitDecision.equal(4, 999)]
        with pytest.raises(ValueError):
            DistributionPlan(model, hetero_cluster, boundaries, decisions)

    def test_default_head_device_largest_share(self, model, hetero_cluster):
        boundaries = [0, model.num_spatial_layers]
        volume = model.partition(boundaries)[0]
        decisions = [SplitDecision.from_fractions([0.1, 0.6, 0.2, 0.1], volume.output_height)]
        plan = DistributionPlan(model, hetero_cluster, boundaries, decisions)
        assert plan.head_device == 1

    def test_head_device_out_of_range(self, model, hetero_cluster):
        boundaries = [0, model.num_spatial_layers]
        volume = model.partition(boundaries)[0]
        decisions = [SplitDecision.equal(4, volume.output_height)]
        with pytest.raises(ValueError):
            DistributionPlan(model, hetero_cluster, boundaries, decisions, head_device=9)

    def test_single_device_plan(self, model, hetero_cluster):
        plan = DistributionPlan.single_device(model, hetero_cluster, 2)
        assert plan.num_volumes == 1
        rows = plan.assignment(0).decision.rows_per_device()
        assert rows[2] > 0 and sum(rows) == rows[2]
        assert plan.head_device == 2

    def test_total_macs_includes_recomputation(self, model, hetero_cluster):
        plan = equal_plan(model, hetero_cluster)
        assert plan.total_macs() >= model.total_macs
        assert plan.recomputation_overhead() >= 0.0

    def test_single_device_has_no_recomputation(self, model, hetero_cluster):
        plan = DistributionPlan.single_device(model, hetero_cluster, 0)
        assert plan.recomputation_overhead() == pytest.approx(0.0)

    def test_total_transmission_single_device(self, model, hetero_cluster):
        plan = DistributionPlan.single_device(model, hetero_cluster, 0)
        expected = model.input_bytes + model.head_layers[-1].output_bytes
        assert plan.total_transmission_bytes() == expected

    def test_layer_by_layer_transmits_more_than_fused(self, hetero_cluster):
        """Finer partitions pay more boundary traffic (paper's motivation for
        fusing layers into layer-volumes)."""
        vgg = model_zoo.vgg16()
        pooled = equal_plan(vgg, hetero_cluster, [0, 3, 6, 10, 14, 18])
        lbl = equal_plan(vgg, hetero_cluster, vgg.layer_by_layer_partition())
        assert lbl.total_transmission_bytes() > pooled.total_transmission_bytes()

    def test_describe_mentions_method_and_volumes(self, model, hetero_cluster):
        plan = equal_plan(model, hetero_cluster)
        text = plan.describe()
        assert "equal" in text and "volume 0" in text

    def test_active_devices(self, model, hetero_cluster):
        boundaries = [0, model.num_spatial_layers]
        volume = model.partition(boundaries)[0]
        decisions = [SplitDecision.from_fractions([1, 0, 1, 0], volume.output_height)]
        plan = DistributionPlan(model, hetero_cluster, boundaries, decisions)
        assert plan.assignment(0).active_devices == [0, 2]

    def test_signature_ignores_method_and_matches_rebuilt_plan(self, model, hetero_cluster):
        plan = equal_plan(model, hetero_cluster)
        rebuilt = DistributionPlan(
            model,
            list(hetero_cluster),
            list(plan.boundaries),
            [SplitDecision(tuple(d.cuts), d.output_height) for d in plan.decisions],
            head_device=plan.head_device,
            method="rebuilt",
        )
        assert rebuilt is not plan and rebuilt.method != plan.method
        assert rebuilt.signature == plan.signature
        assert plan.same_strategy(rebuilt)
        # A different head placement is a different strategy.
        moved = DistributionPlan(
            model,
            hetero_cluster,
            plan.boundaries,
            plan.decisions,
            head_device=(plan.head_device + 1) % plan.num_devices,
        )
        assert moved.signature != plan.signature
        assert not plan.same_strategy(moved)
