"""Image-stream simulation: the paper's IPS measurement protocol.

Section V-A: *"we stream 5000 images from the service requester to the
service providers.  An image will not be sent until the result of its
previous image is received by the service requester.  We measure the overall
latency in processing the 5000 images and compute averaged FPS."*

:class:`StreamingSimulator` reproduces that protocol: images are processed
strictly one at a time, each image's end-to-end latency is evaluated under
the network conditions at its start time (bandwidth traces are functions of
wall-clock time), and the averaged images-per-second is reported.  An
optional *adaptation hook* lets a controller observe recent latencies and
swap in a new plan between images — the mechanism behind the dynamic-network
experiment (Fig. 13), where CoEdge/AOFL/DistrEdge re-plan online.

Since the serving subsystem landed, this protocol is the **single-tenant
closed-loop special case** of :class:`~repro.serving.simulator.ServingSimulator`:
``run`` builds one closed-loop :class:`~repro.serving.tenants.TenantSpec`
(think time = ``extra_gap_ms``, request budget = ``num_images``) and executes
it through the shared tenant runtime, so streaming and multi-tenant serving
cannot drift apart behaviourally.  A
:class:`~repro.runtime.batch.BatchPlanEvaluator` streams through the array
engine; a scalar :class:`~repro.runtime.evaluator.PlanEvaluator` through the
per-image reference loop.

Replan accounting compares plan *content*, not object identity: a hook that
returns an equal-but-reconstructed plan (same boundaries, cuts and head —
see :meth:`~repro.runtime.plan.DistributionPlan.same_strategy`) is treated
as "keep the current plan" and does not pollute ``replan_times_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.runtime.evaluator import PlanEvaluator
from repro.runtime.plan import DistributionPlan
from repro.serving.simulator import ServingSimulator
from repro.serving.tenants import AdaptationHook, TenantSpec


@dataclass
class StreamingResult:
    """Outcome of streaming a batch of images through a plan."""

    per_image_latency_ms: np.ndarray
    image_start_s: np.ndarray
    total_time_s: float
    method: str = "unspecified"
    replan_times_s: List[float] = field(default_factory=list)

    @property
    def num_images(self) -> int:
        return int(self.per_image_latency_ms.size)

    @property
    def ips(self) -> float:
        """Averaged images per second over the whole stream."""
        if self.total_time_s <= 0:
            return float("inf")
        return self.num_images / self.total_time_s

    @property
    def mean_latency_ms(self) -> float:
        return float(self.per_image_latency_ms.mean()) if self.num_images else 0.0

    @property
    def p95_latency_ms(self) -> float:
        return float(np.percentile(self.per_image_latency_ms, 95)) if self.num_images else 0.0

    def latency_series(self) -> np.ndarray:
        """``(N, 2)`` array of (start time s, latency ms) rows, for Fig. 13-style plots."""
        return np.column_stack([self.image_start_s, self.per_image_latency_ms])


class StreamingSimulator:
    """Streams images through a distribution plan, one at a time.

    Parameters
    ----------
    evaluator:
        The plan evaluator bound to the cluster and network under test.
    extra_gap_ms:
        Idle time between receiving a result and sending the next image
        (camera frame interval / application think time); 0 reproduces the
        paper's back-to-back streaming.
    """

    def __init__(self, evaluator: PlanEvaluator, extra_gap_ms: float = 0.0) -> None:
        if extra_gap_ms < 0:
            raise ValueError(f"extra_gap_ms must be >= 0, got {extra_gap_ms}")
        self.evaluator = evaluator
        self.extra_gap_ms = float(extra_gap_ms)

    def run(
        self,
        plan: DistributionPlan,
        num_images: int = 5000,
        start_time_s: float = 0.0,
        adaptation_hook: Optional[AdaptationHook] = None,
        max_duration_s: Optional[float] = None,
    ) -> StreamingResult:
        """Stream ``num_images`` images and return the latency/IPS summary.

        ``max_duration_s`` optionally truncates the stream once the simulated
        wall clock exceeds the limit (useful for fixed-duration dynamic-
        network experiments, e.g. "one hour of service").
        """
        if num_images < 1:
            raise ValueError(f"num_images must be >= 1, got {num_images}")
        tenant = TenantSpec(
            name="stream",
            plan=plan,
            traffic=None,  # closed loop: the paper's one-image-in-flight rule
            max_requests=num_images,
            gap_ms=self.extra_gap_ms,
            max_duration_s=max_duration_s,
            adaptation_hook=adaptation_hook,
        )
        # An evaluator with a batch API streams through the array engine,
        # bit-identical to the reference loop by the serving parity contract;
        # any other PlanEvaluator keeps the per-image reference loop.
        mode = "batched" if hasattr(self.evaluator, "evaluate_plans") else "reference"
        report = ServingSimulator(self.evaluator).run(
            [tenant], start_s=start_time_s, mode=mode
        )
        outcome = report.tenants[0]
        return StreamingResult(
            per_image_latency_ms=outcome.latency_ms,
            image_start_s=outcome.start_s,
            total_time_s=outcome.busy_until_s - start_time_s,
            method=outcome.final_method,
            replan_times_s=list(outcome.replan_times_s),
        )

    def run_duration(
        self,
        plan: DistributionPlan,
        duration_s: float,
        start_time_s: float = 0.0,
        adaptation_hook: Optional[AdaptationHook] = None,
        max_images: int = 1_000_000,
    ) -> StreamingResult:
        """Stream for a fixed simulated duration rather than an image count."""
        if duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {duration_s}")
        return self.run(
            plan,
            num_images=max_images,
            start_time_s=start_time_s,
            adaptation_hook=adaptation_hook,
            max_duration_s=duration_s,
        )


__all__ = ["StreamingSimulator", "StreamingResult", "AdaptationHook"]
