"""Output checks that share no code with the program they check.

Each check reads the session's outputs (report arrays, the exported trace
file, the plan) and recomputes what must hold from first principles; it
returns a list of failure messages, empty when the outputs are right.  The
two exceptions are ``AnalysisReport.check_exact()`` and the rescore by a
fresh scalar ``PlanEvaluator``, which re-run the program's own reference
code.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List

import numpy as np


def digest(simulated: Dict[str, Any]) -> str:
    """A stable hash of a session's simulated outputs."""
    text = json.dumps(simulated, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_serve(artifacts: Dict[str, Any]) -> List[str]:
    report = artifacts["report"]
    errors: List[str] = []
    for t in report.tenants:
        accounted = (
            t.latency_ms.size + t.num_rejected + t.num_denied + t.num_shed + t.num_abandoned
        )
        if t.num_arrivals != accounted:
            errors.append(
                f"{t.name}: {t.num_arrivals} arrivals but {accounted} completed/rejected/"
                "denied/shed/abandoned"
            )
        n = t.latency_ms.size
        if not (t.arrival_s.size == t.completion_s.size == t.response_ms.size == n):
            errors.append(f"{t.name}: request arrays have different lengths")
            continue
        if n == 0:
            continue
        if np.any(t.completion_s < t.arrival_s):
            errors.append(f"{t.name}: a request completes before it arrives")
        if np.any(t.latency_ms < 0):
            errors.append(f"{t.name}: negative latency")
        # Response is completion minus arrival in seconds, so it may fall
        # short of the latency by float rounding (well under a nanosecond).
        if np.any(t.response_ms < t.latency_ms - 1e-6):
            errors.append(f"{t.name}: response shorter than latency")
        span_ms = (t.completion_s - t.arrival_s) * 1000.0
        if not np.allclose(span_ms, t.response_ms, rtol=1e-9, atol=1e-6):
            errors.append(f"{t.name}: response differs from completion minus arrival")
    try:
        artifacts["analysis"].check_exact()
    except AssertionError as exc:
        errors.append(f"attribution is inexact: {exc}")
    with open(artifacts["trace_path"]) as fh:
        exported = json.load(fh)
    events = [e for e in exported["traceEvents"] if e.get("ph") in ("X", "i")]
    if len(events) != artifacts["trace_events"]:
        errors.append(
            f"exported trace has {len(events)} events, the tracer recorded "
            f"{artifacts['trace_events']}"
        )
    return errors


def _volume_heights(model, boundaries) -> List[int]:
    """Output height of each layer-volume, from the layer shapes alone."""
    layers = [layer for layer in model.layers if hasattr(layer, "kernel_size")]
    heights: List[int] = []
    h = layers[0].in_h
    for layer in layers:
        if layer.in_h != h:
            raise ValueError(f"layer {layer.name} takes height {layer.in_h}, gets {h}")
        h = (h + 2 * layer.padding_size - layer.kernel_size) // layer.stride_size + 1
        heights.append(h)
    return [heights[end - 1] for end in boundaries[1:]]


def check_plan(artifacts: Dict[str, Any]) -> List[str]:
    from repro.runtime.evaluator import PlanEvaluator

    plan = artifacts["plan"]
    errors: List[str] = []
    try:
        heights = _volume_heights(plan.model, plan.boundaries)
    except ValueError as exc:
        return [str(exc)]
    if len(heights) != len(plan.decisions):
        errors.append(f"{len(plan.decisions)} split decisions for {len(heights)} volumes")
    for v, (height, decision) in enumerate(zip(heights, plan.decisions)):
        edges = [0, *decision.cuts, decision.output_height]
        rows = [b - a for a, b in zip(edges, edges[1:])]
        if len(rows) != len(plan.devices) or min(rows) < 0 or sum(rows) != height:
            errors.append(f"volume {v}: rows {rows} do not tile its height {height}")
    rescored = PlanEvaluator(artifacts["devices"], artifacts["network"]).evaluate(plan).ips
    if rescored != artifacts["predicted_ips"]:
        errors.append(
            f"DistrEdge predicted {artifacts['predicted_ips']!r} IPS, a fresh scalar "
            f"evaluator gives {rescored!r}"
        )
    for method, streamed in artifacts["streamed_ips"].items():
        scored = artifacts["ips"][method]
        if not math.isclose(streamed, scored, rel_tol=1e-9):
            errors.append(f"{method}: streamed {streamed!r} IPS, scored {scored!r}")
    return errors
