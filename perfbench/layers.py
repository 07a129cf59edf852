"""Layer spans recorded from outside the program.

:class:`LayerTracer` replaces public functions of the ``repro`` layers with
timing wrappers for the length of a ``with`` block and puts the originals
back on exit, so the end-to-end runs execute the program untouched.  Each
wrapped call is a span; a span's self time is its duration minus the time
covered by the spans it encloses.  Time is only attributed to outermost
entries of a span (and of a layer), so a recursive call or a ``super()``
call into another wrapped method is never counted twice.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: The layers, in report order (module names under ``repro``; ``io`` is the
#: report/trace JSON the session writes).
LAYERS = ("experiments", "baselines", "core", "runtime", "serving", "obs", "io")


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` (a class or a module)."""

    owner: Any
    attr: str
    span: str
    #: Read on the call's first argument before and after the call; calls
    #: that leave it unchanged are recorded as misses (e.g. memo hits).
    counter: Optional[Callable[[Any], int]] = None
    #: Keep the call's first argument (e.g. to read an evaluator's cache).
    keep_instances: bool = False

    @property
    def layer(self) -> str:
        return self.span.split(".", 1)[0]


@dataclass
class SpanStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    durations_s: List[float] = field(default_factory=list)
    miss_durations_s: List[float] = field(default_factory=list)
    instances: List[Any] = field(default_factory=list)


class _Frame:
    __slots__ = ("span", "layer", "start", "child_s")

    def __init__(self, span: str, layer: str, start: float) -> None:
        self.span = span
        self.layer = layer
        self.start = start
        self.child_s = 0.0


class LayerTracer:
    """Times wrapped calls while active; restores every original on exit."""

    def __init__(
        self, targets: Sequence[Target], clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.targets = list(targets)
        self.clock = clock
        self.spans: Dict[str, SpanStats] = {}
        self.layer_incl_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.layer_self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.layer_calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_total_s = 0.0
        self._stack: List[_Frame] = []
        self._active_spans: Dict[str, int] = {}
        self._active_layers: Dict[str, int] = {}
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "LayerTracer":
        try:
            for target in self.targets:
                # Save the owner's own dict entry, so an inherited method is
                # restored by deleting the wrapper, not by shadowing it.
                had_own = target.attr in vars(target.owner)
                original = vars(target.owner).get(target.attr)
                fn = getattr(target.owner, target.attr)
                self._saved.append((target.owner, target.attr, had_own, original))
                setattr(target.owner, target.attr, self._wrap(fn, target))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    def enter(self, span: str) -> _Frame:
        layer = span.split(".", 1)[0]
        frame = _Frame(span, layer, 0.0)
        self._active_spans[span] = self._active_spans.get(span, 0) + 1
        self._active_layers[layer] = self._active_layers.get(layer, 0) + 1
        self._stack.append(frame)
        frame.start = self.clock()
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame``; returns its duration in seconds."""
        dur = self.clock() - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.span!r} closed out of order")
        if self._stack:
            self._stack[-1].child_s += dur
        self_s = dur - frame.child_s
        stats = self.spans.setdefault(frame.span, SpanStats())
        stats.self_s += self_s
        stats.durations_s.append(dur)
        self.layer_self_s[frame.layer] += self_s
        self.self_total_s += self_s
        self._active_spans[frame.span] -= 1
        if self._active_spans[frame.span] == 0:
            stats.calls += 1
            stats.incl_s += dur
        self._active_layers[frame.layer] -= 1
        if self._active_layers[frame.layer] == 0:
            self.layer_calls[frame.layer] += 1
            self.layer_incl_s[frame.layer] += dur
        return dur

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        span = target.span
        counter = target.counter
        keep = target.keep_instances

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = counter(args[0]) if counter is not None else None
            frame = tracer.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tracer.exit(frame)
                stats = tracer.spans[span]
                if counter is not None and counter(args[0]) == before:
                    stats.miss_durations_s.append(dur)
                if keep and not any(obj is args[0] for obj in stats.instances):
                    stats.instances.append(args[0])

        return wrapper

    # ------------------------------------------------------------------ #
    def stats(self, span: str) -> SpanStats:
        return self.spans.get(span, SpanStats())


def repro_targets() -> List[Target]:
    """The public functions the traced run wraps, one span each."""
    from repro.baselines import BASELINE_REGISTRY
    from repro.core.ddpg import DDPGAgent
    from repro.core.distredge import DistrEdge
    from repro.core.osds import OSDS
    from repro.core.partitioner import LCPSS
    from repro.experiments import reporting
    from repro.experiments.scenarios import Scenario
    from repro.obs import analysis
    from repro.obs.slo import SLOMonitor
    from repro.obs.trace import Tracer
    from repro.runtime import faults
    from repro.runtime.batch import BatchPlanEvaluator
    from repro.runtime.contention import ContentionAwareEvaluator, SharedFleetState
    from repro.runtime.evaluator import PlanEvaluator
    from repro.runtime.streaming import StreamingSimulator
    from repro.serving.simulator import ServingSimulator

    import workloads

    targets = [
        Target(Scenario, "build", "experiments.scenario_build"),
        *(
            Target(reporting, name, "experiments.reporting")
            for name in sorted(vars(reporting))
            if name.startswith("format_")
        ),
        *(
            Target(cls, "plan", "baselines.plan")
            for _, cls in sorted(BASELINE_REGISTRY.items())
            if "plan" in vars(cls)
        ),
        Target(DistrEdge, "plan_detailed", "core.distredge"),
        Target(LCPSS, "search", "core.lcpss"),
        Target(OSDS, "run", "core.osds"),
        Target(DDPGAgent, "update", "core.ddpg_update"),
        Target(BatchPlanEvaluator, "evaluate_plans", "runtime.batch_eval", keep_instances=True),
        Target(PlanEvaluator, "evaluate", "runtime.scalar_eval"),
        Target(StreamingSimulator, "run", "runtime.streaming"),
        Target(
            ContentionAwareEvaluator,
            "predict",
            "runtime.contention_predict",
            counter=lambda evaluator: evaluator.memo_hits,
        ),
        Target(SharedFleetState, "commit", "runtime.fleet_commit"),
        Target(faults, "resolve_churn", "runtime.churn_resolve"),
        Target(ServingSimulator, "run", "serving.run"),
        Target(Tracer, "sorted_events", "obs.derive"),
        Target(analysis, "analyze_events", "obs.analyze"),
        Target(SLOMonitor, "evaluate", "obs.alerts"),
        Target(Tracer, "write_chrome", "obs.export"),
        Target(workloads, "write_report", "io.report"),
    ]
    unknown = {t.layer for t in targets} - set(LAYERS)
    if unknown:
        raise ValueError(f"targets name unknown layers {sorted(unknown)}")
    return targets
