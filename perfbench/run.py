"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-contended --seed 3 --seconds 30 --trace 0

The workload's session is set up and run repeatedly, one at a time in this
process, each time on fresh inputs drawn from ``--seed``; every session's
outputs are checked and its simulated outputs hashed.  ``--trace 0`` gives
the sessions 80% of ``--seconds`` and re-runs their serving calls for the
rest, then reports the end-to-end metrics (medians over the sessions).
``--trace 1`` alternates untraced and traced sessions for all of
``--seconds`` and reports the per-layer metrics of the traced ones (see
``layers.py``).  The last line of standard output is the result object;
the exit code is 0 when it was printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".perfbench_out"
#: One BLAS thread: the DDPG updates' small matrix products gain little from
#: a second one, and its spin-waiting swings timings when anything else holds
#: the other CPU (next to one busy process, a plan-db session took 17.1 s
#: with two BLAS threads and 6.3 s with one, on 2 CPUs).  Set before NumPy
#: is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.seconds <= 0:
        parser.error(f"--seconds must be > 0, got {args.seconds}")
    return args


def percentile_ms(durations_s: List[float], q: float) -> float:
    if not durations_s:
        return 0.0
    ordered = sorted(durations_s)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank] * 1000.0


#: Share of --seconds given to sessions in an end-to-end run; the rest
#: re-runs their serving calls for sim_rps.
SESSION_SHARE = 0.8
#: Fresh interpreters timed importing the program; setup_s takes the median.
IMPORT_SAMPLES = 3


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the workloads' modules."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(Path(__file__).parent)!r}]; "
        "import workloads"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def input_seed(seed: int, index: int) -> int:
    """The seed of a run's ``index``-th session inputs."""
    return seed * 1000 + index


@dataclass
class Rep:
    """One set-up plus session, untraced or traced."""

    setup_s: float
    session_s: float
    outcome: Any
    digest: str
    tracer: Any = None
    #: Sum of the self times recorded inside the traced session.
    session_self_s: float = 0.0


def run_rep(workload, seed: int, out_dir: Path, traced: bool):
    import checks
    from layers import LayerTracer, repro_targets

    tracer = LayerTracer(repro_targets()) if traced else None
    out_dir.mkdir(parents=True)
    try:
        with tracer if tracer is not None else nullcontext():
            start = time.perf_counter()
            prepared = workload.setup(seed)
            setup_s = time.perf_counter() - start
            self_before = tracer.self_total_s if tracer is not None else 0.0
            start = time.perf_counter()
            outcome = workload.session(prepared, out_dir)
            session_s = time.perf_counter() - start
            session_self_s = (tracer.self_total_s - self_before) if tracer is not None else 0.0
        errors = workload.check(outcome.artifacts)
        outcome.artifacts.clear()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rep = Rep(setup_s, session_s, outcome, checks.digest(outcome.simulated), tracer,
              session_self_s)
    return rep, errors


def layer_metrics(rep: Rep) -> Dict[str, float]:
    """Per-layer metrics of one traced rep."""
    from layers import LAYERS

    tracer = rep.tracer
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.incl_s"] = tracer.layer_incl_s[layer]
        out[f"{layer}.self_s"] = tracer.layer_self_s[layer]
        out[f"{layer}.calls"] = float(tracer.layer_calls[layer])
    s = tracer.stats
    ddpg = s("core.ddpg_update")
    predict = s("runtime.contention_predict")
    walks = predict.miss_durations_s
    hits = misses = 0
    for evaluator in s("runtime.batch_eval").instances:
        info = evaluator.cache_info()
        hits += info["hits"]
        misses += info["misses"]
    events = rep.outcome.counters.get("obs.events", 0.0)
    analyze_s = s("obs.analyze").incl_s
    out.update(
        {
            "experiments.scenario_build_s": s("experiments.scenario_build").incl_s,
            "baselines.plan_s": s("baselines.plan").incl_s,
            "baselines.plans": float(s("baselines.plan").calls),
            "core.lcpss_s": s("core.lcpss").incl_s,
            "core.osds_s": s("core.osds").self_s,
            "core.ddpg_update_s": ddpg.incl_s,
            "core.ddpg_updates": float(ddpg.calls),
            "core.ddpg_update_ms.p50": percentile_ms(ddpg.durations_s, 50),
            "core.ddpg_update_ms.p99": percentile_ms(ddpg.durations_s, 99),
            "runtime.batch_eval_s": s("runtime.batch_eval").incl_s,
            "runtime.batch_plans": float(hits + misses),
            "runtime.batch_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.contention_predict_s": predict.incl_s,
            "runtime.contention_predicts": float(predict.calls),
            "runtime.contention_walks": float(len(walks)),
            "runtime.contention_memo_hit_ratio": (
                1.0 - len(walks) / predict.calls if predict.calls else 0.0
            ),
            "runtime.contention_walk_ms.p50": percentile_ms(walks, 50),
            "runtime.contention_walk_ms.p99": percentile_ms(walks, 99),
            "runtime.fleet_commit_s": s("runtime.fleet_commit").incl_s,
            "serving.run_s": s("serving.run").self_s,
            "obs.derive_s": s("obs.derive").incl_s,
            "obs.analyze_s": analyze_s,
            "obs.analyze_us_per_event": analyze_s * 1e6 / events if events else 0.0,
            "obs.alerts_s": s("obs.alerts").incl_s,
            "obs.export_s": s("obs.export").incl_s,
            "io.report_s": s("io.report").incl_s,
            "trace.session_s": rep.session_s,
            "trace.unattributed_s": rep.session_s - rep.session_self_s,
        }
    )
    return out


#: Counters and simulated figures every workload reports (0 where the
#: workload has no such thing), in the per-layer set.
OUTCOME_KEYS = (
    "serving.denied",
    "faults.lost_attempts",
    "faults.retried",
    "faults.shed",
    "obs.events",
    "obs.export_mb",
    "sim.p50_response_ms",
    "sim.p99_response_ms",
    "sim.response_samples",
    "sim.miss_rate",
    "sim.contended_share",
    "sim.lane_wait_ms",
    "sim.distredge_ips",
    "sim.distredge_over_best_baseline",
)


def median_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if ".p50" in metric or ".p99" in metric or metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("us_per_event"):
        return "us"
    if metric.endswith(("ratio", "rate", "share", "baseline")):
        return "1"
    if metric.endswith(("_ips", "_rps")):
        return "1/s"
    return "count"


def dominant(rep: Rep) -> str:
    tracer = rep.tracer
    layer = max(tracer.layer_self_s, key=tracer.layer_self_s.get)
    span = max(tracer.spans, key=lambda name: tracer.spans[name].self_s)
    return (
        f"dominant layer by self time: {layer} {tracer.layer_self_s[layer]:.3f} s; "
        f"dominant span: {span} {tracer.spans[span].self_s:.3f} s "
        f"(traced session {rep.session_s:.3f} s)"
    )


class Run:
    """The sessions and serving replays of one benchmark run."""

    def __init__(self, workload, args: argparse.Namespace) -> None:
        self.workload = workload
        self.args = args
        self.reps: List[Rep] = []
        self.replays: List[Tuple[int, float]] = []
        self.digests: Dict[int, str] = {}
        self.attempted = self.failed = 0
        self.start = time.perf_counter()

    def sessions(self, out_root: Path, budget_s: float) -> None:
        trace = self.args.trace
        while True:
            # Each session gets its own inputs, drawn from --seed; a traced
            # session re-runs its untraced twin's inputs, so the two digests
            # must agree (tracing must not change the simulated world).
            index = self.attempted // 2 if trace else self.attempted
            traced = bool(trace) and self.attempted % 2 == 1
            seed = input_seed(self.args.seed, index)
            self.attempted += 1
            try:
                rep, errors = run_rep(
                    self.workload, seed, out_root / f"session{self.attempted}", traced
                )
            except Exception:
                traceback.print_exc()
                self.failed += 1
            else:
                expected = self.digests.setdefault(seed, rep.digest)
                if rep.digest != expected:
                    errors.append(
                        f"inputs {seed}: simulated outputs {rep.digest} differ from an "
                        f"earlier session's {expected}"
                    )
                for error in errors:
                    print(f"check failed: {error}", file=sys.stderr)
                self.failed += bool(errors)
                self.reps.append(rep)
                print(
                    f"  session {self.attempted} ({'traced' if traced else 'untraced'}, "
                    f"inputs {seed}): setup {rep.setup_s:.4f} s, session "
                    f"{rep.session_s:.4f} s, {rep.outcome.sim_requests} simulated "
                    f"requests in {rep.outcome.sim_host_s:.4f} s, digest {rep.digest}"
                )
            gc.collect()
            elapsed = time.perf_counter() - self.start
            enough = self.attempted >= (2 if trace else 1)
            # Start another session only if it should be half done by the budget.
            if enough and elapsed * (self.attempted + 0.5) / self.attempted > budget_s:
                return

    def serving_replays(self) -> None:
        """Re-run the sessions' serving calls until the run's time is up."""
        sources = self.untraced
        replay_start = time.perf_counter()
        while sources and replay_start - self.start < self.args.seconds:
            rep = sources[len(self.replays) % len(sources)]
            self.attempted += 1
            try:
                requests, seconds = rep.outcome.replay()
            except Exception:
                traceback.print_exc()
                self.failed += 1
            else:
                if requests != rep.outcome.sim_requests:
                    print(
                        f"check failed: a replay completed {requests} requests, its "
                        f"session {rep.outcome.sim_requests}",
                        file=sys.stderr,
                    )
                    self.failed += 1
                self.replays.append((requests, seconds))
            gc.collect()
            now = time.perf_counter()
            per_replay = (now - replay_start) / (len(self.replays) or 1)
            if now - self.start + per_replay > self.args.seconds:
                return

    @property
    def untraced(self) -> List[Rep]:
        return [rep for rep in self.reps if rep.tracer is None]

    @property
    def traced(self) -> List[Rep]:
        return [rep for rep in self.reps if rep.tracer is not None]

    def end_to_end(self) -> Dict[str, float]:
        untraced = self.untraced
        serving = [(r.outcome.sim_requests, r.outcome.sim_host_s) for r in untraced]
        serving += self.replays
        return {
            "setup_s": import_seconds() + statistics.median(r.setup_s for r in untraced),
            "session_s": statistics.median(r.session_s for r in untraced),
            "sim_rps": sum(n for n, _ in serving) / sum(t for _, t in serving),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> Dict[str, float]:
        rows = []
        for rep in self.traced:
            row = layer_metrics(rep)
            outcome = rep.outcome
            row.update(
                {key: float(outcome.counters.get(key, outcome.sim.get(key, 0.0)))
                 for key in OUTCOME_KEYS}
            )
            rows.append(row)
        values = median_of(rows)
        untraced_s = statistics.median(r.session_s for r in self.untraced)
        values["trace.overhead_ratio"] = values["trace.session_s"] / untraced_s
        return values


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    run = Run(workload, args)
    out_root = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        run.sessions(out_root, args.seconds if args.trace else SESSION_SHARE * args.seconds)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    if not args.trace:
        # sim_rps then rests on more ServingSimulator.run time than the
        # sessions alone give.
        run.serving_replays()
    if not run.untraced or (args.trace and not run.traced):
        print("no session completed", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed}: {len(run.untraced)} untraced and "
          f"{len(run.traced)} traced sessions, {len(run.replays)} serving replays")
    if args.trace:
        values = run.per_layer()
        print(dominant(run.traced[0]))
    else:
        values = run.end_to_end()
        print("simulated: " + ", ".join(
            f"{key} {value:.6g}" for key, value in sorted(run.reps[0].outcome.sim.items())))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": values[key], "unit": unit_of(key)} for key in sorted(values)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
