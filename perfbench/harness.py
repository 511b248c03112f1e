"""Timed repetitions, the determinism guard and the metric report.

One run of a workload:

1. an untimed warm-up repetition, whose simulated outputs become the
   run's reference (and, at the default seed, must equal the values
   recorded in ``expected.json``);
2. the timed window: repetitions -- each a fresh scenario, timed apart
   as set-up and run -- until ``seconds`` have passed, with at least
   :data:`MIN_REPS` of them; every repetition's outputs must equal the
   reference, and its own correctness checks run outside the timing;
3. the workload's separate correctness pass.

End-to-end metrics are medians over the window's repetitions, or
batched percentiles (:func:`perfbench.stats.batched_percentile`) of the
latency samples pooled across them.  Every host time is read from
:data:`perfbench.workloads.clock`, CPU time at reference host speed
(:mod:`perfbench.refclock`).  A traced run splits the window in two:
the first half untraced, the second with every layer wrapped, so the
per-layer numbers come with their own tracing overhead.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from perfbench.refclock import NOMINAL_S
from perfbench.stats import batched_percentile
from perfbench.trace import (
    ROOT,
    SOLVERS,
    Tracer,
    layer_table,
    reported_spans,
    root_seconds,
    solver_span,
)
from perfbench.workloads import (
    REF_CLOCK,
    TRACE_TARGETS,
    WORKLOADS,
    BenchError,
    Rep,
    clock,
)

#: Seed used when ``--seed`` is not given; ``expected.json`` holds the
#: simulated outputs recorded for it.
DEFAULT_SEED = 1

#: Fewest timed repetitions a run reports on, however slow the host.
MIN_REPS = 3

#: Relative tolerance of the determinism guard on float outputs.
REL_TOL = 1e-9

EXPECTED = Path(__file__).with_name("expected.json")

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("flows_per_s", "1/s"),
    ("sim_completion_s", "s"),
    ("peak_rss_mb", "MB"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
]

#: Span names whose calls and self time the traced run reports, and
#: those whose self time alone it reports.
SPAN_CALLS, SPAN_SELF = reported_spans(TRACE_TARGETS)

#: A per-solver target's own span name reports the sum of its
#: per-solver spans and of its calls that named none of ``SOLVERS``.
SUMMED = {
    t.span: [t.span] + [solver_span(t, s) for s in SOLVERS]
    for t in TRACE_TARGETS if t.report == "solver"
}

#: Program counters the traced run reports, with their units.
COUNTERS: List[Tuple[str, str]] = [
    ("fabric.loop_events", "count"),
    ("fabric.rate_recomputes", "count"),
    ("fabric.solver_calls_per_event", "ratio"),
    ("kernels.marshal_s", "s"),
    ("kernels.solve_s", "s"),
    ("kernels.components_solved", "count"),
    ("kernels.mean_component_flows", "flows"),
    ("kernels.vector_components", "count"),
    ("kernels.object_components", "count"),
    ("pipeline.weight_cache_hit_ratio", "ratio"),
    ("pipeline.signature_skip_ratio", "ratio"),
    ("pipeline.programs", "count"),
    ("pipeline.invalidations", "count"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("service.max_burst", "count"),
]

#: ``(name, unit)`` of every per-layer metric of the traced run.
PER_LAYER: List[Tuple[str, str]] = (
    [(f"{n}.{k}", u) for n in SPAN_CALLS
     for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"{n}.self_s", "s") for n in SPAN_SELF]
    + COUNTERS
    + [
        ("gc.collections", "count"),
        ("gc.pause_s", "s"),
        ("host.calibration_us", "us"),
        ("host.cpu_flows_per_s", "1/s"),
        ("trace.host_s", "s"),
        ("trace.untraced_flows_per_s", "1/s"),
        ("trace.traced_flows_per_s", "1/s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


@dataclass
class Sample:
    """One timed repetition."""

    #: Reference seconds (:data:`perfbench.workloads.clock`) of the
    #: set-up and of the run, and the run's plain process CPU seconds
    #: and wall-clock seconds.
    setup_s: float
    run_s: float
    cpu_s: float
    wall_s: float
    rep: Rep
    #: Traced repetitions only: span totals, root seconds, GC activity.
    spans: Optional[Dict[str, Tuple[int, float]]] = None
    host_s: float = 0.0
    gc_collections: int = 0
    gc_pause_s: float = 0.0

    @property
    def flows_per_s(self) -> float:
        return self.rep.flows / self.run_s


def check_outputs(expected: Dict, actual: Dict, label: str) -> None:
    """Raise :class:`BenchError` unless two output records agree:
    floats to :data:`REL_TOL` relative, everything else exactly."""
    if expected.keys() != actual.keys():
        raise BenchError(
            f"{label}: output keys {sorted(actual)} != {sorted(expected)}"
        )
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, float) and isinstance(got, (int, float)):
            same = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
        else:
            same = got == want
        if not same:
            raise BenchError(f"{label}: {key} = {got!r}, expected {want!r}")


def recorded_outputs(workload: str) -> Dict:
    with open(EXPECTED) as handle:
        return json.load(handle)[workload]


def one_rep(workload, reference: Optional[Dict], tracer: Optional[Tracer],
            index: int) -> Sample:
    """Set up, run, verify and guard one repetition."""
    gc.collect()
    c0 = clock()
    scenario = workload.setup()
    c1 = clock()
    first = gc_n = gc_pause = 0
    if tracer is not None:
        first = len(tracer.start)
        gc_n, gc_pause = tracer.gc_collections, tracer.gc_pause_s
        tracer.request_id = index
        root = tracer.begin(ROOT)
    t2 = time.perf_counter()
    p2 = time.process_time()
    c2 = clock()
    rep = workload.run(scenario)
    c3 = clock()
    p3 = time.process_time()
    t3 = time.perf_counter()
    if tracer is not None:
        tracer.finish(root)
    workload.verify(scenario, rep)
    if reference is not None:
        check_outputs(reference, rep.outputs, f"{workload.name} rep {index}")
    sample = Sample(setup_s=c1 - c0, run_s=c3 - c2, cpu_s=p3 - p2,
                    wall_s=t3 - t2, rep=rep)
    if tracer is not None:
        sample.spans = tracer.by_name(first)
        sample.host_s = root_seconds(tracer, first)
        sample.gc_collections = tracer.gc_collections - gc_n
        sample.gc_pause_s = tracer.gc_pause_s - gc_pause
    return sample


def window(workload, reference: Dict, seconds: float, first_index: int,
           log, tracer: Optional[Tracer] = None) -> List[Sample]:
    """Timed repetitions for ``seconds`` (at least :data:`MIN_REPS`):
    another one starts only if one as long as the last still fits."""
    samples: List[Sample] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while (len(samples) < MIN_REPS
           or time.perf_counter() + last < deadline):
        index = first_index + len(samples)
        t0 = time.perf_counter()
        sample = one_rep(workload, reference, tracer, index)
        last = time.perf_counter() - t0
        samples.append(sample)
        log(f"  rep {index}{' (traced)' if tracer else ''}: set-up "
            f"{sample.setup_s:.4f} s, run {sample.run_s:.3f} s "
            f"({sample.cpu_s:.3f} CPU s, {sample.wall_s:.3f} wall s), "
            f"{sample.flows_per_s:.1f} flows per s")
    return samples


def end_to_end(samples: List[Sample], reference: Rep) -> Dict[str, Tuple[float, int]]:
    """``{metric: (value, sample count)}`` for every end-to-end metric."""
    latency = {
        "write": [w for s in samples for w in s.rep.writes],
        "read": [r for s in samples for r in s.rep.reads],
    }
    n = len(samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (median([s.setup_s for s in samples]), n),
        "flows_per_s": (median([s.flows_per_s for s in samples]), n),
        "sim_completion_s": (
            reference.sim_completion_s, reference.completion_count
        ),
        "peak_rss_mb": (rss_mb, 1),
    }
    for kind, pooled in latency.items():
        for q in (50, 99):
            values[f"{kind}_p{q}_us"] = (
                batched_percentile(pooled, q / 100) * 1e6, len(pooled)
            )
    return values


def per_layer(untraced: List[Sample], traced: List[Sample]) -> Dict[str, float]:
    """Every per-layer metric: span calls per repetition and median
    self seconds, the last repetition's counters, GC and overhead."""
    out: Dict[str, float] = {}

    def span(sample: Sample, name: str) -> Tuple[int, float]:
        if name in SUMMED:
            parts = [sample.spans.get(k, (0, 0.0)) for k in SUMMED[name]]
            return sum(c for c, _ in parts), sum(s for _, s in parts)
        return sample.spans.get(name, (0, 0.0))

    for name in SPAN_CALLS:
        out[f"{name}.calls"] = span(traced[-1], name)[0]
    for name in SPAN_CALLS + SPAN_SELF:
        out[f"{name}.self_s"] = median([span(s, name)[1] for s in traced])
    last = traced[-1].rep.counters
    for name, unit in COUNTERS:
        if unit == "s":
            out[name] = median([s.rep.counters.get(name, 0.0) for s in traced])
        else:
            out[name] = last.get(name, 0)
    out["gc.collections"] = median([s.gc_collections for s in traced])
    out["gc.pause_s"] = median([s.gc_pause_s for s in traced])
    out["host.calibration_us"] = median(REF_CLOCK.calibrations) * 1e6
    out["host.cpu_flows_per_s"] = median(
        [s.rep.flows / s.cpu_s for s in untraced]
    )
    out["trace.host_s"] = median([s.host_s for s in traced])
    plain = median([s.flows_per_s for s in untraced])
    slow = median([s.flows_per_s for s in traced])
    out["trace.untraced_flows_per_s"] = plain
    out["trace.traced_flows_per_s"] = slow
    out["trace.overhead_ratio"] = plain / slow
    return out


def write_trace(out_dir: Path, name: str, tracer: Tracer,
                traced: List[Sample]) -> Tuple[Path, List[Dict[str, object]]]:
    """Write the spans and the per-layer table of the traced run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    totals: Dict[str, Tuple[int, float]] = {}
    for sample in traced:
        for key, (calls, self_s) in sample.spans.items():
            c, s = totals.get(key, (0, 0.0))
            totals[key] = (c + calls, s + self_s)
    host = sum(s.host_s for s in traced)
    table = layer_table(totals, host, tracer.layer_of)
    tracer.write_spans(str(out_dir / f"{name}-spans.jsonl"))
    path = out_dir / f"{name}-layers.json"
    with open(path, "w") as handle:
        json.dump({"workload": name, "host_s": host, "reps": len(traced),
                   "layers": table}, handle, indent=2)
    return path, table


def clock_pair_us(pairs: int = 10000) -> float:
    """Median of an empty pair of client-clock readings, in µs: the part
    of every write and read latency that is the clock itself."""
    readings = []
    for _ in range(pairs):
        t0 = clock()
        readings.append(clock() - t0)
    return median(readings) * 1e6


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, log) -> Dict[str, object]:
    """Run one workload; returns the result record the CLI prints."""
    workload = WORKLOADS[name](seed=seed)
    with REF_CLOCK:
        return measure(workload, name, seed, seconds, trace, out_dir, log)


def measure(workload, name: str, seed: int, seconds: float, trace: bool,
            out_dir: Path, log) -> Dict[str, object]:
    """The body of :func:`run_workload`, on a running reference clock."""
    warm = one_rep(workload, None, None, 0)
    reference = warm.rep.outputs
    if seed == DEFAULT_SEED:
        check_outputs(recorded_outputs(name), reference,
                      f"{name} recorded outputs")
    log(f"{name}: seed {seed}, reference outputs {json.dumps(reference)}")
    log(f"{name}: an empty client-clock pair reads {clock_pair_us():.3f} us")
    if trace:
        untraced = window(workload, reference, seconds / 2, 1, log)
        tracer = Tracer()
        tracer.install(TRACE_TARGETS)
        try:
            traced = window(workload, reference, seconds / 2,
                            1 + len(untraced), log, tracer)
        finally:
            tracer.uninstall()
        samples = untraced + traced
    else:
        samples = window(workload, reference, seconds, 1, log)
    workload.check_pass()

    attempted = sum(s.rep.attempted for s in samples)
    failed = sum(s.rep.failed for s in samples)
    log(f"{name}: {len(samples)} timed repetitions, {attempted} operations "
        f"attempted, {failed} failed")
    log(f"{name}: calibration loop median "
        f"{median(REF_CLOCK.calibrations) * 1e6:.2f} us over "
        f"{len(REF_CLOCK.calibrations)} calibrations (reference speed: "
        f"{NOMINAL_S * 1e6:.2f} us)")
    if trace:
        metrics = per_layer(untraced, traced)
        units = dict(PER_LAYER)
        path, table = write_trace(out_dir, name, tracer, traced)
        log(f"{name}: per-layer self time over {len(traced)} traced "
            f"repetitions ({path}):")
        for row in table:
            log(f"  {row['layer']:<28} calls {row['calls']:>9}  "
                f"self {row['self_s']:9.4f} s  share {row['share']:6.1%}")
        for key, value in metrics.items():
            log(f"  {key} = {value:.6g} {units[key]}")
        report = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        values = end_to_end(samples, warm.rep)
        units = dict(END_TO_END)
        for key, (value, n) in values.items():
            log(f"  {key} = {value:.6g} {units[key]} (n={n})")
        report = {k: {"value": v, "unit": units[k]}
                  for k, (v, _) in values.items()}
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": report}
