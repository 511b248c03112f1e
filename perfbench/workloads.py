"""The benchmark's workloads, built only from the program's public API.

Each workload is a class with three steps the harness times apart:

* ``setup()`` builds a fresh scenario -- topology, sensitivity table,
  policy, fabric -- and returns it; this is the ``setup_s`` work;
* ``run(scenario)`` resets the flow-id sequence (flow ids seed the ECMP
  hash, so every repetition must start from the same ids) and drives
  the traffic to completion; this is the timed window's work;
* ``verify(scenario, rep)`` checks the run's outputs, outside the
  timed window;
* ``check_pass()`` runs any check too intrusive for a timed
  repetition (the storm's mid-run invariant probes) once per run.

A repetition's :class:`Rep` carries its deterministic simulated outputs
(checked by the harness's determinism guard), the client-timed write
and read latencies, and the layer counters the traced run reports.

"Write" and "read" mean the same thing on every workload: a write is a
client call that opens or closes a flow or connection at the
workload's entry API, a read is a client call that reads one port's
allocation there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.jobs import Job
from repro.cluster.placement import random_placement
from repro.cluster.runtime import CoRunExecutor
from repro.core import pipeline as core_pipeline
from repro.core.controller import SabaController
from repro.core.library import SabaLibrary
from repro.core.pipeline import AllocationPipeline
from repro.core.profiler import OfflineProfiler
from repro.core.rpc import RpcBus
from repro.core.table import SensitivityTable
from repro.errors import QuotaExceededError, ServiceError, ServiceOverloadedError
from repro.experiments.common import ScenarioSpec, build_scenario, make_policy
from repro.experiments.fig10_fig11 import SIM_COLLAPSE_ALPHA
from repro.service import AllocationService, ServiceConnections, ServiceQuotas
from repro.simnet.fabric import FluidFabric
from repro.simnet.fairness import WFQScheduler
from repro.simnet.flows import Flow, reset_flow_ids
from repro.simnet.routing import Router
from repro.simnet.topology import spine_leaf
from repro.storm import (
    ArrivalSchedule,
    BoundedPareto,
    FlashCrowd,
    ZipfPicker,
    check_fabric,
    check_service,
)
from repro.storm.scenario import STORM_WORKLOADS
from repro.units import GBPS_56, MB
from repro.workloads.catalog import CATALOG, PROFILER_NODES
from repro.workloads.model import ApplicationSpec
from repro.workloads.synthetic import synthetic_workloads

from perfbench.refclock import RefClock
from perfbench.trace import Target

#: The benchmark's one host clock: CPU time of the calling thread at
#: reference host speed.  The program runs single-threaded without I/O,
#: so this is each request's service time, without the time the host
#: took the vCPU away (hypervisor steal) and without the host's speed
#: drift.  The harness starts and stops its calibration.
REF_CLOCK = RefClock()
clock = REF_CLOCK.now


class BenchError(RuntimeError):
    """A correctness or determinism check failed."""


class Workload:
    """A workload's inputs are its class constants plus ``seed``, which
    draws everything random in them."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed


@dataclass
class Rep:
    """What one repetition did."""

    #: Completed flows (the ``flows_per_s`` numerator).
    flows: int = 0
    #: Simulated completion seconds summed over the workload's units
    #: (jobs on ``corun-saba``, flows elsewhere), and the unit count.
    completion_sum: float = 0.0
    completion_count: int = 0
    #: Client-timed host seconds per write and per read request.
    writes: List[float] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Deterministic simulated outputs (the determinism guard's input).
    outputs: Dict[str, object] = field(default_factory=dict)
    #: Program counters read after the run (the traced run's input).
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def sim_completion_s(self) -> float:
        return self.completion_sum / self.completion_count


def fabric_counters(fabric: FluidFabric) -> Dict[str, float]:
    """The fabric's public perf counters, as per-layer metrics."""
    events = fabric.loop_events
    comps = fabric.components_solved
    return {
        "fabric.loop_events": events,
        "fabric.rate_recomputes": fabric.rate_recomputes,
        "fabric.solver_calls_per_event": (
            fabric.rate_recomputes / events if events else 0.0
        ),
        "kernels.marshal_s": fabric.marshal_seconds,
        "kernels.solve_s": fabric.solve_seconds,
        "kernels.components_solved": comps,
        "kernels.mean_component_flows": (
            fabric.flows_solved / comps if comps else 0.0
        ),
        "kernels.vector_components": fabric.vector_components,
        "kernels.object_components": fabric.object_components,
    }


def pipeline_counters(pipelines: List[AllocationPipeline]) -> Dict[str, float]:
    """Summed pipeline counters, with the cache ratios over the sums."""
    hits = sum(p.stats.solver_cache_hits for p in pipelines)
    solves = sum(p.stats.optimizer_calls for p in pipelines)
    skips = sum(p.stats.signature_skips for p in pipelines)
    derived = sum(
        p.stats.port_allocations + p.stats.port_resets for p in pipelines
    )
    return {
        "pipeline.weight_cache_hit_ratio": (
            hits / (hits + solves) if hits + solves else 0.0
        ),
        "pipeline.signature_skip_ratio": (
            skips / (skips + derived) if skips + derived else 0.0
        ),
        "pipeline.programs": sum(p.stats.programs for p in pipelines),
        "pipeline.invalidations": sum(
            p.stats.invalidations for p in pipelines
        ),
    }


def add_counters(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


# -- hyperscale-incast -----------------------------------------------------------


class StaticWFQPolicy:
    """Static WFQ by priority level: queue ``pl % 8`` with weight
    ``queue + 1``.  A pure function of each flow's own header, so
    component-scoped solving is exact."""

    name = "bench-wfq"

    def __init__(self) -> None:
        self._scheduler = WFQScheduler(
            queue_of=lambda flow: (flow.pl or 0) % 8,
            weight_of=lambda queue: float(queue + 1),
        )

    def attach(self, fabric: FluidFabric) -> None:
        pass

    def scheduler_of(self, link_id: str) -> WFQScheduler:
        return self._scheduler

    def on_flow_started(self, flow: Flow) -> None:
        pass

    def on_flow_finished(self, flow: Flow) -> None:
        pass


class IncastClient:
    """Closed-loop rack-local incast: each rack's servers send one
    equal-size flow each to a rotating sink, and the rack starts its
    next wave only when the previous one drains.  Each flow start is a
    write; after each wave start the client reads the rate of every
    flow on the sink's port."""

    def __init__(
        self, fabric: FluidFabric, racks: List[List[str]], waves: int,
        sizes: List[List[float]], offsets: List[float], rep: Rep,
    ) -> None:
        self.fabric = fabric
        self.racks = racks
        self.waves = waves
        self.sizes = sizes
        self.offsets = offsets
        self.rep = rep
        self.wave = [0] * len(racks)
        self.outstanding = [0] * len(racks)
        self.rack_of: Dict[int, int] = {}

    def start(self) -> None:
        sim = self.fabric.sim
        for rack, offset in enumerate(self.offsets):
            sim.schedule_at(offset, lambda rack=rack: self.start_wave(rack))

    def start_wave(self, rack: int) -> None:
        wave = self.wave[rack]
        if wave >= self.waves:
            return
        self.wave[rack] = wave + 1
        servers = self.racks[rack]
        sink = servers[(wave + rack) % len(servers)]
        size = self.sizes[rack][wave]
        fabric, writes, rack_of = self.fabric, self.rep.writes, self.rack_of
        flow = None
        for src in servers:
            if src == sink:
                continue
            flow = Flow(src=src, dst=sink, size=size, app=f"rack{rack}",
                        pl=wave % 16)
            t0 = clock()
            fabric.start_flow(flow, on_complete=self.finished)
            writes.append(clock() - t0)
            rack_of[flow.flow_id] = rack
            self.outstanding[rack] += 1
        # The read is a snapshot of the sink port's allocation: the
        # rate of each flow crossing it.
        t0 = clock()
        [member.rate for member in fabric.link_members(flow.path[-1])]
        self.rep.reads.append(clock() - t0)

    def finished(self, flow: Flow) -> None:
        rep = self.rep
        rep.completion_sum += flow.finish_time - flow.start_time
        rep.completion_count += 1
        rack = self.rack_of.pop(flow.flow_id)
        self.outstanding[rack] -= 1
        if self.outstanding[rack] == 0:
            self.start_wave(rack)


class HyperscaleIncast(Workload):
    """Rack-local incast waves on a spine-leaf fabric of 10,000 servers,
    under a static WFQ policy on ``solver_backend="auto"`` (the vector
    kernels and the array incidence index).  The seed draws each
    (rack, wave) flow size and each rack's start offset."""

    name = "hyperscale-incast"

    N_SPINE = 4
    N_LEAF = 16
    #: 250 racks of 40 servers: the 10k-server scale the vector kernels
    #: and the array incidence index are built for.
    N_TOR = 250
    SERVERS_PER_TOR = 40
    #: Incast waves per rack: 58,500 flows, about 4 host seconds a
    #: repetition, so a 30 s window holds several repetitions.
    WAVES = 6
    #: Coalesces the ends of a wave's equal-rate flows into one batched
    #: solve, as the repository's hyperscale fabric bench does.
    COMPLETION_QUANTUM = 1e-3

    @property
    def total_flows(self) -> int:
        return self.N_TOR * (self.SERVERS_PER_TOR - 1) * self.WAVES

    def setup(self):
        topology = spine_leaf(
            n_spine=self.N_SPINE, n_leaf=self.N_LEAF, n_tor=self.N_TOR,
            servers_per_tor=self.SERVERS_PER_TOR, capacity=GBPS_56,
        )
        fabric = FluidFabric(
            topology, solver_backend="auto",
            completion_quantum=self.COMPLETION_QUANTUM,
        )
        fabric.set_policy(StaticWFQPolicy())
        rng = random.Random(f"{self.name}:{self.seed}")
        sizes = [
            [rng.uniform(0.5, 1.5) * 1e9 for _ in range(self.WAVES)]
            for _ in range(self.N_TOR)
        ]
        offsets = [rng.uniform(0.0, 0.05) for _ in range(self.N_TOR)]
        spt = self.SERVERS_PER_TOR
        servers = topology.servers
        racks = [servers[r * spt:(r + 1) * spt] for r in range(self.N_TOR)]
        return fabric, racks, sizes, offsets

    def run(self, scenario) -> Rep:
        fabric, racks, sizes, offsets = scenario
        reset_flow_ids()
        rep = Rep()
        client = IncastClient(fabric, racks, self.WAVES, sizes, offsets, rep)
        client.start()
        horizon = fabric.run()
        rep.flows = len(fabric.completed)
        rep.attempted = len(rep.writes)
        rep.failed = rep.attempted - rep.flows
        rep.outputs = {
            "flows": rep.flows,
            "loop_events": fabric.loop_events,
            "sim_completion_s": rep.sim_completion_s,
            "horizon": horizon,
        }
        rep.counters = fabric_counters(fabric)
        return rep

    def verify(self, scenario, rep: Rep) -> None:
        fabric = scenario[0]
        if rep.attempted != self.total_flows or rep.failed or fabric.active_flows:
            raise BenchError(
                f"{self.name}: {rep.flows} of {self.total_flows} flows "
                f"completed, {len(fabric.active_flows)} still active"
            )

    def check_pass(self) -> None:
        """Every check of this workload runs per repetition."""


# -- corun-saba ------------------------------------------------------------------


class CoRunClient:
    """The co-run's connection layer: the Saba library, with every
    connection open timed as a write and followed by a timed read of
    the allocation at each switch port on the flow's path."""

    def __init__(self, inner, controller: SabaController) -> None:
        self.inner = inner
        self.controller = controller
        #: The repetition being recorded; set before each run.
        self.rep = Rep()

    def create(self, job_id, src, dst, size, on_complete, coflow=None,
               rate_cap=None, aux_rate=0.0) -> Flow:
        t0 = clock()
        flow = self.inner.create(
            job_id, src, dst, size, on_complete, coflow=coflow,
            rate_cap=rate_cap, aux_rate=aux_rate,
        )
        self.rep.writes.append(clock() - t0)
        # One read per switch port on the path: a single read per open
        # left too few samples for a steady p99 (its spread across
        # seeds was 0.12).
        for port in flow.path[1:]:
            t0 = clock()
            self.controller.describe_port(port)
            self.rep.reads.append(clock() - t0)
        return flow

    def job_started(self, job: Job) -> None:
        self.inner.job_started(job)

    def job_finished(self, job: Job) -> None:
        self.inner.job_finished(job)


class CoRunSaba(Workload):
    """The fig10-style co-run of 20 synthetic workloads under the
    ``saba`` policy, on the object solver the pinned goldens use.

    One repetition runs :attr:`CORUNS` independent co-runs so that the
    metrics average over several arrival patterns.  Placement is the
    fig10 harness's fixed random placement (:attr:`PLACEMENT_SEED`); the
    seed draws every job's start offset in ``[0, JITTER_S)`` for each
    co-run.
    """

    name = "corun-saba"

    N_WORKLOADS = 20
    N_SPINE = 8
    N_LEAF = 8
    #: 4 ToRs, not fig10's 8: a co-run at 8 ToRs takes about 17 host
    #: seconds, so a window would hold a single repetition.
    N_TOR = 4
    SERVERS_PER_TOR = 10
    #: Co-runs per repetition: one co-run's host time depends on its
    #: arrival pattern, eight average that out (with four, flows_per_s
    #: spread 0.10 across seeds).
    CORUNS = 8
    #: Start offsets are drawn in ``[0, JITTER_S)`` seconds.
    JITTER_S = 0.3
    #: The fig10 harness's placement seed; seed-drawn placements made
    #: the host time vary by about 35% from seed to seed.
    PLACEMENT_SEED = 11
    COMPLETION_QUANTUM = 0.1

    def table(self) -> SensitivityTable:
        """Rack-scale (18-node) analytic profiles of the synthetic
        workloads, as the fig10 study profiles them."""
        profiler = OfflineProfiler(degree=3, method="analytic", n_nodes=18)
        table = SensitivityTable()
        for spec in synthetic_workloads(count=self.N_WORKLOADS, n_instances=18):
            rack_spec = ApplicationSpec(
                name=spec.name, stages=spec.stages, n_instances=18,
                fanout=spec.fanout, barrier=spec.barrier,
            )
            table.add(profiler.profile_spec(rack_spec).model)
        return table

    def setup(self):
        table = self.table()
        spec = ScenarioSpec(
            topology="spine_leaf",
            topology_kwargs=dict(
                n_spine=self.N_SPINE, n_leaf=self.N_LEAF, n_tor=self.N_TOR,
                servers_per_tor=self.SERVERS_PER_TOR, num_queues=8,
            ),
            policy="saba", collapse_alpha=SIM_COLLAPSE_ALPHA,
            completion_quantum=self.COMPLETION_QUANTUM,
        )
        runs = []
        for k in range(self.CORUNS):
            setup = make_policy("saba", table=table,
                                collapse_alpha=SIM_COLLAPSE_ALPHA)
            scenario = build_scenario(
                spec, setup=setup,
                connections_factory=lambda fabric, setup=setup: CoRunClient(
                    setup.connections_factory(fabric), setup.controller,
                ),
            )
            servers = scenario.topology.servers
            per_job = max(2, len(servers) // self.N_WORKLOADS)
            specs = synthetic_workloads(
                count=self.N_WORKLOADS, n_instances=per_job,
            )
            placements = random_placement(
                [s.n_instances for s in specs], servers,
                random.Random(self.PLACEMENT_SEED),
                max_jobs_per_server=self.N_WORKLOADS,
            )
            jobs = [
                Job(job_id=s.name, spec=s, workload=s.name, placement=list(p))
                for s, p in zip(specs, placements)
            ]
            rng = random.Random(f"{self.name}:{self.seed}:{k}")
            starts = [rng.uniform(0.0, self.JITTER_S) for _ in jobs]
            runs.append((scenario, scenario.executor.connections, jobs, starts))
        return runs

    def run(self, scenario) -> Rep:
        rep = Rep()
        loop_events = 0
        for sc, client, jobs, starts in scenario:
            reset_flow_ids()
            client.rep = rep
            done = sc.executor.run(jobs, start_times=starts)
            rep.attempted += len(jobs)
            rep.failed += len(jobs) - len(done)
            for result in done.values():
                rep.completion_sum += result.completion_time
                rep.completion_count += 1
            rep.flows += len(sc.fabric.completed)
            loop_events += sc.fabric.loop_events
            add_counters(rep.counters, fabric_counters(sc.fabric))
        rep.outputs = {
            "flows": rep.flows,
            "loop_events": loop_events,
            "sim_completion_s": rep.sim_completion_s,
        }
        for key in ("fabric.solver_calls_per_event",
                    "kernels.mean_component_flows"):
            rep.counters[key] /= len(scenario)
        rep.counters.update(pipeline_counters(
            [sc.setup.pipeline for sc, _, _, _ in scenario]
        ))
        return rep

    def verify(self, scenario, rep: Rep) -> None:
        for sc, _, _, _ in scenario:
            if sc.fabric.active_flows:
                raise BenchError(f"{self.name}: flows left active")
        if rep.failed or rep.completion_count != rep.attempted:
            raise BenchError(
                f"{self.name}: {rep.completion_count} of {rep.attempted} "
                "jobs completed"
            )

    def check_pass(self) -> None:
        """Every check of this workload runs per repetition."""


# -- service-storm ---------------------------------------------------------------


class StormClient:
    """Open-loop storm traffic through the allocation service.

    Connection arrivals follow a diurnal Poisson process with one flash
    crowd; sizes are bounded-Pareto; the originating app is Zipf; a
    share of connections get a teardown a fixed delay after creation
    without checking whether the transfer already finished (a teardown
    race); a separate Poisson stream reads port allocations.  Requests
    before ``warmup_s`` fill the weight cache and are not timed.
    """

    def __init__(self, service: AllocationService, cfg: "ServiceStorm",
                 rep: Rep) -> None:
        self.service = service
        self.cfg = cfg
        self.rep = rep
        fabric = service.fabric
        self.sim = fabric.sim
        self.servers = list(fabric.topology.servers)
        self.ports = sorted(fabric.topology.all_port_link_ids())
        self.apps = [
            f"t{i % cfg.N_TENANTS}/app{i:02d}" for i in range(cfg.N_APPS)
        ]
        self.arrivals = ArrivalSchedule(
            base_rate=cfg.RATE, diurnal_amplitude=0.5,
            diurnal_period=cfg.DURATION_S,
            flash_crowds=(FlashCrowd(
                start=0.4 * cfg.DURATION_S, duration=0.1 * cfg.DURATION_S,
                multiplier=3.0,
            ),),
        )
        self.read_arrivals = ArrivalSchedule(base_rate=cfg.READ_RATE)
        self.sizes = BoundedPareto(cfg.SIZE_ALPHA, cfg.SIZE_LO, cfg.SIZE_HI)
        self.picker = ZipfPicker(cfg.N_APPS, s=1.0)
        seed = f"{cfg.name}:{cfg.seed}"
        self.arr_rng = random.Random(f"{seed}:arrivals")
        self.body_rng = random.Random(f"{seed}:body")
        self.read_rng = random.Random(f"{seed}:reads")
        self.offered = 0
        self.refused = 0

    def start(self) -> None:
        for i, app in enumerate(self.apps):
            self.offered += 1
            self.service.register_app(
                app, STORM_WORKLOADS[i % len(STORM_WORKLOADS)]
            )
        sim = self.sim
        sim.schedule_at(self.arrivals.next_after(0.0, self.arr_rng),
                        self.inject)
        sim.schedule_at(self.read_arrivals.next_after(0.0, self.read_rng),
                        self.read)

    def _timed(self) -> bool:
        return self.sim.now >= self.cfg.WARMUP_S

    def inject(self) -> None:
        cfg, rng, rep = self.cfg, self.body_rng, self.rep
        now = self.sim.now
        app = self.apps[self.picker.pick(rng)]
        src = rng.randrange(len(self.servers))
        dst = rng.randrange(len(self.servers) - 1)
        if dst >= src:
            dst += 1
        size = self.sizes.sample(rng)
        destroy = rng.random() < cfg.DESTROY_FRACTION
        self.offered += 1
        t0 = clock()
        try:
            flow = self.service.conn_create(
                app, self.servers[src], self.servers[dst], size,
                on_complete=self.finished,
            )
        except (QuotaExceededError, ServiceOverloadedError):
            rep.failed += 1
        else:
            if self._timed():
                rep.writes.append(clock() - t0)
            if destroy:
                self.sim.schedule_at(
                    now + cfg.DESTROY_DELAY_S,
                    lambda fid=flow.flow_id: self.teardown(fid),
                )
        t_next = self.arrivals.next_after(now, self.arr_rng)
        if t_next <= cfg.DURATION_S:
            self.sim.schedule_at(t_next, self.inject)

    def teardown(self, flow_id: int) -> None:
        self.offered += 1
        t0 = clock()
        try:
            self.service.conn_destroy(flow_id)
        except (QuotaExceededError, ServiceOverloadedError):
            self.rep.failed += 1
        except ServiceError:
            # The transfer finished first: refusing the teardown is
            # the correct answer to the race, not a failure.
            self.refused += 1
        else:
            if self._timed():
                self.rep.writes.append(clock() - t0)

    def read(self) -> None:
        now = self.sim.now
        port = self.ports[self.read_rng.randrange(len(self.ports))]
        self.offered += 1
        t0 = clock()
        self.service.get_allocation(port)
        if self._timed():
            self.rep.reads.append(clock() - t0)
        t_next = self.read_arrivals.next_after(now, self.read_rng)
        if t_next <= self.cfg.DURATION_S:
            self.sim.schedule_at(t_next, self.read)

    def finished(self, flow: Flow) -> None:
        self.rep.completion_sum += flow.finish_time - flow.start_time
        self.rep.completion_count += 1


class ServiceStorm(Workload):
    """Open-loop storm traffic through :class:`AllocationService` with
    admission quotas, on a 96-server spine-leaf fabric with the object
    solver and ``completion_quantum=0``.  The seed draws every arrival,
    size, app and teardown choice and every read's port."""

    name = "service-storm"

    N_SPINE = 4
    N_LEAF = 4
    N_TOR = 8
    SERVERS_PER_TOR = 12
    #: Simulated seconds of arrivals; one diurnal period.  At 10 s the
    #: p99 latencies moved with the seed's heavy-tailed sizes (spread
    #: 0.09 across seeds).
    DURATION_S = 20.0
    #: Requests before this simulated instant fill the weight cache and
    #: are not timed.
    WARMUP_S = 1.0
    #: Mean connection arrivals and reads per simulated second.
    RATE = 300.0
    READ_RATE = 150.0
    #: Bounded-Pareto flow sizes: heavy-tailed, 32 to 256 MB.
    SIZE_ALPHA = 1.3
    SIZE_LO = 32 * MB
    SIZE_HI = 256 * MB
    #: Zipf-skewed apps, spread over two tenants.
    N_APPS = 4
    N_TENANTS = 2
    #: Share of connections torn down :attr:`DESTROY_DELAY_S` after
    #: creation, whether or not the transfer already finished.
    DESTROY_FRACTION = 0.2
    DESTROY_DELAY_S = 0.01
    #: Invariant probes of the separate check pass.
    N_PROBES = 8

    def quotas(self) -> ServiceQuotas:
        """Admission limits sized above this traffic's peak, so they are
        checked on every request and bind only on a misbehaving run."""
        return ServiceQuotas(
            max_apps_per_tenant=self.N_APPS,
            max_conns_per_app=4096,
            max_conns_per_tenant=8192,
            max_queue_depth=16,
        )

    def table(self) -> SensitivityTable:
        profiler = OfflineProfiler(degree=3, method="analytic")
        table = SensitivityTable()
        for name in STORM_WORKLOADS:
            spec = CATALOG[name].instantiate(n_instances=PROFILER_NODES)
            table.add(profiler.profile_spec(spec).model)
        return table

    def setup(self):
        spec = ScenarioSpec(
            topology="spine_leaf",
            topology_kwargs=dict(
                n_spine=self.N_SPINE, n_leaf=self.N_LEAF, n_tor=self.N_TOR,
                servers_per_tor=self.SERVERS_PER_TOR,
            ),
            policy="saba", completion_quantum=0.0,
        )
        setup = make_policy("saba", table=self.table())
        scenario = build_scenario(
            spec, setup=setup,
            connections_factory=lambda fabric: ServiceConnections(
                AllocationService(
                    fabric, setup.controller, quotas=self.quotas(),
                )
            ),
        )
        return scenario.executor.connections.service

    def _client(self, service: AllocationService) -> Tuple[StormClient, Rep]:
        reset_flow_ids()
        rep = Rep()
        client = StormClient(service, self, rep)
        client.start()
        return client, rep

    def _finish(self, service: AllocationService, client: StormClient,
                rep: Rep) -> Rep:
        fabric = service.fabric
        acct = service.accounting()
        rep.flows = len(fabric.completed)
        rep.attempted = client.offered
        rep.outputs = {
            "flows": rep.flows,
            "loop_events": fabric.loop_events,
            "sim_completion_s": rep.sim_completion_s,
            "refused_teardowns": client.refused,
            "accounting": acct,
        }
        rep.counters = fabric_counters(fabric)
        rep.counters.update(pipeline_counters([service.controller.pipeline]))
        rep.counters.update({
            "service.admitted": service.admitted,
            "service.rejected": service.rejected,
            "service.max_burst": service.max_burst,
        })
        return rep

    def run(self, service: AllocationService) -> Rep:
        client, rep = self._client(service)
        service.fabric.run()
        return self._finish(service, client, rep)

    def verify(self, service: AllocationService, rep: Rep) -> None:
        check_service(service, rep.attempted, expect_idle=True)

    def check_pass(self) -> None:
        """One more run with the storm invariant probes: fabric physics
        (capacity, work conservation, no starvation) and service
        accounting at evenly spaced instants, then idleness after the
        drain."""
        service = self.setup()
        client, rep = self._client(service)
        fabric = service.fabric
        for i in range(self.N_PROBES):
            fabric.run(until=self.DURATION_S * (i + 1) / self.N_PROBES)
            check_fabric(fabric)
            check_service(service, client.offered)
        fabric.run()
        self.verify(service, self._finish(service, client, rep))


WORKLOADS = {
    cls.name: cls for cls in (HyperscaleIncast, CoRunSaba, ServiceStorm)
}


#: Every function and method the traced run wraps, with the layer its
#: self time is booked to and what is reported of it.
TRACE_TARGETS: List[Target] = [
    Target(Router, "path_for_flow", "routing.path_for_flow", "simnet.routing"),
    Target(FluidFabric, "start_flow", "fabric.start_flow", "simnet.fabric"),
    Target(FluidFabric, "cancel_flow", "fabric.cancel_flow", "simnet.fabric"),
    Target(FluidFabric, "recompute_rates", "kernels.recompute_rates",
           "simnet.incidence/kernels"),
    Target(core_pipeline, "optimize_weights", "allocation.optimize_weights",
           "core.allocation", "solver"),
    Target(AllocationPipeline, "reallocate", "pipeline.reallocate",
           "core.pipeline"),
    Target(SabaController, "conn_create", "controller.conn_create",
           "core.controller"),
    Target(SabaController, "conn_destroy", "controller.conn_destroy",
           "core.controller"),
    Target(SabaController, "describe_port", "controller.describe_port",
           "core.controller"),
    Target(SabaLibrary, "saba_conn_create", "library.saba_conn_create",
           "core.library"),
    Target(RpcBus, "call", "rpc.call", "core.rpc"),
    Target(AllocationService, "conn_create", "service.conn_create", "service"),
    Target(AllocationService, "conn_destroy", "service.conn_destroy",
           "service"),
    Target(AllocationService, "get_allocation", "service.get_allocation",
           "service"),
    Target(FluidFabric, "run", "fabric.run", "simnet.fabric", "self"),
    Target(CoRunExecutor, "run", "runtime.corun_run", "cluster.runtime",
           "self"),
    # The benchmark's traffic clients; on service-storm, the storm
    # generator.
    Target(IncastClient, "start_wave", "client", "client", "self"),
    Target(IncastClient, "finished", "client", "client", "self"),
    Target(CoRunClient, "create", "client", "client", "self"),
    Target(StormClient, "inject", "client", "client", "self"),
    Target(StormClient, "teardown", "client", "client", "self"),
    Target(StormClient, "read", "client", "client", "self"),
    Target(StormClient, "finished", "client", "client", "self"),
]
