"""The distributed controller design (Section 5.4).

"Eq 2 indicates that the bandwidth calculation for applications on a
given output port is independent of other switches, presenting an
opportunity to distribute the controller's logic.  In such a
distributed design, each controller is responsible for a group of
switches [...] the controllers fetch the application-to-PL mapping and
the PL clusters from a database."

Two components:

* :class:`MappingDatabase` -- built *offline by the profiler* over the
  full sensitivity table: K-means of every profiled workload into the
  network's S priority levels plus the PL hierarchy.  Because the
  mapping is static (not re-clustered per active application set) and
  controllers only know PL-centroid sensitivities, allocations are
  slightly coarser than the centralized controller's -- the ~4 %
  performance gap of Figure 11a.
* :class:`DistributedControllerGroup` -- partitions switches among N
  controller shards.  The Saba library informs the shard owning the
  first switch on a connection's path; that shard configures its own
  ports and forwards the announcement to the shard owning the next
  switch, and so on (``stats.forwards`` counts the extra control-plane
  hops).

Like the centralized controller, this class is a thin *frontend* over
the shared :class:`~repro.core.pipeline.AllocationPipeline`: shard
bookkeeping and the database lookup live here, while queue mapping,
the Eq. 2 solve, port programming, reserved-queue handling and rate
invalidation are the pipeline's -- so the two control planes cannot
drift apart again.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import RegistrationError
from repro.obs.events import (
    APP_DEREGISTERED,
    APP_REGISTERED,
    CONN_CREATED,
    CONN_DESTROYED,
    NULL_OBSERVER,
    Observer,
)
from repro.core.allocation import DEFAULT_MIN_WEIGHT
from repro.core.clustering import PLHierarchy, kmeans
from repro.core.pipeline import (
    DEFAULT_C_SABA,
    AllocationPipeline,
    make_port_scheduler,
)
from repro.core.sensitivity import SensitivityModel
from repro.core.table import SensitivityTable
from repro.simnet.fabric import FluidFabric
from repro.simnet.fairness import LinkScheduler
from repro.simnet.switch import NUM_PRIORITY_LEVELS


class MappingDatabase:
    """Offline application-to-PL mapping and PL hierarchy."""

    def __init__(
        self,
        table: SensitivityTable,
        num_pls: int = NUM_PRIORITY_LEVELS,
        seed: int = 0,
    ) -> None:
        if len(table) == 0:
            raise RegistrationError("cannot build a database from an empty table")
        self.table = table
        names = table.names()
        models = [table.get(n) for n in names]
        degree = max(m.degree for m in models)
        points = np.array([m.as_vector(degree) for m in models])
        labels, centroids = kmeans(points, num_pls, rng=random.Random(seed))
        dense = {pl: i for i, pl in enumerate(sorted(set(labels)))}
        self._pl_of_workload = {
            name: dense[labels[i]] for i, name in enumerate(names)
        }
        self.pl_models: Dict[int, SensitivityModel] = {
            dense[pl]: SensitivityModel(
                name=f"pl{dense[pl]}",
                coefficients=tuple(float(c) for c in centroids[pl]),
                fit_domain=models[0].fit_domain,
                basis=models[0].basis,
            )
            for pl in sorted(set(labels))
        }
        self.hierarchy = PLHierarchy(
            np.array([
                self.pl_models[i].as_vector(degree)
                for i in range(len(self.pl_models))
            ])
        )

    def pl_of(self, workload: str) -> int:
        try:
            return self._pl_of_workload[workload]
        except KeyError:
            raise RegistrationError(
                f"workload {workload!r} is not in the mapping database"
            ) from None

    def replicate(self) -> "MappingDatabase":
        """A replica (the design co-locates one with each controller)."""
        replica = object.__new__(MappingDatabase)
        replica.table = self.table
        replica._pl_of_workload = dict(self._pl_of_workload)
        replica.pl_models = dict(self.pl_models)
        replica.hierarchy = self.hierarchy
        return replica


@dataclass
class DistributedStats:
    """Control-plane accounting across all shards."""

    registrations: int = 0
    deregistrations: int = 0
    conn_creates: int = 0
    conn_destroys: int = 0
    forwards: int = 0
    port_allocations: int = 0
    optimizer_calls: int = 0
    calc_times: List[float] = field(default_factory=list)
    per_shard_messages: Counter = field(default_factory=Counter)


class _ControllerShard:
    """One controller instance owning a subset of switches."""

    def __init__(self, shard_id: int, db: MappingDatabase) -> None:
        self.shard_id = shard_id
        self.db = db
        self.port_apps: Dict[str, Counter] = {}


class _DatabaseView:
    """Adapts the static mapping database to the pipeline's
    :class:`~repro.core.pipeline.AllocationView` protocol.

    The database never re-clusters, so the epoch is constant and the
    hierarchy rows are the dense PL ids themselves."""

    def __init__(self, group: "DistributedControllerGroup") -> None:
        self._g = group

    @property
    def epoch(self) -> int:
        return 0

    def pl_of(self, job_id: str) -> Optional[int]:
        workload = self._g._apps.get(job_id)
        if workload is None:
            return None
        return self._g.db.pl_of(workload)

    def model_of(self, job_id: str) -> SensitivityModel:
        pl = self.pl_of(job_id)
        assert pl is not None
        return self._g.db.pl_models[pl]

    def workload_of(self, job_id: str) -> Optional[str]:
        return self._g._apps.get(job_id)

    def hierarchy(self) -> Optional[PLHierarchy]:
        return self._g.db.hierarchy

    def row_of(self, pl: int) -> int:
        return pl


class DistributedControllerGroup:
    """N controller shards + replicated mapping database.

    Satisfies both the fabric-policy protocol and the controller RPC
    surface, so the Saba library works with it unchanged.  The
    keyword arguments are the pipeline's (see
    :class:`~repro.core.pipeline.AllocationPipeline`); in particular
    ``use_weight_cache`` memoises Eq. 2 solutions on their full input
    (PL-centroid model contents, ``c_saba``, floor, solver).
    """

    name = "saba-distributed"

    def __init__(
        self,
        db: MappingDatabase,
        n_shards: int = 4,
        c_saba: float = DEFAULT_C_SABA,
        min_weight: float = DEFAULT_MIN_WEIGHT,
        solver: str = "auto",
        collapse_alpha: Optional[float] = None,
        reserved_queue: Optional[int] = None,
        use_weight_cache: bool = True,
        use_signature_cache: bool = True,
        coalesce_quantum: float = 0.0,
        observer: Optional[Observer] = None,
    ) -> None:
        if n_shards < 1:
            raise RegistrationError(f"n_shards must be >= 1: {n_shards}")
        self.db = db
        self.n_shards = n_shards
        self.c_saba = c_saba
        self.min_weight = min_weight
        self.solver = solver
        self.collapse_alpha = collapse_alpha
        self.reserved_queue = reserved_queue
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.stats = DistributedStats()
        self._shards = [
            _ControllerShard(i, db.replicate()) for i in range(n_shards)
        ]
        self._owner_of_switch: Dict[str, int] = {}
        self._apps: Dict[str, str] = {}
        self._fabric: Optional[FluidFabric] = None
        self._schedulers: Dict[str, LinkScheduler] = {}
        self.pipeline = AllocationPipeline(
            _DatabaseView(self),
            self._counter_of,
            metrics_prefix="distributed",
            c_saba=c_saba,
            min_weight=min_weight,
            solver=solver,
            reserved_queue=reserved_queue,
            use_weight_cache=use_weight_cache,
            use_signature_cache=use_signature_cache,
            coalesce_quantum=coalesce_quantum,
            observer=self.observer,
            mirror_stats=self.stats,
            port_context=self._port_context,
        )

    # -- controller RPC surface --------------------------------------------------

    def rpc_methods(self) -> Dict[str, object]:
        return {
            "app_register": self.app_register,
            "app_deregister": self.app_deregister,
            "conn_create": self.conn_create,
            "conn_destroy": self.conn_destroy,
            "ping": self.ping,
        }

    def ping(self) -> Dict[str, object]:
        """Liveness probe for the resilient RPC layer; side-effect free."""
        return {"ok": True, "apps": len(self._apps)}

    def app_register(self, job_id: str, workload: str) -> int:
        """PL lookup is a database read -- no global re-clustering."""
        if job_id in self._apps:
            raise RegistrationError(f"application {job_id!r} already registered")
        pl = self.db.pl_of(workload)
        self._apps[job_id] = workload
        self.stats.registrations += 1
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("distributed.registrations").inc()
            obs.emit(APP_REGISTERED, self._sim_now(), job=job_id,
                     workload=workload, pl=pl)
        return pl

    def app_deregister(self, job_id: str) -> None:
        if job_id not in self._apps:
            raise RegistrationError(f"application {job_id!r} is not registered")
        del self._apps[job_id]
        self.stats.deregistrations += 1
        affected = [
            link_id
            for shard in self._shards
            for link_id, counter in shard.port_apps.items()
            if job_id in counter
        ]
        for shard in self._shards:
            for counter in shard.port_apps.values():
                counter.pop(job_id, None)
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("distributed.deregistrations").inc()
            obs.emit(APP_DEREGISTERED, self._sim_now(), job=job_id)
        # A deregistered application may leave connections behind on
        # its ports; their allocations must be re-derived without it
        # (the centralized controller always did -- parity fix).
        self.pipeline.reallocate(affected)

    def conn_create(self, job_id: str, path: Sequence[str]) -> None:
        if job_id not in self._apps:
            raise RegistrationError(
                f"connection for unregistered application {job_id!r}"
            )
        self.stats.conn_creates += 1
        self._walk_path(path, job_id, delta=+1)
        self.pipeline.reallocate(path, coalesce=True)

    def conn_destroy(self, job_id: str, path: Sequence[str]) -> None:
        """Tear down a connection (symmetric with :meth:`conn_create`:
        unregistered applications are rejected, not silently ignored)."""
        if job_id not in self._apps:
            raise RegistrationError(
                f"teardown for unregistered application {job_id!r}"
            )
        self.stats.conn_destroys += 1
        self._walk_path(path, job_id, delta=-1)
        self.pipeline.reallocate(path, coalesce=True)

    def _sim_now(self) -> float:
        """Simulated timestamp for event records (0 when detached)."""
        return self._fabric.sim.now if self._fabric is not None else 0.0

    def _walk_path(self, path: Sequence[str], job_id: str, delta: int) -> None:
        """Hop from shard to shard along the path (Section 5.4).

        Pure control-plane accounting: the shard owning each port
        updates its connection counters; the allocation itself is the
        shared pipeline's job afterwards."""
        obs = self.observer
        if obs.enabled:
            obs.emit(
                CONN_CREATED if delta > 0 else CONN_DESTROYED,
                self._sim_now(), job=job_id, links=list(path),
            )
        previous_shard: Optional[int] = None
        for link_id in path:
            shard_id = self._shard_of_link(link_id)
            shard = self._shards[shard_id]
            if previous_shard is not None and shard_id != previous_shard:
                self.stats.forwards += 1
            previous_shard = shard_id
            self.stats.per_shard_messages[shard_id] += 1
            counter = shard.port_apps.setdefault(link_id, Counter())
            counter[job_id] += delta
            if counter[job_id] <= 0:
                del counter[job_id]
            if not counter:
                del shard.port_apps[link_id]

    def _shard_of_link(self, link_id: str) -> int:
        if self._fabric is None:
            raise RegistrationError("controller group is not attached")
        link = self._fabric.topology.link(link_id)
        owner = self._owner_of_switch.get(link.src)
        if owner is None:
            # Server NIC ports are managed by the shard of the first
            # switch they feed.
            owner = self._owner_of_switch.get(link.dst, 0)
        return owner

    # -- pipeline wiring --------------------------------------------------------

    def _counter_of(self, link_id: str) -> Optional[Counter]:
        shard = self._shards[self._shard_of_link(link_id)]
        return shard.port_apps.get(link_id)

    def _port_context(self, link_id: str) -> Mapping[str, object]:
        return {"shard": self._shard_of_link(link_id)}

    # -- observability ----------------------------------------------------------

    def describe_port(self, link_id: str) -> Dict[str, object]:
        """Operator view of one port (delegates to the pipeline)."""
        return self.pipeline.describe_port(link_id)

    # -- benchmarking support ---------------------------------------------------

    def recompute_all_ports(self) -> float:
        """Recompute every known port's allocation; returns seconds."""
        return self.pipeline.recompute_ports([
            link_id
            for shard in self._shards
            for link_id in shard.port_apps
        ])

    # -- FabricPolicy -----------------------------------------------------------------

    def attach(self, fabric: FluidFabric) -> None:
        self._fabric = fabric
        switches = sorted(fabric.topology.switches)
        for i, switch in enumerate(switches):
            self._owner_of_switch[switch] = i % self.n_shards
        self.pipeline.attach(fabric)
        for state in fabric.topology.link_states.values():
            state.efficiency_fn = None

    def scheduler_of(self, link_id: str) -> LinkScheduler:
        scheduler = self._schedulers.get(link_id)
        if scheduler is None:
            if self._fabric is None:
                raise RegistrationError("controller group is not attached")
            qtable = self._fabric.topology.port_table(link_id)
            scheduler = make_port_scheduler(qtable, self.collapse_alpha)
            self._schedulers[link_id] = scheduler
        return scheduler

    def on_flow_started(self, flow) -> None:  # noqa: D102
        pass

    def on_flow_finished(self, flow) -> None:  # noqa: D102
        pass
