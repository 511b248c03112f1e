"""The model-provider seam between the controller and its models.

The controller used to read Eq. 1 models straight out of a
:class:`~repro.core.table.SensitivityTable`; online estimation needs
that lookup to be a policy, not a dictionary access.  A
:class:`ModelProvider` answers three questions:

* ``has_model(workload)`` -- may this workload register at all?
* ``model_of(workload)`` -- the model to use for it *right now*;
* ``epoch`` -- a monotonic revision that changes whenever any answer
  to ``model_of`` may have changed.

``epoch`` is load-bearing: the allocation pipeline's per-port
signature cache is keyed on the controller view's epoch, and online
refits change model *coefficients* without changing model *names* --
without the provider epoch folded in, a refit would be invisible to
that cache and stale port tables would keep being enforced.  (The
pipeline's Eq. 2 memo is keyed on model contents, so a refit misses
it regardless of the epoch.)

Three implementations:

* :class:`OfflineModelProvider` -- the classic table, epoch pinned at
  0 (offline-only runs stay bit-identical to the pre-provider code);
* :class:`OnlineModelProvider` -- trusted online fit, else prior;
* :class:`HybridModelProvider` -- trusted online fit, else offline
  table entry, else prior.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, runtime_checkable

from repro.core.sensitivity import SensitivityModel
from repro.core.table import SensitivityTable
from repro.obs.events import NULL_OBSERVER, ONLINE_FALLBACK, Observer
from repro.online.estimator import OnlineSensitivityEstimator
from repro.online.prior import conservative_prior


@runtime_checkable
class ModelProvider(Protocol):
    """What the controller needs from a source of sensitivity models."""

    @property
    def epoch(self) -> int:
        """Monotonic revision; bumps whenever any model may change."""
        ...

    def has_model(self, workload: str) -> bool:
        """Whether an application of ``workload`` may register."""
        ...

    def model_of(self, workload: str) -> SensitivityModel:
        """The model to allocate ``workload`` with right now."""
        ...


class OfflineModelProvider:
    """The pre-provider behaviour: models come from the table, period.

    ``epoch`` is always 0, so a controller view's combined epoch
    reduces to the controller's own -- offline runs are bit-identical
    to the code before the provider seam existed.
    """

    def __init__(self, table: SensitivityTable) -> None:
        self.table = table

    @property
    def epoch(self) -> int:
        return 0

    def has_model(self, workload: str) -> bool:
        return workload in self.table

    def model_of(self, workload: str) -> SensitivityModel:
        return self.table.get(workload)


class _EstimatorBacked:
    """Shared online-first lookup with fallback accounting."""

    def __init__(
        self,
        estimator: OnlineSensitivityEstimator,
        table: Optional[SensitivityTable] = None,
        prior_of: Optional[Callable[[str], SensitivityModel]] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.estimator = estimator
        self.table = table
        self.prior_of = prior_of if prior_of is not None else conservative_prior
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.lookups = 0
        self.fallbacks = 0
        self._priors: Dict[str, SensitivityModel] = {}
        self._announced: set = set()

    @property
    def epoch(self) -> int:
        return self.estimator.epoch

    def has_model(self, workload: str) -> bool:
        # Cold registration is the whole point: any workload can
        # register; untrusted ones are just served a fallback.
        return True

    @property
    def fallback_ratio(self) -> float:
        """Fraction of ``model_of`` calls served by a fallback source
        (offline table entry or prior) instead of a trusted online
        fit.  1.0 before any lookups -- "all fallback" is the honest
        description of a provider nobody has consulted."""
        if self.lookups == 0:
            return 1.0
        return self.fallbacks / self.lookups

    def model_of(self, workload: str) -> SensitivityModel:
        self.lookups += 1
        fitted = self.estimator.model_for(workload)
        if fitted is not None:
            self._announced.discard(workload)
            return fitted
        self.fallbacks += 1
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("online.provider_fallbacks").inc()
            if workload not in self._announced:
                # Announce the *transition* to fallback once per
                # workload, not every lookup: model_of runs inside the
                # per-port allocation loop and would flood the trace.
                self._announced.add(workload)
                source = (
                    "table"
                    if self.table is not None and workload in self.table
                    else "prior"
                )
                obs.emit(ONLINE_FALLBACK, 0.0, workload=workload,
                         source=source)
        if self.table is not None and workload in self.table:
            return self.table.get(workload)
        prior = self._priors.get(workload)
        if prior is None:
            prior = self._priors[workload] = self.prior_of(workload)
        return prior

    def stats(self) -> Dict[str, float]:
        return {
            "lookups": self.lookups,
            "fallbacks": self.fallbacks,
            "fallback_ratio": self.fallback_ratio,
        }


class OnlineModelProvider(_EstimatorBacked):
    """Trusted online fit, else prior -- no offline profiling at all."""

    def __init__(
        self,
        estimator: OnlineSensitivityEstimator,
        prior_of: Optional[Callable[[str], SensitivityModel]] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        super().__init__(estimator, table=None, prior_of=prior_of,
                         observer=observer)


class HybridModelProvider(_EstimatorBacked):
    """Trusted online fit, else offline table entry, else prior.

    The recommended production arrangement: profiled workloads keep
    their offline models until the live fit earns trust, unprofiled
    tenants ride the prior meanwhile.
    """

    def __init__(
        self,
        estimator: OnlineSensitivityEstimator,
        table: SensitivityTable,
        prior_of: Optional[Callable[[str], SensitivityModel]] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        super().__init__(estimator, table=table, prior_of=prior_of,
                         observer=observer)
