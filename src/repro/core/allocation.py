"""The Eq. 2 weight optimiser.

For applications ``A = {a_1 .. a_n}`` sending flows through one switch
output port, find weights ``W = {w_1 .. w_n}``:

    minimize    sum_i D_i(w_i)
    subject to  sum_i w_i = C_saba,   w_i >= w_min            (Eq. 2)

where ``D_i`` are the fitted sensitivity models and ``C_saba`` is the
link-capacity share reserved for Saba-compliant applications.

Three solvers are provided:

* ``"slsqp"`` -- scipy's Sequential Least Squares Programming, the same
  algorithm the paper uses via NLopt (Section 7.2).  Handles arbitrary
  (including non-convex) polynomial models.
* ``"kkt"`` -- water-filling on the KKT conditions: when every model is
  convex and decreasing, the optimum equalises marginal utilities,
  ``D_i'(w_i) = -lambda`` with box clamping, so an outer bisection on
  ``lambda`` plus inner bisections on each ``D_i'`` solves the problem
  in ``O(n log^2)`` -- orders of magnitude faster than SLSQP at
  datacenter port counts (the ablation benchmark quantifies this).
  The inner solve is scalar float arithmetic per model, bit-identical
  to a vectorised numpy formulation (see the KKT section below).
* ``"projgrad"`` -- projected gradient descent onto the simplex; a
  dependency-free fallback that also handles non-convex models
  approximately.

``"auto"`` picks ``kkt`` when legal, else ``slsqp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AllocationError
from repro.core.sensitivity import SensitivityModel

_SOLVERS = ("auto", "slsqp", "kkt", "projgrad")

#: Default weight floor: no application is starved below 10 % of the
#: Saba share (WFQ "is not subject to starvation", Section 5.2; the
#: floor also hedges against model error in the starvation region and
#: bounds the worst-case slowdown of de-prioritised applications).
#: The controller scales the floor down when more than ~1/floor
#: applications share a port.
DEFAULT_MIN_WEIGHT = 0.10


@dataclass(frozen=True)
class AllocationProblem:
    """One Eq. 2 instance (a single switch output port)."""

    models: Tuple[SensitivityModel, ...]
    total: float = 1.0
    min_weight: float = DEFAULT_MIN_WEIGHT

    def __post_init__(self) -> None:
        if not self.models:
            raise AllocationError("no applications to allocate for")
        if not 0.0 < self.total <= 1.0:
            raise AllocationError(f"total must be in (0, 1]: {self.total}")
        if self.min_weight < 0:
            raise AllocationError(f"negative min_weight: {self.min_weight}")
        if self.min_weight * len(self.models) > self.total + 1e-12:
            raise AllocationError(
                f"{len(self.models)} applications need at least "
                f"{self.min_weight * len(self.models):.3f} capacity, "
                f"but only {self.total} is available"
            )

    def objective(self, weights: Sequence[float]) -> float:
        """Total predicted slowdown at ``weights``."""
        return _sum_left([m.predict(w) for m, w in zip(self.models, weights)])


def equal_split(problem: AllocationProblem) -> List[float]:
    """The max-min strawman: every application gets the same share."""
    n = len(problem.models)
    return [problem.total / n] * n


def optimize_weights(
    models: Sequence[SensitivityModel],
    total: float = 1.0,
    min_weight: float = DEFAULT_MIN_WEIGHT,
    solver: str = "auto",
    stats: Optional[dict] = None,
) -> List[float]:
    """Solve Eq. 2; returns one weight per model, summing to ``total``.

    ``stats``, when given, is filled in place with solver telemetry:
    ``{"solver": <name actually used>, "iterations": <int>}`` --
    consumed by the observability layer's ``solve.end`` events.
    """
    if solver not in _SOLVERS:
        raise AllocationError(f"unknown solver {solver!r}; use one of {_SOLVERS}")
    problem = AllocationProblem(
        models=tuple(models), total=total, min_weight=min_weight
    )
    if stats is None:
        stats = {}
    n = len(problem.models)
    if n == 1:
        stats.update(solver="direct", iterations=0)
        return [problem.total]
    if problem.min_weight * n >= problem.total - 1e-9:
        # The floor consumes the whole budget: the equal split is the
        # only feasible point.
        stats.update(solver="equal", iterations=0)
        return equal_split(problem)
    if solver == "auto":
        hi = problem.total - (n - 1) * problem.min_weight
        convex = all(
            m.is_convex_decreasing(problem.min_weight, hi)
            for m in problem.models
        )
        solver = "kkt" if convex else "slsqp"
    if solver == "kkt":
        return _solve_kkt(problem, stats)
    if solver == "projgrad":
        return _solve_projected_gradient(problem, stats=stats)
    return _solve_slsqp(problem, stats)


# -- KKT water-filling ---------------------------------------------------------
#
# At the optimum of Eq. 2 with convex decreasing models, every
# non-clamped application sits where its marginal benefit equals a
# shared multiplier: D_i'(w_i) = -lambda.  The solver inverts each
# marginal by bisection and bisects on lambda to meet the capacity
# constraint -- O(n) per lambda probe, which keeps the Figure 12
# controller-overhead measurement tractable at datacenter application
# counts.  Ports carry a handful of applications, so the inner solve is
# plain float arithmetic per model: numpy's per-call overhead dominated
# on arrays of 2-7 entries.
#
# Numeric contract: the scalar code performs the same IEEE operations
# in the same order as the vectorised numpy formulation kept as the
# reference in tests/core/test_allocation.py (clip, ``1/b``, Horner on
# ``k*c_k``, ``-1/(b*b)``, each probe summed with ``np.sum``), so every
# weight is bit-identical to it.  See DESIGN.md section 5l.


class _Marginal:
    """``D'`` of one model on the bracket ``[lo, hi]`` of one solve.

    The bracket-end values are computed once per solve, so a model
    clamped to either end skips the inner bisection.
    """

    __slots__ = ("lo", "hi", "at", "at_lo", "at_hi")

    def __init__(self, model: SensitivityModel, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi
        self.at = model.derivative
        self.at_lo = self.at(lo)
        self.at_hi = self.at(hi)

    def weight_at(self, target: float, iters: int = 30) -> float:
        """Solve ``D'(w) = target`` on ``[lo, hi]`` by bisection.

        For convex decreasing ``D``, ``D'`` is increasing, so the root
        is unique; outside the bracket the answer clamps to the cap
        (gain still above the target there) or else the floor (gain
        already below it).
        """
        if self.at_hi <= target:
            return self.hi
        if self.at_lo >= target:
            return self.lo
        a, b = self.lo, self.hi
        for _ in range(iters):
            mid = 0.5 * (a + b)
            if self.at(mid) < target:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)


def _solve_kkt(
    problem: AllocationProblem, stats: Optional[dict] = None
) -> List[float]:
    """Bisection on the shared marginal ``lambda``."""
    if stats is None:
        stats = {}
    n = len(problem.models)
    lo_w = problem.min_weight
    hi_w = problem.total - (n - 1) * problem.min_weight
    marginals = [_Marginal(m, lo_w, hi_w) for m in problem.models]
    probes = 0

    def weights(lam: float) -> List[float]:
        return [m.weight_at(-lam) for m in marginals]

    def excess(lam: float) -> float:
        nonlocal probes
        probes += 1
        return float(np.sum(weights(lam))) - problem.total

    # Bracket lambda: at lambda -> 0+ every app wants its cap; at a huge
    # lambda every app drops to the floor.
    if excess(0.0) <= 0.0:
        # All models (near-)insensitive: fall back to an equal split.
        stats.update(solver="equal", iterations=probes)
        return equal_split(problem)
    lam_hi = 1.0
    for _ in range(60):
        if excess(lam_hi) <= 0.0:
            break
        lam_hi *= 4.0
    else:
        raise AllocationError("could not bracket lambda; models degenerate")
    # Brent needs far fewer probes than plain bisection, and each probe
    # is a full inner solve -- this is the hot path of the Figure 12
    # controller-overhead measurement.
    from scipy import optimize as _sopt

    lam_star = _sopt.brentq(
        excess, 0.0, lam_hi, xtol=1e-6, rtol=1e-6, maxiter=60
    )
    stats.update(solver="kkt", iterations=probes)
    return _renormalise(weights(lam_star), problem)


# -- SLSQP -----------------------------------------------------------------------


def _solve_slsqp(
    problem: AllocationProblem, stats: Optional[dict] = None
) -> List[float]:
    from scipy import optimize  # local import: keep scipy optional at import time

    n = len(problem.models)
    x0 = np.full(n, problem.total / n)
    bounds = [
        (problem.min_weight, problem.total - (n - 1) * problem.min_weight)
    ] * n

    def objective(x: np.ndarray) -> float:
        return problem.objective(x.tolist())

    result = optimize.minimize(
        objective,
        x0,
        method="SLSQP",
        bounds=bounds,
        constraints=[{
            "type": "eq",
            "fun": lambda x: float(np.sum(x) - problem.total),
        }],
        options={"maxiter": 200, "ftol": 1e-9},
    )
    if not result.success and not np.isfinite(result.fun):
        raise AllocationError(f"SLSQP failed: {result.message}")
    if stats is not None:
        stats.update(solver="slsqp", iterations=int(result.nit))
    return _renormalise([float(w) for w in result.x], problem)


# -- Projected gradient ------------------------------------------------------------


def _project_simplex_with_floor(
    x: np.ndarray, total: float, floor: float
) -> np.ndarray:
    """Euclidean projection onto {w : sum w = total, w >= floor}.

    Substituting ``v = w - floor`` reduces to projection onto the
    scaled simplex {v >= 0, sum v = total - n*floor} (Duchi et al.).
    """
    n = len(x)
    budget = total - n * floor
    v = x - floor
    if budget <= 0:
        return np.full(n, floor)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho_candidates = u - (css - budget) / np.arange(1, n + 1)
    rho = int(np.nonzero(rho_candidates > 0)[0][-1])
    theta = (css[rho] - budget) / (rho + 1)
    return np.maximum(v - theta, 0.0) + floor


def _solve_projected_gradient(
    problem: AllocationProblem,
    iters: int = 400,
    lr: float = 0.05,
    stats: Optional[dict] = None,
) -> List[float]:
    if stats is not None:
        stats.update(solver="projgrad", iterations=iters)
    n = len(problem.models)
    x = np.full(n, problem.total / n)
    best = x.copy()
    best_val = problem.objective(x)
    for step in range(iters):
        grad = np.array([m.derivative(float(w)) for m, w in zip(problem.models, x)])
        x = _project_simplex_with_floor(
            x - lr * grad / (1.0 + step / 40.0), problem.total, problem.min_weight
        )
        val = problem.objective(x)
        if val < best_val:
            best_val, best = val, x.copy()
    return _renormalise([float(w) for w in best], problem)


# -- shared ------------------------------------------------------------------------


def _sum_left(values: Iterable[float]) -> float:
    """Sum left to right from ``0.0``, uncompensated.

    Builtin ``sum`` over floats compensates its rounding from Python
    3.12 on (Neumaier) but not on 3.10/3.11, so it would make Eq. 2
    objectives, and hence SLSQP weights, differ across interpreters.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _renormalise(weights: List[float], problem: AllocationProblem) -> List[float]:
    """Clamp to the floor and rescale the slack so weights sum exactly."""
    floor = problem.min_weight
    w = np.maximum(np.asarray(weights, dtype=float), floor)
    slack = w - floor
    budget = problem.total - floor * len(w)
    total_slack = float(slack.sum())
    if budget <= 0 or total_slack <= 0:
        out = np.full(len(w), problem.total / len(w))
    else:
        out = floor + slack * (budget / total_slack)
    return [float(v) for v in out]
