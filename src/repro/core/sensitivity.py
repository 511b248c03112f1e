"""Polynomial bandwidth-sensitivity models (Eq. 1) and their accuracy.

The profiler produces ``Samples = {(b_1, d_1), ..., (b_n, d_n)}`` where
``b`` is the available bandwidth *fraction* in (0, 1] and ``d`` the
measured slowdown versus unthrottled execution (d >= 1).  A sensitivity
model is the least-squares polynomial

    D(b) = c_0 + c_1 x + c_2 x^2 + ... + c_k x^k          (Eq. 1)

whose goodness of fit is reported as the coefficient of determination
R^2 (Section 4.2).

Basis choice
------------

The paper regresses directly on ``x = b``.  That works for its testbed
measurements, whose slowdowns stay below ~4.5x even at 5 % bandwidth
(real deployments saturate: disk, stragglers and framework overheads
dominate once the network is very slow).  Our simulated workloads
follow the fluid ideal -- communication time is exactly proportional to
``1/b`` -- so slowdowns at 5 % reach 16x and a low-degree polynomial in
``b`` oscillates badly in the mid-range, which would poison the Eq. 2
optimisation.  We therefore default to ``x = 1/b`` (``basis =
"inverse"``): the same linear-least-squares pipeline, the same role
for the degree k, but a basis that can represent hyperbolic curves.
``basis="power"`` reproduces the paper's literal form.  See DESIGN.md
section 3.

Independently of the basis, fits are constrained to be non-increasing
in ``b`` by default (slowdown physically cannot improve as bandwidth
shrinks), keeping Eq. 2 well-posed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProfilingError

#: Bandwidth fractions the reference profiler sweeps (Section 7.1).
PROFILE_FRACTIONS = (0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 1.0)

#: Below this R^2 a fitted model is considered low quality: consumers
#: (controller registration, the online estimator's confidence gate)
#: emit a ``model.low_fit`` warning / refuse to trust the fit.  The
#: paper reports R^2 >= 0.96 for every Table-1 workload at k=3
#: (Figure 6a), so 0.8 flags genuinely bad fits without tripping on
#: profiling noise.
LOW_FIT_R2 = 0.8

_BASES = ("inverse", "power")


@dataclass(frozen=True)
class SensitivityModel:
    """A fitted Eq. 1 model for one application.

    Attributes:
        name: application/workload name.
        coefficients: ``(c_0, ..., c_k)``; ``D = sum c_i * x**i`` with
            ``x = 1/b`` (inverse basis) or ``x = b`` (power basis).
        fit_domain: bandwidth-fraction interval the samples covered;
            predictions clip to it because polynomials extrapolate
            wildly.
        basis: ``"inverse"`` or ``"power"`` (see module docstring).
        r_squared: goodness of fit against the samples the model was
            fitted on (:func:`fit_sensitivity_model` attaches it);
            ``None`` for hand-constructed models.  Consumers compare
            it against :data:`LOW_FIT_R2` to decide whether the model
            is trustworthy.
    """

    name: str
    coefficients: Tuple[float, ...]
    fit_domain: Tuple[float, float] = (PROFILE_FRACTIONS[0], 1.0)
    basis: str = "inverse"
    r_squared: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ProfilingError("a model needs at least one coefficient")
        lo, hi = self.fit_domain
        if not 0.0 < lo < hi <= 1.0:
            raise ProfilingError(f"bad fit domain {self.fit_domain}")
        if self.basis not in _BASES:
            raise ProfilingError(f"unknown basis {self.basis!r}; use {_BASES}")

    @property
    def degree(self) -> int:
        """Degree of the polynomial (k in Eq. 1)."""
        return len(self.coefficients) - 1

    def _clip(self, b: float) -> float:
        lo, hi = self.fit_domain
        return min(max(b, lo), hi)

    def _x(self, b: float) -> float:
        return 1.0 / b if self.basis == "inverse" else b

    def _poly(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    @cached_property
    def _deriv_terms(self) -> Tuple[float, ...]:
        """``i * c_i`` from the leading term down: Horner's order for D'."""
        return tuple(
            i * self.coefficients[i] for i in range(self.degree, 0, -1)
        )

    def _raw(self, b: float) -> float:
        """Model value at ``b`` without clipping the output."""
        return self._poly(self._x(b))

    def predict(self, b: float) -> float:
        """Predicted slowdown at bandwidth fraction ``b``.

        ``b`` is clipped to the fit domain and the result floored at
        1.0 (an application cannot run faster than unthrottled).
        """
        return max(1.0, self._raw(self._clip(b)))

    def derivative(self, b: float) -> float:
        """d D / d b at ``b`` (clipped to the fit domain)."""
        b = self._clip(b)
        inverse = self.basis == "inverse"
        x = 1.0 / b if inverse else b
        acc = 0.0
        for term in self._deriv_terms:
            acc = acc * x + term
        if inverse:
            return acc * (-1.0 / (b * b))
        return acc

    def is_convex_decreasing(self, lo: float, hi: float, samples: int = 33) -> bool:
        """Check D' <= 0 and D'' >= 0 numerically on [lo, hi] (in b).

        The Eq. 2 water-filling solver requires this; non-conforming
        models fall back to SLSQP.  The verdict is a pure function of
        the model and the arguments, so it is memoised per instance
        (the memo is not part of equality, hashing, ``repr`` or
        pickling, and :func:`dataclasses.replace` starts a fresh one).
        Eq. 2 asks about one interval per application count at a port,
        so the memo stays small.
        """
        memo = self._convexity_memo
        key = (lo, hi, samples)
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = self._check_convex_decreasing(
                lo, hi, samples
            )
        return verdict

    def _check_convex_decreasing(
        self, lo: float, hi: float, samples: int
    ) -> bool:
        """The uncached :meth:`is_convex_decreasing` computation."""
        lo = max(lo, self.fit_domain[0])
        hi = min(hi, self.fit_domain[1])
        if lo >= hi:
            return False
        xs = np.linspace(lo, hi, samples)
        d1 = np.array([self.derivative(float(x)) for x in xs])
        if np.any(d1 > 1e-9):
            return False
        d2 = np.diff(d1) / np.diff(xs)
        return bool(np.all(d2 >= -1e-6))

    @cached_property
    def _convexity_memo(self) -> Dict[Tuple[float, float, int], bool]:
        return {}

    @cached_property
    def solve_key(self) -> str:
        """Exact text of everything Eq. 2 reads from this model.

        ``basis``, ``fit_domain`` and ``coefficients`` (not ``name``
        or ``r_squared``), with every float in ``float.hex`` form, so
        two models share a key only if every solve treats them
        bit-identically.  Built once per instance; a string because
        its hash is cached, which keeps memo lookups keyed on tuples
        of these as cheap as lookups keyed on model names.
        """
        numbers = self.fit_domain + self.coefficients
        return self.basis + ":" + ",".join(float(v).hex() for v in numbers)

    def __getstate__(self) -> Dict[str, object]:
        # Only the fields: the cached properties above are derived
        # data and rebuild on demand after unpickling or copying.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def as_vector(self, degree: int | None = None) -> np.ndarray:
        """Coefficient vector, zero-padded/truncated to ``degree + 1``.

        Clustering compares models in coefficient space (Section
        5.3.1), which requires a common dimensionality (and basis).
        """
        k = self.degree if degree is None else degree
        vec = np.zeros(k + 1)
        upto = min(len(self.coefficients), k + 1)
        vec[:upto] = self.coefficients[:upto]
        return vec


def fit_sensitivity_model(
    name: str,
    samples: Sequence[Tuple[float, float]],
    degree: int = 3,
    basis: str = "inverse",
    monotone: bool = True,
    convex: bool = False,
) -> SensitivityModel:
    """Least-squares fit of Eq. 1 to profiling samples.

    Args:
        name: application name recorded in the model.
        samples: ``(bandwidth_fraction, slowdown)`` pairs.
        degree: polynomial degree k (the paper studies k in {1, 2, 3}).
        basis: regression variable, ``"inverse"`` (x = 1/b, default) or
            ``"power"`` (x = b, the paper's literal Eq. 1).
        monotone: constrain the fit to be non-increasing in b over the
            fit domain (see module docstring).
        convex: additionally constrain D''(b) >= 0 over the fit domain,
            making the fitted model convex-decreasing by construction.
            The offline profiler's dense 7-point grids rarely need
            this; the online estimator's small noisy windows do, so
            its refits always stay inside the Eq. 2 water-filling
            solver's fast path.

    The fitted model carries its own goodness of fit in
    ``model.r_squared`` (against the samples it was fitted on).

    Raises:
        ProfilingError: fewer samples than coefficients, or samples
            outside (0, 1] / below a slowdown of ~1.
    """
    if degree < 1:
        raise ProfilingError(f"degree must be >= 1, got {degree}")
    if basis not in _BASES:
        raise ProfilingError(f"unknown basis {basis!r}; use {_BASES}")
    if len(samples) < degree + 1:
        raise ProfilingError(
            f"need at least {degree + 1} samples for degree {degree}, "
            f"got {len(samples)}"
        )
    bs = np.array([s[0] for s in samples], dtype=float)
    ds = np.array([s[1] for s in samples], dtype=float)
    if np.any(bs <= 0) or np.any(bs > 1.0):
        raise ProfilingError("bandwidth fractions must be in (0, 1]")
    if np.any(ds < 0.999):
        raise ProfilingError("slowdowns below 1.0 are not meaningful")
    xs = 1.0 / bs if basis == "inverse" else bs
    vander = np.vander(xs, degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vander, ds, rcond=None)
    domain = (float(bs.min()), float(bs.max()))
    x_lo = 1.0 if basis == "inverse" else domain[0]
    x_hi = 1.0 / domain[0] if basis == "inverse" else domain[1]
    # Monotone in b: non-decreasing in x for inverse basis,
    # non-increasing in x for power basis.
    sign = 1.0 if basis == "inverse" else -1.0
    needs_monotone = monotone and _min_signed_derivative(
        coeffs, x_lo, x_hi, sign
    ) < -1e-9
    needs_convex = convex and _min_b_second_derivative(
        coeffs, domain, basis
    ) < -1e-9
    if needs_monotone or needs_convex:
        coeffs = _constrained_fit(
            vander, ds, coeffs, x_lo, x_hi, degree, sign,
            domain=domain, basis=basis,
            monotone=monotone, convex=convex,
        )
    model = SensitivityModel(
        name=name,
        coefficients=tuple(float(c) for c in coeffs),
        fit_domain=domain,
        basis=basis,
    )
    return replace(model, r_squared=r_squared(model, samples))


def _signed_derivative_grid(
    coeffs: np.ndarray, x_lo: float, x_hi: float, sign: float, grid: int = 65
) -> np.ndarray:
    xs = np.linspace(x_lo, x_hi, grid)
    deriv = np.zeros_like(xs)
    for i in range(1, len(coeffs)):
        deriv += i * coeffs[i] * xs ** (i - 1)
    return sign * deriv


def _min_signed_derivative(
    coeffs: np.ndarray, x_lo: float, x_hi: float, sign: float
) -> float:
    return float(_signed_derivative_grid(coeffs, x_lo, x_hi, sign).min())


def _b_second_derivative_rows(
    degree: int, domain: Tuple[float, float], basis: str, grid: int = 65
) -> np.ndarray:
    """Rows of D''(b) at grid points, linear in the coefficients.

    Inverse basis: ``D(b) = sum c_i b^-i`` so ``D'' = sum c_i i (i+1)
    b^-(i+2)``; power basis: ``D'' = sum c_i i (i-1) b^(i-2)``.
    """
    bs = np.linspace(domain[0], domain[1], grid)
    rows = np.zeros((grid, degree + 1))
    for i in range(1, degree + 1):
        if basis == "inverse":
            rows[:, i] = i * (i + 1) * bs ** (-(i + 2))
        elif i >= 2:
            rows[:, i] = i * (i - 1) * bs ** (i - 2)
    return rows


def _min_b_second_derivative(
    coeffs: np.ndarray, domain: Tuple[float, float], basis: str
) -> float:
    rows = _b_second_derivative_rows(len(coeffs) - 1, domain, basis)
    return float((rows @ coeffs).min())


def _constrained_fit(
    vander: np.ndarray,
    ds: np.ndarray,
    x0: np.ndarray,
    x_lo: float,
    x_hi: float,
    degree: int,
    sign: float,
    domain: Tuple[float, float],
    basis: str,
    monotone: bool,
    convex: bool,
    grid: int = 65,
) -> np.ndarray:
    """Least squares with monotonicity/convexity constraints at grid
    points.

    Both constraints are linear in the coefficients, so this is a
    small convex QP; SLSQP solves it in a few milliseconds for k <= 3.
    """
    from scipy import optimize

    blocks = []
    if monotone:
        xs = np.linspace(x_lo, x_hi, grid)
        dmat = np.zeros((grid, degree + 1))
        for i in range(1, degree + 1):
            dmat[:, i] = i * xs ** (i - 1)
        blocks.append(sign * dmat)  # rows must be >= 0
    if convex:
        blocks.append(_b_second_derivative_rows(degree, domain, basis, grid))
    cmat = np.vstack(blocks)

    def objective(c: np.ndarray) -> float:
        r = vander @ c - ds
        return float(r @ r)

    def objective_grad(c: np.ndarray) -> np.ndarray:
        return 2.0 * (vander.T @ (vander @ c - ds))

    def attempt(mat: np.ndarray, start: np.ndarray) -> "optimize.OptimizeResult":
        return optimize.minimize(
            objective,
            start,
            jac=objective_grad,
            method="SLSQP",
            constraints=[{
                "type": "ineq",
                "fun": lambda c: mat @ c,
                "jac": lambda c: mat,
            }],
            options={"maxiter": 300, "ftol": 1e-12},
        )

    result = attempt(cmat, x0)
    if result.success or float((cmat @ result.x).min()) >= -1e-6:
        return result.x
    # SLSQP's linesearch (and the absolute violation check above)
    # misjudge mixed constraint scales: the second-derivative rows
    # can reach ~1e7 while the monotonicity rows stay O(1), so a
    # solution violating a huge row by an absolute 1e-4 is feasible
    # to ~1e-11 relative.  Retry with unit-norm rows -- the feasible
    # set is unchanged -- and, if need be, from the always-feasible
    # zero vector (cmat @ 0 == 0).  Retries run only after the
    # original solve fails, so previously-working fits are
    # bit-unchanged.
    norms = np.linalg.norm(cmat, axis=1)
    scaled = cmat / np.where(norms > 0.0, norms, 1.0)[:, None]
    for start in (x0, np.zeros_like(x0)):
        result = attempt(scaled, start)
        if result.success or float((scaled @ result.x).min()) >= -1e-6:
            return result.x
    raise ProfilingError(f"constrained fit failed: {result.message}")


def r_squared(
    model: SensitivityModel, samples: Sequence[Tuple[float, float]]
) -> float:
    """Coefficient of determination of ``model`` against ``samples``.

    Used both for goodness of fit (same samples the model was fitted
    on, Figure 6a) and for *predictive* accuracy when the runtime
    configuration differs from the profiled one (Figures 6b/6c): the
    model fitted at 1x is scored against samples measured at 0.1x/10x
    dataset size or 0.5x-4x node count.

    Clamped below at 0.0, matching how the paper reports it.
    """
    if not samples:
        raise ProfilingError("cannot score a model against zero samples")
    ds = np.array([d for _, d in samples], dtype=float)
    preds = np.array([model._raw(model._clip(b)) for b, _ in samples])
    ss_res = float(np.sum((ds - preds) ** 2))
    ss_tot = float(np.sum((ds - ds.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return max(0.0, 1.0 - ss_res / ss_tot)
