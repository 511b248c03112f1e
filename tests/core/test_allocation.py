"""Tests for the Eq. 2 weight optimiser."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError
from repro.core.allocation import (
    AllocationProblem,
    _renormalise,
    _solve_kkt,
    equal_split,
    optimize_weights,
)
from repro.core.sensitivity import (
    PROFILE_FRACTIONS,
    SensitivityModel,
    fit_sensitivity_model,
)

SOLVERS = ("slsqp", "kkt", "projgrad")


def _model(name, c, aux=0.0):
    """Hyperbolic-with-floor model: D(b) = 1-c + c/(b+aux), floored."""
    samples = [
        (b, max(1.0, (1 - c) + c / (b + aux))) for b in PROFILE_FRACTIONS
    ]
    return fit_sensitivity_model(name, samples, degree=3)


SENSITIVE = _model("sensitive", c=0.8)
INSENSITIVE = _model("insensitive", c=0.1, aux=0.4)


def test_single_app_gets_everything():
    for solver in SOLVERS + ("auto",):
        assert optimize_weights([SENSITIVE], solver=solver) == [1.0]


@pytest.mark.parametrize("solver", SOLVERS)
def test_weights_sum_to_total(solver):
    weights = optimize_weights(
        [SENSITIVE, INSENSITIVE, SENSITIVE], total=0.9, solver=solver
    )
    assert sum(weights) == pytest.approx(0.9, abs=1e-6)


@pytest.mark.parametrize("solver", SOLVERS)
def test_sensitive_app_gets_more(solver):
    w_sens, w_insens = optimize_weights(
        [SENSITIVE, INSENSITIVE], solver=solver
    )
    assert w_sens > w_insens + 0.1


@pytest.mark.parametrize("solver", SOLVERS)
def test_min_weight_respected(solver):
    weights = optimize_weights(
        [SENSITIVE, INSENSITIVE, INSENSITIVE],
        min_weight=0.05,
        solver=solver,
    )
    assert all(w >= 0.05 - 1e-9 for w in weights)


def test_identical_models_get_equal_weights():
    weights = optimize_weights([SENSITIVE, SENSITIVE, SENSITIVE])
    assert weights[0] == pytest.approx(weights[1], abs=0.02)
    assert weights[1] == pytest.approx(weights[2], abs=0.02)


def test_solvers_agree_on_convex_instance():
    models = [SENSITIVE, INSENSITIVE, _model("mid", c=0.4)]
    results = {
        solver: optimize_weights(models, solver=solver) for solver in SOLVERS
    }
    problem = AllocationProblem(models=tuple(models))
    objectives = {
        solver: problem.objective(w) for solver, w in results.items()
    }
    best = min(objectives.values())
    for solver, val in objectives.items():
        assert val <= best + 0.02, f"{solver} objective {val} vs best {best}"


def test_kkt_matches_slsqp_closely():
    models = [_model(f"m{i}", c=0.1 + 0.2 * i) for i in range(4)]
    w_kkt = optimize_weights(models, solver="kkt")
    w_slsqp = optimize_weights(models, solver="slsqp")
    for a, b in zip(w_kkt, w_slsqp):
        assert a == pytest.approx(b, abs=0.05)


def test_auto_solver_runs():
    weights = optimize_weights([SENSITIVE, INSENSITIVE], solver="auto")
    assert sum(weights) == pytest.approx(1.0, abs=1e-6)


def test_unknown_solver_rejected():
    with pytest.raises(AllocationError):
        optimize_weights([SENSITIVE], solver="magic")


def test_problem_validation():
    with pytest.raises(AllocationError):
        AllocationProblem(models=())
    with pytest.raises(AllocationError):
        AllocationProblem(models=(SENSITIVE,), total=0.0)
    with pytest.raises(AllocationError):
        AllocationProblem(models=(SENSITIVE,), min_weight=-0.1)
    with pytest.raises(AllocationError):
        # 3 apps x 0.5 floor > 1.0 total.
        AllocationProblem(
            models=(SENSITIVE, SENSITIVE, SENSITIVE), min_weight=0.5
        )


def test_equal_split():
    problem = AllocationProblem(models=(SENSITIVE, INSENSITIVE), total=0.8)
    assert equal_split(problem) == [0.4, 0.4]


def test_objective_evaluates_sum_of_slowdowns():
    problem = AllocationProblem(models=(SENSITIVE, INSENSITIVE))
    val = problem.objective([0.5, 0.5])
    assert val == pytest.approx(
        SENSITIVE.predict(0.5) + INSENSITIVE.predict(0.5)
    )


def test_skewed_beats_equal_for_mixed_sensitivities():
    """The crux of Section 2.2: an unequal split lowers total slowdown."""
    problem = AllocationProblem(models=(SENSITIVE, INSENSITIVE))
    optimal = optimize_weights([SENSITIVE, INSENSITIVE])
    assert problem.objective(optimal) < problem.objective([0.5, 0.5]) - 0.05


@given(
    cs=st.lists(
        st.floats(min_value=0.05, max_value=0.9), min_size=2, max_size=6
    )
)
@settings(max_examples=40, deadline=None)
def test_optimum_never_worse_than_equal_split(cs):
    models = [_model(f"m{i}", c=c) for i, c in enumerate(cs)]
    problem = AllocationProblem(models=tuple(models))
    weights = optimize_weights(models)
    assert sum(weights) == pytest.approx(1.0, abs=1e-5)
    assert problem.objective(weights) <= (
        problem.objective(equal_split(problem)) + 1e-4
    )


@given(
    n=st.integers(min_value=2, max_value=8),
    total=st.floats(min_value=0.5, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_feasibility_properties(n, total):
    models = [_model(f"m{i}", c=0.1 + 0.7 * i / n) for i in range(n)]
    weights = optimize_weights(models, total=total, min_weight=0.01)
    assert sum(weights) == pytest.approx(total, abs=1e-5)
    assert all(w >= 0.01 - 1e-9 for w in weights)


def test_floor_consumes_budget_returns_equal_split():
    models = [SENSITIVE] * 10
    weights = optimize_weights(models, total=1.0, min_weight=0.1)
    assert weights == pytest.approx([0.1] * 10)


def test_kkt_handles_mixed_degrees():
    low = fit_sensitivity_model(
        "low", [(b, max(1.0, 0.5 + 0.5 / b)) for b in PROFILE_FRACTIONS],
        degree=1,
    )
    high = fit_sensitivity_model(
        "high", [(b, max(1.0, 0.2 + 0.8 / b)) for b in PROFILE_FRACTIONS],
        degree=3,
    )
    weights = optimize_weights([low, high], solver="kkt")
    assert sum(weights) == pytest.approx(1.0, abs=1e-5)
    assert weights[1] > weights[0]  # steeper model earns more


def test_vectorised_kkt_matches_scalar_objective_at_scale():
    models = [
        _model(f"m{i}", c=0.05 + 0.9 * (i / 39)) for i in range(40)
    ]
    weights = optimize_weights(models, solver="kkt", min_weight=0.005)
    problem = AllocationProblem(
        models=tuple(models), min_weight=0.005
    )
    slsqp = optimize_weights(models, solver="slsqp", min_weight=0.005)
    assert problem.objective(weights) <= problem.objective(slsqp) * 1.02


def test_objective_sums_left_to_right():
    # Sequentially 1e16 + 1 + 1 rounds back to 1e16 at each step; a
    # compensated sum (builtin sum from Python 3.12 on) gives 1e16 + 2.
    models = tuple(
        SensitivityModel(f"c{i}", (c,)) for i, c in enumerate((1e16, 1.0, 1.0))
    )
    problem = AllocationProblem(models=models, min_weight=0.0)
    assert problem.objective([0.4, 0.3, 0.3]) == 1e16


# -- differential oracle: the numpy KKT formulation ---------------------------
#
# The water-filling solver once ran its inner solve vectorised with
# numpy.  The scalar solver must reproduce it bit for bit, so the numpy
# formulation is kept here as the reference.


class _ReferenceBatch:
    """Vectorised derivative evaluation for a set of models."""

    def __init__(self, models):
        self.n = len(models)
        degree = max(m.degree for m in models)
        self.coeffs = np.zeros((self.n, degree + 1))
        for i, m in enumerate(models):
            self.coeffs[i, : m.degree + 1] = m.coefficients
        self.inverse = np.array([m.basis == "inverse" for m in models])
        self.lo = np.array([m.fit_domain[0] for m in models])
        self.hi = np.array([m.fit_domain[1] for m in models])
        self.degree = degree

    def derivative(self, w):
        b = np.clip(w, self.lo, self.hi)
        x = np.where(self.inverse, 1.0 / b, b)
        acc = np.zeros(self.n)
        for k in range(self.degree, 0, -1):
            acc = acc * x + k * self.coeffs[:, k]
        return np.where(self.inverse, acc * (-1.0 / (b * b)), acc)


def _reference_weights_at_lambda(batch, lam, lo, hi, iters=30):
    target = -lam
    a = np.full(batch.n, lo)
    b = np.full(batch.n, hi)
    at_lo = batch.derivative(a) >= target
    at_hi = batch.derivative(b) <= target
    for _ in range(iters):
        mid = 0.5 * (a + b)
        below = batch.derivative(mid) < target
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    w = 0.5 * (a + b)
    w = np.where(at_lo, lo, w)
    w = np.where(at_hi, hi, w)
    return w


def _reference_solve_kkt(problem, stats):
    from scipy import optimize as _sopt

    n = len(problem.models)
    lo_w = problem.min_weight
    hi_w = problem.total - (n - 1) * problem.min_weight
    batch = _ReferenceBatch(problem.models)
    probes = 0

    def excess(lam):
        nonlocal probes
        probes += 1
        return float(
            _reference_weights_at_lambda(batch, lam, lo_w, hi_w).sum()
        ) - problem.total

    if excess(0.0) <= 0.0:
        stats.update(solver="equal", iterations=probes)
        return equal_split(problem)
    lam_hi = 1.0
    for _ in range(60):
        if excess(lam_hi) <= 0.0:
            break
        lam_hi *= 4.0
    else:
        raise AllocationError("could not bracket lambda; models degenerate")
    lam_star = _sopt.brentq(
        excess, 0.0, lam_hi, xtol=1e-6, rtol=1e-6, maxiter=60
    )
    weights = _reference_weights_at_lambda(batch, lam_star, lo_w, hi_w)
    stats.update(solver="kkt", iterations=probes)
    return _renormalise([float(w) for w in weights], problem)


@st.composite
def _kkt_model(draw, index):
    basis = draw(st.sampled_from(("inverse", "power")))
    degree = draw(st.integers(min_value=1, max_value=3))
    c0 = draw(st.floats(min_value=0.5, max_value=2.0))
    if basis == "inverse":
        # D = c0 + sum c_k / b^k with c_k >= 0: convex and decreasing.
        rest = [
            draw(st.floats(min_value=0.0, max_value=2.0))
            for _ in range(degree)
        ]
    else:
        rest = [draw(st.floats(min_value=-8.0, max_value=-0.1))] + [
            draw(st.floats(min_value=-1.0, max_value=3.0))
            for _ in range(degree - 1)
        ]
    lo = draw(st.floats(min_value=0.01, max_value=0.2))
    hi = draw(st.floats(min_value=0.7, max_value=1.0))
    return SensitivityModel(
        f"m{index}", tuple([c0] + rest), fit_domain=(lo, hi), basis=basis
    )


@st.composite
def _kkt_problem(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    models = tuple(draw(_kkt_model(i)) for i in range(n))
    total = draw(st.floats(min_value=0.5, max_value=1.0))
    share = draw(st.floats(min_value=0.0, max_value=0.9))
    return AllocationProblem(
        models=models, total=total, min_weight=share * total / n
    )


def _outcome(solve, problem):
    """Weights, stats and every ``(lambda, excess)`` probe Brent saw.

    The final weights are quantised by the inner bisection, so an
    ulp-level difference in a probe sum rarely shows in them; the
    probe trace shows it.
    """
    from scipy import optimize

    brentq = optimize.brentq
    probes = []

    def traced(f, *args, **kwargs):
        def probe(lam):
            value = f(lam)
            probes.append((lam, value))
            return value

        return brentq(probe, *args, **kwargs)

    stats = {}
    optimize.brentq = traced
    try:
        weights = solve(problem, stats)
    except (AllocationError, RuntimeError, ValueError) as exc:
        return ("raised", type(exc).__name__)
    finally:
        optimize.brentq = brentq
    return weights, stats, probes


@given(problem=_kkt_problem(), w=st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_derivative_bit_identical_to_numpy_reference(problem, w):
    batch = _ReferenceBatch(problem.models)
    expected = batch.derivative(np.full(batch.n, w)).tolist()
    assert [m.derivative(w) for m in problem.models] == expected


@given(problem=_kkt_problem())
@settings(max_examples=150, deadline=None)
def test_scalar_kkt_bit_identical_to_numpy_reference(problem):
    # n spans 2..12: np.sum adds sequentially below 8 terms and
    # pairwise from 8 up, so both summation orders are exercised.
    assert _outcome(_solve_kkt, problem) == _outcome(
        _reference_solve_kkt, problem
    )


@pytest.mark.parametrize("n", [2, 7, 8, 9])
def test_scalar_kkt_bit_identical_on_fitted_models(n):
    models = tuple(_model(f"m{i}", c=0.05 + 0.9 * i / n) for i in range(n))
    problem = AllocationProblem(models=models, min_weight=0.01)
    result = _outcome(_solve_kkt, problem)
    assert result[1]["solver"] == "kkt"
    assert result == _outcome(_reference_solve_kkt, problem)
