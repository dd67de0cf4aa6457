import tracemalloc

import numpy as np
import pytest

import relayq
from relayq import compensation, measures, oracle, psa
from relayq.errors import GridError
from relayq.grids import ProbabilityGrid
from relayq.model import ModelParams, lambda_for_load, truncation

ROUTE_TYPES = {"ca": compensation.CompensationResult, "psa": psa.PsaSolution, "oracle": oracle.QBDChain}


@pytest.mark.parametrize("method", relayq.routes.METHODS)
def test_solution_carries_the_route_result(solution, method):
    """Every route answers on the box of model.truncation, with the measures
    of its grid and its own result on ``route``."""
    s = solution(method, 0.4, 0.5)
    p = ModelParams(lam=lambda_for_load(0.4, 0.5), a=0.5)
    assert s.method == method and isinstance(s.route, ROUTE_TYPES[method])
    assert s.converged and s.stop_reason == "epsilon"
    T_k, T_l, _ = truncation(p, 1e-12)
    assert s.grid.values.shape == (T_k + 1, T_l + 1)
    if method == "oracle":
        assert s.depth is None
        np.testing.assert_array_equal(s.grid.values, oracle.stationary(s.route).values)
    else:
        assert s.depth == (s.route.n_used if method == "ca" else s.route.N_psa)
        assert s.grid is s.route.grid
    report = measures.moments_from_transformed(s.grid, p)
    assert (s.measures.e_qsum, s.measures.e_sojourn, s.measures.correlation) == (
        report.e_qsum, report.e_sojourn, report.correlation)


def _rectangle(params, epsilon):
    """The box rule with T_l cut to max(T_k // 2, 3)."""
    T_k, _, epsilon = truncation(params, epsilon)
    return T_k, max(T_k // 2, 3), epsilon


@pytest.mark.parametrize("a", [0.3, 0.5])
@pytest.mark.parametrize(
    "method, rho", [("ca", 0.4), ("ca", 0.9), ("oracle", 0.4), ("oracle", 0.9), ("psa", 0.4), ("psa", 0.7)]
)
def test_route_on_a_rectangle_is_its_square_grid_cut(solution, monkeypatch, method, rho, a):
    """Every route builds its grid on the box model.truncation returns: on a
    rectangle its grid is the square grid cut to the rectangle and
    renormalized, to round-off."""
    square = solution(method, rho, a).grid.values
    module = {"ca": compensation, "psa": psa, "oracle": relayq.routes}[method]
    monkeypatch.setattr(module, "truncation", _rectangle)
    p = ModelParams(lam=lambda_for_load(rho, a), a=a)
    grid = relayq.solve(p, method).grid.values
    T_k = len(square) - 1
    assert grid.shape == (T_k + 1, max(T_k // 2, 3) + 1) and grid.shape[1] < square.shape[1]
    cut = square[:, : grid.shape[1]] / square[:, : grid.shape[1]].sum()
    assert np.max(np.abs(grid - cut)) <= 1e-14 * cut.max()


def test_unknown_method_raises():
    with pytest.raises(ValueError, match="unknown method 'sim'"):
        relayq.solve(ModelParams(lam=0.3, a=0.5), "sim")


def test_routes_are_looked_up_at_call_time(monkeypatch):
    """A patched route or measure is the one that runs: the benchmark tracer
    wraps these module attributes. Measures are computed on first read."""
    calls = []
    for module, name in [(compensation, "solve"), (psa, "solve"), (oracle, "build"), (oracle, "stationary"),
                         (measures, "moments_from_transformed")]:
        def wrapped(*args, _fn=getattr(module, name), _key=f"{module.__name__}.{name}", **kwargs):
            calls.append(_key)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
    p = ModelParams(lam=lambda_for_load(0.1, 0.5), a=0.5)
    for method in relayq.routes.METHODS:
        relayq.solve(p, method).measures
    assert calls == [
        "relayq.compensation.solve", "relayq.measures.moments_from_transformed",
        "relayq.psa.solve", "relayq.measures.moments_from_transformed",
        "relayq.oracle.build", "relayq.oracle.stationary", "relayq.measures.moments_from_transformed",
    ]


def test_psa_reports_no_decay_ratio(solution):
    """At rho = 0.85 PSA converges, yet at k = T - 3 its partial sum has not
    resolved the tail: the ratio read there was 0.6205 against rho^2 = 0.7225.
    PSA reports no decay ratio; CA and the oracle reach rho^2."""
    ps = solution("psa", 0.85, 0.5)
    assert ps.converged
    assert ps.measures.decay_ratio is None and ps.measures.marginal_min_decay is None
    for method in ("ca", "oracle"):
        report = solution(method, 0.85, 0.5).measures
        assert abs(report.decay_ratio - 0.85**2) < 1e-12
        assert abs(report.marginal_min_decay - 0.85**2) < 1e-12


# largest relative error of P(2k + l = n) for n <= T, each ten times or more the largest seen at
# these loads: CA 1.1e-12 (rho = 0.99); the oracle 9.4e-10 (rho = 0.4, from its phase cut
# T_l = 12); PSA 3.3e-7 (rho = 0.4), held to the 1e-6 within which a settled series must agree with CA
TOTAL_LAW_BOUND = {"ca": 1e-11, "oracle": 1e-8, "psa": 1e-6}


@pytest.mark.parametrize(
    "method, rho",
    [
        *((method, rho) for method in ("ca", "oracle") for rho in (0.4, 0.7, 0.9, 0.99)),
        ("psa", 0.4),
        ("psa", 0.7),
        pytest.param("psa", 0.9, marks=pytest.mark.xfail(strict=True, reason="Fix first 1 / Direction 7")),
    ],
)
def test_total_is_geometric_at_half_attempt_probability(solution, method, rho):
    """At a = 1/2 a departure has probability 1/2 in every non-empty state,
    so N = Q1 + Q2 = 2k + l is a birth-death chain of its own and
    P(N = n) = (1 - rho) rho^n. The box [0, T]^2 holds every state of a
    total n <= T."""
    grid = solution(method, rho, 0.5).grid
    K, L = np.indices(grid.values.shape)
    law = np.bincount((2 * K + L).ravel(), weights=grid.values.ravel())[: len(K)]
    exact = (1 - rho) * rho ** np.arange(len(K))
    assert np.max(np.abs(law - exact) / exact) < TOTAL_LAW_BOUND[method]


@pytest.mark.parametrize(
    "method, rho, a",
    [
        *((method, rho, a) for method in relayq.routes.METHODS for rho in (0.1, 0.4, 0.9) for a in (0.3, 0.5)),
        *((method, 0.99, a) for method in ("ca", "oracle") for a in (0.3, 0.5)),
    ],
)
def test_route_grid_is_clipped_and_normalized(solution, method, rho, a):
    """Each route finishes its grid through ProbabilityGrid.finished, which
    clips it at zero and normalizes it, so the CLI emits it as it is: no entry
    carries a sign bit, -0.0 included."""
    grid = solution(method, rho, a).grid
    assert not np.signbit(grid.values).any()
    assert abs(grid.total() - 1.0) <= 1e-12


def test_finished_clips_and_divides_in_place():
    v = np.array([[1.0, -1e-18], [2.0, 1.0]])
    grid = ProbabilityGrid.finished(v)
    assert grid.values is v
    assert v.tolist() == [[0.25, 0.0], [0.5, 0.25]]
    with pytest.raises(GridError, match="non-positive mass"):
        ProbabilityGrid.finished(np.full((2, 2), -1.0))


def _traced(fn):
    """fn()'s result and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_finish_and_measures_copy_no_grid():
    """On the oracle's rho = 0.99 grid (T = 1375, 14.4 MiB) the route holds
    little beside the grid it returns, ProbabilityGrid.finished works in place
    and the measures hold two grid-sized temporaries. A copy to clip and one
    to divide, in the route and again in the measures, peaked at 3.0 and 5.0
    grids. CA holds its answer alone: its convergence guard is a closed form
    and needs no grid. With the (n - 1)-term grid the guard evaluated, CA
    peaked at 2.04 grids."""
    p = ModelParams(lam=lambda_for_load(0.99, 0.5), a=0.5)
    solved, route_peak = _traced(lambda: relayq.solve(p, "oracle"))
    grid = solved.grid
    assert grid.values.shape == (1376, 1376)
    size = grid.values.nbytes
    assert route_peak <= 1.5 * size
    ca, ca_peak = _traced(lambda: relayq.solve(p, "ca"))
    assert ca.grid.values.shape == (1376, 1376) and ca_peak <= 1.2 * size
    assert _traced(lambda: measures.moments_from_transformed(grid, p))[1] <= 2.5 * size
    v = grid.values.copy()
    assert _traced(lambda: ProbabilityGrid.finished(v))[1] < 0.1 * size
