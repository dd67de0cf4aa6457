import tracemalloc

import numpy as np
import pytest

from relayq import compensation, measures, oracle
from relayq.errors import GridError, StabilityError
from relayq.grids import ProbabilityGrid
from relayq.model import ModelParams, lambda_for_load
from conftest import original_box, push_forward


def test_sojourn_identity_exact(params_rho04, ca_rho04):
    rep = measures.moments_from_transformed(ca_rho04.grid, params_rho04)
    assert rep.e_sojourn * params_rho04.lam == pytest.approx(rep.e_qsum, rel=1e-12)
    assert -1.0 <= rep.correlation <= 1.0


def test_point_mass_degenerate(base_params):
    vals = np.zeros((8, 8))
    vals[0, 0] = 1.0
    rep = measures.moments_from_transformed(ProbabilityGrid(vals), base_params)
    assert rep.e_sojourn == 0.0
    assert rep.correlation is None


def test_reference_point_values(params_rho04, ca_rho04):
    rep = measures.moments_from_transformed(ca_rho04.grid, params_rho04)
    assert rep.e_sojourn == pytest.approx(2.333, abs=1e-3)
    assert rep.correlation == pytest.approx(0.468, abs=1e-3)


def test_unnormalized_grid_rejected(base_params):
    """A mass off 1 is refused, and so is a NaN mass, which no tolerance
    comparison holds: one NaN entry made every measure NaN."""
    nan_entry = np.full((8, 8), 1 / 64)
    nan_entry[3, 4] = np.nan
    for vals in (np.full((6, 6), 0.1), nan_entry):
        with pytest.raises(GridError):
            measures.moments_from_transformed(ProbabilityGrid(vals), base_params)


def test_transformed_moments_equal_direct_original_moments(base_params):
    """Computing moments through the (min, diff) identities agrees with the
    direct computation over the original (Q1, Q2) stationary grid."""
    T = 25
    w = oracle.gth_stationary(original_box(base_params, T)).reshape(T + 1, T + 1)
    I, J = np.meshgrid(np.arange(T + 1), np.arange(T + 1), indexing="ij")
    e_qsum = float(((I + J) * w).sum())
    e_q1 = float((I * w).sum())
    e_q1q2 = float(((I * J) * w).sum())
    var_q1 = float((I**2 * w).sum()) - e_q1**2
    corr = (e_q1q2 - e_q1 * float((J * w).sum())) / var_q1
    rep = measures.moments_from_transformed(ProbabilityGrid(push_forward(w)), base_params)
    assert rep.e_qsum == pytest.approx(e_qsum, abs=1e-10)
    assert rep.correlation == pytest.approx(corr, abs=1e-10)
    assert rep.e_sojourn == pytest.approx(e_qsum / base_params.lam, abs=1e-10)


def test_decay_on_geometric_toy_grid(base_params):
    """A grid's decay rows, read at k = T - 3, are the ratios of a product form."""
    g, h = 0.3, 0.1
    k = np.arange(30)
    vals = np.outer((1 - g) * g**k, (1 - h) * h**k)
    vals /= vals.sum()  # finite-grid renormalization
    rep = measures.moments_from_transformed(ProbabilityGrid(vals), base_params)
    assert rep.decay_ratio == pytest.approx(g, rel=1e-12)
    assert rep.marginal_min_decay == pytest.approx(g, rel=1e-12)


def test_decay_estimates_match_load(params_rho04):
    diag = measures.decay_diagnostics(params_rho04)
    assert diag.expected == pytest.approx(0.16, abs=1e-12)
    for l in (0, 1, 3):
        assert diag.fixed_l_estimates[l] == pytest.approx(0.16, abs=1e-4)
    assert diag.marginal_estimate == pytest.approx(0.16, abs=1e-4)


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("rho", [1e-4, 1e-5, 1e-6])
def test_decay_at_light_load_reads_rho_squared(rho, a):
    """CA's series rows decay as rho^2 at light loads too. Read from CA's
    grid, every estimate was None at rho = 1e-5 and at rho = 1e-4, a = 0.3:
    normalization had clipped the grid's tail to 0.0 (see
    test_light_load_tail_follows_the_oracle)."""
    p = ModelParams(lam=lambda_for_load(rho, a), a=a)
    diag = measures.decay_diagnostics(p)
    for estimate in (*diag.fixed_l_estimates.values(), diag.marginal_estimate):
        assert estimate == pytest.approx(rho**2, rel=1e-12, abs=0)


@pytest.mark.parametrize("a", [0.3, 0.5])
def test_decay_from_subnormal_rows_is_none(a):
    """At rho = 1e-7 the series rows at k = 21 are subnormal: their ratio at
    l = 1 read 9.88e-15 against rho^2 = 1e-14. An estimate is None or rho^2."""
    rho = 1e-7
    diag = measures.decay_diagnostics(ModelParams(lam=lambda_for_load(rho, a), a=a))
    for estimate in (*diag.fixed_l_estimates.values(), diag.marginal_estimate):
        assert estimate is None or estimate == pytest.approx(rho**2, rel=1e-12, abs=0)


@pytest.mark.parametrize("a", [0.3, 0.5])
@pytest.mark.parametrize("rho", [1 - 1e-6, 1 - 1e-7, 1 - 1e-8])
def test_decay_near_saturation_forms_no_row(rho, a):
    """Near saturation the grid side T runs to 1.4e7-1.4e9; the row sums of
    the marginal ratio are closed forms, so the diagnostics hold a few
    series-sized arrays (rows of side T + 1 asked for 632 MiB at rho = 1 - 1e-6)."""
    tracemalloc.start()
    try:
        diag = measures.decay_diagnostics(ModelParams(lam=lambda_for_load(rho, a), a=a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for estimate in (*diag.fixed_l_estimates.values(), diag.marginal_estimate):
        assert estimate == pytest.approx(rho**2, rel=1e-12, abs=0)


def test_decay_without_tail_mass_is_none(base_params):
    """A tail that is exactly zero has no ratio to report, not NaN: on a grid,
    and in CA's series at rho = 1e-12, whose rows at k = 21 underflow."""
    vals = np.zeros((30, 30))
    vals[:10, :10] = 0.01
    rep = measures.moments_from_transformed(ProbabilityGrid(vals), base_params)
    assert rep.decay_ratio is None and rep.marginal_min_decay is None
    diag = measures.decay_diagnostics(ModelParams(lam=lambda_for_load(1e-12, 0.5), a=0.5))
    assert diag.fixed_l_estimates == {0: None, 1: None, 3: None}
    assert diag.marginal_estimate is None


def test_stability_interval_formula():
    am, ap = measures.jsrq_stability_interval(0.3)
    assert am == pytest.approx((1 - np.sqrt(0.4)) / 2, abs=1e-15)
    assert ap == pytest.approx((1 + np.sqrt(0.4)) / 2, abs=1e-15)
    assert am == pytest.approx(0.18377, abs=5e-6)
    assert ap == pytest.approx(0.81623, abs=5e-6)
    with pytest.raises(StabilityError):
        measures.jsrq_stability_interval(0.5)


def test_stability_interval_matches_margin_criterion():
    lam = 0.3
    am, ap = measures.jsrq_stability_interval(lam)
    for a in np.linspace(0.02, 0.98, 97):
        inside = am < a < ap
        assert inside == (lam - 2 * a * (1 - a) < 0) or abs(a - am) < 1e-9 or abs(a - ap) < 1e-9


def test_single_server_load_identity():
    # at a = 1/2 the single-server load lam*abar/(lbar*a) equals the two-relay load
    lam = 0.3
    p = ModelParams(lam=lam, a=0.5)
    assert lam * 0.5 / (0.7 * 0.5) == pytest.approx(p.rho * (2 * 0.5 * 0.5) / (0.5**2 + 0.5**2), rel=1e-12)


def test_single_server_geometric_check():
    # the mean of the geometric law of ratio r, written without 1 - r
    lam, a = 0.3, 0.6
    r = lam * (1 - a) / ((1 - lam) * a)
    expected = r / (1 - r)
    assert measures.single_server_mean_queue(lam, a) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("lam", [0.249, 0.2499])
def test_single_server_near_saturation(lam):
    a = 0.25
    r = lam * (1 - a) / ((1 - lam) * a)
    assert measures.single_server_mean_queue(lam, a) == pytest.approx(r / (1 - r), rel=1e-10)


def test_single_server_mean_holds_no_chain():
    """The mean is a closed form: at lam = 0.4999, a = 1/2 a chain truncated
    at r^T <= 1e-14 has 80,000 states and peaked at 1.8 MiB."""
    tracemalloc.start()
    try:
        mean = measures.single_server_mean_queue(0.4999, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mean == pytest.approx(2499.5, rel=1e-12)
    assert peak < 64 * 1024


def test_comparison_crossing_and_ordering():
    comp = measures.single_server_comparison(0.3, (0.3, 0.4, 0.5, 0.7), epsilon=1e-12)
    rows = {round(r.a, 2): r for r in comp.rows}
    mid = rows[0.5]
    assert mid.single_mean_queue == pytest.approx(mid.jsrq_mean_total, abs=1e-6)
    # at a = 0.3 = lam the single server is not even stable while the two-relay
    # system is: the strongest form of "outperforms"
    assert not rows[0.3].single_stable and rows[0.3].jsrq_stable
    assert np.isfinite(rows[0.3].jsrq_mean_total)
    # with both systems stable the ordering flips across a = 1/2
    assert rows[0.4].jsrq_mean_total < rows[0.4].single_mean_queue
    assert rows[0.7].jsrq_mean_total > rows[0.7].single_mean_queue


def test_comparison_empty_region():
    with pytest.raises(StabilityError):
        measures.single_server_comparison(0.6, (0.5,))


def test_correlation_monotone_in_load():
    vals = []
    for rho in (0.1, 0.4, 0.7, 0.9):
        p = ModelParams(lam=lambda_for_load(rho, 0.5), a=0.5)
        rep = measures.moments_from_transformed(compensation.solve(p).grid, p)
        vals.append(rep.correlation)
    assert all(b > a for a, b in zip(vals, vals[1:]))


# (method, rho, a): CA and the oracle at a light and a heavy load, PSA where it converges
IDENTITY_POINTS = [
    *((method, rho, a) for method in ("ca", "oracle") for rho in (0.4, 0.9) for a in (0.3, 0.5, 0.7)),
    *(("psa", rho, a) for rho in (0.4, 0.7) for a in (0.3, 0.5, 0.7)),
]


def _grid(solution, method, rho, a):
    solved = solution(method, rho, a)
    assert solved.converged
    return solved.grid


@pytest.mark.parametrize("method, rho, a", IDENTITY_POINTS)
def test_throughput_equals_the_arrival_rate(solution, method, rho, a):
    """In equilibrium packets leave at the rate lam they arrive. With both
    relays busy (k >= 1) one packet leaves when exactly one relay attempts,
    with b = 2a(1 - a); with one busy (k = 0, l >= 1) an arrival makes both
    busy, else the lone relay sends with a; an empty system sends only an
    arrival, with a."""
    v = _grid(solution, method, rho, a).values
    lam, b = lambda_for_load(rho, a), 2 * a * (1 - a)
    departures = b * v[1:].sum() + v[0, 1:].sum() * (lam * b + (1 - lam) * a) + v[0, 0] * lam * a
    assert abs(departures - lam) < 1e-11


@pytest.mark.parametrize(
    "method, rho", [(m, rho) for m, rho, a in IDENTITY_POINTS if a == 0.5] + [("ca", 0.97)]
)
def test_mean_total_at_half_attempt_probability(solution, method, rho):
    """At a = 1/2 the total queue length has mean rho / (1 - rho)."""
    v = _grid(solution, method, rho, 0.5).values
    K, L = np.indices(v.shape)
    assert float(((2 * K + L) * v).sum()) == pytest.approx(rho / (1 - rho), rel=1e-9)


@pytest.mark.parametrize("method, rho", [("psa", 0.9), ("oracle", 0.4), ("ca", 0.7)])
def test_measures_are_sums_over_the_emitted_grid(solution, method, rho):
    """The measures read the route's grid as it is emitted, bit for bit. A
    second clip and division in the measures moved 14,022 of PSA's 17,689
    entries at rho = 0.9, 221 of the oracle's 289 at 0.4 and all 1,600 of
    CA's at 0.7."""
    sol = solution(method, rho, 0.5)
    K, L = np.indices(sol.grid.values.shape)
    assert sol.measures.e_qsum == float(((2 * K + L) * sol.grid.values).sum())
