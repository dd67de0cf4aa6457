import numpy as np
import pytest

from relayq import compensation, measures, oracle
from relayq.errors import GridError, StabilityError
from relayq.grids import ORIGINAL, TRANSFORMED, ProbabilityGrid
from relayq.model import ModelParams, lambda_for_load


def test_sojourn_identity_exact(params_rho04, ca_rho04):
    rep = measures.moments_from_transformed(ca_rho04.grid, params_rho04)
    assert rep.e_sojourn * params_rho04.lam == pytest.approx(rep.e_qsum, rel=1e-12)
    assert -1.0 <= rep.correlation <= 1.0


def test_point_mass_degenerate(base_params):
    vals = np.zeros((8, 8))
    vals[0, 0] = 1.0
    rep = measures.moments_from_transformed(ProbabilityGrid(vals, TRANSFORMED), base_params)
    assert rep.e_sojourn == 0.0
    assert rep.correlation is None


def test_reference_point_values(params_rho04, ca_rho04):
    rep = measures.moments_from_transformed(ca_rho04.grid, params_rho04)
    assert rep.e_sojourn == pytest.approx(2.333, abs=1e-3)
    assert rep.correlation == pytest.approx(0.468, abs=1e-3)


def test_unnormalized_grid_rejected(base_params):
    with pytest.raises(GridError):
        measures.moments_from_transformed(
            ProbabilityGrid(np.full((6, 6), 0.1), TRANSFORMED), base_params
        )


def test_transformed_moments_equal_direct_original_moments(base_params):
    """Computing moments through the (min, diff) identities agrees with the
    direct computation over the original (Q1, Q2) stationary grid."""
    T = 25
    orig = oracle.stationary(oracle.build(base_params, T, ORIGINAL))
    I, J = np.meshgrid(np.arange(T + 1), np.arange(T + 1), indexing="ij")
    w = orig.values
    e_qsum = float(((I + J) * w).sum())
    e_q1 = float((I * w).sum())
    e_q1q2 = float(((I * J) * w).sum())
    var_q1 = float((I**2 * w).sum()) - e_q1**2
    corr = (e_q1q2 - e_q1 * float((J * w).sum())) / var_q1
    rep = measures.moments_from_transformed(orig.to_transformed(), base_params)
    assert rep.e_qsum == pytest.approx(e_qsum, abs=1e-10)
    assert rep.correlation == pytest.approx(corr, abs=1e-10)
    assert rep.e_sojourn == pytest.approx(e_qsum / base_params.lam, abs=1e-10)


def test_decay_on_geometric_toy_grid(base_params):
    g, h = 0.3, 0.1
    k = np.arange(30)
    vals = np.outer((1 - g) * g**k, (1 - h) * h**k)
    vals /= vals.sum()  # finite-grid renormalization
    diag = measures.decay_diagnostics(ProbabilityGrid(vals, TRANSFORMED), base_params)
    for l in (0, 1, 3):
        assert diag.fixed_l_estimates[l] == pytest.approx(g, rel=1e-12)
    assert diag.marginal_estimate == pytest.approx(g, rel=1e-12)


def test_decay_estimates_match_load(params_rho04):
    grid = compensation.solve(params_rho04, T_min=20).grid
    diag = measures.decay_diagnostics(grid, params_rho04)
    assert diag.expected == pytest.approx(0.16, abs=1e-12)
    for l in (0, 1, 3):
        assert diag.fixed_l_estimates[l] == pytest.approx(0.16, abs=1e-4)
    assert diag.marginal_estimate == pytest.approx(0.16, abs=1e-4)


def test_decay_without_tail_mass_is_none(base_params):
    """A grid whose tail is exactly zero has no ratio to report, not NaN."""
    vals = np.zeros((30, 30))
    vals[:10, :10] = 0.01
    grid = ProbabilityGrid(vals, TRANSFORMED)
    diag = measures.decay_diagnostics(grid, base_params)
    assert diag.fixed_l_estimates == {0: None, 1: None, 3: None}
    assert diag.marginal_estimate is None
    rep = measures.moments_from_transformed(grid, base_params)
    assert rep.decay_ratio is None and rep.marginal_min_decay is None


def test_decay_requires_large_grid(base_params):
    with pytest.raises(GridError):
        measures.decay_diagnostics(
            ProbabilityGrid(np.full((10, 10), 0.01), TRANSFORMED), base_params
        )


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
    # birth-death micro-oracle against the closed-form geometric mean
    lam, a = 0.3, 0.6
    r = lam * (1 - a) / ((1 - lam) * a)
    expected = r / (1 - r)
    assert measures.single_server_mean_queue(lam, a) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("lam", [0.249, 0.2499])
def test_single_server_near_saturation(lam):
    # just below a = 1/4 the truncated chain has 6,037 and 60,435 states
    a = 0.25
    r = lam * (1 - a) / ((1 - lam) * a)
    assert measures.single_server_mean_queue(lam, a) == pytest.approx(r / (1 - r), rel=1e-10)


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
