import warnings

import numpy as np
import pytest

from relayq import compensation as ca
from relayq import oracle
from relayq.errors import NumericsError, StabilityError
from relayq.model import ModelParams, balance_residuals, lambda_for_load, max_interior_residual, truncation
from conftest import maxnorm, random_stable_params


def coeffs(p):
    """Balance-equation weights used by the independent checks below."""
    return dict(
        fwd=p.lam * (p.abar**2 + p.a**2),
        dep=p.lbar * p.a * p.abar,
        both=p.lam * p.a * p.abar,
        lone=p.lbar * p.a,
        hold=p.lbar * (p.abar**2 + p.a**2) + p.lam * p.a * p.abar,
        lb_ab=p.lbar * p.abar,
    )


def kernel_scale(gamma, delta, p):
    """Magnitude of the largest kernel monomial; reference for relative residuals."""
    return max(
        abs((1.0 - p.p_hold) * gamma * delta),
        abs((p.p_dep * gamma + p.p_fwd) * delta**2),
        abs(p.p_both * delta**3),
        abs(p.p_dep * gamma**2),
    )


# ---------------------------------------------------------------- kernel roots


def test_kernel_residual_trivial(base_params):
    assert ca.kernel_residual(0.0, 0.0, base_params) == 0.0
    g0 = ca.initial_gamma(base_params)
    # delta = gamma is not on the kernel curve
    assert abs(ca.kernel_residual(g0, g0, base_params)) > 1e-6


def test_initial_gamma():
    assert ca.initial_gamma(ModelParams(lam=0.3, a=0.5)) == pytest.approx((3 / 7) ** 2, abs=1e-15)
    assert ca.initial_gamma(ModelParams(lam=1 / 11, a=0.5)) == pytest.approx(0.01, abs=1e-15)
    with pytest.raises(StabilityError):
        ca.initial_gamma(ModelParams(lam=0.55, a=0.5))


def test_delta_root_unique_sign_change(base_params):
    """Fine-grid scan: exactly one sign change of the kernel on (0, gamma)."""
    p = base_params
    g0 = ca.initial_gamma(p)
    xs = np.linspace(1e-12, g0 * (1 - 1e-12), 1_000_000)
    vals = ca.kernel_residual(g0, xs, p)
    changes = np.count_nonzero(np.diff(np.sign(vals)))
    assert changes == 1
    d0 = ca.delta_root(g0, p)
    # the scan's bracketing interval contains the located root
    i = np.nonzero(np.diff(np.sign(vals)))[0][0]
    assert xs[i] <= d0 <= xs[i + 1]


def test_delta_root_cubic_crosscheck(base_params):
    p = base_params
    g = ca.initial_gamma(p)
    d0 = ca.delta_root(g, p)
    # independent root finder: numpy companion-matrix roots of the cubic in delta
    poly = [
        -p.lam * p.a * p.abar,
        -(p.lbar * p.a * p.abar * g + p.lam * (p.a**2 + p.abar**2)),
        (1 - (p.lbar * (p.abar**2 + p.a**2) + p.lam * p.a * p.abar)) * g,
        -p.lbar * p.a * p.abar * g**2,
    ]
    roots = np.roots(poly)
    inside = [r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < g]
    assert len(inside) == 1
    assert d0 == pytest.approx(inside[0], rel=1e-12)


def test_root_brackets_and_residuals():
    rng = np.random.default_rng(31)
    for p in random_stable_params(rng, 1000):
        g0 = ca.initial_gamma(p)
        d0 = ca.delta_root(g0, p)
        assert 0 < d0 < g0 / 2
        g1 = ca.gamma_root(d0, p)
        assert 0 < g1 < 0.8 * d0
        for g, d in ((g0, d0), (g1, d0)):
            rel = abs(ca.kernel_residual(g, d, p)) / kernel_scale(g, d, p)
            assert rel < 1e-12


def test_gamma_root_quadratic_crosscheck(base_params):
    p = base_params
    d0 = ca.delta_root(ca.initial_gamma(p), p)
    g1 = ca.gamma_root(d0, p)
    # the kernel is a quadratic in gamma; solve it in closed form
    A = -p.lbar * p.a * p.abar
    B = (1 - (p.lbar * (p.abar**2 + p.a**2) + p.lam * p.a * p.abar)) * d0 - p.lbar * p.a * p.abar * d0**2
    C = -(p.lam * (p.a**2 + p.abar**2) * d0**2 + p.lam * p.a * p.abar * d0**3)
    disc = np.sqrt(B * B - 4 * A * C)
    roots = sorted([(-B + disc) / (2 * A), (-B - disc) / (2 * A)])
    assert g1 == pytest.approx(roots[0], rel=1e-12)


# ------------------------------------------------- compensation coefficients


def vertical_residual(values, p, l):
    """Literal transcription of the k = 0 column balance equation, l >= 3."""
    c = coeffs(p)
    return values[(0, l)] - (
        values[(0, l)] * (c["lb_ab"] + c["both"])
        + values[(0, l + 1)] * c["lone"]
        + values[(1, l - 1)] * c["dep"]
    )


def horizontal_residuals(values, p, k):
    """Literal transcriptions of the three l in {0,1,2} equations at row k."""
    c = coeffs(p)
    r0 = values[(k, 0)] - (
        values[(k, 0)] * c["hold"]
        + values[(k, 1)] * c["dep"]
        + values[(k - 1, 1)] * c["fwd"]
        + values[(k - 1, 2)] * c["both"]
    )
    r1 = values[(k, 1)] - (
        values[(k, 1)] * (c["hold"] + c["both"])
        + values[(k, 2)] * c["dep"]
        + values[(k - 1, 2)] * c["fwd"]
        + values[(k - 1, 3)] * c["both"]
        + values[(k, 0)] * c["fwd"]
        + values[(k + 1, 0)] * 2 * c["dep"]
    )
    r2 = values[(k, 2)] - (
        values[(k, 2)] * c["hold"]
        + values[(k, 3)] * c["dep"]
        + values[(k - 1, 3)] * c["fwd"]
        + values[(k - 1, 4)] * c["both"]
        + values[(k + 1, 0)] * c["both"]
        + values[(k + 1, 1)] * c["dep"]
    )
    return r0, r1, r2


def test_vertical_coefficient_restores_column_balance(base_params):
    p = base_params
    g0 = ca.initial_gamma(p)
    d0_root = ca.delta_root(g0, p)
    g1 = ca.gamma_root(d0_root, p)
    c1 = ca.vertical_coefficient(g0, g1, d0_root, 1.0, p)

    def two_term(k, l):
        return 1.0 * g0**k * d0_root**l + c1 * g1**k * d0_root**l

    vals = {(k, l): two_term(k, l) for k in (0, 1) for l in range(0, 13)}
    for l in range(3, 11):
        assert abs(vertical_residual(vals, p, l)) < 1e-12

    # before compensation the pure leading term leaves a column error of the
    # opposite sign to what the c-term injects
    pure = {(k, l): 1.0 * g0**k * d0_root**l for k in (0, 1) for l in range(0, 13)}
    corr = {(k, l): c1 * g1**k * d0_root**l for k in (0, 1) for l in range(0, 13)}
    assert vertical_residual(pure, p, 5) * vertical_residual(corr, p, 5) < 0

    # linear in d_i
    assert ca.vertical_coefficient(g0, g1, d0_root, 2.0, p) == pytest.approx(2 * c1, rel=1e-14)


def test_horizontal_coefficients_restore_row_balance(base_params):
    p = base_params
    g0 = ca.initial_gamma(p)
    d0_root = ca.delta_root(g0, p)
    g1 = ca.gamma_root(d0_root, p)
    c1 = ca.vertical_coefficient(g0, g1, d0_root, 1.0, p)
    d1_root = ca.delta_root(g1, p)
    e0, e1, d1 = ca.horizontal_coefficients(g1, d0_root, d1_root, c1, p)

    def x_term(k, l):
        if l == 0:
            return e0 * g1**k
        if l == 1:
            return e1 * g1**k
        return (c1 * d0_root**l + d1 * d1_root**l) * g1**k

    vals = {(k, l): x_term(k, l) for k in range(0, 13) for l in range(0, 6)}
    for k in range(1, 11):
        for r in horizontal_residuals(vals, p, k):
            assert abs(r) < 1e-12

    # independent 3x3 elimination (Cramer) reproduces the solution
    M = np.zeros((3, 3))
    M[:, :2] = ca._horizontal_rows(g1, p)
    M[:, 2] = -ca._product_term_rows(g1, d1_root, p) * d1_root**2
    r = ca._product_term_rows(g1, d0_root, p) * c1 * d0_root**2
    det = np.linalg.det
    sol = [det(np.column_stack([r if i == j else M[:, j] for j in range(3)])) / det(M) for i in range(3)]
    assert np.allclose(sol, [e0, e1, d1], rtol=1e-12)

    # right-hand side is linear in c
    e0b, e1b, d1b = ca.horizontal_coefficients(g1, d0_root, d1_root, 2 * c1, p)
    assert np.allclose([e0b, e1b, d1b], [2 * e0, 2 * e1, 2 * d1], rtol=1e-12)


def test_underflowed_repair_row_fails_typed():
    """At rho = 1e-80 the gamma^2 row of the horizontal repair system
    underflows to zeros; its scaling is 0/0, which raises NumericsError
    instead of a RuntimeWarning."""
    p = ModelParams(lam=lambda_for_load(1e-80, 0.5), a=0.5)
    g0 = ca.initial_gamma(p)
    d0 = ca.delta_root(g0, p)
    g1 = ca.gamma_root(d0, p)
    c1 = ca.vertical_coefficient(g0, g1, d0, 1.0, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="horizontal repair system"):
            ca.horizontal_coefficients(g1, d0, ca.delta_root(g1, p), c1, p)


@pytest.mark.parametrize("lam", [5e-324, 1e-300])
def test_underflowed_initial_gamma_fails_typed(lam):
    """Where rho^2 underflows to 0, the series and the solve refuse the load
    with NumericsError; at lambda = 5e-324 rho itself is 0."""
    p = ModelParams(lam=lam, a=0.5)
    for f in (ca.initial_gamma, ca.solve):
        with pytest.raises(NumericsError, match="underflows"):
            f(p)


# Closed forms against the transition table: balance_residuals derives every
# balance equation from the chain's one-step law on a 13x13 grid.
K, L = np.meshgrid(np.arange(13), np.arange(13), indexing="ij")


def test_product_form_residual_is_the_kernel():
    """gamma^k delta^l leaves |gamma^(k-1) delta^(l-1) kernel_residual| on
    every interior state, for any (gamma, delta)."""
    rng = np.random.default_rng(41)
    interior = (K >= 1) & (L >= 3)
    for p in random_stable_params(rng, 5):
        for gamma, delta in rng.uniform(0.05, 0.95, size=(10, 2)):
            res = balance_residuals(gamma**K * delta**L, p)
            fits = interior & ~np.isnan(res)
            assert fits.sum() == 11 * 8  # k in 1..11, l in 3..10
            expected = np.abs(
                gamma ** (K - 1.0) * delta ** (L - 1.0) * ca.kernel_residual(gamma, delta, p)
            )
            assert np.allclose(res[fits], expected[fits], rtol=1e-9, atol=1e-14)


def test_vertical_pair_balances_column_in_table(base_params):
    p = base_params
    g0 = ca.initial_gamma(p)
    d0 = ca.delta_root(g0, p)
    g1 = ca.gamma_root(d0, p)
    c1 = ca.vertical_coefficient(g0, g1, d0, 1.0, p)
    res = balance_residuals((g0**K + c1 * g1**K) * d0**L, p)
    column = (K == 0) & (L >= 3) & ~np.isnan(res)
    assert column.sum() == 9  # l in 3..11
    assert np.max(res[column]) < 1e-12


def test_horizontal_terms_balance_rows_in_table(base_params):
    p = base_params
    g0 = ca.initial_gamma(p)
    d0 = ca.delta_root(g0, p)
    g1 = ca.gamma_root(d0, p)
    c1 = ca.vertical_coefficient(g0, g1, d0, 1.0, p)
    d1_root = ca.delta_root(g1, p)
    e0, e1, d1 = ca.horizontal_coefficients(g1, d0, d1_root, c1, p)
    e0_lead, e1_lead = ca.leading_boundary_coefficients(g0, d0, 1.0, p)
    terms = (
        (g0, e0_lead, e1_lead, d0**L),  # leading term d0 = 1
        (g1, e0, e1, c1 * d0**L + d1 * d1_root**L),  # first horizontal repair
    )
    for gamma, b0, b1, pair in terms:
        vals = np.where(L == 0, b0, np.where(L == 1, b1, pair)) * gamma**K
        res = balance_residuals(vals, p)
        fits = (K >= 1) & ~np.isnan(res)
        # the l in {0, 1, 2} equations fit for k in 1..11, and for l = 0 at k = 12 too
        assert fits[1:12, :3].all() and fits[12, 0]
        assert np.max(res[fits]) < 1e-12


def test_leading_boundary_coefficients_match_oracle(base_params):
    """The l in {0,1} coefficients of the leading term are visible in the
    stationary distribution at large k: pi(k,0)/pi(k,2) -> e0_0/(d0*delta0^2).

    Needs a probe row far both from the origin (subleading terms decay like
    (gamma_1/gamma_0)^k) and from the truncation edge (reflection distorts the
    outermost rows), hence the dedicated wide oracle.
    """
    p = base_params
    g0 = ca.initial_gamma(p)
    d0_root = ca.delta_root(g0, p)
    e0, e1 = ca.leading_boundary_coefficients(g0, d0_root, 1.0, p)
    wide = oracle.stationary(oracle.build(p, 30, 30))
    k = 16
    v = wide.values[k, :]
    assert v[0] / v[2] == pytest.approx(e0 / d0_root**2, rel=1e-6)
    assert v[1] / v[2] == pytest.approx(e1 / d0_root**2, rel=1e-6)
    # clearly excludes a leading boundary coefficient of d0 = 1 (ratio 1/delta0^2)
    assert abs(v[0] / v[2] - 1.0 / d0_root**2) > 100


def test_leading_boundary_requires_initial_gamma(base_params):
    p = base_params
    g_wrong = 0.9 * ca.initial_gamma(p)
    d_wrong = ca.delta_root(g_wrong, p)
    with pytest.raises(NumericsError):
        ca.leading_boundary_coefficients(g_wrong, d_wrong, 1.0, p)


# ------------------------------------------------------------ series and solve


def test_series_structure():
    rng = np.random.default_rng(41)
    for p in random_stable_params(rng, 30):
        s = ca.compute_series(p, 10)
        seq = np.empty(2 * len(s.deltas))
        seq[0::2] = s.gammas[: len(s.deltas)]
        seq[1::2] = s.deltas
        assert np.all(np.diff(seq) < 0), "interleaving 1 > g0 > d0 > g1 > ... is strict"
        rho2 = p.rho**2
        for i in range(len(s.deltas)):
            assert s.gammas[i] <= 0.4**i * rho2 * (1 + 1e-12)
            assert s.deltas[i] <= 0.5 * 0.4**i * rho2 * (1 + 1e-12)
        for i in range(len(s.deltas)):
            for g, d in ((s.gammas[i], s.deltas[i]), (s.gammas[i + 1], s.deltas[i])):
                assert abs(ca.kernel_residual(g, d, p)) / kernel_scale(g, d, p) < 1e-12


def test_asymptotic_ratios(params_rho04):
    """Successive root ratios tend to the roots w, w_hat of
    p_fwd w^2 - (1 - p_hold) w + p_dep = 0, the gamma -> 0 limit of the
    quadratic part of delta_root's cubic; the terms shrink like (w/w_hat)^i."""
    p = params_rho04
    b = 1.0 - p.p_hold
    root = np.sqrt(b * b - 4.0 * p.p_fwd * p.p_dep)
    w, w_hat = (b - root) / (2.0 * p.p_fwd), (b + root) / (2.0 * p.p_fwd)
    assert abs(w) < 1.0 < abs(w_hat)
    vieta = p.lbar * p.abar * p.a / (p.lam * (p.a**2 + p.abar**2))
    assert w * w_hat == pytest.approx(vieta, rel=1e-12)
    s = ca.compute_series(p, 12)
    i = len(s.deltas) - 1
    assert s.deltas[i] / s.gammas[i] == pytest.approx(w, abs=1e-3)
    assert s.gammas[i + 1] / s.deltas[i] == pytest.approx(1 / w_hat, abs=1e-3)


def test_series_terms_decay_geometrically(base_params):
    p = base_params
    s = ca.compute_series(p, 8)
    k, l = 15, 5  # k + l = 20
    terms = [
        abs((s.d[i] * s.gammas[i] ** k + s.c[i] * s.gammas[i + 1] ** k) * s.deltas[i] ** l)
        for i in range(9)
    ]
    ratios = [t2 / t1 for t1, t2 in zip(terms, terms[1:]) if t1 > 0]
    assert all(r < 0.4 for r in ratios)


def test_series_agrees_with_oracle_pointwise(ca_rho04, oracle_rho04):
    assert ca_rho04.grid.values[5, 5] == pytest.approx(oracle_rho04.values[5, 5], abs=1e-8)


def test_solve_grid_contract(ca_rho04):
    grid = ca_rho04.grid
    assert grid.total() == pytest.approx(1.0, abs=1e-12)
    assert grid.values.min() >= 0.0
    assert ca_rho04.last_term_change < 1e-12


def test_solve_raises_when_last_term_moves_mass(monkeypatch, params_rho04):
    """A walk capped at one term ends on a last term that moves about 1e-3
    of the inner box's mass."""
    monkeypatch.setattr(ca, "_TERM_CAP", 1)
    with pytest.raises(NumericsError, match="not converged at 1 terms"):
        ca.solve(params_rho04)


@pytest.mark.parametrize("a", [0.3, 0.5])
@pytest.mark.parametrize("rho", [0.1, 0.7, 0.97])
def test_depth_rule_reproduces_deep_series(rho, a):
    """The depth where the guard stops gives the grid a 37-term series gives,
    built here as solve builds its grid: the series on [0,T]^2 and the box
    its guard solved."""
    params = ModelParams(lam=lambda_for_load(rho, a), a=a)
    res = ca.solve(params)
    assert res.n_used < 37
    (T_k, T_l), B = np.subtract(res.grid.values.shape, 1), ca.INNER_BOX
    series = ca.compute_series(params, 37)
    _, box = ca._last_term_share(series, *ca._inner_box_system(params, B))
    deep = ca.outer_values(series, np.arange(T_k + 1.0), T_l)
    deep[: B + 1, : B + 1] = box.reshape(B + 1, B + 1)
    deep /= deep.sum()
    assert np.max(np.abs(res.grid.values - deep)) <= 1e-15 * deep.max()


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("rho", [0.9999, 1 - 1e-6, 1 - 1e-8])
def test_guard_is_the_depth_rule_near_saturation(rho, a):
    """The walk stops at the first depth whose last term moves less than
    epsilon of the inner box's mass, and that box has the shape a 37-term
    series gives it. Measured against the whole grid's mass, almost all of
    it tail here, the same bound stopped at 2 to 5 terms and moved the box's
    shape by up to 6.9e-10. Needs no grid: T is about 1.4e9 at 1 - 1e-8."""
    p = ModelParams(lam=lambda_for_load(rho, a), a=a)
    system = ca._inner_box_system(p, ca.INNER_BOX)
    series, _, epsilon, share, box = ca.converged_series(p)
    n = series.n_terms

    def share_at(depth):
        return ca._last_term_share(ca.compute_series(p, depth), *system)[0]

    assert share == share_at(n) < epsilon <= share_at(n - 1)
    _, deep = ca._last_term_share(ca.compute_series(p, 37), *system)
    assert np.max(np.abs(box / box.sum() - deep / deep.sum())) <= 1e-14


@pytest.mark.parametrize("a", [0.3, 0.5])
@pytest.mark.parametrize("rho", [1e-3, 1e-4, 1e-6, 1e-8, 1e-9, 1e-12, 1e-15])
def test_solve_at_light_load(monkeypatch, rho, a):
    """The grid has T = 3 at these loads; its balance residual is checked on
    a grid of side 6, from the box rule patched to T = 6."""
    params = ModelParams(lam=lambda_for_load(rho, a), a=a)
    res = ca.solve(params)
    reference = oracle.stationary(oracle.build(params, 12, 12))
    assert maxnorm(res.grid, reference) < 1e-14
    monkeypatch.setattr(ca, "truncation", lambda params, epsilon: (6, 6, truncation(params, epsilon)[2]))
    deep = ca.solve(params)
    assert deep.grid.values.shape == (7, 7)
    assert max_interior_residual(deep.grid.values, params) < 1e-15


@pytest.mark.parametrize(
    "rho, a",
    [
        (0.1, 0.5),
        (0.01, 0.5),
        *(pytest.param(rho, a, marks=pytest.mark.xfail(strict=True, reason="the inner box's scale at light load "
          "(open FOUND line on compensation.solve)")) for rho, a in [(1e-4, 0.3), (1e-5, 0.5), (1e-6, 0.5)]),
    ],
)
def test_light_load_tail_follows_the_oracle(rho, a):
    """Outside the inner box [0,2]^2, CA's grid follows the oracle's to 1e-3
    relative, tiny as its entries are. At light loads it does not: the box's
    outflow, about rho^5 of its mass, lies below the round-off of its O(1)
    diagonal, which sets the box's scale and sign against the series. At
    rho = 1e-5 (a = 1/2) and 1e-4 (a = 0.3) the box's sum comes out
    negative, and normalization clips every series entry to 0.0; at
    rho = 1e-6, (3, 0) reads 1.0e-22 against the oracle's 1.0e-36. The
    max-norm distance stays below 1e-16."""
    p = ModelParams(lam=lambda_for_load(rho, a), a=a)
    grid = ca.solve(p).grid.values
    reference = oracle.stationary(oracle.build(p, grid.shape[0] - 1, grid.shape[1] - 1)).values
    outside = np.ones(grid.shape, bool)
    outside[: ca.INNER_BOX + 1, : ca.INNER_BOX + 1] = False
    assert np.all(np.abs(grid[outside] - reference[outside]) <= 1e-3 * reference[outside])


@pytest.mark.parametrize("a", [0.3, 0.5])
@pytest.mark.parametrize("rho", [0.4, 0.9, 0.97])
def test_outer_row_sums_add_the_rows(rho, a):
    """The closed-form row sums are the sums of the rows outer_values writes."""
    params = ModelParams(lam=lambda_for_load(rho, a), a=a)
    series, (T_k, T_l), *_ = ca.converged_series(params)
    k = np.arange(T_k - 3.0, T_k - 1.0)
    sums = ca.outer_row_sums(series, k, T_l)
    assert sums == pytest.approx(ca.outer_values(series, k, T_l).sum(axis=1), rel=1e-13, abs=0)


def _box_limited_share(series, params, T):
    """The guard that evaluated the grid twice: sum |grid(n) - grid(n - 1)|
    over [0,T]^2, as a share of |sum grid(n)|, each grid with its own box."""
    B = ca.INNER_BOX
    A, taps, inner = ca._inner_box_system(params, B)
    side = max(T, B + 2)

    def grid(s):
        vals = ca.outer_values(s, np.arange(side + 1.0), side)
        box = np.linalg.solve(A, taps @ vals[: B + 2, : B + 3].ravel()[~inner])
        vals[: B + 1, : B + 1] = box.reshape(B + 1, B + 1)
        return vals[: T + 1, : T + 1]

    n = series.n_terms
    shorter = ca.compute_series(params, n - 1)
    assert np.array_equal(shorter.deltas, series.deltas[:n])
    full = grid(series)
    return float(np.abs(full - grid(shorter)).sum()) / abs(float(full.sum()))


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("rho", [1e-3, 0.1, 0.4, 0.7, 0.9, 0.97])
def test_closed_form_guard_bounds_the_grid_difference(rho, a):
    """The closed-form share of the inner box's mass that the last term moves
    is at least the share of the grid's mass it moves on the grid, up to
    rounding, for series cut at 1 to 6 terms."""
    p = ModelParams(lam=lambda_for_load(rho, a), a=a)
    T = truncation(p, 1e-12)[0]
    system = ca._inner_box_system(p, ca.INNER_BOX)
    for n in range(1, 7):
        series = ca.compute_series(p, n)
        assert ca._last_term_share(series, *system)[0] >= _box_limited_share(series, p, T) - 1e-15


@pytest.mark.parametrize("a", [0.3, 0.5])
@pytest.mark.parametrize("rho", [0.9, 0.95, 0.97])
def test_solve_balances_at_high_load(rho, a):
    params = ModelParams(lam=lambda_for_load(rho, a), a=a)
    res = ca.solve(params)
    assert res.grid.total() == pytest.approx(1.0, abs=1e-12)
    assert res.grid.values.min() >= 0.0
    assert max_interior_residual(res.grid.values, params) < 1e-15
    assert res.inner_box == 2
    assert res.last_term_change < res.epsilon_used


def test_solve_truncation_formula(params_rho04, ca_rho04):
    g0 = ca.initial_gamma(params_rho04)
    T = max(int(np.ceil(np.log(1e-12) / np.log(g0))), 3)
    assert ca_rho04.grid.values.shape == (T + 1, T + 1)


def test_solve_epsilon_clamp(base_params):
    res = ca.solve(base_params, epsilon=1e-30)
    assert res.epsilon_used == 1e-12


def test_solve_unstable_raises():
    with pytest.raises(StabilityError):
        ca.solve(ModelParams(lam=0.6, a=0.5))


def test_solve_matches_oracle(ca_rho04, oracle_rho04):
    assert maxnorm(ca_rho04.grid, oracle_rho04) < 1e-8


def test_decay_toward_rho_squared(params_rho04, ca_rho04):
    """Fixed-l decay of pi(k+1,l)/pi(k,l) approaches rho^2 (and the same for
    the min-marginal), checked a few states inside the truncation edge."""
    grid = ca_rho04.grid.values
    rho2 = params_rho04.rho**2
    T = len(grid) - 1
    for l in (0, 1, 3):
        ratio = grid[T - 2, l] / grid[T - 3, l]
        assert ratio == pytest.approx(rho2, abs=1e-4)
    marg = grid.sum(axis=1)
    assert marg[T - 2] / marg[T - 3] == pytest.approx(rho2, abs=1e-4)
