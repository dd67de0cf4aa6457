import math

import numpy as np
import pytest

from relayq import compensation, oracle, psa
from relayq.errors import NumericsError, StabilityError, UnsupportedParameterError
from relayq.model import ModelParams, lambda_for_load
from conftest import maxnorm


def test_theta_from_rho():
    assert psa.theta_from_rho(0.5, 1.0) == pytest.approx(2 / 3, abs=1e-15)
    for rho in (0.0, 0.3, 0.8):
        assert psa.theta_from_rho(rho, 0.0) == pytest.approx(rho, abs=1e-15)
    xs = np.linspace(0, 0.999, 50)
    th = [psa.theta_from_rho(x, 2.5) for x in xs]
    assert np.all(np.diff(th) > 0)
    assert psa.theta_from_rho(1 - 1e-12, 3.0) == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(ValueError):
        psa.theta_from_rho(1.0, 1.0)
    with pytest.raises(ValueError):
        psa.theta_from_rho(0.5, -1.0)
    for G in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            psa.theta_from_rho(0.5, G)
        with pytest.raises(ValueError, match="finite"):
            psa.compute_coefficients(2, 3, G)


def test_normalization_seed():
    u = psa.compute_coefficients(2, 3, 1.0)
    assert u[0, 0, 0] == 1.0


def literal_plain_series(N, T):
    """Independent transcription of the plain-load coefficient recursion
    (the G = 0 instance), evaluated by memoized recursion in a dict."""
    cache = {}

    def b(n, k, l):
        if n < 0 or k < 0 or l < 0:
            return 0.0
        key = (n, k, l)
        if key in cache:
            return cache[key]
        if k == 0 and l == 0:
            if n == 0:
                val = 1.0
            else:
                val = -sum(
                    b(n - kk - ll, kk, ll)
                    for kk in range(n + 1)
                    for ll in range(n + 1 - kk)
                    if kk + ll > 0
                )
        elif k == 0 and l == 1:
            val = b(n, 0, 0)
        elif k == 0 and l == 2:
            val = b(n + 1, 0, 1) + b(n, 0, 1) - b(n + 1, 1, 0) - b(n + 1, 0, 0)
        elif k == 0:  # l >= 3
            val = (
                b(n + 1, 0, l - 1)
                + 1.5 * b(n, 0, l - 1)
                - 0.5 * b(n + 1, 1, l - 2)
                - 0.5 * b(n + 1, 1, 0) * (1 if l == 3 else 0)
            )
        elif l == 0:
            val = (
                -1.5 * b(n - 1, k, 0)
                + 0.5 * b(n - 1, k, 1)
                + b(n - 1, k - 1, 1)
                + 0.5 * b(n - 2, k - 1, 2)
            )
        elif l == 1:
            val = (
                -b(n - 1, k, 1)
                + 0.5 * b(n - 1, k, 2)
                + b(n - 1, k - 1, 2)
                + 0.5 * b(n - 2, k - 1, 3)
                + b(n, k, 0)
                + b(n, k + 1, 0)
            )
        else:  # k >= 1, l >= 2
            val = (
                -1.5 * b(n - 1, k, l)
                + 0.5 * b(n - 1, k, l + 1)
                + b(n - 1, k - 1, l + 1)
                + 0.5 * b(n, k + 1, l - 1)
                + 0.5 * b(n - 2, k - 1, l + 2)
                + 0.5 * b(n, k + 1, 0) * (1 if l == 2 else 0)
            )
        cache[key] = val
        return val

    out = np.zeros((N + 1, T + 1, T + 1))
    for n in range(N + 1):
        for k in range(T + 1):
            for l in range(T + 1):
                out[n, k, l] = b(n, k, l)
    return out


def test_plain_series_matches_accelerated_at_zero():
    """The G = 0 coefficients coincide with an independently transcribed
    plain-load recursion (the two derivations of the same scheme agree)."""
    N = T = 8
    u0 = psa.compute_coefficients(N, T, 0.0)
    ref = literal_plain_series(N, T)
    # restrict to the exactly-computed triangle n+k+l <= 8
    for n in range(N + 1):
        for k in range(T + 1):
            for l in range(T + 1):
                if n + k + l <= 8:
                    assert u0[n, k, l] == pytest.approx(ref[n, k, l], abs=1e-13), (n, k, l)


class ReferenceMachine:
    """On-demand recursive evaluator mirroring the level machine's arithmetic
    term-for-term, but visiting states in dependency order instead of level
    sweeps. Any valid evaluation order must give bitwise identical values."""

    def __init__(self, G):
        self.G = G
        self.Gp = G + 1.0
        self.cache = {}
        self.colsum_cache = {}

    def u(self, n, k, l):
        if n < 0 or k < 0 or l < 0:
            return 0.0
        key = (n, k, l)
        if key in self.cache:
            return self.cache[key]
        G, Gp, u = self.G, self.Gp, self.u
        if k == 0 and l == 0:
            if n == 0:
                val = 1.0
            else:
                # mirror the machine: numpy pairwise sum over the level slab
                # in diagonal-major layout with (0,0) zeroed
                m = n
                slab = np.zeros((m + 1, m + 1))
                for s in range(1, m + 1):
                    for kk in range(0, s + 1):
                        slab[s, kk] = u(m - s, kk, s - kk)
                val = -(slab.sum())
        elif k == 0 and l == 1:
            val = G / Gp * u(n - 1, 0, 1) + 1.0 / Gp * u(n, 0, 0)
        elif k == 0 and l == 2:
            val = (
                G / Gp * u(n - 1, 0, 2)
                - (G - 1.0) / Gp * u(n, 0, 1)
                + u(n + 1, 0, 1)
                - u(n + 1, 1, 0)
                + G / Gp * u(n, 1, 0)
                - 1.0 / Gp * u(n + 1, 0, 0)
            )
        elif k == 0:  # l >= 3: base value at l = 2 plus sequential increments
            m = n + l
            val = self.u(m - 2, 0, 2) + self.colsum(m, l)
        elif l == 0:
            val = (
                (G - 1.5) / Gp * u(n - 1, k, 0)
                + 0.5 * u(n - 1, k, 1)
                - 0.5 * G / Gp * u(n - 2, k, 1)
                + 0.5 / Gp * u(n - 2, k - 1, 2)
                + 1.0 / Gp * u(n - 1, k - 1, 1)
            )
        elif l == 1:
            val = (
                (G - 1.0) / Gp * u(n - 1, k, 1)
                + 0.5 * u(n - 1, k, 2)
                - 0.5 * G / Gp * u(n - 2, k, 2)
                + 0.5 / Gp * u(n - 2, k - 1, 3)
                + 1.0 / Gp * u(n - 1, k - 1, 2)
                - G / Gp * u(n - 1, k + 1, 0)
                + 1.0 / Gp * u(n, k, 0)
                + u(n, k + 1, 0)
            )
        else:  # k >= 1, l >= 2: filter form a + 0.5 * next
            a = (
                (G - 1.5) / Gp * u(n - 1, k, l)
                + 0.5 * u(n - 1, k, l + 1)
                - 0.5 * G / Gp * u(n - 2, k, l + 1)
                + 1.0 / Gp * u(n - 1, k - 1, l + 1)
                + 0.5 / Gp * u(n - 2, k - 1, l + 2)
                - 0.5 * G / Gp * u(n - 1, k + 1, l - 1)
            )
            if l == 2:
                a = a + 0.5 / Gp * u(n, k + 1, 0)
            val = 1.0 * a + 0.5 * u(n, k + 1, l - 1)
        self.cache[key] = val
        return val

    def colsum(self, m, l):
        """Mirror of the cumulative k = 0 column update at level m."""
        key = (m, l)
        if key in self.colsum_cache:
            return self.colsum_cache[key]
        G, Gp, u = self.G, self.Gp, self.u
        bl = (
            G / Gp * u(m - l - 1, 0, l)
            - (G - 1.5) / Gp * u(m - l, 0, l - 1)
            + 0.5 * G / Gp * u(m - l, 1, l - 2)
            - 0.5 * u(m - l + 1, 1, l - 2)
        )
        if l == 3:
            bl = bl - 0.5 / Gp * u(m - 2, 1, 0)
        prev = 0.0 if l == 3 else self.colsum(m, l - 1)
        val = prev + bl
        self.colsum_cache[key] = val
        return val


@pytest.mark.parametrize("G", [0.0, 1.0, 2.5])
def test_order_of_computation_independence(G):
    N = T = 8
    u = psa.compute_coefficients(N, T, G)
    ref = ReferenceMachine(G)
    for n in range(N + 1):
        for k in range(T + 1):
            for l in range(T + 1):
                assert u[n, k, l] == ref.u(n, k, l), (n, k, l)


@pytest.mark.parametrize("rho, G", [(0.4, 1.0), (0.9, 1.0), (0.6, 2.5)])
def test_one_pass_holds_the_explicit_sweep(rho, G):
    """The box that solve keeps from its one monitored sweep is the box that
    an explicit sweep to the reported depth computes."""
    s = psa.solve(ModelParams(lam=lambda_for_load(rho, 0.5), a=0.5), G=G)
    assert np.array_equal(s.u, psa.compute_coefficients(s.N_psa, s.T_psa, G))


def test_held_box_stays_within_budget(monkeypatch, params_rho04, psa_rho04):
    T = psa_rho04.T_psa

    def sweep_bytes(depth):
        # six level slabs of side depth + 2T + 3 and the boxes of depths 0 .. depth
        return 48 * (depth + 2 * T + 3) ** 2 + 8 * (depth + 1) * (T + 1) ** 2

    monkeypatch.setattr(psa, "MAX_HELD_BYTES", (sweep_bytes(10) + sweep_bytes(11)) // 2)
    s = psa.solve(params_rho04)
    assert s.diagnostics.stop_reason == "cap" and not s.diagnostics.converged
    assert s.N_psa == len(s.diagnostics.rel_change_history) == 10
    assert s.u.nbytes <= psa.MAX_HELD_BYTES
    assert np.array_equal(s.u, psa_rho04.u[:11])
    # a budget that holds depths 0 and 1 only cannot hold an answer
    monkeypatch.setattr(psa, "MAX_HELD_BYTES", sweep_bytes(2) - 1)
    with pytest.raises(NumericsError, match="budget"):
        psa.solve(params_rho04)


def test_budget_refuses_near_saturation_before_the_sweep():
    """At rho = 0.99 the six level slabs alone exceed the budget, so the
    solve fails at once instead of sweeping thousands of levels."""
    with pytest.raises(NumericsError, match="budget"):
        psa.solve(ModelParams(lam=lambda_for_load(0.99, 0.5), a=0.5))


def test_small_load_matches_oracle():
    rho = 0.05
    p = ModelParams(lam=lambda_for_load(rho, 0.5), a=0.5)
    s = psa.solve(p)
    orc = oracle.stationary(oracle.build(p, max(s.T_psa, 6)))
    assert maxnorm(s.grid, orc) < 1e-10


def test_evaluate_at_zero_load(params_rho04):
    s = psa.solve(params_rho04)
    grid = psa.evaluate(0.0, s)
    assert grid.values[0, 0] == 1.0
    assert np.all(grid.values.ravel()[1:] == 0.0)


def test_partial_sums_cauchy(params_rho04, psa_rho04):
    hist = psa_rho04.diagnostics.rel_change_history
    # successive-sum deltas shrink by orders of magnitude over the run
    assert hist[-1] < 1e-12 < hist[0]
    assert psa_rho04.diagnostics.converged


def test_measures_match_reference_values(params_rho04, psa_rho04):
    from relayq.measures import moments_from_transformed

    rep = moments_from_transformed(psa_rho04.grid, params_rho04)
    assert rep.e_sojourn == pytest.approx(2.333, abs=1e-3)
    assert rep.correlation == pytest.approx(0.468, abs=1e-3)


def test_table_values_low_and_mid_load():
    from relayq.measures import moments_from_transformed

    p1 = ModelParams(lam=lambda_for_load(0.1, 0.5), a=0.5)
    rep1 = moments_from_transformed(psa.solve(p1).grid, p1)
    assert rep1.correlation == pytest.approx(0.136, abs=1e-3)
    p7 = ModelParams(lam=lambda_for_load(0.7, 0.5), a=0.5)
    rep7 = moments_from_transformed(psa.solve(p7).grid, p7)
    assert rep7.e_sojourn == pytest.approx(5.666, abs=1e-3)


def test_high_load_instability():
    """Near saturation the series stops converging; the solver flags it and
    the reported sojourn time visibly deviates from the true value 19.0."""
    p = ModelParams(lam=lambda_for_load(0.9, 0.5), a=0.5)
    s = psa.solve(p)
    assert not s.diagnostics.converged
    assert s.diagnostics.stop_reason in ("divergence", "cap")
    from relayq.measures import moments_from_transformed

    rep = moments_from_transformed(s.grid.clipped().normalized(), p)
    assert abs(rep.e_sojourn - 19.0) > 0.5


def test_unsupported_attempt_probability():
    with pytest.raises(UnsupportedParameterError):
        psa.solve(ModelParams(lam=0.2, a=0.4))


def test_unstable_raises():
    with pytest.raises(StabilityError):
        psa.solve(ModelParams(lam=0.6, a=0.5))


def test_matches_compensation_grid(ca_rho04, psa_rho04):
    assert maxnorm(ca_rho04.grid, psa_rho04.grid) < 1e-6


def test_reconstruction_nonnegative(psa_rho04):
    assert psa_rho04.grid.values.min() > -1e-9
