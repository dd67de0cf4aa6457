import math

import numpy as np
import pytest

from relayq import compensation, oracle, psa
from relayq.errors import NumericsError, StabilityError
from relayq.model import ModelParams, lambda_for_load
from conftest import level_sweep, maxnorm


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
    """The coefficient recursion of the a = 1/2 balance equations, derived by
    hand for each kind of state and evaluated on demand in dependency order:
    an independent reference for the recursion taken from the slot rule."""

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
                # numpy pairwise sum over the level's states in diagonal-major
                # layout, with (0,0) zeroed
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
        """Cumulative k = 0 column update at level m."""
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
    """The coefficients taken from the slot rule, row by row of totals, equal
    those of the hand-derived a = 1/2 recursion, state by state."""
    N = T = 8
    u = psa.compute_coefficients(N, T, G)
    ref = ReferenceMachine(G)
    for n in range(N + 1):
        for k in range(T + 1):
            for l in range(T + 1):
                assert abs(u[n, k, l] - ref.u(n, k, l)) <= 1e-15, (n, k, l)


@pytest.mark.parametrize(
    "rho, G, a",
    [(0.4, 1.0, 0.5), (0.9, 1.0, 0.5), (0.6, 2.5, 0.5), (0.7, 1.0, 0.3)],
    ids=["0.4-1.0", "0.9-1.0", "0.6-2.5", "0.7-1.0-a0.3"],
)
def test_one_pass_holds_the_explicit_sweep(rho, G, a):
    """The box that solve keeps from its one monitored sweep is the box that
    an explicit sweep to the reported depth computes."""
    s = psa.solve(ModelParams(lam=lambda_for_load(rho, a), a=a), G=G)
    assert np.array_equal(s.u, psa.compute_coefficients(s.N_psa, s.T_psa, G, a))


@pytest.mark.parametrize("a", [0.3, 0.5])
@pytest.mark.parametrize("G", [0.0, 1.0, 2.5])
def test_wave_sweep_is_the_level_sweep_bit_for_bit(G, a):
    """Solving the rows by waves changes no bit of the coefficients: 101
    levels span four chunks of the wave sweep, whose rows carry more zeros
    beyond their ends than the reference's, and the normalization must add
    the same row sums in the same order."""
    u, reference = psa.compute_coefficients(40, 30, G, a), level_sweep(G, 30, 40, a)
    assert np.array_equal(u, reference)
    assert u.tobytes() == reference.tobytes()  # signed zeros too


@pytest.mark.parametrize("a", [0.3, 0.5])
@pytest.mark.parametrize("G", [0.0, 1.0, 2.5])
def test_sweep_yields_each_depth_complete(G, a):
    """Each depth the sweep yields is already whole: its last entries, the
    row l = T, are solved at wave 2n + T of the chunk that holds level
    n + 2T, before the yield. U_m(k, l) is 0 below m = 2(k + l) - 1, so that
    row is not all 0 from depth 2T - 1 on. With T past half a chunk, the
    levels up to 6T fill four chunks, and the level n + 2T of some depth
    past 2T opens one, so a yield one wave early, or in the chunk before,
    reads a partial depth."""
    T = psa._WAVE_LEVELS // 2 + 1
    depth = 4 * T
    reference = level_sweep(G, T, depth, a)
    yielded = []
    for n, u in psa._sweep(G, T, depth, a):
        assert u[n].tobytes() == reference[n].tobytes(), n
        yielded.append(n)
    assert yielded == list(range(depth + 1))


def test_coefficients_do_not_depend_on_numpy_buffer_size():
    """The sweep sums in an order of its own, so numpy's reduction buffer, a
    setting global to the process, changes no bit of the coefficients."""
    reference = psa.compute_coefficients(120, 60, 1.0)
    size = np.setbufsize(1024)
    try:
        small_buffer = psa.compute_coefficients(120, 60, 1.0)
    finally:
        np.setbufsize(size)
    assert small_buffer.tobytes() == reference.tobytes()


@pytest.mark.parametrize("a", [0.0, 1.0, 1.5, float("nan")])
def test_coefficients_reject_an_attempt_probability_outside_the_unit_interval(a):
    with pytest.raises(ValueError, match="attempt probability"):
        psa.compute_coefficients(2, 3, 1.0, a)


def test_held_box_stays_within_budget(monkeypatch, params_rho04, psa_rho04):
    """The level budget alone bounds the depth: depth n completes at level n + 2T.
    A capped series is an answer only once its change is below 1e-6: 20 depths
    at rho = 0.4 change by 8.2e-8, 10 depths by 1.2e-4."""
    T = psa_rho04.T_psa
    monkeypatch.setattr(psa, "MAX_OUTER_ITERATIONS", 2 * T + 20)
    s = psa.solve(params_rho04)
    assert s.diagnostics.stop_reason == "cap"
    assert s.N_psa == len(s.diagnostics.rel_change_history) == 20
    assert np.array_equal(s.u, psa_rho04.u[:21])
    monkeypatch.setattr(psa, "MAX_OUTER_ITERATIONS", 2 * T + 10)
    with pytest.raises(NumericsError, match="did not settle"):
        psa.solve(params_rho04)
    # a budget that completes depths 0 and 1 only cannot hold an answer
    monkeypatch.setattr(psa, "MAX_OUTER_ITERATIONS", 2 * T + 1)
    with pytest.raises(NumericsError, match="budget"):
        psa.solve(params_rho04)


@pytest.mark.parametrize(
    "rho, G, epsilon, match",
    [
        pytest.param(0.942, 1.0, 1e-12, "did not settle", id="0.942-1e-12"),
        pytest.param(0.95, 1.0, 1e-8, "did not settle", id="0.95-1e-08"),
        pytest.param(0.4, 1000.0, 1e-12, "balance residual", id="0.4-G1000"),
        pytest.param(0.8, 10.0, 1e-12, "balance residual", id="0.8-G10"),
        pytest.param(0.4, 1e308, 1e-12, "balance residual", id="0.4-G1e308"),
    ],
)
def test_unsettled_partial_sum_is_no_answer(rho, G, epsilon, match):
    """Where the level budget ends the series long before it settles, the
    depth of smallest change is depth 3, about 0.15 from CA; the solve
    raises rather than return it. At a large G the series settles, even
    converges at G = 1e308, on a sum 0.12 to 0.40 from CA at rho = 0.4 and
    3.1e-6 from it at rho = 0.8: its balance residual refuses it."""
    p = ModelParams(lam=lambda_for_load(rho, 0.5), a=0.5)
    with pytest.raises(NumericsError, match=match):
        psa.solve(p, G=G, epsilon=epsilon)


def test_budget_refuses_near_saturation_before_the_sweep(monkeypatch):
    """Where 2T >= MAX_OUTER_ITERATIONS - 1 the budget completes no depth
    beyond the first, so the solve fails at once instead of sweeping hundreds
    or thousands of levels."""

    def no_sweep(*args):
        raise AssertionError("swept levels")

    monkeypatch.setattr(psa, "_sweep", no_sweep)
    for rho in (0.95, 0.97, 0.99):
        with pytest.raises(NumericsError, match="budget"):
            psa.solve(ModelParams(lam=lambda_for_load(rho, 0.5), a=0.5))


@pytest.mark.parametrize(
    "rho, N, stop, G",
    [
        pytest.param(0.1, 13, "epsilon", 1.0, id="0.1-13-epsilon"),
        pytest.param(0.4, 36, "epsilon", 1.0, id="0.4-36-epsilon"),
        pytest.param(0.7, 98, "epsilon", 1.0, id="0.7-98-epsilon"),
        pytest.param(0.9, 225, "cap", 1.0, id="0.9-225-cap"),
        pytest.param(0.4, 119, "epsilon", 0.0, id="0.4-119-epsilon-G0"),
    ],
)
def test_depth_and_stop_reason_pinned(rho, N, stop, G):
    """Tripwire on the depth and stop reason, at G = 1 and, where the move
    set lacks the moves that lower the total, at G = 0: a change to the
    recursion, the level budget or the stop rules that moves them shows
    here. Up to 0.7 the series stops well inside the budget; at 0.9 the
    budget ends it, and the best iterate lies below the cap."""
    s = psa.solve(ModelParams(lam=lambda_for_load(rho, 0.5), a=0.5), G=G)
    assert (s.N_psa, s.diagnostics.stop_reason) == (N, stop)
    assert s.N_psa < psa.MAX_OUTER_ITERATIONS - 2 * s.T_psa


def test_small_load_matches_oracle():
    rho = 0.05
    p = ModelParams(lam=lambda_for_load(rho, 0.5), a=0.5)
    s = psa.solve(p)
    T = max(s.T_psa, 6)
    orc = oracle.stationary(oracle.build(p, T, T))
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
    assert psa_rho04.diagnostics.stop_reason == "epsilon"


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


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("rho", [0.1, 0.4, 0.7])
def test_matches_compensation_at_every_attempt_probability(rho, a, solution):
    s = solution("psa", rho, a)
    assert s.stop_reason == s.route.diagnostics.stop_reason == "epsilon"
    assert maxnorm(s.grid, solution("ca", rho, a).grid) < 1e-10


@pytest.mark.parametrize("a", [0.3, 0.5])
def test_high_load_ends_at_the_level_budget(a):
    """At rho = 0.9 the level budget ends the series before epsilon: the
    result is flagged as not converged, yet it lies close to CA."""
    p = ModelParams(lam=lambda_for_load(0.9, a), a=a)
    s = psa.solve(p)
    assert s.diagnostics.stop_reason != "epsilon"
    assert maxnorm(s.grid, compensation.solve(p).grid) < 1e-7


def test_unstable_raises():
    with pytest.raises(StabilityError):
        psa.solve(ModelParams(lam=0.6, a=0.5))


def test_matches_compensation_grid(ca_rho04, psa_rho04):
    assert maxnorm(ca_rho04.grid, psa_rho04.grid) < 1e-6


def test_reconstruction_nonnegative(psa_rho04):
    assert psa_rho04.grid.values.min() > -1e-9
