import itertools

import numpy as np
import pytest

from relayq import oracle
from relayq.errors import GridError
from relayq.grids import ORIGINAL, TRANSFORMED
from relayq.model import (
    ModelParams,
    balance_residuals,
    box_matrix,
    is_stable,
    lambda_for_load,
    max_interior_residual,
    step,
    transform_state,
    transformed_transition_distribution,
    transition_distribution,
)
from conftest import random_params, random_stable_params


def test_params_reject_boundaries():
    for lam, a in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.5)]:
        with pytest.raises(ValueError):
            ModelParams(lam=lam, a=a)
    ModelParams(lam=1e-9, a=1 - 1e-9)  # strictly interior values are fine


def test_load_examples():
    assert ModelParams(lam=0.3, a=0.5).rho == pytest.approx(3 / 7, abs=1e-15)
    assert ModelParams(lam=1e-12, a=0.37).rho < 1e-9
    # invert lam = rho/(1+rho) at a = 1/2 for rho = 0.1
    assert ModelParams(lam=1 / 11, a=0.5).rho == pytest.approx(0.1, abs=1e-15)


def test_lambda_for_load_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rho = rng.uniform(0.01, 0.99)
        a = rng.uniform(0.05, 0.95)
        lam = lambda_for_load(rho, a)
        assert ModelParams(lam=lam, a=a).rho == pytest.approx(rho, rel=1e-13)


def test_is_stable_examples():
    rep = is_stable(ModelParams(lam=0.5, a=0.5))
    assert not rep.stable and rep.margin == pytest.approx(0.0, abs=1e-15)
    rep = is_stable(ModelParams(lam=0.3, a=0.5))
    assert rep.stable and rep.margin == pytest.approx(-0.2, abs=1e-15)
    rep = is_stable(ModelParams(lam=0.3, a=0.05))
    assert not rep.stable and rep.margin == pytest.approx(0.205, abs=1e-15)


def test_stability_matches_load_criterion():
    rng = np.random.default_rng(11)
    for p in random_params(rng, 1000):
        assert is_stable(p).stable == (p.rho < 1.0)


def test_step_on_arrays_is_step_per_state():
    """The slot rule runs unchanged on arrays of states: for each of the 16
    draws, element s of the result is the rule applied to state s alone."""
    q1, q2 = (x.ravel() for x in np.indices((6, 6)))  # zeros, ties, |q1 - q2| up to 5
    for draw in itertools.product((True, False), repeat=4):
        i2, j2 = step(q1, q2, *draw)
        assert i2.dtype == j2.dtype == q1.dtype  # the states' integer dtype, not bool or float
        one_by_one = [step(i, j, *draw) for i, j in zip(q1.tolist(), q2.tolist())]
        assert all(type(x) is int for pair in one_by_one for x in pair)
        assert list(zip(i2.tolist(), j2.tolist())) == one_by_one


def test_transition_distribution_origin():
    p = ModelParams(lam=0.3, a=0.5)
    steps = dict(((di, dj), pr) for di, dj, pr in transition_distribution((0, 0), p))
    assert steps[(0, 1)] == pytest.approx(p.lam * p.abar / 2, abs=1e-15)
    assert steps[(1, 0)] == pytest.approx(p.lam * p.abar / 2, abs=1e-15)
    assert steps[(0, 0)] == pytest.approx(p.lbar + p.lam * p.a, abs=1e-15)
    assert len(steps) == 3


def test_transition_distribution_angle():
    p = ModelParams(lam=0.3, a=0.5)
    steps = dict(((di, dj), pr) for di, dj, pr in transition_distribution((3, 1), p))
    assert steps[(0, 1)] == pytest.approx(p.lam * (p.abar**2 + p.a**2), abs=1e-15)
    assert steps[(0, -1)] == pytest.approx(p.lbar * p.a * p.abar, abs=1e-15)
    assert steps[(-1, 0)] == pytest.approx(p.lbar * p.a * p.abar, abs=1e-15)
    assert steps[(-1, 1)] == pytest.approx(p.lam * p.a * p.abar, abs=1e-15)
    assert steps[(0, 0)] == pytest.approx(
        p.lbar * (p.abar**2 + p.a**2) + p.lam * p.a * p.abar, abs=1e-15
    )


def hand_original_steps(region, p):
    """The original law as region tables written out by hand: the reference
    the law computed from the slot rule is pinned to."""
    fwd, dep, both = p.p_fwd, p.p_dep, p.p_both
    lone = p.lbar * p.a  # no arrival, the lone busy relay departs
    return {
        "O": ((0, 1, p.lam * p.abar / 2), (1, 0, p.lam * p.abar / 2), (0, 0, p.lbar + p.lam * p.a)),
        "Hp": ((0, 1, fwd), (-1, 0, lone), (-1, 1, both), (0, 0, p.lbar * p.abar + both)),
        "Vp": ((1, 0, fwd), (0, -1, lone), (1, -1, both), (0, 0, p.lbar * p.abar + both)),
        "D": ((1, 0, fwd / 2), (0, 1, fwd / 2), (0, -1, dep), (-1, 0, dep),
              (1, -1, both / 2), (-1, 1, both / 2), (0, 0, p.p_hold)),
        "H": ((0, 1, fwd), (0, -1, dep), (-1, 0, dep), (-1, 1, both), (0, 0, p.p_hold)),
        "V": ((1, 0, fwd), (0, -1, dep), (-1, 0, dep), (1, -1, both), (0, 0, p.p_hold)),
    }[region]


def hand_transformed_steps(state, p):
    """The transformed law as hand-written tables, by (k, l) region."""
    k, l = state
    fwd, dep, both = p.p_fwd, p.p_dep, p.p_both
    lone = p.lbar * p.a
    if k == 0 and l == 0:
        return ((0, 1, p.lam * p.abar), (0, 0, p.lbar + p.lam * p.a))
    if k == 0 and l == 1:
        return ((0, -1, lone), (1, -1, fwd), (0, 0, p.lbar * p.abar + 2 * both))
    if k == 0:
        return ((0, -1, lone), (1, -1, fwd), (1, -2, both), (0, 0, p.lbar * p.abar + both))
    if l == 0:
        return ((0, 1, fwd), (-1, 1, 2 * dep), (-1, 2, both), (0, 0, p.p_hold))
    if l == 1:
        return ((1, -1, fwd), (0, -1, dep), (-1, 1, dep), (0, 0, p.p_hold + both))
    return ((1, -1, fwd), (0, -1, dep), (-1, 1, dep), (1, -2, both), (0, 0, p.p_hold))


def assert_same_law(got, want):
    got = {(dx, dy): pr for dx, dy, pr in got}
    want = {(dx, dy): pr for dx, dy, pr in want}
    assert set(got) == set(want)
    for move, pr in want.items():
        assert abs(got[move] - pr) <= 1e-15, move


def test_both_laws_match_hand_tables_in_every_region():
    """Both laws are computed from the slot rule; every region of each is
    pinned against its hand-written table, at two states per region."""
    original = {"O": [(0, 0)], "Hp": [(1, 0), (5, 0)], "Vp": [(0, 1), (0, 4)],
                "D": [(1, 1), (3, 3)], "H": [(2, 1), (6, 2)], "V": [(1, 2), (3, 7)]}
    transformed = [(0, 0), (0, 1), (0, 2), (0, 5), (1, 0), (4, 0),
                   (1, 1), (3, 1), (1, 2), (3, 6)]
    rng = np.random.default_rng(16)
    for p in random_params(rng, 500):
        for region, states in original.items():
            for s in states:
                assert_same_law(transition_distribution(s, p), hand_original_steps(region, p))
        for s in transformed:
            assert_same_law(transformed_transition_distribution(s, p), hand_transformed_steps(s, p))


def test_transition_rows_stochastic_and_nonnegative():
    rng = np.random.default_rng(5)
    states = [(0, 0), (1, 0), (0, 1), (2, 2), (4, 1), (1, 4), (7, 0), (0, 9), (3, 3)]
    for p in random_params(rng, 1000):
        for s in states:
            steps = transition_distribution(s, p)
            assert sum(pr for _, _, pr in steps) == pytest.approx(1.0, abs=1e-14)
            for di, dj, pr in steps:
                assert 0.0 <= pr <= 1.0
                assert s[0] + di >= 0 and s[1] + dj >= 0


def test_transformed_rows_stochastic():
    rng = np.random.default_rng(6)
    states = [(0, 0), (0, 1), (0, 5), (1, 0), (4, 0), (2, 1), (3, 6), (1, 2)]
    for p in random_params(rng, 300):
        for s in states:
            steps = transformed_transition_distribution(s, p)
            assert sum(pr for _, _, pr in steps) == pytest.approx(1.0, abs=1e-14)


def test_transformed_law_is_lumped_original_law():
    """Pushing the original one-step law through (min, diff) gives the
    transformed law at every representative state; this is the lumping that
    justifies working with the transformed chain at all."""
    rng = np.random.default_rng(9)
    originals = [(0, 0), (2, 3), (3, 2), (2, 2), (3, 0), (0, 3), (1, 1), (5, 2), (0, 1)]
    for p in random_params(rng, 50):
        for (i, j) in originals:
            lumped: dict = {}
            for di, dj, pr in transition_distribution((i, j), p):
                key = transform_state(i + di, j + dj)
                lumped[key] = lumped.get(key, 0.0) + pr
            k, l = transform_state(i, j)
            law: dict = {}
            for dk, dl, pr in transformed_transition_distribution((k, l), p):
                law[(k + dk, l + dl)] = law.get((k + dk, l + dl), 0.0) + pr
            assert set(lumped) == set(law)
            for key in law:
                assert lumped[key] == pytest.approx(law[key], abs=1e-14)


def test_transform_state():
    assert transform_state(5, 2) == (2, 3)
    assert transform_state(4, 4) == (4, 0)
    assert transform_state(0, 7) == (0, 7)


def test_balance_residuals_zero_grid(base_params):
    res = balance_residuals(np.zeros((12, 12)), base_params)
    assert np.nanmax(res) == 0.0


def test_balance_residuals_reject_small(base_params):
    with pytest.raises(GridError):
        balance_residuals(np.zeros((3, 3)), base_params)


def test_balance_residuals_oracle_grid(base_params, oracle_base):
    assert max_interior_residual(oracle_base.values, base_params) < 1e-10


def test_balance_residuals_compensation_grid(params_rho04, ca_rho04):
    assert max_interior_residual(ca_rho04.grid.values, params_rho04) < 1e-9


# (variant as passed to box_matrix, per-state steps (dk, dl, prob))
LAWS = (
    (ORIGINAL, transition_distribution),
    (TRANSFORMED, transformed_transition_distribution),
)


def law_matrix(steps_at, p, T_k, T_l):
    """Per-state reference for box_matrix: the law at every state of the box."""
    n_l = T_l + 1
    P = np.zeros(((T_k + 1) * n_l, (T_k + 1) * n_l))
    for k in range(T_k + 1):
        for l in range(n_l):
            for dk, dl, pr in steps_at((k, l), p):
                if 0 <= k + dk <= T_k and 0 <= l + dl <= T_l:
                    P[k * n_l + l, (k + dk) * n_l + l + dl] += pr
    return P


def test_box_matrix_rows_are_the_law():
    rng = np.random.default_rng(13)
    for p in random_params(rng, 20):
        for variant, steps_at in LAWS:
            for T_k, T_l in ((5, 7), (7, 5), (1, 9), (9, 1), (15, 2)):
                P = box_matrix(p, T_k, T_l, variant)
                assert isinstance(P, np.ndarray)
                assert np.array_equal(P, law_matrix(steps_at, p, T_k, T_l))


def test_oracle_folds_dropped_steps_into_self_loops():
    rng = np.random.default_rng(14)
    T = 5
    off_diagonal = ~np.eye((T + 1) ** 2, dtype=bool)
    for p in random_params(rng, 20):
        for variant, _ in LAWS:
            M = oracle.build(p, T, variant).matrix
            P = box_matrix(p, T, T, variant)
            assert np.allclose(M.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)
            assert np.array_equal(M[off_diagonal], P[off_diagonal])


def test_balance_residuals_nan_exactly_where_a_source_is_outside():
    """Brute force over every state near the grid: a grid state's residual is
    NaN iff one of its sources lies outside, and |pi - inflow| otherwise."""
    rng = np.random.default_rng(15)
    n = 7
    for p in random_params(rng, 5):
        pi = rng.random((n, n))
        res = balance_residuals(pi, p)
        for k in range(n):
            for l in range(n):
                inflow, outside = 0.0, False
                for k2 in range(max(k - 1, 0), k + 2):
                    for l2 in range(max(l - 2, 0), l + 3):
                        for dk, dl, pr in transformed_transition_distribution((k2, l2), p):
                            if (k2 + dk, l2 + dl) != (k, l):
                                continue
                            if k2 < n and l2 < n:
                                inflow += pi[k2, l2] * pr
                            else:
                                outside = True
                if outside:
                    assert np.isnan(res[k, l]), (k, l)
                else:
                    assert res[k, l] == pytest.approx(abs(pi[k, l] - inflow), abs=1e-15), (k, l)
