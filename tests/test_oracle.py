import math

import numpy as np
import pytest

from relayq import oracle
from relayq.errors import GridError, RelayQError, StabilityError
from relayq.grids import ORIGINAL, TRANSFORMED
from relayq.model import ModelParams, lambda_for_load
from conftest import random_stable_params


def test_rows_sum_to_one():
    rng = np.random.default_rng(21)
    for p in random_stable_params(rng, 10):
        for variant in (TRANSFORMED, ORIGINAL):
            ch = oracle.build(p, 10, variant)
            assert np.allclose(ch.matrix.sum(axis=1), 1.0, atol=1e-14)


def test_small_truncation_rejected(base_params):
    with pytest.raises(GridError):
        oracle.build(base_params, 2)


def test_oversized_box_rejected_before_allocation(base_params, monkeypatch):
    class Built(Exception):
        pass

    def no_matrix(*args, **kwargs):
        raise Built

    monkeypatch.setattr(oracle, "box_matrix", no_matrix)
    T = math.isqrt(oracle.MAX_STATES) - 1
    with pytest.raises(Built):
        oracle.build(base_params, T)  # at the limit the matrix is built
    with pytest.raises(GridError, match=rf"{oracle.MAX_STATES}.*--method ca"):
        oracle.build(base_params, T + 1)


def test_interior_rows_match_angle_law(base_params):
    p = base_params
    T = 12
    ch = oracle.build(p, T, ORIGINAL)
    i, j = 4, 2  # upper angle, stencil well inside the box
    row = ch.matrix[i * (T + 1) + j]
    fwd = p.lam * (p.abar**2 + p.a**2)
    dep = p.lbar * p.a * p.abar
    both = p.lam * p.a * p.abar
    hold = p.lbar * (p.abar**2 + p.a**2) + both
    assert row[i * (T + 1) + j + 1] == pytest.approx(fwd, abs=1e-15)
    assert row[i * (T + 1) + j - 1] == pytest.approx(dep, abs=1e-15)
    assert row[(i - 1) * (T + 1) + j] == pytest.approx(dep, abs=1e-15)
    assert row[(i - 1) * (T + 1) + j + 1] == pytest.approx(both, abs=1e-15)
    assert row[i * (T + 1) + j] == pytest.approx(hold, abs=1e-15)


def test_original_matrix_commutes_with_swap(base_params):
    T = 8
    ch = oracle.build(base_params, T, ORIGINAL)
    n = T + 1
    perm = np.array([j * n + i for i in range(n) for j in range(n)])
    swapped = ch.matrix[np.ix_(perm, perm)]
    assert np.allclose(swapped, ch.matrix, atol=1e-15)


def test_stationary_residual_and_symmetry(base_params):
    ch = oracle.build(base_params, 20, ORIGINAL)
    grid = oracle.stationary(ch)
    pi = grid.values.ravel()
    assert np.max(np.abs(pi @ ch.matrix - pi)) < 1e-12
    assert np.max(np.abs(grid.values - grid.values.T)) < 1e-15


def test_near_empty_system():
    p = ModelParams(lam=0.001, a=0.5)
    grid = oracle.stationary(oracle.build(p, 6))
    assert grid.values[0, 0] > 0.99


def test_pushforward_matches_transformed_solve(base_params):
    T = 40
    orig = oracle.stationary(oracle.build(base_params, T, ORIGINAL))
    push = orig.to_transformed()
    tran = oracle.stationary(oracle.build(base_params, T, TRANSFORMED))
    assert np.max(np.abs(push.values - tran.values)) < 1e-10


def test_gth_matches_power_iteration(base_params):
    ch = oracle.build(base_params, 10)
    pi = oracle.gth_stationary(ch.matrix)
    # 2^20 > 1e6 one-step applications, via repeated squaring
    P = ch.matrix.copy()
    for _ in range(20):
        P = P @ P
        P /= P.sum(axis=1, keepdims=True)  # control round-off drift
    v = np.full(P.shape[0], 1.0 / P.shape[0]) @ P
    assert np.max(np.abs(v - pi)) < 1e-10


def test_reducible_chain_reports_state(base_params):
    ch = oracle.build(base_params, 4)
    bad = ch.matrix.copy()
    idx = 4 * 5 + 4  # state (4, 4), flattened as k * (T + 1) + l
    bad[idx, :] = 0.0
    bad[idx, idx] = 1.0  # absorbing corner: a second closed class
    with pytest.raises(RelayQError, match=r"\(4, 4\)"):
        oracle.stationary(oracle.TruncatedChain(4, TRANSFORMED, bad, base_params))


def _dense_gth(P):
    """GTH elimination over every lower state, without a band window."""
    A = np.array(P, dtype=float)
    n = A.shape[0]
    departing = np.zeros(n)
    for s in range(n - 1, 0, -1):
        departing[s] = A[s, :s].sum()
        A[s, :s] /= departing[s]
        A[:s, :s] += np.outer(A[:s, s], A[s, :s])
    pi = np.zeros(n)
    pi[0] = 1.0
    for s in range(1, n):
        pi[s] = (pi[:s] @ A[:s, s]) / departing[s]
    return pi / pi.sum()


def _corner_matrix(n, rng):
    """Stochastic birth-death matrix plus one step from the last state to state 0."""
    P = np.zeros((n, n))
    i = np.arange(n)
    P[i, i] = rng.uniform(0.1, 1.0, n)
    P[i[1:], i[:-1]] = rng.uniform(0.1, 1.0, n - 1)
    P[i[:-1], i[1:]] = rng.uniform(0.1, 1.0, n - 1)
    P[n - 1, 0] = 0.3
    return P / P.sum(axis=1, keepdims=True)


def test_banded_gth_matches_dense_elimination(base_params):
    matrices = [
        oracle.build(base_params, T, variant).matrix
        for T in (5, 13, 20)
        for variant in (TRANSFORMED, ORIGINAL)
    ]
    matrices.append(_corner_matrix(12, np.random.default_rng(5)))
    for P in matrices:
        np.testing.assert_allclose(oracle.gth_stationary(P), _dense_gth(P), rtol=1e-14, atol=0)


def test_chain_that_never_enters_origin_reports_state(base_params):
    ch = oracle.build(base_params, 6)
    bad = ch.matrix.copy()
    into_origin = np.flatnonzero(bad[1:, 0]) + 1
    assert into_origin.size
    bad[into_origin, into_origin] += bad[into_origin, 0]
    bad[into_origin, 0] = 0.0
    with pytest.raises(RelayQError, match=r"\(\d+, \d+\)"):
        oracle.stationary(oracle.TruncatedChain(6, TRANSFORMED, bad, base_params))


def test_choose_truncation():
    p = ModelParams(lam=lambda_for_load(0.4, 0.5), a=0.5)
    assert oracle.choose_truncation(p, 1e-10) == 13
    tiny = ModelParams(lam=0.001, a=0.5)
    assert oracle.choose_truncation(tiny, 1e-6) == 3
    with pytest.raises(StabilityError):
        oracle.choose_truncation(ModelParams(lam=0.6, a=0.5), 1e-10)


def test_truncation_edge_mass(params_rho04):
    eps = 1e-10
    T = oracle.choose_truncation(params_rho04, eps)
    grid = oracle.stationary(oracle.build(params_rho04, T))
    edge = grid.values[T - 1 :, :].sum() + grid.values[: T - 1, T - 1 :].sum()
    assert edge < 10 * eps


def test_truncation_doubling_consistency():
    # load 0.55 (within the contract's "rho <= 0.7" range, sized for runtime)
    p = ModelParams(lam=lambda_for_load(0.55, 0.5), a=0.5)
    T = oracle.choose_truncation(p, 1e-11)
    g1 = oracle.stationary(oracle.build(p, T))
    g2 = oracle.stationary(oracle.build(p, 2 * T))
    assert np.max(np.abs(g1.values[: T // 2, : T // 2] - g2.values[: T // 2, : T // 2])) < 1e-10
