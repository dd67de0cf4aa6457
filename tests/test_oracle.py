import dataclasses

import numpy as np
import pytest

from relayq import compensation, oracle
from relayq.errors import GridError, NumericsError, RelayQError, StabilityError
from relayq.model import ModelParams, gth_stationary, lambda_for_load, truncation
from conftest import maxnorm, original_box, push_forward, random_stable_params, transformed_box


def test_rows_sum_to_one():
    rng = np.random.default_rng(21)
    for p in random_stable_params(rng, 10):
        for P in (transformed_box(p, 10), original_box(p, 10), oracle.build(p, 10, 10).boundary):
            assert np.allclose(P.sum(axis=1), 1.0, atol=1e-14)


def test_small_truncation_rejected(base_params):
    with pytest.raises(GridError):
        oracle.build(base_params, 2, 2)


def test_interior_rows_match_angle_law(base_params):
    p = base_params
    T = 12
    i, j = 4, 2  # upper angle, stencil well inside the box
    row = original_box(p, T)[i * (T + 1) + j]
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
    P = original_box(base_params, T)
    n = T + 1
    perm = np.array([j * n + i for i in range(n) for j in range(n)])
    swapped = P[np.ix_(perm, perm)]
    assert np.allclose(swapped, P, atol=1e-15)


def test_stationary_residual_and_symmetry(base_params):
    P = original_box(base_params, 20)
    pi = oracle.gth_stationary(P)
    assert np.max(np.abs(pi @ P - pi)) < 1e-12
    values = pi.reshape(21, 21)
    assert np.max(np.abs(values - values.T)) < 1e-15


def test_near_empty_system():
    p = ModelParams(lam=0.001, a=0.5)
    grid = oracle.stationary(oracle.build(p, 6, 6))
    assert grid.values[0, 0] > 0.99


def test_pushforward_matches_transformed_solve(base_params):
    T = 40
    push = push_forward(oracle.gth_stationary(original_box(base_params, T)).reshape(T + 1, T + 1))
    tran = oracle.stationary(oracle.build(base_params, T, T))
    assert np.max(np.abs(push - tran.values)) < 1e-10


def test_gth_matches_power_iteration(base_params):
    P = transformed_box(base_params, 10)
    pi = oracle.gth_stationary(P)
    # 2^20 > 1e6 one-step applications, via repeated squaring
    for _ in range(20):
        P = P @ P
        P /= P.sum(axis=1, keepdims=True)  # control round-off drift
    v = np.full(P.shape[0], 1.0 / P.shape[0]) @ P
    assert np.max(np.abs(v - pi)) < 1e-10


def test_reducible_chain_reports_state(base_params):
    ch = oracle.build(base_params, 4, 4)
    bad = ch.boundary.copy()
    T_l = ch.R.shape[0] - 1
    idx = 2 * T_l + 1  # state (1, T_l), flattened as k * (T_l + 1) + l
    bad[idx, :] = 0.0
    bad[idx, idx] = 1.0  # absorbing corner: a second closed class
    with pytest.raises(RelayQError, match=rf"\(1, {T_l}\)"):
        oracle.stationary(dataclasses.replace(ch, boundary=bad))


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
        box(base_params, T)
        for T in (5, 13, 20)
        for box in (transformed_box, original_box, lambda p, T: oracle.build(p, T, T).boundary)
    ]
    matrices.append(_corner_matrix(12, np.random.default_rng(5)))
    for P in matrices:
        np.testing.assert_allclose(oracle.gth_stationary(P), _dense_gth(P), rtol=1e-14, atol=0)


def _stationary_without_kept(P):
    """The banded elimination as it was before it could keep more than state 0."""
    A = np.array(P, dtype=float)
    n = A.shape[0]
    rows, cols = np.nonzero(A)
    bw = int(np.abs(rows - cols).max(initial=0))
    departing = np.zeros(n)
    for s in range(n - 1, 0, -1):
        w = slice(max(s - bw, 0), s)
        departing[s] = A[s, w].sum()
        A[s, w] /= departing[s]
        A[w, w] += np.outer(A[w, s], A[s, w])
    pi = np.zeros(n)
    pi[0] = 1.0
    for s in range(1, n):
        w = slice(max(s - bw, 0), s)
        pi[s] = (pi[w] @ A[w, s]) / departing[s]
    return pi / pi.sum()


def test_gth_keeping_one_state_is_the_stationary_vector_bit_for_bit(base_params):
    rng = np.random.default_rng(7)
    matrices = [oracle.build(p, 20, 20).boundary for p in (base_params, *random_stable_params(rng, 4))]
    matrices += [transformed_box(base_params, 13), _corner_matrix(40, rng)]
    for P in matrices:
        assert np.array_equal(gth_stationary(P), _stationary_without_kept(P))


@pytest.mark.parametrize("n, kept", [(6, 2), (12, 4), (20, 11), (30, 29)])
def test_gth_keeping_states_gives_their_visits_to_the_rest(n, kept):
    """Row i is the eliminated states' visits per visit to kept state i,
    P_KE (I - P_EE)^-1, on chains whose kept states leak 10 % to 50 % a step."""
    rng = np.random.default_rng(n)
    P = rng.uniform(size=(n, n))
    K, E = slice(0, kept), slice(kept, n)
    P /= P.sum(axis=1, keepdims=True)
    P[K] *= rng.uniform(0.5, 0.9, kept)[:, None]
    visits = np.linalg.solve((np.eye(n - kept) - P[E, E]).T, P[K, E].T).T
    np.testing.assert_allclose(gth_stationary(P, kept), visits, rtol=1e-12, atol=0)


def test_chain_that_never_enters_origin_reports_state(base_params):
    ch = oracle.build(base_params, 6, 6)
    bad = ch.boundary.copy()
    into_origin = np.flatnonzero(bad[1:, 0]) + 1
    assert into_origin.size
    bad[into_origin, into_origin] += bad[into_origin, 0]
    bad[into_origin, 0] = 0.0
    with pytest.raises(RelayQError, match=r"\(\d+, \d+\)"):
        oracle.stationary(dataclasses.replace(ch, boundary=bad))


def test_truncation_edge_mass(params_rho04):
    eps = 1e-10
    T = truncation(params_rho04, eps)[0]
    grid = oracle.stationary(oracle.build(params_rho04, T, T))
    edge = grid.values[T - 1 :, :].sum() + grid.values[: T - 1, T - 1 :].sum()
    assert edge < 10 * eps


def test_truncation_doubling_consistency():
    # load 0.55 (within the contract's "rho <= 0.7" range, sized for runtime)
    p = ModelParams(lam=lambda_for_load(0.55, 0.5), a=0.5)
    T = truncation(p, 1e-11)[0]
    g1 = oracle.stationary(oracle.build(p, T, T))
    g2 = oracle.stationary(oracle.build(p, 2 * T, 2 * T))
    assert np.max(np.abs(g1.values[: T // 2, : T // 2] - g2.values[: T // 2, : T // 2])) < 1e-10


def _point(rho, a):
    return ModelParams(lam=lambda_for_load(rho, a), a=a)


@pytest.mark.parametrize("a", [0.3, 0.5])
@pytest.mark.parametrize("rho", [0.9, 0.95, 0.97, 0.99])
def test_matches_compensation_near_saturation(rho, a):
    """The QBD route checks CA where the dense box could not go; the bound is
    the truncation tolerance, not the ~1e-12 agreement measured. R decays
    like the minimum queue, at rate rho^2."""
    p = _point(rho, a)
    eps = 1e-10
    chain = oracle.build(p, *truncation(p, eps)[:2])
    assert maxnorm(compensation.solve(p).grid, oracle.stationary(chain)) < eps
    assert abs(np.max(np.abs(np.linalg.eigvals(chain.R))) - rho**2) < 1e-12


@pytest.mark.parametrize("a", [0.3, 0.5])
@pytest.mark.parametrize("rho", [0.4, 0.7])
def test_matches_dense_reference(rho, a):
    p = _point(rho, a)
    eps = 1e-10
    T = truncation(p, eps)[0]
    dense = oracle.gth_stationary(transformed_box(p, T)).reshape(T + 1, T + 1)
    assert np.max(np.abs(oracle.stationary(oracle.build(p, T, T)).values - dense)) < eps


def test_unstable_or_transient_chain_fails_fast():
    with pytest.raises(StabilityError):
        oracle.build(ModelParams(lam=0.6, a=0.5), 10, 10)
    # a level walk with upward drift: the reduction never resolves its paths
    with pytest.raises(NumericsError, match="did not converge"):
        oracle._rate_matrix(np.array([[0.6]]), np.zeros((1, 1)), np.array([[0.4]]))


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("rho", [0.1, 0.4, 0.7, 0.9, 0.95, 0.99])
def test_rate_matrix_decays_as_rho_squared(rho, a):
    """The levels decay as rho^2, CA's leading gamma_0, so sp(R) = rho^2. A
    phase cut at the column that matches level T in mass, not twice it, left
    3.0-3.2e-9 at rho = 0.1 and 7.6e-11-1.1e-10 at rho = 0.4."""
    p = ModelParams(lam=lambda_for_load(rho, a), a=a)
    chain = oracle.build(p, *truncation(p, 1e-12)[:2])
    assert abs(max(abs(np.linalg.eigvals(chain.R))) - p.rho**2) <= 1e-12
