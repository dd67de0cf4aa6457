import numpy as np
import pytest

from relayq import compensation, oracle, psa
from relayq.model import ModelParams, box_matrix, lambda_for_load, transition_distribution


def random_stable_params(rng, n):
    """Random parameter points with load < 1, away from degenerate corners."""
    out = []
    while len(out) < n:
        lam = rng.uniform(0.02, 0.9)
        a = rng.uniform(0.05, 0.95)
        if lam < 2 * a * (1 - a) - 0.01:
            out.append(ModelParams(lam=lam, a=a))
    return out


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


def folded(P):
    """A box matrix with the mass of every step leaving the box put back on its self-loop."""
    P = P.copy()
    P[np.diag_indices_from(P)] += 1.0 - P.sum(axis=1)
    return P


def transformed_box(p, T):
    """Dense reference: the folded transformed chain on [0,T]^2, states k*(T+1)+l."""
    return folded(box_matrix(p, T, T))


def original_box(p, T):
    """Dense reference: the folded (Q1, Q2) chain on [0,T]^2, states i*(T+1)+j."""
    return folded(law_matrix(transition_distribution, p, T, T))


def push_forward(values):
    """An original-coordinates (Q1, Q2) grid pushed through (min, |diff|)."""
    i, j = np.indices(values.shape)
    pi = np.zeros_like(values)
    np.add.at(pi, (np.minimum(i, j), np.abs(i - j)), values)
    return pi


def random_params(rng, n):
    return [ModelParams(lam=rng.uniform(0.01, 0.99), a=rng.uniform(0.01, 0.99)) for _ in range(n)]


@pytest.fixture(scope="session")
def base_params():
    return ModelParams(lam=0.3, a=0.5)


@pytest.fixture(scope="session")
def params_rho04():
    # load 0.4 at a = 1/2, i.e. lam = rho/(1+rho) = 2/7
    return ModelParams(lam=lambda_for_load(0.4, 0.5), a=0.5)


@pytest.fixture(scope="session")
def ca_base(base_params):
    return compensation.solve(base_params)


@pytest.fixture(scope="session")
def ca_rho04(params_rho04):
    return compensation.solve(params_rho04)


@pytest.fixture(scope="session")
def psa_rho04(params_rho04):
    return psa.solve(params_rho04)


@pytest.fixture(scope="session")
def oracle_base(base_params, ca_base):
    T = max(oracle.choose_truncation(base_params, 1e-10), ca_base.T)
    return oracle.stationary(oracle.build(base_params, T))


@pytest.fixture(scope="session")
def oracle_rho04(params_rho04, ca_rho04):
    T = max(oracle.choose_truncation(params_rho04, 1e-10), ca_rho04.T)
    return oracle.stationary(oracle.build(params_rho04, T))


def maxnorm(grid_a, grid_b):
    m = min(grid_a.T, grid_b.T)
    return float(np.max(np.abs(grid_a.values[: m + 1, : m + 1] - grid_b.values[: m + 1, : m + 1])))
