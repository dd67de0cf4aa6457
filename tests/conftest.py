import numpy as np
import pytest

import relayq
from relayq import compensation, psa
from relayq.model import (
    ModelParams,
    box_matrix,
    conditional_laws,
    lambda_for_load,
    transition_distribution,
)


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
def oracle_base(base_params):
    return relayq.solve(base_params, "oracle").grid


@pytest.fixture(scope="session")
def oracle_rho04(params_rho04):
    return relayq.solve(params_rho04, "oracle").grid


@pytest.fixture(scope="session")
def solution():
    """solution(method, rho, a): the relayq.Solution of a route at load rho
    and attempt probability a, solved once per session."""
    solved = {}

    def get(method, rho, a):
        key = (method, rho, a)
        if key not in solved:
            solved[key] = relayq.solve(ModelParams(lam=lambda_for_load(rho, a), a=a), method)
        return solved[key]

    return get


def maxnorm(grid_a, grid_b):
    k, l = np.minimum(grid_a.values.shape, grid_b.values.shape)
    return float(np.max(np.abs(grid_a.values[:k, :l] - grid_b.values[:k, :l])))


def row_laws(t, a, width):
    """Laws (Q0, Q1) out of the states (k, t - 2k) of total t, by
    [move, k + 1] with move 3(dt + 1) + dk + 1 in (total, k), zero at k = -1
    and beyond the row: model.conditional_laws at every state of the row."""
    laws = np.zeros((2, 9, width))
    for k in range(t // 2 + 1):
        for arrived, half in enumerate(conditional_laws((k, t - 2 * k), a, transformed=True)):
            for dk, dl, prob in half:
                laws[arrived, 3 * (2 * dk + dl + 1) + dk + 1, k + 1] = prob
    return laws


def level_sweep(G, T, depth, a=0.5):
    """Reference for psa._sweep: the coefficients u[n, k, l] of depths up to
    ``depth`` by a sweep of whole levels, with the laws of each row taken per
    state from model.conditional_laws, not from PSA's region table. Each level
    takes one 3x3 stencil product of the last over the rectangle t <= m,
    k <= m/2 for its right-hand side, over the moves with a weight anywhere,
    solves its rows one numpy step each from the top, and sets U_m(0, 0) to
    minus the row sums, each a left fold along k, added from row m down; the
    wave sweep must give every bit of it."""
    last = depth + 2 * T
    rows, cols = last + 1, last // 2 + 1
    c = (a * a + (1.0 - a) ** 2) / (2.0 * a * (1.0 - a))
    into = np.zeros((9, rows, cols))
    keep, lower = np.zeros((rows, cols)), np.zeros((rows, cols))
    U = np.zeros((rows + 2, cols + 2))  # U_m at [t + 1, k + 1]
    rhs, tap, part = np.empty((rows, cols)), np.empty((rows, cols)), np.empty(cols)
    solve_rows = []

    def row_moves(t, width=cols + 2):
        q0, q1 = row_laws(t, a, width)
        stay = np.zeros_like(q0)
        stay[4, 1 : t // 2 + 2] = 1.0
        return q0, ((q1 - stay) / c + G * (stay - q0)) / (1.0 + G)

    # the moves with a weight anywhere: every region has a state in rows 0 .. 4
    moves = [i for i in range(9) if any(row_moves(t, 4)[1][i].any() for t in range(5))]
    laws = {0: row_moves(0)}
    u = np.zeros((depth + 1, T + 1, T + 1))
    K, L = np.indices((T + 1, T + 1))
    KL = K + L
    U[1, 1] = 1.0
    for m in range(last + 1):
        n = m // 2 + 1
        laws[m + 1] = row_moves(m + 1)
        laws.pop(m - 2, None)
        if m:
            inv = 1.0 / (1.0 - laws[m][0][4, 1 : n + 1])
            for move in range(9):
                dt, dk = divmod(move, 3)
                into[move, m, :n] = laws[m + 1 - dt][1][move, 2 - dk : n + 2 - dk] * inv
            q0 = laws[m + 1][0]
            keep[m, :n] = q0[1, 1 : n + 1] * inv
            lower[m, :n] = q0[0, 2 : n + 2] * inv
            solve_rows.append((U[m + 1, 1 : n + 1], rhs[m, :n], U[m + 2, 1 : n + 1],
                               U[m + 2, 2 : n + 2], keep[m, :n], lower[m, :n], part[:n]))
            with np.errstate(over="ignore", invalid="ignore"):
                out = rhs[: m + 1, :n]
                for i, move in enumerate(moves):
                    dt, dk = divmod(move, 3)
                    src = U[2 - dt : m + 3 - dt, 2 - dk : n + 2 - dk]
                    if i == 0:
                        np.multiply(into[move, : m + 1, :n], src, out=out)
                    else:
                        np.multiply(into[move, : m + 1, :n], src, out=tap[: m + 1, :n])
                        np.add(out, tap[: m + 1, :n], out=out)
                for row, r, same, next_k, kt, lt, p in reversed(solve_rows):
                    np.multiply(kt, same, out=row)
                    np.add(row, r, out=row)
                    np.multiply(lt, next_k, out=p)
                    np.add(row, p, out=row)
                U[1, 1] = 0.0
                total = 0.0
                for row_sum in np.cumsum(U[1 : m + 2, 1 : n + 1], axis=1)[::-1, -1]:
                    total += row_sum
                U[1, 1] = -total
        at = (m - depth <= KL) & (KL + K <= m)
        u[m - KL[at], K[at], L[at]] = U[KL[at] + K[at] + 1, K[at] + 1]
    return u
