"""Brute-force ground truth: a matrix-geometric solve of the transformed chain.

For k >= 1 both relays are busy, so the law of (k, l) does not depend on k,
and k moves by at most one per slot: the chain is a quasi-birth-death
process (QBD) with level k and phase l. Its stationary law is
pi_(k+1) = pi_k R for k >= 1, with R the minimal nonnegative solution of
R = A0 + R A1 + R^2 A2 (Neuts 1981; Latouche & Ramaswami 1999, ch. 6 and 8).
The blocks are :func:`relayq.model.region_law` tiled over [0,2] x [0,cut],
with the mass of every step to l > cut folded back into its self-loop, so
only the phase is truncated, at twice the column that matches the box's
level T_k in mass. The CLI reports it on the box [0,T_k] x [0,T_l] of
:func:`relayq.model.truncation`, the box rule of CA and PSA too, so the three
routes report the same box at the same epsilon. GTH state reduction
(:func:`relayq.model.gth_stationary`, CA's inner-box solver too) solves the
chain censored on levels 0 and 1; it fails exactly when a state cannot reach
(0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, NumericsError, StabilityError, UnreachableStateError
from .grids import ProbabilityGrid, full
from .model import ModelParams, box_matrix, gth_stationary
# not called here: benchmarks/tracing.py, its only user, patches this name
from .model import transformed_transition_distribution  # noqa: F401

__all__ = ["QBDChain", "build", "stationary"]


def __getattr__(name: str):
    # not called here: benchmarks/tracing.py, its only user, patches
    # oracle.connected_components; scipy is imported on first lookup, for the
    # tracer only, so relayq runs with numpy alone
    if name == "connected_components":
        from scipy.sparse.csgraph import connected_components

        return connected_components
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class QBDChain:
    T: int  # the grid reports levels k in [0, T]
    T_l: int  # and phases l in [0, T_l]
    R: np.ndarray  # (cut+1)^2 rate matrix: pi_(k+1) = pi_k R for k >= 1
    boundary: np.ndarray  # row-stochastic chain censored on levels 0 and 1, states k*(cut+1)+l


def _rate_matrix(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """Minimal nonnegative solution R of R = A0 + R A1 + R^2 A2.

    Logarithmic reduction (Latouche & Ramaswami 1999, ch. 8) sums G, the
    first-passage matrix one level down, over time scales that double at each
    step. ``T`` holds the paths not yet resolved, so what later steps can
    add to G is at most its largest row sum. Then R = A0 (I - A1 - A0 G)^-1.
    """
    I = np.eye(A1.shape[0])
    up, down = np.linalg.solve(I - A1, A0), np.linalg.solve(I - A1, A2)
    G, T = down.copy(), up.copy()
    # step n covers 2^n slots; a stable chain needs about 4 + log2(1/(1 - rho^2)) steps
    for _ in range(32):
        U = up @ down + down @ up
        up, down = np.linalg.solve(I - U, up @ up), np.linalg.solve(I - U, down @ down)
        G += T @ down
        T = T @ up
        if T.sum(axis=1).max() < 1e-16:
            return np.linalg.solve((I - A1 - A0 @ G).T, A0.T).T
    raise NumericsError("logarithmic reduction for R did not converge in 32 steps")


def build(params: ModelParams, T: int, T_l: int) -> QBDChain:
    """The QBD of the transformed chain, reported on the box [0,T] x [0,T_l].

    Mass decays along l faster than rho^2/2 (CA's delta < gamma/2), so column
    ceil(log(rho^(2T)) / log(rho^2/2)) holds no more mass than level T. The
    cut is twice that column: folded back at the column itself, the phase
    cut showed in sp(R), 3e-9 above rho^2 at rho = 0.1. The grid holds the
    columns l <= T_l, zero beyond the cut. It is computed from
    :attr:`~relayq.model.ModelParams.log_rho`, since rho^2 underflows at tiny
    loads and rho itself at subnormal ones.
    """
    if min(T, T_l) < 3:
        raise GridError("truncation levels must be at least 3")
    rho = params.rho
    if rho >= 1.0:
        raise StabilityError(f"load {rho:.4f} >= 1; no stationary distribution")
    log_rho = params.log_rho
    n = max(math.ceil(4 * T * log_rho / (2 * log_rho - math.log(2))), 3) + 1  # phases 0 .. cut
    P = box_matrix(params, 2, n - 1)[: 2 * n]
    # fold the mass of the steps to l > cut back into each row's self-loop
    P[np.diag_indices(2 * n)] += 1.0 - P.sum(axis=1)
    B00, B01 = P[:n, :n], P[:n, n : 2 * n]
    A2, A1, A0 = P[n:, :n], P[n:, n : 2 * n], P[n:, 2 * n :]
    R = _rate_matrix(A0, A1, A2)
    return QBDChain(T=T, T_l=T_l, R=R, boundary=np.block([[B00, B01], [A2, A1 + R @ A2]]))


def stationary(chain: QBDChain) -> ProbabilityGrid:
    """Stationary law on the box [0,T] x [0,T_l], zero beyond the cut, through ProbabilityGrid.finished."""
    n = chain.R.shape[0]
    m = min(n, chain.T_l + 1)  # the columns the grid holds
    try:
        pi = gth_stationary(chain.boundary)
    except UnreachableStateError as exc:
        k, l = divmod(exc.state, n)
        raise NumericsError(f"chain is reducible: state ({k}, {l}) cannot reach the origin (0, 0)") from None
    resid = float(np.max(np.abs(pi @ chain.boundary - pi)))
    if resid > 1e-12:
        raise NumericsError(f"stationary solve residual {resid:.3e} exceeds 1e-12")
    values = full((chain.T + 1, chain.T_l + 1), 0.0)
    values[0, :m] = pi[:m]
    row = pi[n:]
    for k in range(1, chain.T + 1):
        values[k, :m] = row[:m]
        row = row @ chain.R
    return ProbabilityGrid.finished(values)
