"""Brute-force ground truth: truncated chains solved by GTH state reduction.

The truncated chain is the box matrix of either chain
(:func:`relayq.model.box_matrix`, the slot rule run on every state of the
box) with the mass of every step that would leave the box folded back into
the current state (a self-loop), which keeps every row stochastic; the
induced error is controlled by ``choose_truncation`` and shrinks
geometrically with the box size.

In the flattened order k*(T+1)+l every nonzero lies within bw = T+1 of the
diagonal (bw = T for the transformed chain). GTH elimination keeps its
fill-in inside that band, so a solve of n states costs O(n*bw^2), and it is
also the reducibility check: it fails exactly when a state cannot reach 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, RelayQError, StabilityError
from .grids import ORIGINAL, TRANSFORMED, ProbabilityGrid
from .model import ModelParams, box_matrix, grid_truncation
# not called here: benchmarks/tracing.py, its only user, patches this name
from .model import transformed_transition_distribution  # noqa: F401

__all__ = [
    "MAX_STATES",
    "TruncatedChain",
    "build",
    "stationary",
    "choose_truncation",
    "gth_stationary",
]

# largest box the dense matrix may take: T = 50, 54 MB for the matrix and as much for GTH's copy
MAX_STATES = 2601


def __getattr__(name: str):
    # not called here: benchmarks/tracing.py, its only user, patches
    # oracle.connected_components; scipy is imported on first lookup, for the
    # tracer only, so relayq runs with numpy alone
    if name == "connected_components":
        from scipy.sparse.csgraph import connected_components

        return connected_components
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class TruncatedChain:
    T: int
    variant: str  # "original" | "transformed"
    matrix: np.ndarray  # row-stochastic, states flattened as k*(T+1)+l
    params: ModelParams


def build(params: ModelParams, T: int, variant: str = TRANSFORMED) -> TruncatedChain:
    """Row-stochastic transition matrix of either chain on the (T+1)^2 box."""
    if T < 3:
        raise GridError("truncation level must be at least 3")
    if variant not in (TRANSFORMED, ORIGINAL):
        raise RelayQError(f"unknown chain variant {variant!r}")
    if (T + 1) ** 2 > MAX_STATES:
        raise GridError(
            f"truncated chain at T = {T} has {(T + 1) ** 2} states, above the dense "
            f"oracle's limit of {MAX_STATES}; use --method ca at this load"
        )
    P = box_matrix(params, T, T, variant)
    # fold the mass of the dropped steps back into each row's self-loop
    P[np.diag_indices_from(P)] += 1.0 - P.sum(axis=1)
    return TruncatedChain(T=T, variant=variant, matrix=P, params=params)


class _Unreachable(RelayQError):
    """GTH met the state with index ``state``, which cannot reach state 0."""

    def __init__(self, state: int) -> None:
        super().__init__(f"state {state} cannot reach state 0 (reducible chain)")
        self.state = state


def gth_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix by GTH state reduction.

    Subtraction-free elimination gives componentwise accurate results even for
    badly conditioned chains. Eliminating state s touches only the window
    [s - bw, s), where bw is the largest |row - col| over the nonzeros of P:
    fill-in never leaves that band, so the cost is O(n*bw^2).

    The chain must have one closed class holding state 0, that is, every
    state must reach state 0; otherwise a ``RelayQError`` names the index of
    a state that cannot. The lowest-indexed such state reaches only states
    above it, so its censored row is exactly 0.0 below the diagonal and the
    elimination stops there if not before, while no pivot is zero when every
    state reaches 0.
    """
    A = np.array(P, dtype=float)
    n = A.shape[0]
    rows, cols = np.nonzero(A)
    bw = int(np.abs(rows - cols).max(initial=0))
    departing = np.zeros(n)
    for s in range(n - 1, 0, -1):
        w = slice(max(s - bw, 0), s)
        tot = A[s, w].sum()
        if tot <= 0.0:
            raise _Unreachable(s)
        departing[s] = tot
        A[s, w] /= tot
        A[w, w] += np.outer(A[w, s], A[s, w])
    pi = np.zeros(n)
    pi[0] = 1.0
    for s in range(1, n):
        w = slice(max(s - bw, 0), s)
        pi[s] = (pi[w] @ A[w, s]) / departing[s]
    return pi / pi.sum()


def stationary(chain: TruncatedChain) -> ProbabilityGrid:
    """Stationary distribution of the truncated chain as a grid."""
    try:
        pi = gth_stationary(chain.matrix)
    except _Unreachable as exc:
        k, l = divmod(exc.state, chain.T + 1)
        raise RelayQError(
            f"truncated chain is reducible: state ({k}, {l}) cannot reach the origin (0, 0)"
        ) from None
    resid = float(np.max(np.abs(pi @ chain.matrix - pi)))
    if resid > 1e-12:
        raise RelayQError(f"stationary solve residual {resid:.3e} exceeds 1e-12")
    return ProbabilityGrid(pi.reshape(chain.T + 1, chain.T + 1), coords=chain.variant)


def choose_truncation(params: ModelParams, epsilon: float) -> int:
    """Smallest T with rho^(2T) < epsilon*(1 - rho^2), floored at 3.

    Geometric-tail sizing: the minimum queue decays at rate rho^2, so the
    mass beyond level T is of order rho^(2T)/(1 - rho^2).
    """
    rho = params.rho
    if rho >= 1.0:
        raise StabilityError(f"load {rho:.4f} >= 1; no stationary distribution")
    return grid_truncation(rho * rho, epsilon * (1 - rho * rho))
