"""Brute-force ground truth: truncated chains solved by GTH state reduction.

The truncated chain is the box matrix of either chain's one-step law
(:func:`relayq.model.box_matrix`) with the mass of every step that would
leave the box folded back into the current state (a self-loop), which keeps
every row stochastic; the induced error is controlled by
``choose_truncation`` and shrinks geometrically with the box size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import GridError, RelayQError, StabilityError
from .grids import ORIGINAL, TRANSFORMED, ProbabilityGrid
from .model import (
    ModelParams,
    box_matrix,
    transformed_transition_distribution,
    transition_distribution,
)

__all__ = [
    "MAX_STATES",
    "TruncatedChain",
    "build",
    "stationary",
    "choose_truncation",
    "gth_stationary",
]

# largest box the dense matrix and O(n^3) GTH may take: T = 50, a 54 MB matrix
MAX_STATES = 2601


@dataclass(frozen=True)
class TruncatedChain:
    T: int
    variant: str  # "original" | "transformed"
    matrix: np.ndarray  # row-stochastic, states flattened as k*(T+1)+l
    params: ModelParams

    def state_index(self, k: int, l: int) -> int:
        return k * (self.T + 1) + l


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
    law = transformed_transition_distribution if variant == TRANSFORMED else transition_distribution
    P = box_matrix(law, params, T, T).toarray()
    # fold the mass of the dropped steps back into each row's self-loop
    P[np.diag_indices_from(P)] += 1.0 - P.sum(axis=1)
    return TruncatedChain(T=T, variant=variant, matrix=P, params=params)


def gth_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix by GTH state reduction.

    Subtraction-free elimination gives componentwise accurate results even for
    badly conditioned chains; cost is O(n^3) dense.
    """
    A = np.array(P, dtype=float)
    n = A.shape[0]
    departing = np.zeros(n)
    for s in range(n - 1, 0, -1):
        tot = A[s, :s].sum()
        if tot <= 0.0:
            raise RelayQError(f"state {s} cannot reach lower-indexed states (reducible chain)")
        departing[s] = tot
        A[s, :s] /= tot
        A[:s, :s] += np.outer(A[:s, s], A[s, :s])
    pi = np.zeros(n)
    pi[0] = 1.0
    for s in range(1, n):
        pi[s] = (pi[:s] @ A[:s, s]) / departing[s]
    return pi / pi.sum()


def _check_unichain(chain: TruncatedChain) -> None:
    """Require a single closed communicating class (containing the origin).

    The square box leaves a transient wedge in the transformed chain: corner
    states with large k+l are only entered from outside the box, so they
    drain into the main class and carry stationary mass zero. That is fine
    for the solve; two *closed* classes (or an origin outside the closed
    class) would not be.
    """
    support = sp.csr_matrix(chain.matrix > 0)
    ncomp, labels = connected_components(support, directed=True, connection="strong")
    if ncomp == 1:
        return
    # a component is closed iff no edge leaves it
    rows, cols = support.nonzero()
    leaves = np.zeros(ncomp, dtype=bool)
    cross = labels[rows] != labels[cols]
    np.logical_or.at(leaves, labels[rows[cross]], True)
    closed = np.flatnonzero(~leaves)
    T = chain.T
    if len(closed) != 1:
        comp = closed[-1] if len(closed) else 0
        bad = int(np.argmax(labels == comp))
        raise RelayQError(
            f"truncated chain has {len(closed)} closed classes: state "
            f"({bad // (T + 1)}, {bad % (T + 1)}) cannot reach the origin's class"
        )
    if labels[0] != closed[0]:
        raise RelayQError("origin state (0, 0) is not in the closed communicating class")


def stationary(chain: TruncatedChain) -> ProbabilityGrid:
    """Stationary distribution of the truncated chain as a grid."""
    _check_unichain(chain)
    pi = gth_stationary(chain.matrix)
    resid = float(np.max(np.abs(pi @ chain.matrix - pi)))
    if resid > 1e-12:
        raise RelayQError(f"stationary solve residual {resid:.3e} exceeds 1e-12")
    grid = ProbabilityGrid(pi.reshape(chain.T + 1, chain.T + 1), coords=chain.variant)
    return grid


def choose_truncation(params: ModelParams, epsilon: float) -> int:
    """Smallest T with rho^(2T) < epsilon*(1 - rho^2), floored at 3.

    Geometric-tail sizing: the minimum queue decays at rate rho^2, so the
    mass beyond level T is of order rho^(2T)/(1 - rho^2).
    """
    rho = params.rho
    if rho >= 1.0:
        raise StabilityError(f"load {rho:.4f} >= 1; no stationary distribution")
    T = math.ceil(math.log(epsilon * (1 - rho * rho)) / (2 * math.log(rho)))
    return max(T, 3)
