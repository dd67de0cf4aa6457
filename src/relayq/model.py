"""System parameters and the slot-level transition structure.

The network has one saturated source, two relays with infinite buffers, and
a collision channel. Time is slotted (early-arrival convention): a Bernoulli
arrival at the start of a slot joins the shorter relay queue (fair coin on a
tie), every relay that is non-empty *after* the arrival attempts transmission
with probability ``a``, a lone attempt succeeds, two simultaneous attempts
collide and both packets are retained.

Two Markov chains describe the system: the original queue-length pair
(Q1, Q2) on the quadrant, and the transformed chain
(k, l) = (min(Q1, Q2), |Q1 - Q2|) that the analytic solvers work on.

There is one slot rule, :func:`step`, and both one-step laws are computed
from it: :func:`transition_distribution` sums the rule over the slot's 16
draws, and :func:`transformed_transition_distribution` pushes that law
through :func:`transform_state`. Every move on a finite box comes from
:func:`box_moves`, which runs the same rule on all states of the box at once,
draw by draw, and returns the moves as plain (source, destination,
probability) arrays. :func:`box_matrix` scatters them into the dense matrix
of the oracle's truncated chains and, transposed as
:func:`transformed_inflows`, of the compensation solver's inner box; the
balance check :func:`balance_residuals` sums them without a matrix. The two
scalar laws are the per-state reference the moves are tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .grids import ORIGINAL, TRANSFORMED

__all__ = [
    "ModelParams",
    "StabilityReport",
    "is_stable",
    "step",
    "transition_distribution",
    "transformed_transition_distribution",
    "transform_state",
    "box_moves",
    "box_matrix",
    "transformed_inflows",
    "balance_residuals",
    "lambda_for_load",
    "EPSILON_FLOOR",
    "grid_truncation",
]

EPSILON_FLOOR = 1e-12  # CA and PSA precision floor: 64-bit arithmetic cannot honour less


@dataclass(frozen=True)
class ModelParams:
    """Arrival probability ``lam`` and per-relay attempt probability ``a``.

    Both must lie strictly inside (0, 1); the degenerate boundary systems are
    rejected because several derived quantities divide by ``a``, ``1-a`` or
    ``1-lam``. Only the symmetric system is modelled: both relays share ``a``
    and ties are broken with a fair coin.
    """

    lam: float
    a: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < 1.0):
            raise ValueError(f"arrival probability must be in (0,1), got {self.lam}")
        if not (0.0 < self.a < 1.0):
            raise ValueError(f"attempt probability must be in (0,1), got {self.a}")

    @property
    def abar(self) -> float:
        return 1.0 - self.a

    @property
    def lbar(self) -> float:
        return 1.0 - self.lam

    @property
    def rho(self) -> float:
        """System load; the chain is positive recurrent iff rho < 1."""
        return self.lam * (self.abar**2 + self.a**2) / (2 * self.lbar * self.abar * self.a)

    # One-slot event probabilities with both relays busy, as they appear in
    # the compensation solver's closed forms.
    @property
    def p_fwd(self) -> float:
        """Arrival and no departure: lam*(abar^2 + a^2)."""
        return self.lam * (self.abar**2 + self.a**2)

    @property
    def p_dep(self) -> float:
        """No arrival, exactly one departure from a given relay: lbar*abar*a."""
        return self.lbar * self.abar * self.a

    @property
    def p_both(self) -> float:
        """Arrival and one departure from a given relay: lam*a*abar."""
        return self.lam * self.a * self.abar

    @property
    def p_hold(self) -> float:
        """Interior self-loop: lbar*(abar^2 + a^2) + lam*a*abar."""
        return self.lbar * (self.abar**2 + self.a**2) + self.p_both


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    margin: float  # lam - 2*a*abar; negative means stable


def is_stable(params: ModelParams) -> StabilityReport:
    """Stability verdict with the drift margin lam - 2*a*abar."""
    margin = params.lam - 2 * params.a * params.abar
    return StabilityReport(stable=margin < 0.0, margin=margin)


def lambda_for_load(rho: float, a: float) -> float:
    """Arrival probability giving load ``rho`` at attempt probability ``a``."""
    if rho <= 0:
        raise ValueError("load must be positive")
    ab = 1.0 - a
    c = 2 * rho * ab * a
    return c / (ab * ab + a * a + c)


def grid_truncation(decay: float, epsilon: float) -> int:
    """Side T = max(ceil(log(epsilon) / log(decay)), 3) of the CA and PSA grids.

    ``decay`` is rho^2, the geometric decay rate of the minimum queue, so the
    first state beyond the grid is about ``epsilon`` of the origin's mass.
    """
    return max(math.ceil(math.log(epsilon) / math.log(decay)), 3)


def step(q1, q2, arrival, tie_to_q1, att1, att2):
    """One slot of the early-arrival dynamics from state (q1, q2): the slot rule.

    The arrival joins the shorter queue, or queue 1 on a tie when
    ``tie_to_q1``. ``att1``/``att2`` are the per-relay attempt draws; they
    only matter for a relay that is non-empty after the arrival is placed,
    and a lone attempt departs. The rule has no branches, so it runs on one
    state (Python ints and bools) or elementwise on arrays of states and
    draws (NumPy integer and bool arrays).
    """
    to_q1 = arrival & (q1 < q2 + tie_to_q1)
    q1, q2 = q1 + to_q1, q2 + (arrival > to_q1)
    t1, t2 = att1 & (q1 > 0), att2 & (q2 > 0)
    return q1 - (t1 > t2), q2 - (t2 > t1)


def _draws(params: ModelParams):
    """The slot's 16 draws (arrival, tie_to_q1, att1, att2), each with its
    probability: arrival (lam or 1-lam), tie coin (1/2), two attempts (a or 1-a)."""
    p = params
    for draw in itertools.product((True, False), repeat=4):
        arrival, _, att1, att2 = draw
        yield draw, ((p.lam if arrival else p.lbar) * 0.5
                     * (p.a if att1 else p.abar) * (p.a if att2 else p.abar))


def _grouped(moves) -> tuple[tuple[int, int, float], ...]:
    """(dx, dy, prob) triples with the probabilities of equal moves added."""
    law: dict[tuple[int, int], float] = {}
    for dx, dy, prob in moves:
        law[dx, dy] = law.get((dx, dy), 0.0) + prob
    return tuple((dx, dy, prob) for (dx, dy), prob in law.items())


def transition_distribution(
    state: tuple[int, int], params: ModelParams
) -> tuple[tuple[int, int, float], ...]:
    """One-step law of the original chain (Q1, Q2) at ``state``.

    :func:`step` applied to each of the slot's 16 draws, weighted by the
    draw's probability, with equal moves added together in draw order.
    Steps are (di, dj, prob).
    """
    i, j = state
    moves = []
    for draw, prob in _draws(params):
        i2, j2 = step(i, j, *draw)
        moves.append((i2 - i, j2 - j, prob))
    return _grouped(moves)


def transform_state(i: int, j: int) -> tuple[int, int]:
    """(Q1, Q2) -> (min, absolute difference)."""
    return (min(i, j), abs(i - j))


def transformed_transition_distribution(
    state: tuple[int, int], params: ModelParams
) -> tuple[tuple[int, int, float], ...]:
    """One-step law of the transformed chain (min, diff) at ``state``.

    Lumping the original chain over the (i, j) <-> (j, i) symmetry gives a
    Markov chain on the quadrant whose balance equations are the ones the
    analytic solvers consume: the original law at (k, k+l), each destination
    pushed through :func:`transform_state`. Steps are (dk, dl, prob).
    """
    k, l = state
    moves = []
    for di, dj, prob in transition_distribution((k, k + l), params):
        k2, l2 = transform_state(k + di, k + l + dj)
        moves.append((k2 - k, l2 - l, prob))
    return _grouped(moves)


def box_moves(
    params: ModelParams, T_k: int, T_l: int, variant: str = TRANSFORMED
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step moves (src, dst, prob) of either chain on the box [0,T_k] x [0,T_l].

    ``variant`` is ``TRANSFORMED`` (states (k, l)) or ``ORIGINAL`` (states
    (Q1, Q2)). States are flattened as k*(T_l+1)+l; steps leaving the box are
    dropped, so states next to the far edges lose mass. :func:`step` runs on
    every state of the box at once, once per draw, so the moves out of each
    state are the law at that state. At most two moves of a source share a
    destination, and only in the transformed chain.
    """
    n_l = T_l + 1
    n = (T_k + 1) * n_l
    k, l = np.divmod(np.arange(n), n_l)
    i, j = {TRANSFORMED: (k, k + l), ORIGINAL: (k, l)}[variant]  # unknown variant: KeyError
    # law[s, di+1, dj+1]: probability of the original move (di, dj) at state s,
    # equal moves added in draw order as the scalar law adds them
    law = np.zeros((n, 3, 3))
    for draw, prob in _draws(params):
        i2, j2 = step(i, j, *draw)
        law[np.arange(n), i2 - i + 1, j2 - j + 1] += prob
    src, di, dj = np.nonzero(law)
    k2, l2 = i[src] + di - 1, j[src] + dj - 1
    if variant == TRANSFORMED:
        k2, l2 = np.minimum(k2, l2), np.abs(k2 - l2)
    inside = (k2 <= T_k) & (l2 <= T_l)
    return src[inside], k2[inside] * n_l + l2[inside], law[src, di, dj][inside]


def box_matrix(params: ModelParams, T_k: int, T_l: int, variant: str = TRANSFORMED) -> np.ndarray:
    """Dense one-step matrix of either chain on the box [0,T_k] x [0,T_l].

    The moves of :func:`box_moves` added into their cells, so each row is the
    law at its own state and matches :func:`transition_distribution` and
    :func:`transformed_transition_distribution` bit for bit: two moves that
    share a cell have a sum that does not depend on their order.
    """
    src, dst, prob = box_moves(params, T_k, T_l, variant)
    n = (T_k + 1) * (T_l + 1)
    P = np.zeros((n, n))
    np.add.at(P, (src, dst), prob)
    return P


def transformed_inflows(params: ModelParams, T_k: int, T_l: int) -> np.ndarray:
    """Inflow operator of the transformed chain on the box [0,T_k] x [0,T_l].

    The transpose of :func:`box_matrix`: row s holds the one-step
    probabilities into state s from every in-box source, so (Q @ pi)[s] is
    the right-hand side of the balance equation of s.
    """
    return box_matrix(params, T_k, T_l).T


def balance_residuals(values: np.ndarray, params: ModelParams) -> np.ndarray:
    """Residual |pi - inflow| of the transformed-chain balance equations.

    ``values`` is a (T+1)x(T+1) array over 0 <= k, l <= T. An entry is NaN
    when some state that steps into it lies outside the array, so that its
    equation cannot be evaluated. An exact stationary vector of the
    (untruncated) chain has residual ~ solver precision on every non-NaN
    entry.
    """
    pi = np.asarray(values, dtype=float)
    if pi.ndim != 2 or pi.shape[0] != pi.shape[1] or pi.shape[0] < 5:
        raise GridError("need a square grid of size at least 5x5")
    n = pi.shape[0]
    # steps move k by at most 1 and l by at most 2: this box holds every source
    box = (n + 1, n + 2)
    src, dst, prob = box_moves(params, n, n + 1)
    padded = np.zeros(box)
    padded[:n, :n] = pi
    beyond = np.ones(box)
    beyond[:n, :n] = 0.0
    inflow = np.bincount(dst, prob * padded.ravel()[src], padded.size).reshape(box)[:n, :n]
    reach = np.bincount(dst, prob * beyond.ravel()[src], beyond.size).reshape(box)[:n, :n]
    res = np.abs(pi - inflow)
    res[reach > 0.0] = np.nan
    return res


def max_interior_residual(values: np.ndarray, params: ModelParams) -> float:
    """Largest balance residual over states with a full in-grid stencil."""
    res = balance_residuals(values, params)
    return float(np.nanmax(res))
