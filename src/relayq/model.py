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

The one-step law of each chain is written once, per homogeneity region, in
:func:`transition_distribution` and :func:`transformed_transition_distribution`.
Every transition matrix on a finite box comes from :func:`box_matrix`: the
oracle's truncated chains, the inflow operator :func:`transformed_inflows`
behind the compensation solver's inner box, and the balance check
:func:`balance_residuals`.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import GridError

__all__ = [
    "ModelParams",
    "RegionStep",
    "DriftVectors",
    "StabilityReport",
    "is_stable",
    "drift_vectors",
    "classify_region",
    "transition_distribution",
    "transformed_transition_distribution",
    "transform_state",
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

    # Recurring one-slot event probabilities (both relays busy unless noted).
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
    def p_lone(self) -> float:
        """No arrival, a lone busy relay departs: lbar*a."""
        return self.lbar * self.a

    @property
    def p_hold(self) -> float:
        """Interior self-loop: lbar*(abar^2 + a^2) + lam*a*abar."""
        return self.lbar * (self.abar**2 + self.a**2) + self.p_both


@dataclass(frozen=True)
class RegionStep:
    """Step distribution of the original chain at one state: (di, dj, prob)."""

    region: str
    steps: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class DriftVectors:
    """Mean one-step jump (E_x, E_y) per homogeneity region."""

    h: tuple[float, float]
    v: tuple[float, float]
    hp: tuple[float, float]
    vp: tuple[float, float]
    d: tuple[float, float]


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


def drift_vectors(params: ModelParams) -> DriftVectors:
    lam, a, ab = params.lam, params.a, params.abar
    ex_h = -a * ab
    ey_h = lam - a * ab
    ex_hp = -a * (params.lbar + lam * ab)
    ey_hp = lam * (ab * ab + a * a + a * ab)
    e_d = 0.5 * (lam - 2 * a * ab)
    return DriftVectors(
        h=(ex_h, ey_h),
        v=(ey_h, ex_h),
        hp=(ex_hp, ey_hp),
        vp=(ey_hp, ex_hp),
        d=(e_d, e_d),
    )


def classify_region(i: int, j: int) -> str:
    """One of H, V, Hp, Vp, D, O — the six homogeneity regions."""
    if i < 0 or j < 0:
        raise ValueError("states are non-negative pairs")
    if i == 0 and j == 0:
        return "O"
    if i == j:
        return "D"
    if j == 0:
        return "Hp"
    if i == 0:
        return "Vp"
    return "H" if i > j else "V"


def transition_distribution(state: tuple[int, int], params: ModelParams) -> RegionStep:
    """One-step law of the original chain (Q1, Q2) at ``state``.

    Destinations stay componentwise non-negative by construction; the step
    probabilities of each region sum to one.
    """
    i, j = state
    region = classify_region(i, j)
    p = params
    if region == "O":
        steps = ((0, 1, p.lam * p.abar / 2), (1, 0, p.lam * p.abar / 2),
                 (0, 0, p.lbar + p.lam * p.a))
    elif region == "Hp":
        steps = ((0, 1, p.p_fwd), (-1, 0, p.p_lone), (-1, 1, p.p_both),
                 (0, 0, p.lbar * p.abar + p.p_both))
    elif region == "Vp":
        steps = ((1, 0, p.p_fwd), (0, -1, p.p_lone), (1, -1, p.p_both),
                 (0, 0, p.lbar * p.abar + p.p_both))
    elif region == "D":
        steps = ((1, 0, p.p_fwd / 2), (0, 1, p.p_fwd / 2), (0, -1, p.p_dep),
                 (-1, 0, p.p_dep), (1, -1, p.p_both / 2), (-1, 1, p.p_both / 2),
                 (0, 0, p.p_hold))
    elif region == "H":
        steps = ((0, 1, p.p_fwd), (0, -1, p.p_dep), (-1, 0, p.p_dep),
                 (-1, 1, p.p_both), (0, 0, p.p_hold))
    else:  # V
        steps = ((1, 0, p.p_fwd), (0, -1, p.p_dep), (-1, 0, p.p_dep),
                 (1, -1, p.p_both), (0, 0, p.p_hold))
    return RegionStep(region=region, steps=steps)


def transform_state(i: int, j: int) -> tuple[int, int]:
    """(Q1, Q2) -> (min, absolute difference)."""
    return (min(i, j), abs(i - j))


def transformed_transition_distribution(
    state: tuple[int, int], params: ModelParams
) -> tuple[tuple[int, int, float], ...]:
    """One-step law of the transformed chain (min, diff) at ``state``.

    Lumping the original chain over the (i, j) <-> (j, i) symmetry gives a
    Markov chain on the quadrant whose balance equations are the ones the
    analytic solvers consume. Steps are (dk, dl, prob).
    """
    k, l = state
    p = params
    if k == 0 and l == 0:
        return ((0, 1, p.lam * p.abar), (0, 0, p.lbar + p.lam * p.a))
    if k == 0 and l == 1:
        return ((0, -1, p.p_lone), (1, -1, p.p_fwd),
                (0, 0, p.lbar * p.abar + 2 * p.p_both))
    if k == 0:  # l >= 2
        return ((0, -1, p.p_lone), (1, -1, p.p_fwd), (1, -2, p.p_both),
                (0, 0, p.lbar * p.abar + p.p_both))
    if l == 0:  # diagonal states
        return ((0, 1, p.p_fwd), (-1, 1, 2 * p.p_dep), (-1, 2, p.p_both),
                (0, 0, p.p_hold))
    if l == 1:
        return ((1, -1, p.p_fwd), (0, -1, p.p_dep), (-1, 1, p.p_dep),
                (0, 0, p.p_hold + p.p_both))
    # k >= 1, l >= 2
    return ((1, -1, p.p_fwd), (0, -1, p.p_dep), (-1, 1, p.p_dep),
            (1, -2, p.p_both), (0, 0, p.p_hold))


def _original_representative(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Representative state of each state's region: O, Hp, Vp, D, H or V."""
    return (np.minimum(i, 1) + ((i > j) & (j > 0)), np.minimum(j, 1) + ((j > i) & (i > 0)))


def _transformed_representative(k: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Representative state of each state's region: k in {0, >=1} by l in {0, 1, >=2}."""
    return np.minimum(k, 1), np.minimum(l, 2)


_REPRESENTATIVES = {
    transition_distribution: _original_representative,
    transformed_transition_distribution: _transformed_representative,
}


def box_matrix(law, params: ModelParams, T_k: int, T_l: int) -> sp.csr_matrix:
    """One-step matrix of ``law`` on the box [0,T_k] x [0,T_l], steps leaving it dropped.

    ``law`` is :func:`transition_distribution` or
    :func:`transformed_transition_distribution` (possibly wrapped). States are
    flattened as k*(T_l+1)+l; rows of states next to the far edges are
    substochastic. The law is called once per homogeneity region, at the
    region's representative state, and its steps are applied to every state
    of the region at once.
    """
    representative = _REPRESENTATIVES[inspect.unwrap(law)]
    n_l = T_l + 1
    k, l = np.divmod(np.arange((T_k + 1) * n_l), n_l)
    rk, rl = representative(k, l)
    region = rk * (int(rl.max()) + 1) + rl
    rows, cols, probs = [], [], []
    for code in np.unique(region):
        src = np.flatnonzero(region == code)
        steps = law((int(rk[src[0]]), int(rl[src[0]])), params)
        if isinstance(steps, RegionStep):
            steps = steps.steps
        for dk, dl, prob in steps:
            k2, l2 = k[src] + dk, l[src] + dl
            inside = (k2 >= 0) & (k2 <= T_k) & (l2 >= 0) & (l2 <= T_l)
            rows.append(src[inside])
            cols.append(k2[inside] * n_l + l2[inside])
            probs.append(np.full(len(rows[-1]), prob))
    n = k.size
    return sp.csr_matrix(
        (np.concatenate(probs), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def transformed_inflows(params: ModelParams, T_k: int, T_l: int) -> sp.csr_matrix:
    """Inflow operator of the transformed chain on the box [0,T_k] x [0,T_l].

    The transpose of :func:`box_matrix`: row s holds the one-step
    probabilities into state s from every in-box source, so (Q @ pi)[s] is
    the right-hand side of the balance equation of s.
    """
    return box_matrix(transformed_transition_distribution, params, T_k, T_l).T.tocsr()


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
    Q = transformed_inflows(params, n, n + 1)
    padded = np.zeros(box)
    padded[:n, :n] = pi
    beyond = np.ones(box)
    beyond[:n, :n] = 0.0
    inflow = (Q @ padded.ravel()).reshape(box)[:n, :n]
    reach = (Q @ beyond.ravel()).reshape(box)[:n, :n]
    res = np.abs(pi - inflow)
    res[reach > 0.0] = np.nan
    return res


def max_interior_residual(values: np.ndarray, params: ModelParams) -> float:
    """Largest balance residual over states with a full in-grid stencil."""
    res = balance_residuals(values, params)
    return float(np.nanmax(res))
