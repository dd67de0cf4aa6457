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

There is one slot rule, :func:`step`, and only this module turns it into
laws: :func:`conditional_laws` sums it over the slot's draws given no arrival
and given one, and each chain's law is their mix (1 - lam) Q0 + lam Q1. The
transformed laws depend only on whether k = 0 and whether l is 0, 1 or at
least 2: :func:`region_laws` holds the halves for these six regions, from one
:func:`step` on arrays, the power-series recursion reads them, and every box
tiles their mix :func:`region_law` one step (dk, dl) at a time.
:func:`box_matrix` writes the tiles into the dense matrix whose blocks the
oracle's quasi-birth-death solve reads and whose states around the
compensation solver's inner box :func:`gth_stationary` reduces it to;
:func:`balance_residuals` multiplies them with shifted slices of a grid.
The scalar laws are the per-state reference the table is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, StabilityError, UnreachableStateError

__all__ = [
    "ModelParams",
    "StabilityReport",
    "is_stable",
    "step",
    "transition_distribution",
    "transformed_transition_distribution",
    "transform_state",
    "conditional_laws",
    "region_laws",
    "region_law",
    "box_matrix",
    "gth_stationary",
    "transformed_inflows",
    "balance_residuals",
    "lambda_for_load",
    "EPSILON_FLOOR",
    "truncation",
]

EPSILON_FLOOR = 1e-12  # CA, PSA and oracle precision floor: 64-bit arithmetic cannot honour less
_Law = tuple[tuple[int, int, float], ...]  # one-step law: (dx, dy, prob) per move


def _check_attempt(a: float) -> None:
    if not (0.0 < a < 1.0):
        raise ValueError(f"attempt probability must be in (0,1), got {a}")


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
        _check_attempt(self.a)

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

    @property
    def log_rho(self) -> float:
        """log(rho), finite where rho underflows to 0: then it is summed from the load's factors."""
        if self.rho > 0.0:
            return math.log(self.rho)  # the log of rho itself, so box sizes keep their bits
        return math.log(self.lam) + math.log(self.abar**2 + self.a**2) - math.log(2 * self.lbar * self.abar * self.a)

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
    stable: bool  # rho < 1, the criterion every solver applies
    margin: float  # drift lam - 2*a*abar: negative iff stable, up to its rounding within ulps of rho = 1


def is_stable(params: ModelParams) -> StabilityReport:
    """Stability verdict rho < 1, as every solver decides it, with the drift margin lam - 2*a*abar."""
    return StabilityReport(stable=params.rho < 1.0, margin=params.lam - 2 * params.a * params.abar)


def lambda_for_load(rho: float, a: float) -> float:
    """Arrival probability giving load ``rho`` at attempt probability ``a``."""
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"load must be finite and positive, got {rho}")
    _check_attempt(a)
    ab = 1.0 - a
    c = 2 * rho * ab * a
    return c / (ab * ab + a * a + c)


def truncation(params: ModelParams, epsilon: float) -> tuple[int, int, float]:
    """The box [0,T_k] x [0,T_l] of every route and its precision: the one
    load gate and box rule of CA, PSA, the oracle and the simulator's grid cap.

    ``epsilon`` must be finite and > 0 (ValueError) and is clamped at
    :data:`EPSILON_FLOOR`; the load must be below 1 (:class:`StabilityError`).
    The minimum queue decays like rho^2, so T_k = max(ceil(log(epsilon) /
    (2 log(rho))), 3) puts the first level beyond the box at about ``epsilon``
    of the origin's mass. It is computed in logs (:attr:`ModelParams.log_rho`),
    since rho^2, and at a subnormal load rho itself, underflows. T_l = T_k,
    though l decays faster. Returns (T_k, T_l, clamped epsilon).
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    rho = params.rho
    if rho >= 1.0:
        raise StabilityError(f"load {rho:.4f} >= 1; no stationary distribution")
    epsilon = max(epsilon, EPSILON_FLOOR)
    T_k = max(math.ceil(math.log(epsilon) / (2 * params.log_rho)), 3)
    return T_k, T_k, epsilon


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


def transform_state(i: int, j: int) -> tuple[int, int]:
    """(Q1, Q2) -> (min, absolute difference)."""
    return (min(i, j), abs(i - j))


def _draws(a: float):
    """The slot's 16 draws (arrival, tie_to_q1, att1, att2), each with its
    probability given the arrival draw: tie coin (1/2), two attempts (a or 1-a)."""
    _check_attempt(a)
    abar = 1.0 - a
    for draw in itertools.product((True, False), repeat=4):
        _, _, att1, att2 = draw
        yield draw, 0.5 * (a if att1 else abar) * (a if att2 else abar)


def _grouped(moves) -> _Law:
    """(dx, dy, prob) triples with the probabilities of equal moves added."""
    law: dict[tuple[int, int], float] = {}
    for dx, dy, prob in moves:
        law[dx, dy] = law.get((dx, dy), 0.0) + prob
    return tuple((dx, dy, prob) for (dx, dy), prob in law.items())


def conditional_laws(state: tuple[int, int], a: float, transformed: bool = False) -> tuple[_Law, _Law]:
    """One-step laws (Q0, Q1) at ``state`` given no arrival and given one.

    :func:`step` on each of the slot's 16 draws, weighted by the draw's
    probability given the arrival draw, equal moves added in draw order. Steps
    are (di, dj, prob) of (Q1, Q2), or if ``transformed`` (dk, dl, prob) of
    (min, diff): the state (k, l) is (k, k + l), each destination pushed
    through :func:`transform_state`.
    """
    x, y = state
    i, j = (x, x + y) if transformed else state
    halves = ([], [])
    for draw, prob in _draws(a):
        i2, j2 = step(i, j, *draw)
        x2, y2 = transform_state(i2, j2) if transformed else (i2, j2)
        halves[draw[0]].append((x2 - x, y2 - y, prob))  # draw[0] is the arrival
    return _grouped(halves[0]), _grouped(halves[1])


def _mixed(halves: tuple[_Law, _Law], params: ModelParams) -> _Law:
    """The law (1 - lam) Q0 + lam Q1 of the halves (Q0, Q1), move by move."""
    q0, q1 = halves
    mix = ((params.lam, q1), (params.lbar, q0))  # Q1's moves first, as its draws come first
    return _grouped((dx, dy, w * prob) for w, half in mix for dx, dy, prob in half)


def transition_distribution(state: tuple[int, int], params: ModelParams) -> _Law:
    """One-step law of the original chain (Q1, Q2) at ``state``, steps (di, dj, prob)."""
    return _mixed(conditional_laws(state, params.a), params)


def transformed_transition_distribution(state: tuple[int, int], params: ModelParams) -> _Law:
    """One-step law of the transformed chain (min, diff) at ``state``, steps (dk, dl, prob).

    Lumping the original chain over the (i, j) <-> (j, i) symmetry gives a
    Markov chain on the quadrant whose balance equations are the ones the
    analytic solvers consume.
    """
    return _mixed(conditional_laws(state, params.a, transformed=True), params)


def region_laws(a: float) -> np.ndarray:
    """The transformed :func:`conditional_laws` by region, a (2, 2, 3, 3, 5) table.

    laws[arrived, min(k, 1), min(l, 2), dk + 1, dl + 2] is the probability of
    the step (dk, dl) out of (k, l) given ``arrived`` arrivals. A slot sees only
    whether the shorter relay is empty and whether the queues tie, differ by
    one or by more, so the table matches every state bit for bit. One
    :func:`step` on arrays moves the six regions' states by the 16 draws, and
    equal moves are added in draw order, as :func:`conditional_laws` adds them.
    """
    draws, probs = zip(*_draws(a))
    draws = np.array(draws).T  # rows: arrival, tie_to_q1, att1, att2
    k, l = np.divmod(np.arange(6)[:, None], 3)  # one state (k, k + l) per region and row
    i, j = step(k, k + l, *draws)
    laws = np.zeros((2, 2, 3, 3, 5))
    np.add.at(laws, (draws[0].astype(int), k, l, np.minimum(i, j) - k + 1, abs(i - j) - l + 2), probs)
    return laws


def region_law(params: ModelParams) -> np.ndarray:
    """The mix (1 - lam) R0 + lam R1 of the :func:`region_laws` (R0, R1): the
    transformed law by region, bit for bit, a (2, 3, 3, 5) table."""
    r0, r1 = region_laws(params.a)
    return params.lbar * r0 + params.lam * r1


def _tiles(params: ModelParams, T_k: int, T_l: int):
    """:func:`region_law` tiled over the box [0,T_k] x [0,T_l], one step (dk, dl) at a time.

    Yields (src, dst, w) per step: slices selecting the states whose step stays
    in the box and their destinations, and the step's probability at ``src``.
    """
    law = region_law(params)
    k = np.minimum(np.arange(T_k + 1), 1)[:, None]
    l = np.minimum(np.arange(T_l + 1), 2)
    for dk, dl in itertools.product(range(-1, 2), range(-2, 3)):
        rows = slice(max(-dk, 0), T_k + 1 - max(dk, 0))
        cols = slice(max(-dl, 0), T_l + 1 - max(dl, 0))
        dst = (slice(rows.start + dk, rows.stop + dk), slice(cols.start + dl, cols.stop + dl))
        yield (rows, cols), dst, law[k[rows], l[cols], dk + 1, dl + 2]


def box_matrix(params: ModelParams, T_k: int, T_l: int) -> np.ndarray:
    """Dense one-step matrix of the transformed chain on the box [0,T_k] x [0,T_l].

    States are flattened as k*(T_l+1)+l; steps leaving the box are dropped.
    The tiles of :func:`region_law` are written into their cells, one cell per
    step of a state, so each row matches :func:`transformed_transition_distribution`
    bit for bit.
    """
    state = np.arange((T_k + 1) * (T_l + 1)).reshape(T_k + 1, T_l + 1)
    P = np.zeros((state.size, state.size))
    for src, dst, w in _tiles(params, T_k, T_l):
        P[state[src], state[dst]] = w
    return P


def gth_stationary(P: np.ndarray, kept: int = 1) -> np.ndarray:
    """GTH state reduction of the chain P to its first ``kept`` states.

    Subtraction-free elimination (Grassmann, Taksar & Heyman 1985) is
    accurate entry by entry, however badly conditioned the chain
    (O'Cinneide 1993). Eliminating state s touches only the window
    [s - bw, s), where bw is the largest |row - col| over the nonzeros of P:
    fill-in never leaves that band, so the cost is O(n*bw^2).

    Row i of the result is the chain's visits to each eliminated state per
    visit to kept state i, P_KE (I - P_EE)^-1; only the kept states' rows
    may sum to less than one. With ``kept`` = 1 it is instead P's normalized
    stationary vector, state 0 included.
    Every eliminated state must reach a kept one; otherwise
    :class:`UnreachableStateError` names one that cannot. The lowest such
    state reaches only states above it, so its censored row is exactly 0.0
    below the diagonal, while no pivot is zero when every state reaches a
    kept one.
    """
    A = np.array(P, dtype=float)
    n = A.shape[0]
    rows, cols = np.nonzero(A)
    bw = int(np.abs(rows - cols).max(initial=0))
    departing = np.zeros(n)
    for s in range(n - 1, kept - 1, -1):
        w = slice(max(s - bw, 0), s)
        tot = A[s, w].sum()
        if tot <= 0.0:
            raise UnreachableStateError(s)
        departing[s] = tot
        A[s, w] /= tot
        A[w, w] += np.outer(A[w, s], A[s, w])
    visits = np.eye(kept, n)
    for s in range(kept, n):
        w = slice(max(s - bw, 0), s)
        visits[:, s] = (visits[:, w] @ A[w, s]) / departing[s]
    return visits[0] / visits.sum() if kept == 1 else visits[:, kept:]


def transformed_inflows(params: ModelParams, T_k: int, T_l: int) -> np.ndarray:
    """Inflow operator of the transformed chain on the box [0,T_k] x [0,T_l].

    The transpose of :func:`box_matrix`: row s holds the one-step
    probabilities into state s from every in-box source, so (Q @ pi)[s] is
    the right-hand side of the balance equation of s.
    """
    return box_matrix(params, T_k, T_l).T


def balance_residuals(values: np.ndarray, params: ModelParams) -> np.ndarray:
    """Residual |pi - inflow| of the transformed-chain balance equations.

    ``values`` is a (T_k+1)x(T_l+1) array over 0 <= k <= T_k, 0 <= l <= T_l.
    The inflow sums, over the 15 steps, the tile of :func:`region_law` times
    the shifted slice of the grid it moves. An entry is NaN when some state
    that steps into it lies outside the array, so that its equation cannot be
    evaluated. An exact stationary vector of the (untruncated) chain has
    residual ~ solver precision on every non-NaN entry.
    """
    pi = np.asarray(values, dtype=float)
    # 3 rows and 3 columns hold the whole stencil of (0, 0), k + 1 and l + 2: the smallest checked
    if pi.ndim != 2 or min(pi.shape) < 3:
        raise GridError(f"need a grid of at least 3x3, got shape {pi.shape}")
    n_k, n_l = pi.shape
    # steps move k by at most 1 and l by at most 2: this box, NaN off the grid, holds every source
    padded = np.full((n_k + 1, n_l + 2), np.nan)
    padded[:n_k, :n_l] = pi
    inflow = np.zeros_like(padded)
    for src, dst, w in _tiles(params, n_k, n_l + 1):
        inflow[dst] += np.where(w > 0.0, w * padded[src], 0.0)
    return np.abs(pi - inflow[:n_k, :n_l])


def max_interior_residual(values: np.ndarray, params: ModelParams) -> float:
    """Largest balance residual over states with a full in-grid stencil."""
    return float(np.nanmax(balance_residuals(values, params)))
