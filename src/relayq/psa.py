"""Power-series reconstruction of the equilibrium distribution (a = 1/2).

The equilibrium probabilities are expanded as a power series in the variable
theta = (1+G)*rho / (1+G*rho), a bilinear map of the load that stretches the
series' useful range toward saturation. Substituting the expansion into the
balance equations and matching powers of theta turns them into an explicit
recursion for the coefficients u(n, k, l); the normalization condition pins
the u(n, 0, 0) entries. The derivation (and therefore this module) is
restricted to the symmetric half-attempt case a = 1/2, where the balance
equations collapse to one-parameter form in the load.

Coefficients are computed exactly, ordered by total level m = n + k + l:
every recursion reference lives at level m or m-1, so two triangular slabs
suffice. Within a level, states with k >= 1 are filled along anti-diagonals
s = k + l from the top down (each diagonal is a first-order recurrence in k,
evaluated as a linear filter), then the k = 0 column from l = 1 upward, and
finally the normalization entry (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import NumericsError, StabilityError, UnsupportedParameterError
from .grids import TRANSFORMED, ProbabilityGrid
from .model import EPSILON_FLOOR, ModelParams, grid_truncation

__all__ = [
    "PsaDiagnostics",
    "PsaSolution",
    "theta_from_rho",
    "compute_coefficients",
    "evaluate",
    "solve",
]

MAX_OUTER_ITERATIONS = 500
_DIVERGENCE_PATIENCE = 10
_IMPROVEMENT_PATIENCE = 50


def theta_from_rho(rho: float, G: float) -> float:
    """Accelerated series variable (1+G)*rho / (1+G*rho); G = 0 is identity."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0,1), got {rho}")
    if not (math.isfinite(G) and G >= 0.0):
        raise ValueError(f"acceleration parameter must be finite and >= 0, got {G}")
    return (1.0 + G) * rho / (1.0 + G * rho)


@dataclass(frozen=True)
class PsaDiagnostics:
    converged: bool
    achieved_rel_change: float
    stop_reason: str  # "epsilon" | "divergence" | "cap"
    rel_change_history: tuple[float, ...]


@dataclass(frozen=True)
class PsaSolution:
    G: float
    theta: float
    u: np.ndarray  # coefficients, shape (N_psa+1, T_psa+1, T_psa+1)
    N_psa: int
    T_psa: int
    grid: ProbabilityGrid
    diagnostics: PsaDiagnostics


class _LevelMachine:
    """Exact coefficient slabs in diagonal-major layout slab[s, k] = u(m-s, k, s-k).

    Zero-extension for negative coefficient indices is automatic: a state
    outside a slab's triangle was never written at that level and the buffers
    start (and stay) zero there.
    """

    def __init__(self, G: float, max_level: int):
        self.G = G
        self.Gp = G + 1.0
        self.M = max_level
        size = max_level + 3
        self.prev = np.zeros((size, size))
        self.cur = np.zeros((size, size))

    def advance(self, m: int) -> np.ndarray:
        """Compute level m (requires calls with m = 0, 1, 2, ...); returns the slab."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._advance(m)

    def _advance(self, m: int) -> np.ndarray:
        # overflow near a diverging series is expected; the solver's monitor
        # detects it through the mass increments and stops
        G, Gp = self.G, self.Gp
        prev, cur = self.prev, self.cur
        if m == 0:
            cur[0, 0] = 1.0
            self.prev, self.cur = cur, prev
            return cur
        for s in range(m, 0, -1):
            # state (s, 0): diagonal entry cur[s, s]
            cur[s, s] = (
                (G - 1.5) / Gp * prev[s, s]
                + 0.5 * cur[s + 1, s]
                - 0.5 * G / Gp * prev[s + 1, s]
                + 0.5 / Gp * prev[s + 1, s - 1]
                + 1.0 / Gp * prev[s, s - 1]
            )
            if s >= 2:
                # state (s-1, 1): cur[s, s-1]
                k = s - 1
                cur[s, k] = (
                    (G - 1.0) / Gp * prev[s, k]
                    + 0.5 * cur[s + 1, k]
                    - 0.5 * G / Gp * prev[s + 1, k]
                    + 0.5 / Gp * prev[s + 1, k - 1]
                    + 1.0 / Gp * prev[s, k - 1]
                    - G / Gp * prev[s, k + 1]
                    + 1.0 / Gp * prev[s - 1, k]
                    + cur[s, k + 1]
                )
            if s >= 3:
                # states (k, l = s-k) for k = s-2 .. 1: a first-order recurrence
                # x_k = a_k + 0.5 x_{k+1} seeded by the l = 1 state
                ks = np.arange(s - 2, 0, -1)
                a = (
                    (G - 1.5) / Gp * prev[s, ks]
                    + 0.5 * cur[s + 1, ks]
                    - 0.5 * G / Gp * prev[s + 1, ks]
                    + 1.0 / Gp * prev[s, ks - 1]
                    + 0.5 / Gp * prev[s + 1, ks - 1]
                    - 0.5 * G / Gp * prev[s, ks + 1]
                )
                # l = 2 tap from the diagonal row below (only the k = s-2 entry)
                a[0] = a[0] + 0.5 / Gp * prev[s - 1, s - 1]
                x, _ = lfilter([1.0], [1.0, -0.5], a, zi=[0.5 * cur[s, s - 1]])
                cur[s, ks] = x
        # k = 0 column, bottom-up
        cur[1, 0] = G / Gp * prev[1, 0] + 1.0 / Gp * prev[0, 0]
        if m >= 2:
            cur[2, 0] = (
                G / Gp * prev[2, 0]
                - (G - 1.0) / Gp * prev[1, 0]
                + cur[1, 0]
                - cur[1, 1]
                + G / Gp * prev[1, 1]
                - 1.0 / Gp * prev[0, 0]
            )
        if m >= 3:
            Ls = np.arange(3, m + 1)
            b = (
                G / Gp * prev[Ls, 0]
                - (G - 1.5) / Gp * prev[Ls - 1, 0]
                + 0.5 * G / Gp * prev[Ls - 1, 1]
                - 0.5 * cur[Ls - 1, 1]
            )
            b[0] = b[0] - 0.5 / Gp * prev[1, 1]
            cur[Ls, 0] = cur[2, 0] + np.cumsum(b)
        # normalization entry (0, 0) at coefficient index m
        cur[0, 0] = 0.0
        cur[0, 0] = -(cur[: m + 1, : m + 1].sum())
        self.prev, self.cur = cur, prev
        return cur


def _levels(G: float, max_level: int, T: int):
    """Yield the levels m = 0..max_level as T-boxes block[k, l] = u(m-k-l, k, l).

    Entries with k + l > m read slab rows that level m never wrote, so they
    are zero.
    """
    machine = _LevelMachine(G, max_level)
    K, L = np.indices((T + 1, T + 1))
    for m in range(max_level + 1):
        yield machine.advance(m)[K + L, K]


def compute_coefficients(N_psa: int, T_psa: int, G: float) -> np.ndarray:
    """Exact coefficient array u(n, k, l), 0 <= n <= N_psa, 0 <= k, l <= T_psa.

    u(0, 0, 0) = 1 by the normalization condition; spatially out-of-range
    references are zero. Only the half-attempt model is represented.
    """
    if N_psa < 0 or T_psa < 0:
        raise ValueError("truncations must be non-negative")
    if not (math.isfinite(G) and G >= 0.0):
        raise ValueError(f"acceleration parameter must be finite and >= 0, got {G}")
    u = np.zeros((N_psa + 1, T_psa + 1, T_psa + 1))
    K, L = np.indices((T_psa + 1, T_psa + 1))
    for m, block in enumerate(_levels(G, N_psa + 2 * T_psa, T_psa)):
        n_idx = m - K - L
        mask = (n_idx >= 0) & (n_idx <= N_psa)
        u[n_idx[mask], K[mask], L[mask]] = block[mask]
    return u


def _reconstruct(u: np.ndarray, theta: float) -> ProbabilityGrid:
    """The grid sum_n theta^(n+k+l) u(n,k,l) of coefficients u at series variable theta."""
    N, T = u.shape[0] - 1, u.shape[1] - 1
    tpow = theta ** np.arange(N + 2 * T + 1)
    K, L = np.indices((T + 1, T + 1))
    vals = np.zeros((T + 1, T + 1))
    for n in range(N + 1):
        vals += tpow[n + K + L] * u[n]
    return ProbabilityGrid(vals, TRANSFORMED)


def evaluate(rho: float, solution: PsaSolution) -> ProbabilityGrid:
    """Reconstruct the grid sum_n theta^(n+k+l) u(n,k,l) at load ``rho``.

    The coefficients do not depend on the load, so a single solution can be
    re-evaluated across loads (within the series' convergence range).
    """
    return _reconstruct(solution.u, theta_from_rho(rho, solution.G))


def solve(params: ModelParams, G: float = 1.0, epsilon: float = 1e-12) -> PsaSolution:
    """Run the series until the relative total-mass change drops below epsilon.

    The stopping rule compares the truncated-grid mass of successive series
    depths. Near saturation the series stops converging before reaching
    epsilon (the radius of the accelerated series is finite); the solver then
    keeps the best iterate seen — minimum relative change — and flags the
    result as not converged, aborting early when the relative change has
    grown for ten consecutive depths or at the iteration cap. Only depths
    whose partial mass lies in (0.05, 20) qualify as that iterate. When none
    does, or the best is depth 1 (no later depth improved on the first
    increment), it raises :class:`NumericsError` rather than return a partial
    sum that is no answer.
    """
    if abs(params.a - 0.5) > 1e-15:
        raise UnsupportedParameterError(
            f"power-series recursions are derived for a = 1/2 only, got a = {params.a}"
        )
    rho = params.rho
    if rho >= 1.0:
        raise StabilityError(f"load {rho:.4f} >= 1; equilibrium does not exist")
    epsilon = max(epsilon, EPSILON_FLOOR)
    theta = theta_from_rho(rho, G)
    T = grid_truncation(rho * rho, epsilon)

    # pass A: per-depth mass increments dS_n, monitored as levels complete
    cap = MAX_OUTER_ITERATIONS
    M_max = cap + 2 * T
    dS = np.zeros(cap + 1)
    rel_hist: list[float] = []
    best_n = 0
    best_rel = math.inf
    growth_streak = 0
    since_best = 0
    stop_reason = "cap"
    converged = False
    n_final = cap
    K, L = np.indices((T + 1, T + 1))
    s_flat = (K + L).ravel()
    for m, block in enumerate(_levels(G, M_max, T)):
        diag_sums = np.bincount(s_flat, weights=block.ravel(), minlength=2 * T + 1)
        s_lo = max(m - cap, 0)
        s_hi = min(2 * T, m)
        if s_lo <= s_hi:
            dS[m - np.arange(s_lo, s_hi + 1)] += theta**m * diag_sums[s_lo : s_hi + 1]
        n_done = m - 2 * T
        if n_done < 1:
            continue
        running = float(dS[: n_done + 1].sum())
        rel = abs(dS[n_done]) / abs(running) if running != 0.0 else math.inf
        if not math.isfinite(rel) or rel > max(1e4 * best_rel, 1.0):
            # overflow or an increment dwarfing the running mass: unrecoverable
            stop_reason = "divergence"
            n_final = best_n
            break
        if rel_hist and rel > rel_hist[-1]:
            growth_streak += 1
        else:
            growth_streak = 0
        rel_hist.append(rel)
        if rel < best_rel and math.isfinite(running) and 0.05 < running < 20.0:
            # only mass-sane iterates qualify as the fallback result
            best_rel = rel
            best_n = n_done
            since_best = 0
        else:
            since_best += 1
        if rel < epsilon:
            converged = True
            stop_reason = "epsilon"
            n_final = n_done
            best_rel = rel
            break
        if growth_streak >= _DIVERGENCE_PATIENCE or since_best >= _IMPROVEMENT_PATIENCE:
            stop_reason = "divergence"
            n_final = best_n
            break
    else:
        n_final = best_n
    if not converged and best_n <= 1:
        # depth 1's change is measured against depth 0 alone; when no later
        # mass-sane depth changed less, the series never settled
        raise NumericsError(
            f"power series did not settle at load {rho:.4g}, G = {G:g}: no depth beyond "
            f"the first has a sane mass and a smaller change (stop: {stop_reason} after "
            f"{len(rel_hist)} depths)"
        )

    # pass B: recompute the slabs, capturing the coefficient box up to n_final
    u = compute_coefficients(n_final, T, G)
    return PsaSolution(
        G=G,
        theta=theta,
        u=u,
        N_psa=n_final,
        T_psa=T,
        grid=_reconstruct(u, theta),
        diagnostics=PsaDiagnostics(
            converged=converged,
            achieved_rel_change=best_rel,
            stop_reason=stop_reason,
            rel_change_history=tuple(rel_hist),
        ),
    )
