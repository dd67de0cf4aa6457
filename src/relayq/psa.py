"""Power-series reconstruction of the equilibrium distribution.

The equilibrium probabilities are expanded as a power series in the variable
theta = (1+G)*rho / (1+G*rho), a bilinear map of the load that stretches the
series' useful range toward saturation. Write the one-slot law as
P = (1 - lam) Q0 + lam Q1, with Q0 and Q1 the laws of :func:`model.step`
given no arrival and given one; the balance equations pi (I - P) = 0 become
pi (I - Q0) = (lam / (1 - lam)) pi (Q1 - I), and lam / (1 - lam) = rho / c
with c = (a^2 + (1-a)^2) / (2a(1-a)). Matching powers of theta gives one
recursion for the coefficient U_m of theta^m at every attempt probability a;
the normalization condition pins U_m(0, 0). The coefficients depend on a and
G only, not on the load. They are reported as u(n, k, l) = U_(n+k+l)(k, l).

U_m lives on the states of total t = 2k + l <= m, stored by (t, k) so that a
total is one row. Each level takes one 3x3 stencil product of U_(m-1) for its
right-hand side and then solves its rows from the top down, one array step
per row, since Q0 keeps a state or lowers its total by one. A solve sweeps
the levels once into one coefficient array u[n, k, l] and reads each depth's
series mass once, when the depth completes. One number bounds a solve: the
last level its sweep may reach, MAX_OUTER_ITERATIONS. Depth n completes at
level n + 2T, so the depth cap is MAX_OUTER_ITERATIONS - 2T, and the level
arrays and the coefficient array, sized from the levels, stay within tens of
megabytes.
"""
from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, StabilityError
from .grids import ProbabilityGrid
from .model import EPSILON_FLOOR, ModelParams, _draws, grid_truncation, step

__all__ = [
    "PsaDiagnostics",
    "PsaSolution",
    "theta_from_rho",
    "compute_coefficients",
    "evaluate",
    "solve",
]

MAX_OUTER_ITERATIONS = 500  # last level a solve may sweep; bounds its depth, time and memory
_DIVERGENCE_PATIENCE = 10
_IMPROVEMENT_PATIENCE = 50


def __getattr__(name: str):
    # not called here: benchmarks/tracing.py, its only user, patches psa.lfilter;
    # scipy is imported on first lookup, for the tracer only, so relayq runs
    # with numpy alone
    if name == "lfilter":
        from scipy.signal import lfilter

        return lfilter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _lazy_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Float zeros in a fresh anonymous mapping, whose pages the kernel commits
    when they are first written. ``np.zeros`` may take recycled heap memory
    instead, which it must clear, and so commit, in full; which of the two it
    gets depends on the allocator's history in the process."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)


def _draw_arrays(a: float) -> tuple[np.ndarray, ...]:
    """The slot's 16 draws as columns (arrival, tie, att1, att2, prob) of shape
    (16, 1), prob conditional on the arrival draw: drawn at lam = 1/2 and
    divided by 1/2, both exact."""
    draws = list(_draws(ModelParams(lam=0.5, a=a)))
    arrival, tie, att1, att2 = (np.array([[d[i]] for d, _ in draws]) for i in range(4))
    return arrival, tie, att1, att2, np.array([[p / 0.5] for _, p in draws])


# Not from model.region_law: its arrival halves do not re-add bit for bit, and the pinned rho = 0.9 depth needs that
def _row_laws(t: int, draws, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Laws (Q0, Q1) out of the states (k, t - 2k) of total t, given no arrival
    and given one: :func:`step` on every state of the row and every draw at
    once. Each is a (9, width) array law[3(dt + 1) + dk + 1, k + 1] of the
    moves (dt, dk) in (total, k), zero at k = -1 and beyond the row."""
    arrival, tie, att1, att2, prob = draws
    k = np.arange(t // 2 + 1)
    q1, q2 = step(k, t - k, arrival, tie, att1, att2)
    move = 3 * (q1 + q2 - t + 1) + np.minimum(q1, q2) - k + 1
    law = np.zeros((2, 9, width))
    np.add.at(law, (arrival.astype(int), move, k + 1), np.broadcast_to(prob, move.shape))
    return law[0], law[1]


def _sweep(G: float, T: int, depth: int, a: float = 0.5):
    """Yield (m, u) for the levels m = 0 .. depth + 2T.

    Level m is U_m, the coefficient of theta^m in the equilibrium law, on the
    states of total t = 2k + l <= m. With c = (a^2 + (1-a)^2) / (2a(1-a)), so
    that rho = c lam / (1 - lam), matching powers of theta in the balance
    equations gives
    U_m (I - Q0) = [U_(m-1) (Q1 - I) / c + G U_(m-1) (I - Q0)] / (1 + G),
    with U_0 = delta_(0,0) and U_m(0, 0) = -(sum of the others). Q0 keeps a
    state or lowers its total by one, so U_m is solved one row of totals at a
    time from the top.

    u[n, k, l] = U_(n+k+l)(k, l) for 0 <= n <= depth is one preallocated array;
    level m writes the entries of its T-box whose depth n = m - (k + l) lies
    in [0, depth], so depth n is complete from level n + 2T on.
    """
    last = depth + 2 * T
    rows, cols = last + 1, last // 2 + 1
    c = (a * a + (1.0 - a) ** 2) / (2.0 * a * (1.0 - a))
    draws = _draw_arrays(a)
    # Per destination state, each divided by its 1 - Q0(stay): the weight in
    # the right-hand side of the move into it from each source, and Q0's
    # weights from the row above, at the same k and at k + 1. Row m is filled
    # when the sweep reaches level m, so only reached rows commit pages.
    into = _lazy_zeros((9, rows, cols))
    keep, lower = _lazy_zeros((rows, cols)), _lazy_zeros((rows, cols))
    moves: list[int] = []  # the moves into some filled row
    # U_m, padded by a zero row and column on each side: (t, k) at [t + 1, k + 1]
    U = _lazy_zeros((rows + 2, cols + 2))
    rhs, tap, part = np.empty((rows, cols)), np.empty((rows, cols)), np.empty(cols)
    solve_rows = []  # the views of each row's solve step, from row 1 up

    def row_moves(t: int) -> tuple[np.ndarray, np.ndarray]:
        """Q0 and the right-hand side's weights of the moves out of the row of total t."""
        q0, q1 = _row_laws(t, draws, cols + 2)
        stay = np.zeros_like(q0)
        stay[4, 1 : t // 2 + 2] = 1.0
        return q0, ((q1 - stay) / c + G * (stay - q0)) / (1.0 + G)

    laws = {0: row_moves(0)}
    u = _lazy_zeros((depth + 1, T + 1, T + 1))
    K, L = np.indices((T + 1, T + 1))
    KL = K + L
    U[1, 1] = 1.0  # U_0
    for m in range(last + 1):
        n = m // 2 + 1  # states in row m
        laws[m + 1] = row_moves(m + 1)
        laws.pop(m - 2, None)
        if m:
            # the moves into row m come from the rows m - 1, m and m + 1
            inv = 1.0 / (1.0 - laws[m][0][4, 1 : n + 1])
            for move in range(9):
                dt, dk = divmod(move, 3)  # the move is (dt - 1, dk - 1)
                into[move, m, :n] = laws[m + 1 - dt][1][move, 2 - dk : n + 2 - dk] * inv
            moves = [i for i in range(9) if i in moves or into[i, m, :n].any()]
            q0 = laws[m + 1][0]
            keep[m, :n] = q0[1, 1 : n + 1] * inv
            lower[m, :n] = q0[0, 2 : n + 2] * inv
            solve_rows.append((U[m + 1, 1 : n + 1], rhs[m, :n], U[m + 2, 1 : n + 1],
                               U[m + 2, 2 : n + 2], keep[m, :n], lower[m, :n], part[:n]))
            with np.errstate(over="ignore", invalid="ignore"):
                # overflow near a diverging series is expected; the solver's
                # monitor sees it through the mass increments and stops
                out = rhs[: m + 1, :n]
                for i, move in enumerate(moves):
                    dt, dk = divmod(move, 3)
                    # U_(m-1) at the source (t + 1 - dt, k + 1 - dk) of the move into (t, k)
                    src = U[2 - dt : m + 3 - dt, 2 - dk : n + 2 - dk]
                    if i == 0:
                        np.multiply(into[move, : m + 1, :n], src, out=out)
                    else:
                        np.multiply(into[move, : m + 1, :n], src, out=tap[: m + 1, :n])
                        np.add(out, tap[: m + 1, :n], out=out)
                # U_m row by row from the top; a row overwrites U_(m-1) there
                for row, r, same, next_k, kt, lt, p in reversed(solve_rows):
                    np.multiply(kt, same, out=row)
                    np.add(row, r, out=row)
                    np.multiply(lt, next_k, out=p)
                    np.add(row, p, out=row)
                U[1, 1] = 0.0
                U[1, 1] = -U[1 : m + 2, 1 : n + 1].sum()
        at = (m - depth <= KL) & (KL + K <= m)
        u[m - KL[at], K[at], L[at]] = U[KL[at] + K[at] + 1, K[at] + 1]
        yield m, u


def compute_coefficients(N_psa: int, T_psa: int, G: float, a: float = 0.5) -> np.ndarray:
    """Coefficient array u(n, k, l), 0 <= n <= N_psa, 0 <= k, l <= T_psa, at attempt probability a.

    u(0, 0, 0) = 1 by the normalization condition.
    """
    if N_psa < 0 or T_psa < 0:
        raise ValueError("truncations must be non-negative")
    if not (math.isfinite(G) and G >= 0.0):
        raise ValueError(f"acceleration parameter must be finite and >= 0, got {G}")
    for _, u in _sweep(G, T_psa, N_psa, a):
        pass
    return u


def _reconstruct(u: np.ndarray, theta: float) -> ProbabilityGrid:
    """The grid sum_n theta^(n+k+l) u(n,k,l) of coefficients u at series variable theta."""
    N, T = u.shape[0] - 1, u.shape[1] - 1
    tpow = theta ** np.arange(N + 2 * T + 1)
    K, L = np.indices((T + 1, T + 1))
    vals = np.zeros((T + 1, T + 1))
    for n in range(N + 1):
        vals += tpow[n + K + L] * u[n]
    return ProbabilityGrid(vals)


def evaluate(rho: float, solution: PsaSolution) -> ProbabilityGrid:
    """Reconstruct the grid sum_n theta^(n+k+l) u(n,k,l) at load ``rho``.

    The coefficients do not depend on the load, so a single solution can be
    re-evaluated across loads (within the series' convergence range).
    """
    return _reconstruct(solution.u, theta_from_rho(rho, solution.G))


def solve(params: ModelParams, G: float = 1.0, epsilon: float = 1e-12) -> PsaSolution:
    """Run the series until the relative total-mass change drops below epsilon.

    One sweep of the levels writes the coefficients u(n, k, l) of every depth
    up to the cap into one array, and reads depth n's mass increment
    sum_(k,l) theta^(n+k+l) u(n, k, l) once, at level n + 2T, where it
    completes. The sweep stops at level MAX_OUTER_ITERATIONS at the latest,
    so the cap is MAX_OUTER_ITERATIONS - 2T depths. The result keeps the
    coefficients up to the depth it reports. Any attempt probability a works.

    The stopping rule compares the truncated-grid mass of successive series
    depths. When no depth reaches epsilon, as near saturation, where the
    level budget ends the sweep first, or where the series or its round-off
    grows, the solver keeps the best iterate seen — minimum relative change —
    and flags the result as not converged. It stops at the cap, or early when
    the relative change has grown for ten consecutive depths or has not
    improved for fifty. Only depths whose partial mass lies in (0.05, 20)
    qualify as that iterate. When none does, or the best is depth 1 (no later
    depth improved on the first increment), it raises :class:`NumericsError`
    rather than return a partial sum that is no answer; it raises it before
    the sweep when the level budget completes no depth beyond the first.
    """
    rho = params.rho
    if rho >= 1.0:
        raise StabilityError(f"load {rho:.4f} >= 1; equilibrium does not exist")
    epsilon = max(epsilon, EPSILON_FLOOR)
    theta = theta_from_rho(rho, G)
    T = grid_truncation(rho * rho, epsilon)

    # one sweep up to level MAX_OUTER_ITERATIONS: the coefficient array holds
    # every depth up to the cap, and the mass increment dS_n of depth n is
    # read once it completes
    cap = MAX_OUTER_ITERATIONS - 2 * T
    if cap < 2:
        # depth 1 is never an answer, so no depth under the cap could be
        raise NumericsError(
            f"power series at load {rho:.4g} completes depth n at level n + {2 * T} on its "
            f"T = {T} grid, so the budget of {MAX_OUTER_ITERATIONS} levels completes no depth "
            f"beyond the first"
        )
    dS = np.zeros(cap + 1)
    rel_hist: list[float] = []
    best_n = 0
    best_rel = math.inf
    growth_streak = 0
    since_best = 0
    stop_reason = "cap"
    converged = False
    n_final = cap
    tpow = theta ** np.arange(cap + 2 * T + 1)
    KL = np.add.outer(range(T + 1), range(T + 1))
    for m, u in _sweep(G, T, cap, params.a):
        n_done = m - 2 * T
        if n_done < 0:
            continue
        dS[n_done] = (tpow[n_done + KL] * u[n_done]).sum()
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
    u = u[: n_final + 1]
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
