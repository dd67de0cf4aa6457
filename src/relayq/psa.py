"""Power-series reconstruction of the equilibrium distribution.

The equilibrium probabilities are expanded as a power series in the variable
theta = (1+G)*rho / (1+G*rho), a bilinear map of the load that stretches the
series' useful range toward saturation. Write the one-slot law as
P = (1 - lam) Q0 + lam Q1, with Q0 and Q1 the laws given no arrival and
given one (:func:`model.region_laws`); the balance equations pi (I - P) = 0
become pi (I - Q0) = (lam / (1 - lam)) pi (Q1 - I), and lam / (1 - lam) = rho / c
with c = (a^2 + (1-a)^2) / (2a(1-a)). Matching powers of theta gives one
recursion for the coefficient U_m of theta^m at every attempt probability a;
the normalization condition pins U_m(0, 0). The coefficients depend on a and
G only, not on the load. They are reported as u(n, k, l) = U_(n+k+l)(k, l).

U_m lives on the states of total t = 2k + l <= m, stored by (t, k) so that a
total is one row. Row t of U_m comes from a 3x3 stencil product of rows
t - 1 .. t + 1 of U_(m-1) and a step from row t + 1 of U_m, since Q0 keeps a
state or lowers its total by one. All of these are solved before wave
2m - t, the wave of row t of level m, so one wave solves a row of each of up
to _WAVE_LEVELS levels at once, laid side by side, and each term is one
array operation over the wave. The code fixes the order of every sum: an
entry adds its stencil terms move by move, over the moves with a weight
anywhere, and U_m(0, 0) is minus the row sums of level m, each a left fold
along k, added from row m down. Neither the schedule nor numpy's reduction
order moves a bit, so a level-by-level sweep gives the same coefficients.

A solve sweeps the levels once into one coefficient array u[n, k, l] and
reads each depth's series mass once, when the depth completes. One number
bounds a solve: the last level its sweep may reach, MAX_OUTER_ITERATIONS.
Depth n completes at level n + 2T, so the depth cap is
MAX_OUTER_ITERATIONS - 2T. Beside the coefficient array the sweep holds its
weights, one level and a ring of the four waves its stencil reads and writes,
a few megabytes.
"""
from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .grids import ProbabilityGrid
from .model import ModelParams, max_interior_residual, region_laws, truncation

__all__ = [
    "PsaDiagnostics",
    "PsaSolution",
    "theta_from_rho",
    "compute_coefficients",
    "evaluate",
    "solve",
]

MAX_OUTER_ITERATIONS = 500  # last level a solve may sweep; bounds its depth, time and memory
_IMPROVEMENT_PATIENCE = 50
_SETTLED = 1e-6  # largest change an unconverged answer may have; the tests hold PSA to CA within it
# largest balance residual of an answer where epsilon is smaller: answers within
# 1e-6 of CA reach 6.3e-9, those far from it at a large G at least 7.2e-8
_RESIDUAL_FLOOR = 2e-8
_WAVE_LEVELS = 32  # levels a wave solves one row of each; bounds a wave's width


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
    # "epsilon" | "cap" | "divergence": a non-finite change, or
    # _IMPROVEMENT_PATIENCE depths without a new smallest change
    stop_reason: str
    rel_change_history: tuple[float, ...]


@dataclass(frozen=True)
class PsaSolution:
    G: float
    u: np.ndarray  # coefficients on the box, shape (N_psa+1, T_k+1, T_l+1)
    N_psa: int
    T_psa: int  # side of the square the sweep solves, max(T_k, T_l)
    grid: ProbabilityGrid  # ProbabilityGrid.finished of the partial sum at theta
    diagnostics: PsaDiagnostics


def _lazy_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Float zeros in a fresh anonymous mapping, whose pages the kernel commits
    when they are first written. ``np.zeros`` may take recycled heap memory
    instead, which it must clear, and so commit, in full; which of the two it
    gets depends on the allocator's history in the process."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)


def _region(t, k):
    """Region 3 min(k, 1) + min(l, 2) of the state (k, l = t - 2k), 6 off the states."""
    l = t - 2 * k
    return np.where((k >= 0) & (l >= 0), 3 * np.minimum(k, 1) + np.minimum(l, 2), 6)


class _Weights:
    """The sweep's weights per destination state (t, k), each divided by its
    1 - Q0(stay): the weight in the right-hand side of the move into it from
    each source (kinds 0-8), and Q0's weights from the row above at the same k
    (kind 9) and at k + 1 (kind 10).

    A state's laws (Q0, Q1) depend only on its region: whether k = 0 and
    whether l is 0, 1 or at least 2. Every weight is thus a product of two
    values of :func:`model.region_laws`, the laws of every state bit for bit,
    its moves (dk, dl) read as moves (dt, dk) = (2dk + dl, dk) in (total, k).
    table[kind, t % 2] holds the rows t // 2 of the levels swept so far at one
    pitch, zero beyond each row; only rows laid out commit pages.
    """

    def __init__(self, G: float, a: float, last: int):
        by_region = region_laws(a).reshape(2, 6, 3, 5)  # first, as it rejects an a outside (0, 1)
        laws = np.zeros((2, 7, 9))  # [arrival, region, 3(dt + 1) + dk + 1]; region 6 is off the states
        for dk, dl in itertools.product(range(-1, 2), range(-2, 3)):
            if -1 <= 2 * dk + dl <= 1:  # a slot moves the total by at most one
                laws[:, :6, 3 * (2 * dk + dl + 1) + dk + 1] = by_region[:, :, dk + 1, dl + 2]
        self.q0, q1 = laws
        c = (a * a + (1.0 - a) ** 2) / (2.0 * a * (1.0 - a))
        stay = np.zeros_like(q1)
        stay[:6, 4] = 1.0
        self.rhs = ((q1 - stay) / c + G * (stay - self.q0)) / (1.0 + G)
        self.inv = np.ones(7)  # region 0 is row 0 alone, which the normalization sets
        self.inv[1:] = 1.0 / (1.0 - self.q0[1:, 4])
        self.moves = tuple(np.flatnonzero(self.rhs.any(axis=0)).tolist())  # at most 7 of the 9
        self.last, cols = last, last // 2 + 1
        self.table = _lazy_zeros((11, 2, cols * (cols + 2)))
        self.pitch = 0

    def rows(self, t0: int, t1: int) -> np.ndarray:
        """The weights of the rows t0 .. t1 by [kind, t - t0, k], zero beyond each row."""
        t, k = np.arange(t0, t1 + 1)[:, None], np.arange(t1 // 2 + 1)
        into = _region(t, k)
        inv = self.inv[into]
        rows = np.empty((11, t1 - t0 + 1, t1 // 2 + 1))
        for move in range(9):
            dt, dk = divmod(move, 3)  # the move (dt - 1, dk - 1), from (t + 1 - dt, k + 1 - dk)
            rows[move] = self.rhs[_region(t + 1 - dt, k + 1 - dk), move] * inv
        rows[9] = self.q0[_region(t + 1, k), 1] * inv
        rows[10] = self.q0[_region(t + 1, k + 1), 0] * inv
        return np.where(into < 6, rows, 0.0)

    def extend(self, m0: int, m1: int) -> None:
        """Lay out the rows of the levels m0 .. m1. Every row laid out moves to
        pitch m1 // 2 + 3: a row, its k + 1 read and a zero before the next."""
        rows = self.rows(m0, m1)
        old, P = self.pitch, m1 // 2 + 3
        kinds = (*self.moves, 9, 10)  # the other moves have no weight anywhere
        laid = (m0 - 1) // 2 + 1 if old else 0  # rows of each parity below m0
        for kind in kinds:
            for flat in self.table[kind]:
                # numpy copies the overlapping old rows aside before writing
                block = flat[: laid * P].reshape(laid, P)
                block[:, :old] = flat[: laid * old].reshape(laid, old)
                block[:, old:] = 0.0
        for p in (0, 1):
            first = m0 + (p - m0) % 2
            if first <= m1:
                table = self.table[:, p, first // 2 * P : ((m1 - p) // 2 + 1) * P].reshape(11, -1, P)
                for kind in kinds:
                    table[kind, :, : m1 // 2 + 1] = rows[kind, first - m0 : m1 - m0 + 1 : 2, : m1 // 2 + 1]
        self.pitch = P


def _sweep(G: float, T: int, depth: int, a: float = 0.5):
    """Yield (m, u) for the levels m = 0 .. depth + 2T.

    Level m is U_m, the coefficient of theta^m in the equilibrium law, on the
    states of total t = 2k + l <= m. With c = (a^2 + (1-a)^2) / (2a(1-a)), so
    that rho = c lam / (1 - lam), matching powers of theta in the balance
    equations gives
    U_m (I - Q0) = [U_(m-1) (Q1 - I) / c + G U_(m-1) (I - Q0)] / (1 + G),
    with U_0 = delta_(0,0) and U_m(0, 0) = -(sum of the others). Q0 keeps a
    state or lowers its total by one, so row t of U_m needs rows t - 1 .. t + 1
    of U_(m-1) and row t + 1 of U_m, and each of those is solved in an earlier
    wave than w = 2m - t, the wave of row t of level m. A wave solves one row
    of each of up to _WAVE_LEVELS levels, a chunk; the chunk's last level is
    held whole as the next chunk's boundary. The rows of a wave lie side by
    side at the chunk's pitch, one slot per level, in a ring of the waves
    w - 3 .. w, and the weights of rows t, t + 2, ... lie side by side in a
    table of one parity of t, so each term of the stencil product and of the
    row step is one array operation over the wave. Row 0 of level m comes
    last, at wave 2m.

    The order of every operation is fixed here, whatever the schedule: an
    entry adds the stencil terms move by move, over the moves with a weight
    anywhere, then takes the row step. U_m(0, 0) is minus a running total of
    the row sums of the other entries of level m, added as the waves
    complete the rows t = m down to 0. Each row sum is a left fold along k,
    so zeros beyond a row change no bit of the total, however many there
    are. A level-by-level sweep that takes the same definitions thus gets
    every bit of these coefficients.

    u[n, k, l] = U_(n+k+l)(k, l) for 0 <= n <= depth is one preallocated
    array; entry (n, k, l) is solved at wave 2n + l, and depth n is complete
    from level n + 2T on.
    """
    last = depth + 2 * T
    L = _WAVE_LEVELS
    weights = _Weights(G, a, last)
    table, pitch = weights.table, last // 2 + 3
    rhs, tap = np.empty(L * pitch), np.empty(L * pitch)
    # u, with room for a wave's view to step past k = 0 and k = T where the
    # mask of the write keeps it out; in_box[i, L + x] is 0 <= x + i <= T
    SN, SK = (T + 1) ** 2, T + 1
    spare = L * SK
    u_held = _lazy_zeros((2 * spare + (depth + 1) * SN,))
    u = u_held[spare : spare + (depth + 1) * SN].reshape(depth + 1, T + 1, T + 1)
    in_box = np.add.outer(np.arange(L), np.arange(-L, T + L + 1))
    in_box = (in_box >= 0) & (in_box <= T)
    held = _lazy_zeros((last + 1, pitch))  # the boundary level by (t, k), at first U_0
    held[0, 0] = u[0, 0, 0] = 1.0
    yield 0, u

    m0 = 1
    while m0 <= last:
        m1 = min(last, m0 + L - 1)
        weights.extend(m0, m1)
        P, slots = weights.pitch, m1 - m0 + 2  # slot 0 replays the boundary; level m is slot m - m0 + 1
        totals = np.zeros(m1 - m0 + 1)  # per level m - m0, the sum of its rows solved so far
        # The ring holds the waves w - 3 .. w that the stencil reads and
        # writes, wave v at the rows of v % 4; its edges keep views inside.
        edge = (T + 2 * L) // P + 2
        ring = _lazy_zeros(((2 * edge + 4 * slots) * P,))
        plain = ring.reshape(-1, P)

        def row(v: int, m: int) -> int:
            """Row of the ring of wave v's slot for level m."""
            return edge + v % 4 * slots + m - m0 + 1

        plain[row(m0 - 1, m0 - 1)] = held[m0 - 1, :P]
        # per move (dt - 1, dk - 1): its weights by parity of t, the wave it
        # reads, w - 3 + dt, as an index into back below, and its k shift
        terms = [(table[move, 0], table[move, 1], 2 - move // 3, 1 - move % 3) for move in weights.moves]
        for w in range(m0, 2 * m1 + 1):
            m_lo, m_hi = max(m0, (w + 1) // 2), min(m1, w)
            rows = m_hi - m_lo + 1
            span = rows * P
            t_lo = 2 * m_lo - w
            p, h = t_lo % 2, t_lo // 2 * P  # rows t_lo, t_lo + 2, ... of the weights
            x = row(w, m_lo)
            back = [row(w - ago, m_lo - 1) * P for ago in (1, 2, 3)]  # level m_lo - 1
            out, acc, tmp = ring[x * P : x * P + span], rhs[:span], tap[:span]
            with np.errstate(over="ignore", invalid="ignore"):
                # overflow near a diverging series is expected; the solver's
                # monitor sees it through the mass increments and stops.
                # U_(m-1) at the source (t + 1 - dt, k + 1 - dk) of the move
                # (dt - 1, dk - 1) into (t, k) was solved at wave w - 3 + dt.
                for i, (*by_parity, at, shift) in enumerate(terms):
                    s = back[at] + shift
                    np.multiply(by_parity[p][h : h + span], ring[s : s + span], out=tmp if i else acc)
                    if i:
                        np.add(acc, tmp, out=acc)
                # the row step, from row t + 1 of the same level at wave w - 1
                s = back[0] + P
                np.multiply(table[9, p, h : h + span], ring[s : s + span], out=out)
                np.add(out, acc, out=out)
                np.multiply(table[10, p, h : h + span], ring[s + 1 : s + 1 + span], out=tmp)
                np.add(out, tmp, out=out)
            # Beyond each row the weights are 0.0, so the entries are 0.0 times
            # a source: 0.0 wherever the sources are, which holds from two past
            # the row's end, where they are beyond their rows too, up to the
            # last column, whose k + 1 read is the next slot's k = 0. Row
            # t_lo + 2i ends at k = t_lo // 2 + i.
            s = x * P + t_lo // 2 + 1
            ring[s : s + rows * (P + 1)].reshape(rows, P + 1)[:, :2] = 0.0
            out.reshape(rows, P)[:, -1] = 0.0

            # each row's sum, a left fold, joins its level's total; row 0 of
            # level w / 2, the level's last, is minus the sum of the others
            if t_lo == 0:
                out[0] = 0.0
            cols = t_lo // 2 + rows  # the last row's length; only zeros lie beyond it
            folds = tmp[: rows * cols].reshape(rows, cols)
            np.cumsum(out.reshape(rows, P)[:, :cols], axis=1, out=folds)
            level = totals[m_lo - m0 : m_hi - m0 + 1]
            np.add(level, folds[:, -1], out=level)
            if t_lo == 0:
                out[0] = -level[0]

            # u[n, k, w - 2n] of level m = k + w - n: with i = m - m_lo, a
            # sheared (i, n) view of the wave, kept to 0 <= k <= T by a mask
            n_a = max(0, (w - T + 1) // 2, w - m_hi)
            n_b = min(depth, w // 2, T + w - m_lo)
            if n_a <= n_b:
                k0, width = n_a + m_lo - w, n_b - n_a + 1
                src = ring[x * P + k0 : x * P + k0 + rows * (P + 1)].reshape(rows, P + 1)[:, :width]
                dst = np.ndarray((rows, width), float, u_held,
                                 8 * (spare + n_a * SN + k0 * SK + w - 2 * n_a),
                                 (8 * SK, 8 * (SN + SK - 2)))
                np.copyto(dst, src, where=in_box[:rows, L + k0 : L + k0 + width])

            # slot 0 replays the boundary level: row 2 m0 - 2 - w at wave w
            t_held = 2 * m0 - 2 - w
            if t_held >= -1:
                plain[row(w, m0 - 1)] = held[t_held, :P] if t_held >= 0 else 0.0
            if w % 2 and m0 <= w // 2 < m1:
                # level (w - 1) / 2 ended at the last wave; its next level reads row -1 here
                plain[row(w, w // 2)] = 0.0
            if w >= m1:
                # the chunk's last level is the next chunk's boundary
                held[2 * m1 - w, :P] = plain[row(w, m1)]
            if w % 2 == 0 and w // 2 >= m0:
                yield w // 2, u
        m0 = m1 + 1
        ring = plain = out = src = None  # drop the chunk's ring, its views too, before the next


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


def _reconstruct(u: np.ndarray, theta: float) -> np.ndarray:
    """The values sum_n theta^(n+k+l) u(n,k,l) of coefficients u at series variable theta."""
    tpow = theta ** np.arange(sum(u.shape) - 2)  # up to N + T_k + T_l
    K, L = np.indices(u.shape[1:])
    vals = np.zeros(u.shape[1:])
    for n in range(len(u)):
        vals += tpow[n + K + L] * u[n]
    return vals


def evaluate(rho: float, solution: PsaSolution) -> ProbabilityGrid:
    """Reconstruct the grid sum_n theta^(n+k+l) u(n,k,l) at load ``rho``.

    The coefficients do not depend on the load, so a single solution can be
    re-evaluated across loads (within the series' convergence range).
    """
    return ProbabilityGrid(_reconstruct(solution.u, theta_from_rho(rho, solution.G)))


def solve(params: ModelParams, G: float = 1.0, epsilon: float = 1e-12) -> PsaSolution:
    """Run the series until the relative total-mass change drops below epsilon.

    One sweep of the levels writes the coefficients u(n, k, l) of every depth
    up to the cap into one array, and reads depth n's mass increment
    sum_(k,l) theta^(n+k+l) u(n, k, l) once, at level n + 2T, where it
    completes. The sweep stops at level MAX_OUTER_ITERATIONS at the latest,
    so the cap is MAX_OUTER_ITERATIONS - 2T depths. The result keeps the
    coefficients up to the depth it reports. Any attempt probability a works.

    The stopping rule compares the truncated-grid mass of successive series
    depths: the solve converges ("epsilon") at the first depth whose relative
    change is below epsilon. Otherwise the sweep runs to the cap ("cap"), or
    stops early ("divergence") at a non-finite change or after fifty depths
    without a new smallest change. An unconverged solve returns the depth
    of smallest change, flagged as not converged, only if that change is below
    1e-6, the bound within which PSA must agree with CA. Otherwise the series
    did not settle and its partial sums are no answer (Blanc 1992), so it
    raises :class:`NumericsError`; it raises it before the sweep when the
    level budget completes no depth beyond the first.

    :func:`relayq.model.truncation` gates the load and ``epsilon``, clamps
    ``epsilon`` at the 64-bit floor and sizes the box [0,T_k] x [0,T_l]; the
    sweep solves the square of side T = max(T_k, T_l). The answer is the
    partial sum on the box, finished by :meth:`ProbabilityGrid.finished`. A
    series can settle on a sum far from the equilibrium, as it does at a
    large G, so the solve also raises :class:`NumericsError` when the
    answer's largest balance residual exceeds max(epsilon, 2e-8).
    """
    T_k, T_l, epsilon = truncation(params, epsilon)
    T = max(T_k, T_l)
    rho = params.rho
    theta = theta_from_rho(rho, G)

    # one sweep up to level MAX_OUTER_ITERATIONS: the coefficient array holds
    # every depth up to the cap, and the mass increment dS_n of depth n is
    # read once it completes
    cap = MAX_OUTER_ITERATIONS - 2 * T
    if cap < 2:
        # depth 1's change, against depth 0 alone, is far above _SETTLED
        raise NumericsError(
            f"power series at load {rho:.4g} completes depth n at level n + {2 * T} on its "
            f"T = {T} grid, so the budget of {MAX_OUTER_ITERATIONS} levels completes no depth "
            f"beyond the first"
        )
    dS = np.zeros(cap + 1)
    rel_hist: list[float] = []
    best_n, best_rel = 0, math.inf
    stop_reason = "cap"
    tpow = theta ** np.arange(cap + 2 * T + 1)
    KL = np.add.outer(range(T_k + 1), range(T_l + 1))
    for m, u in _sweep(G, T, cap, params.a):
        n_done = m - 2 * T
        if n_done < 0:
            continue
        dS[n_done] = (tpow[n_done + KL] * u[n_done, : T_k + 1, : T_l + 1]).sum()
        if n_done < 1:
            continue
        running = float(dS[: n_done + 1].sum())
        rel = abs(dS[n_done]) / abs(running) if running != 0.0 else math.inf
        if not math.isfinite(rel):
            stop_reason = "divergence"
            break
        rel_hist.append(rel)
        if rel < epsilon:
            stop_reason, best_n, best_rel = "epsilon", n_done, rel
            break
        if rel < best_rel:
            best_n, best_rel = n_done, rel
        elif n_done - best_n >= _IMPROVEMENT_PATIENCE:
            stop_reason = "divergence"
            break
    if not (stop_reason == "epsilon" or best_rel < _SETTLED):
        raise NumericsError(
            f"power series did not settle at load {rho:.4g}, G = {G:g}: its smallest change "
            f"is {best_rel:.3g} (depth {best_n}), not below {_SETTLED:g} "
            f"(stop: {stop_reason} after {len(rel_hist)} depths)"
        )
    u = u[: best_n + 1, : T_k + 1, : T_l + 1]
    grid = ProbabilityGrid.finished(_reconstruct(u, theta))
    residual, bound = max_interior_residual(grid.values, params), max(epsilon, _RESIDUAL_FLOOR)
    if not residual <= bound:
        raise NumericsError(
            f"power series at load {rho:.4g}, G = {G:g} settled on a grid with balance residual "
            f"{residual:.3g}, above {bound:g} (depth {best_n}, stop: {stop_reason})"
        )
    return PsaSolution(
        G=G,
        u=u,
        N_psa=best_n,
        T_psa=T,
        grid=grid,
        diagnostics=PsaDiagnostics(
            stop_reason=stop_reason,
            rel_change_history=tuple(rel_hist),
        ),
    )
