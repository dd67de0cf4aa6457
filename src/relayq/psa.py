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
suffice. Within a level, states with k >= 1 are filled by anti-wavefronts
w = (k + l) + k from the top down, one array step per wavefront, since a state
reads only states of wavefront w + 1 at its own level; then the k = 0 column
from l = 1 upward, and finally the normalization entry (0, 0). A solve sweeps
the levels once: it monitors the series mass as depths complete and holds
the coefficient box of every depth up to its cap, which a byte budget bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
MAX_HELD_BYTES = 64 * 2**20  # level slabs and coefficient box of a solve; bounds its depth
_DIVERGENCE_PATIENCE = 10
_IMPROVEMENT_PATIENCE = 50


def __getattr__(name: str):
    # not called here: benchmarks/tracing.py, its only user, patches psa.lfilter;
    # importing it on first lookup keeps scipy out of the import
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


class _LevelMachine:
    """Exact coefficient slabs in diagonal-major layout slab[s, k] = u(m-s, k, s-k).

    Zero-extension for negative coefficient indices is automatic: a state
    outside a slab's triangle was never written at that level and the buffers
    start (and stay) zero there. The buffers grow with the levels reached; a
    row stride above m + 1 keeps the normalization sum's order fixed.
    """

    def __init__(self, G: float, levels: int, last: int):
        """Buffers for the levels m <= ``levels`` to start with, and never
        beyond ``last``, the last level to be computed."""
        self.G = G
        self.Gp = G + 1.0
        self.last = last
        self.size = 0
        self._grow(min(levels, last) + 3)

    def _grow(self, size: int) -> None:
        slabs = [np.zeros((size, size)) for _ in range(2)]
        if self.size:
            slabs[0][: self.size, : self.size] = self.prev
            slabs[1][: self.size, : self.size] = self.cur
        self.prev, self.cur = slabs
        # prev-only products of the k >= 1 recursion, refreshed once per level
        self.products = [np.zeros((size, size)) for _ in range(4)]
        self.tmp = np.empty(size)
        self.size = size

    def advance(self, m: int) -> np.ndarray:
        """Compute level m (requires calls with m = 0, 1, 2, ...); returns the slab."""
        if m + 3 > self.size:
            self._grow(min(max(m, self.size + self.size // 4), self.last) + 3)
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
        # States with k >= 1 go by anti-wavefronts w = s + k from the top down:
        # (s, k) reads (s+1, k) and (s, k+1) of this level, both on wavefront
        # w + 1, so a wavefront is one step. Each entry adds its terms in the
        # order of the per-state formulas; the recursion amplifies round-off,
        # so another order gives other coefficients.
        c1, c2, c3, c4 = (G - 1.5) / Gp, 0.5 * G / Gp, 1.0 / Gp, 0.5 / Gp
        c5, c6 = (G - 1.0) / Gp, G / Gp
        top = slice(0, m + 2)
        for prod, c in zip(self.products, (c1, c2, c3, c4)):
            np.multiply(prev[top, top], c, out=prod[top, top])
        f1, f2, f3, f4 = (prod.ravel() for prod in self.products)
        cf, tmp = cur.ravel(), self.tmp
        S = self.size
        D = S - 1  # flat stride along a wavefront, k decreasing
        d0 = prev.diagonal()[: m + 2].tolist()  # prev[s, s]
        d1 = prev.diagonal(-1)[: m + 2].tolist()  # prev[s + 1, s]
        d2 = prev.diagonal(-2)[: m + 2].tolist()  # prev[s + 2, s]
        d3 = prev.diagonal(-3)[: m + 2].tolist()  # prev[s + 3, s]
        l0 = l1 = 0.0  # the edge entries cur[s, s] and cur[s + 1, s] one wavefront up
        for w in range(2 * m, 1, -1):
            if w % 2 == 0:
                # state (s, 0): diagonal entry cur[s, s]
                s = w // 2
                l0 = (
                    c1 * d0[s]
                    + 0.5 * l1
                    - c2 * d1[s]
                    + c4 * d2[s - 1]
                    + c3 * d1[s - 1]
                )
                cur[s, s] = l0
            elif w >= 3:
                # state (s-1, 1): cur[s, s-1]
                s = (w + 1) // 2
                l1 = (
                    c5 * d1[s - 1]
                    + 0.5 * cur.item(s + 1, s - 1)
                    - c2 * d2[s - 1]
                    + c4 * d3[s - 2]
                    + c3 * d2[s - 2]
                    - c6 * d0[s]
                    + c3 * d0[s - 1]
                    + l0
                )
                cur[s, s - 1] = l1
            # states (k, l >= 2) of the wavefront, k from k_hi down to k_lo
            k_hi = (w - 2) // 2
            n = k_hi - max(1, w - m) + 1
            if n <= 0:
                continue
            i0 = (w - k_hi) * S + k_hi
            i1 = i0 + n * D
            half = 0.5 * cf[i0 + 1 : i1 + S : D]  # 0.5 * wavefront w + 1
            a = np.add(f1[i0:i1:D], half[1:], out=tmp[:n])
            np.subtract(a, f2[i0 + S : i1 + S : D], out=a)
            np.add(a, f3[i0 - 1 : i1 - 1 : D], out=a)
            np.add(a, f4[i0 + D : i1 + D : D], out=a)
            np.subtract(a, f2[i0 + 1 : i1 + 1 : D], out=a)
            if w % 2 == 0:
                # l = 2 tap from the diagonal row below (only the k = k_hi entry)
                a[0] += c4 * d0[w // 2]
            np.add(a, half[:-1], out=cf[i0:i1:D])
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


def _sweep(G: float, T: int, depth: int):
    """Yield (m, block, held) for the levels m = 0 .. depth + 2T.

    block[k, l] = u(m-k-l, k, l) is level m's T-box; entries with k + l > m
    read slab rows that level m never wrote, so they are zero. held[n] is the
    flat (k, l) box of depth n <= min(m, depth), filled up to k + l = m - n.
    """
    machine = _LevelMachine(G, 2 * T, depth + 2 * T)
    K, L = np.indices((T + 1, T + 1))
    KL = K + L
    # diagonal k + l = s of a flat (k, l) box: k = max(0, s-T) .. min(s, T), stride T
    diagonals = [
        slice(s + max(0, s - T) * T, s + min(s, T) * T + 1, max(T, 1)) for s in range(2 * T + 1)
    ]
    held: list[np.ndarray] = []
    for m in range(depth + 2 * T + 1):
        block = machine.advance(m)[KL, K]
        if m <= depth:
            held.append(np.zeros((T + 1) ** 2))
        flat = block.ravel()
        for s in range(max(m - depth, 0), min(m, 2 * T) + 1):
            held[m - s][diagonals[s]] = flat[diagonals[s]]
        yield m, block, held


def compute_coefficients(N_psa: int, T_psa: int, G: float) -> np.ndarray:
    """Exact coefficient array u(n, k, l), 0 <= n <= N_psa, 0 <= k, l <= T_psa.

    u(0, 0, 0) = 1 by the normalization condition; spatially out-of-range
    references are zero. Only the half-attempt model is represented.
    """
    if N_psa < 0 or T_psa < 0:
        raise ValueError("truncations must be non-negative")
    if not (math.isfinite(G) and G >= 0.0):
        raise ValueError(f"acceleration parameter must be finite and >= 0, got {G}")
    for _, _, held in _sweep(G, T_psa, N_psa):
        pass
    return np.reshape(held, (N_psa + 1, T_psa + 1, T_psa + 1))


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

    One sweep of the levels checks each depth's mass as it completes and holds
    the coefficient box u(n, k, l) of every depth up to the cap: the largest
    depth up to MAX_OUTER_ITERATIONS whose six level slabs and held boxes fit
    in MAX_HELD_BYTES. The result keeps the box up to the depth it reports.

    The stopping rule compares the truncated-grid mass of successive series
    depths. Near saturation the series stops converging before reaching
    epsilon (the radius of the accelerated series is finite); the solver then
    keeps the best iterate seen — minimum relative change — and flags the
    result as not converged, aborting early when the relative change has
    grown for ten consecutive depths or at the iteration cap. Only depths
    whose partial mass lies in (0.05, 20) qualify as that iterate. When none
    does, or the best is depth 1 (no later depth improved on the first
    increment), it raises :class:`NumericsError` rather than return a partial
    sum that is no answer; it raises it before the sweep when the budget holds
    no depth beyond the first.
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

    # one sweep: per-depth mass increments dS_n, monitored as levels complete,
    # while the held box keeps the coefficients of every depth up to the cap
    def sweep_bytes(depth: int) -> int:
        # six level slabs of side depth + 2T + 3 and the boxes of depths 0 .. depth
        return 48 * (depth + 2 * T + 3) ** 2 + 8 * (depth + 1) * (T + 1) ** 2

    cap = MAX_OUTER_ITERATIONS
    while cap >= 2 and sweep_bytes(cap) > MAX_HELD_BYTES:
        cap -= 1
    if cap < 2:
        # depth 1 is never an answer, so no depth under the cap could be
        raise NumericsError(
            f"power series at load {rho:.4g} needs {sweep_bytes(2) / 2**20:.3g} MiB for six level "
            f"slabs of side {2 * T + 5} and three held depths on its T = {T} grid, above the "
            f"{MAX_HELD_BYTES / 2**20:g} MiB budget"
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
    K, L = np.indices((T + 1, T + 1))
    s_flat = (K + L).ravel()
    for m, block, held in _sweep(G, T, cap):
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
    u = np.reshape(held[: n_final + 1], (n_final + 1, T + 1, T + 1))
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
