"""Performance measures derived from an equilibrium grid, and the
single-server routing comparison.

All first and second moments of (Q1, Q2) are available from the transformed
grid through the exchange symmetry of the relays:

    Q1 + Q2 = 2k + l,   Q1*Q2 = k(k + l),   Q1^2 + Q2^2 = k^2 + (k + l)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, StabilityError
from .grids import TRANSFORMED, ProbabilityGrid
from .model import ModelParams
from . import compensation
# not called here: benchmarks/tracing.py, its only user, patches measures.gth_stationary
from .oracle import gth_stationary  # noqa: F401

__all__ = [
    "MeasureReport",
    "DecayDiagnostics",
    "SingleServerRow",
    "SingleServerComparison",
    "moments_from_transformed",
    "decay_diagnostics",
    "single_server_mean_queue",
    "single_server_comparison",
    "jsrq_stability_interval",
]


@dataclass(frozen=True)
class MeasureReport:
    e_qsum: float
    e_sojourn: float                 # slots; equals e_qsum / lam by construction
    correlation: float | None        # None when the distribution has no variance
    decay_ratio: float | None        # estimated lim pi(k+1,l)/pi(k,l)
    marginal_min_decay: float | None


@dataclass(frozen=True)
class DecayDiagnostics:
    expected: float                      # rho^2
    fixed_l_estimates: dict[int, float | None]  # ratio near the truncation edge, per l in _FIXED_L
    marginal_estimate: float | None  # None where the tail has no mass to divide by


_FIXED_L = (0, 1, 3)  # the columns l whose decay along k is reported


def _check_normalized(grid: ProbabilityGrid, tol: float = 1e-6) -> np.ndarray:
    if grid.coords != TRANSFORMED:
        raise GridError("measures expect a grid in transformed (min, diff) coordinates")
    tot = grid.total()
    if abs(tot - 1.0) > tol:
        raise GridError(f"grid is not normalized: mass {tot!r}")
    return grid.clipped().normalized().values


def _tail_ratio(values: np.ndarray, k: int) -> float | None:
    """values[k+1] / values[k], or None unless both entries are positive."""
    if values[k] > 0 and values[k + 1] > 0:
        return float(values[k + 1] / values[k])
    return None


def moments_from_transformed(grid: ProbabilityGrid, params: ModelParams) -> MeasureReport:
    """Expected totals, sojourn time, and relay correlation from a (k, l) grid."""
    pi = _check_normalized(grid)
    T = grid.T
    K, L = np.meshgrid(np.arange(T + 1), np.arange(T + 1), indexing="ij")
    e_qsum = float(((2 * K + L) * pi).sum())
    e_soj = e_qsum / params.lam
    mu = e_qsum / 2.0
    e_sq = float(((K**2 + (K + L) ** 2) * pi).sum()) / 2.0
    var = e_sq - mu * mu
    e_q1q2 = float((K * (K + L) * pi).sum())
    scale = 1.0 + mu * mu
    correlation = None if var <= 1e-12 * scale else (e_q1q2 - mu * mu) / var

    decay = marginal = None
    if T >= 6:
        decay = _tail_ratio(pi[:, 0], T - 3)
        marginal = _tail_ratio(pi.sum(axis=1), T - 3)
    return MeasureReport(
        e_qsum=e_qsum,
        e_sojourn=e_soj,
        correlation=correlation,
        decay_ratio=decay,
        marginal_min_decay=marginal,
    )


def decay_diagnostics(grid: ProbabilityGrid, params: ModelParams) -> DecayDiagnostics:
    """Geometric decay ratios pi(k+1,l)/pi(k,l) and the marginal-min ratio.

    Both converge to rho^2 as k grows; the estimates are taken a few states
    inside the truncation edge where the limit has set in but edge effects
    have not. An estimate is None where the tail there carries no mass.
    """
    pi = _check_normalized(grid)
    T = grid.T
    if T < 20:
        raise GridError(f"decay diagnostics need a grid with T >= 20, got {T}")
    k_probe = T - 3
    return DecayDiagnostics(
        expected=params.rho**2,
        fixed_l_estimates={l: _tail_ratio(pi[:, l], k_probe) for l in _FIXED_L},
        marginal_estimate=_tail_ratio(pi.sum(axis=1), k_probe),
    )


def single_server_mean_queue(lam: float, a: float, epsilon: float = 1e-14) -> float:
    """Mean queue length of the matching single-server slotted queue.

    Same early-arrival timing, arrival probability lam, one relay attempting
    with probability a (a lone relay never collides). Computed from its own
    birth-death chain rather than a textbook formula, so the slot conventions
    stay aligned with the two-relay model: the chain is truncated at the
    first T >= 10 with r^T <= epsilon (reflecting at T), where r is the ratio
    of its up and down steps, and detailed balance gives the truncated
    chain's stationary law pi(q) proportional to r^q exactly, in O(T).
    """
    if not lam < a:
        raise StabilityError(f"single-server system unstable: lam={lam} >= a={a}")
    up = lam * (1.0 - a)          # arrival retained: queue grows
    down = (1.0 - lam) * a        # departure without replacement
    r = up / down                 # geometric load of the birth-death chain
    T = max(int(math.ceil(math.log(epsilon) / math.log(r))), 10) if r > 0 else 10
    q = np.arange(T + 1)
    pi = r**q
    return float(pi @ q / pi.sum())


def jsrq_stability_interval(lam: float) -> tuple[float, float]:
    """Attempt probabilities (a-, a+) for which the two-relay system is stable."""
    if lam >= 0.5:
        raise StabilityError(f"no attempt probability stabilizes lam={lam} >= 1/2")
    root = math.sqrt(1.0 - 2.0 * lam)
    return ((1.0 - root) / 2.0, (1.0 + root) / 2.0)


@dataclass(frozen=True)
class SingleServerRow:
    a: float
    single_stable: bool
    jsrq_stable: bool
    single_mean_queue: float | None
    jsrq_mean_total: float | None


@dataclass(frozen=True)
class SingleServerComparison:
    lam: float
    a_minus: float
    a_plus: float
    rows: tuple[SingleServerRow, ...]


def single_server_comparison(
    lam: float, a_grid: tuple[float, ...] | list[float], epsilon: float = 1e-12
) -> SingleServerComparison:
    """Side-by-side expected totals: two relays under JSRQ vs one server.

    The systems share lam and a; they perform identically at a = 1/2, the
    two-relay network wins for a < 1/2 and loses for a > 1/2. Raises when
    lam >= 1/2, where the two-relay stability region is empty.
    """
    a_minus, a_plus = jsrq_stability_interval(lam)
    rows = []
    for a in a_grid:
        # bool(): a numpy float in a_grid would make these numpy.bool_
        single_ok = bool(lam < a)
        jsrq_ok = bool(a_minus < a < a_plus)
        single_eq = single_server_mean_queue(lam, a) if single_ok else None
        if jsrq_ok:
            params = ModelParams(lam=lam, a=a)
            result = compensation.solve(params, epsilon=epsilon)
            jsrq_eq = moments_from_transformed(result.grid, params).e_qsum
        else:
            jsrq_eq = None
        rows.append(
            SingleServerRow(
                a=a,
                single_stable=single_ok,
                jsrq_stable=jsrq_ok,
                single_mean_queue=single_eq,
                jsrq_mean_total=jsrq_eq,
            )
        )
    return SingleServerComparison(lam=lam, a_minus=a_minus, a_plus=a_plus, rows=tuple(rows))
