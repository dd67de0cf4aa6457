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
from .grids import ProbabilityGrid
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
    fixed_l_estimates: dict[int, float | None]  # ratio along k, per l in _FIXED_L
    marginal_estimate: float | None  # None where the tail has no mass to divide by


_FIXED_L = (0, 1, 3)  # the columns l whose decay along k is reported
_DECAY_SIDE = 24  # decay_diagnostics reads rows k = max(T_k, _DECAY_SIDE) - 3 and the next
_MASS_TOL = 1e-6  # how far from 1 the mass of a grid may lie


def _tail_ratios(*tails: np.ndarray) -> list[float | None]:
    """tail[1] / tail[0] of each pair of values at consecutive rows k, k + 1;
    None unless both entries are normal floats, since a subnormal entry has
    lost the digits of its ratio."""
    tiny = np.finfo(float).tiny
    return [float(t[1] / t[0]) if t[0] >= tiny and t[1] >= tiny else None for t in tails]


def moments_from_transformed(grid: ProbabilityGrid, params: ModelParams) -> MeasureReport:
    """Expected totals, sojourn time, and relay correlation from a (k, l) grid."""
    tot = grid.total()
    if not abs(tot - 1.0) <= _MASS_TOL:  # a NaN mass is not within it
        raise GridError(f"grid is not normalized: mass {tot!r}")
    pi = grid.values
    K, L = np.arange(pi.shape[0])[:, None], np.arange(pi.shape[1])
    e_qsum = float(((2 * K + L) * pi).sum())
    e_soj = e_qsum / params.lam
    mu = e_qsum / 2.0
    e_sq = float(((K**2 + (K + L) ** 2) * pi).sum()) / 2.0
    var = e_sq - mu * mu
    e_q1q2 = float((K * (K + L) * pi).sum())
    scale = 1.0 + mu * mu
    correlation = None if var <= 1e-12 * scale else (e_q1q2 - mu * mu) / var
    rows = pi[-4:-2]  # k = T_k - 3 and T_k - 2
    decay, marginal = _tail_ratios(rows[:, 0], rows.sum(axis=1)) if len(pi) > 6 else (None, None)
    return MeasureReport(
        e_qsum=e_qsum,
        e_sojourn=e_soj,
        correlation=correlation,
        decay_ratio=decay,
        marginal_min_decay=marginal,
    )


def decay_diagnostics(params: ModelParams, epsilon: float = 1e-12) -> DecayDiagnostics:
    """Geometric decay ratios pi(k+1,l)/pi(k,l) and the marginal-min ratio.

    Both converge to rho^2 as k grows. They are read off CA's series
    (:func:`relayq.compensation.converged_series`), which needs no grid, at
    rows k = K and K + 1 with K = max(T_k, _DECAY_SIDE) - 3: deep enough for
    the leading term to dominate, and the rows that a grid of max(T_k,
    _DECAY_SIDE) levels held a few states inside its edge. The fixed-l ratios
    read the series at l in ``_FIXED_L``; the marginal ratio reads the rows'
    sums over l <= max(T_l, _DECAY_SIDE), summed in closed form
    (:func:`relayq.compensation.outer_row_sums`), so no row of T_l values is
    formed. An estimate is None where the series there has no normal mass (it
    is subnormal or underflows at light loads).
    """
    series, (T_k, T_l), *_ = compensation.converged_series(params, epsilon)
    side = max(T_k, _DECAY_SIDE)
    k = np.arange(side - 3.0, side - 1.0)
    rows = compensation.outer_values(series, k, max(_FIXED_L))
    sums = compensation.outer_row_sums(series, k, max(T_l, _DECAY_SIDE))
    *fixed, marginal = _tail_ratios(*(rows[:, l] for l in _FIXED_L), sums)
    return DecayDiagnostics(
        expected=params.rho**2,
        fixed_l_estimates=dict(zip(_FIXED_L, fixed)),
        marginal_estimate=marginal,
    )


def single_server_mean_queue(lam: float, a: float) -> float:
    """Mean queue length of the matching single-server slotted queue.

    Same early-arrival timing, arrival probability lam, one relay attempting
    with probability a (a lone relay never collides). The queue is a
    birth-death chain that grows with probability up = lam (1 - a) (an
    arrival, no departure) and shrinks with down = (1 - lam) a, so its law is
    geometric with ratio r = up / down and mean r / (1 - r). That equals
    lam (1 - a) / (a - lam), which avoids the cancellation in 1 - r near
    saturation.
    """
    if not lam < a:
        raise StabilityError(f"single-server system unstable: lam={lam} >= a={a}")
    return lam * (1.0 - a) / (a - lam)


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
    return SingleServerComparison(a_minus=a_minus, a_plus=a_plus, rows=tuple(rows))
