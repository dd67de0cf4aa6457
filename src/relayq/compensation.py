"""Equilibrium distribution of the transformed chain by boundary compensation.

The interior balance equations are satisfied by product forms gamma^k delta^l
whose parameters lie on a cubic kernel curve. Starting from gamma_0 = rho^2,
alternately repairing the vertical-boundary error (which fixes a new gamma
for the current delta) and the horizontal-boundary error (which fixes a new
delta plus the l in {0, 1} boundary coefficients) produces a geometrically
convergent series of product-form terms. The series gives every state
outside the box [0,2]^2 at the origin; a direct linear solve of the balance
equations on that box supplies (0,0), (0,1) and (0,2), which lie outside both
series regimes, together with their neighbours, and a single normalization
finishes the job.

The roots come from the kernel's algebra: kernel/gamma^2 is a convex cubic
in delta/gamma, whose root Newton's method reaches monotonically from the
small root of its quadratic part (:func:`delta_root`), and kernel/delta^2 is
a quadratic in gamma/delta with a cancellation-free small root
(:func:`gamma_root`). Terms shrink by the ratio w/w_hat of the kernel's limit
roots (:func:`asymptotic_ratios`), so the series takes
n = max(ceil(log(epsilon)/log(w/w_hat)), 1) terms.

The kernel and the boundary equations behind the coefficients are written
in closed form here, because they are the method. The inner-box equations
are not: they come from the chain's inflow operator
(:func:`relayq.model.transformed_inflows`, built from the one-step law),
and the series values on the states around the box feed them through the
operator's tap block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericsError, StabilityError
from .grids import TRANSFORMED, ProbabilityGrid
from .model import EPSILON_FLOOR, ModelParams, grid_truncation, transformed_inflows

__all__ = [
    "CompensationSeries",
    "CompensationResult",
    "kernel_residual",
    "kernel_scale",
    "initial_gamma",
    "delta_root",
    "gamma_root",
    "vertical_coefficient",
    "horizontal_coefficients",
    "leading_boundary_coefficients",
    "compute_series",
    "asymptotic_ratios",
    "solve",
]

# side of the origin box [0,2]^2 solved from its own balance equations: it holds
# (0,0), (0,1) and (0,2), the states outside both series regimes, and their neighbours
INNER_BOX = 2

_NEWTON_CAP = 50  # delta_root needs at most 6 steps over 1,000 random stable points


@dataclass(frozen=True)
class CompensationSeries:
    """Root and coefficient sequences of the compensation expansion.

    Index i runs over compensation steps: ``gammas`` holds gamma_0..gamma_{N+1}
    (one past the last delta, since the pair form couples c_{i+1} gamma_{i+1}
    with delta_i), ``deltas``/``d`` hold index 0..N, ``c[i]`` stores c_{i+1},
    and ``e0``/``e1`` hold the l in {0, 1} boundary coefficients including the
    leading term's own pair at index 0.
    """

    gammas: np.ndarray
    deltas: np.ndarray
    d: np.ndarray
    c: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    normalization: float = float("nan")

    @property
    def n_terms(self) -> int:
        return len(self.deltas) - 1


@dataclass(frozen=True)
class CompensationResult:
    series: CompensationSeries
    grid: ProbabilityGrid
    T: int
    inner_box: int
    n_used: int
    epsilon_requested: float
    epsilon_used: float
    last_term_change: float  # share of the unnormalized mass the last series term moves


def kernel_residual(gamma: float, delta: float, params: ModelParams) -> float:
    """LHS - RHS of the interior product-form (kernel) equation."""
    p = params
    lhs = (1.0 - p.p_hold) * gamma * delta
    rhs = (p.p_dep * gamma + p.p_fwd) * delta**2 + p.p_both * delta**3 + p.p_dep * gamma**2
    return lhs - rhs


def kernel_scale(gamma: float, delta: float, params: ModelParams) -> float:
    """Magnitude of the largest kernel monomial; reference for relative residuals."""
    p = params
    return max(
        abs((1.0 - p.p_hold) * gamma * delta),
        abs((p.p_dep * gamma + p.p_fwd) * delta**2),
        abs(p.p_both * delta**3),
        abs(p.p_dep * gamma**2),
    )


def initial_gamma(params: ModelParams) -> float:
    """Starting decay rate gamma_0 = rho^2 (requires a stable system)."""
    rho = params.rho
    if rho >= 1.0:
        raise StabilityError(f"load {rho:.4f} >= 1; equilibrium does not exist")
    return rho * rho


def _small_root(a2: float, a1: float, a0: float) -> float:
    """Smaller root of a2*y^2 - a1*y + a0 = 0 (a2, a0 > 0, a1 > 0).

    Written as 2*a0 / (a1 + sqrt(a1^2 - 4*a2*a0)), which adds two positive
    numbers and so keeps full relative accuracy however small the root.
    """
    disc = a1 * a1 - 4.0 * a2 * a0
    if not disc > 0.0:
        raise NumericsError(f"kernel quadratic has no two real roots (discriminant {disc:.3e})")
    return 2.0 * a0 / (a1 + math.sqrt(disc))


def delta_root(gamma: float, params: ModelParams) -> float:
    """The unique delta in (0, gamma/2) on the kernel curve for fixed gamma.

    With x = delta/gamma, -kernel/gamma^2 is f(x) = c3 x^3 + c2 x^2 - c1 x + c0,
    c3 = p_both*gamma, c2 = p_dep*gamma + p_fwd, c1 = 1 - p_hold, c0 = p_dep.
    f is convex on x > 0 with f(0) > 0, so f > 0 > f' left of its smallest
    positive root x*, and every tangent there meets zero in (x, x*]: Newton
    rises monotonically to x* from the small root of the quadratic part,
    where f = c3 x^3 > 0. The first step that does not increase x ends it.
    """
    if not (0.0 < gamma < 1.0):
        raise NumericsError(f"gamma must be in (0,1), got {gamma}")
    p = params
    c3, c2, c1, c0 = p.p_both * gamma, p.p_dep * gamma + p.p_fwd, 1.0 - p.p_hold, p.p_dep
    x = _small_root(c2, c1, c0)
    for _ in range(_NEWTON_CAP):
        step = (((c3 * x + c2) * x - c1) * x + c0) / ((3.0 * c3 * x + 2.0 * c2) * x - c1)
        if not x - step > x:
            return x * gamma
        x -= step
    raise NumericsError(f"delta root not converged in {_NEWTON_CAP} steps at gamma={gamma!r}")


def gamma_root(delta: float, params: ModelParams) -> float:
    """The unique gamma in (0, 0.8*delta) on the kernel curve for fixed delta.

    With y = gamma/delta, kernel/delta^2 is the quadratic
    -(p_dep y^2 - (1 - p_hold - p_dep*delta) y + p_fwd + p_both*delta); gamma
    is delta times its small root.
    """
    if not (0.0 < delta < 1.0):
        raise NumericsError(f"delta must be in (0,1), got {delta}")
    p = params
    a1 = 1.0 - p.p_hold - p.p_dep * delta
    return delta * _small_root(p.p_dep, a1, p.p_fwd + p.p_both * delta)


def vertical_coefficient(
    gamma_i: float, gamma_ip1: float, delta_i: float, d_i: float, params: ModelParams
) -> float:
    """Coefficient c_{i+1} pairing gamma_{i+1} with delta_i on the k = 0 column.

    Chosen so that d_i gamma_i^k delta_i^l + c_{i+1} gamma_{i+1}^k delta_i^l
    satisfies the vertical-boundary balance equations (l >= 3).
    """
    p = params
    base = delta_i * (1.0 - p.lbar * p.abar - p.p_both) - p.lbar * p.a * delta_i**2
    num = base - p.p_dep * gamma_i
    den = base - p.p_dep * gamma_ip1
    if den == 0.0 or not math.isfinite(den):
        raise NumericsError(
            f"vertical compensation denominator vanished at gamma={gamma_ip1!r}, delta={delta_i!r}"
        )
    return -num / den * d_i


def _horizontal_rows(gamma: float, params: ModelParams) -> np.ndarray:
    """Rows of the l in {0,1,2} balance equations acting on (e0, e1)."""
    p = params
    return np.array(
        [
            [gamma * (1.0 - p.p_hold), -(gamma * p.p_dep + p.p_fwd)],
            [-gamma * (p.p_fwd + 2.0 * gamma * p.p_dep), gamma * (1.0 - p.p_hold - p.p_both)],
            [gamma**2 * p.p_both, gamma**2 * p.p_dep],
        ]
    )


def _product_term_rows(gamma: float, delta: float, params: ModelParams) -> np.ndarray:
    """Same three equations acting on a product-form coefficient times delta^2."""
    p = params
    return np.array(
        [
            p.p_both,
            gamma * p.p_dep + p.p_fwd + delta * p.p_both,
            gamma * (1.0 - p.p_hold)
            - gamma * delta * p.p_dep
            - delta * p.p_fwd
            - delta**2 * p.p_both,
        ]
    )


def leading_boundary_coefficients(
    gamma0: float, delta0: float, d0: float, params: ModelParams
) -> tuple[float, float]:
    """Boundary coefficients (e0, e1) of the leading term d0 gamma0^k delta0^l.

    Three horizontal balance equations constrain two unknowns; the system is
    consistent precisely because gamma0 = rho^2 (the level-crossing argument
    behind the starting value). Solved by least squares with a consistency
    check, so parameter points where the geometry degenerates are reported
    instead of silently mis-solved.
    """
    M = _horizontal_rows(gamma0, params)
    r = _product_term_rows(gamma0, delta0, params) * d0 * delta0**2
    # the rows differ in scale by powers of gamma0 = rho^2; equilibrate them
    row_scale = np.max(np.abs(M), axis=1)
    M, r = M / row_scale[:, None], r / row_scale
    sol, *_ = np.linalg.lstsq(M, r, rcond=None)
    resid = float(np.linalg.norm(M @ sol - r))
    scale = float(np.linalg.norm(r)) + 1e-300
    if resid > 1e-9 * scale:
        raise NumericsError(
            f"leading-term boundary system inconsistent (residual {resid:.3e}); "
            "is gamma0 = rho^2 satisfied?"
        )
    return float(sol[0]), float(sol[1])


def horizontal_coefficients(
    gamma_ip1: float,
    delta_i: float,
    delta_ip1: float,
    c_ip1: float,
    params: ModelParams,
) -> tuple[float, float, float]:
    """Solve for (e0_{i+1}, e1_{i+1}, d_{i+1}) of one horizontal repair step.

    The combined term c_{i+1} gamma^k delta_i^l + d_{i+1} gamma^k delta_{i+1}^l
    (l >= 2) with boundary values e0 gamma^k, e1 gamma^k must satisfy the three
    horizontal balance equations; that is a 3x3 linear system.
    """
    M = np.zeros((3, 3))
    M[:, :2] = _horizontal_rows(gamma_ip1, params)
    M[:, 2] = -_product_term_rows(gamma_ip1, delta_ip1, params) * delta_ip1**2
    r = _product_term_rows(gamma_ip1, delta_i, params) * c_ip1 * delta_i**2
    try:
        sol = np.linalg.solve(M, r)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"horizontal repair system singular: {exc}") from exc
    resid = float(np.max(np.abs(M @ sol - r)))
    if not np.all(np.isfinite(sol)) or resid > 1e-8 * (np.max(np.abs(r)) + 1e-300):
        raise NumericsError("horizontal repair system ill-conditioned")
    return float(sol[0]), float(sol[1]), float(sol[2])


def compute_series(params: ModelParams, n_terms: int) -> CompensationSeries:
    """Roots and coefficients through compensation step ``n_terms``."""
    g0 = initial_gamma(params)
    gammas = [g0]
    deltas = [delta_root(g0, params)]
    d = [1.0]
    c: list[float] = []
    e0_0, e1_0 = leading_boundary_coefficients(g0, deltas[0], d[0], params)
    e0 = [e0_0]
    e1 = [e1_0]
    for i in range(n_terms + 1):
        gammas.append(gamma_root(deltas[i], params))
        c.append(vertical_coefficient(gammas[i], gammas[i + 1], deltas[i], d[i], params))
        if i == n_terms:
            break
        deltas.append(delta_root(gammas[i + 1], params))
        e0i, e1i, di = horizontal_coefficients(
            gammas[i + 1], deltas[i], deltas[i + 1], c[i], params
        )
        e0.append(e0i)
        e1.append(e1i)
        d.append(di)
    return CompensationSeries(
        gammas=np.array(gammas),
        deltas=np.array(deltas),
        d=np.array(d),
        c=np.array(c),
        e0=np.array(e0),
        e1=np.array(e1),
    )


def asymptotic_ratios(params: ModelParams) -> tuple[float, float]:
    """Limit ratios (w, w_hat) of successive kernel roots.

    Roots of p_fwd*w^2 - (1 - p_hold)*w + p_dep = 0, the gamma -> 0 limit of
    the quadratic part of :func:`delta_root`'s cubic; w lies inside the unit
    circle and w_hat = p_dep/(p_fwd*w) outside. Successive root ratios
    satisfy delta_i/gamma_i -> w and gamma_{i+1}/delta_i -> 1/w_hat, so the
    series terms shrink like (w/w_hat)^i.
    """
    if params.rho >= 1.0:
        raise StabilityError("ratio limits require a stable system")
    p = params
    w = _small_root(p.p_fwd, 1.0 - p.p_hold, p.p_dep)
    return w, p.p_dep / (p.p_fwd * w)


def _series_values_l2plus(series: CompensationSeries, n: int, ks: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Partial series over pair terms for rows l >= 2: sum_i (d_i g_i^k + c_i g_{i+1}^k) delta_i^l."""
    g = series.gammas
    gk = np.power.outer(g[: n + 2], ks.astype(float))   # (n+2, K)
    dl = np.power.outer(series.deltas[: n + 1], ls.astype(float))  # (n+1, L)
    coef = series.d[: n + 1, None] * gk[: n + 1] + series.c[: n + 1, None] * gk[1 : n + 2]
    return coef.T @ dl  # (K, L)


def _series_values_boundary(series: CompensationSeries, n: int, ks: np.ndarray, l: int) -> np.ndarray:
    """Partial series for rows l in {0, 1}, valid for k >= 1."""
    e = series.e0 if l == 0 else series.e1
    gk = np.power.outer(series.gammas[: n + 1], ks.astype(float))
    return e[: n + 1] @ gk


def _outer_values(series: CompensationSeries, n: int, T: int, B: int) -> np.ndarray:
    """Unnormalized values on [0,T]^2 with NaN on the inner box [0,B]^2.

    Rows l >= 2 take the pair form and rows l in {0, 1} the boundary form.
    The pair form is derived for l >= 3; the balance residual of the
    finished grid covers its use on the l = 2 row outside the box.
    """
    vals = np.full((T + 1, T + 1), np.nan)
    ks = np.arange(T + 1)
    ls2 = np.arange(2, T + 1)
    vals[:, 2:] = _series_values_l2plus(series, n, ks, ls2)
    ks1 = np.arange(1, T + 1)
    vals[1:, 0] = _series_values_boundary(series, n, ks1, 0)
    vals[1:, 1] = _series_values_boundary(series, n, ks1, 1)
    vals[: B + 1, : B + 1] = np.nan
    return vals


def _inner_box_system(params: ModelParams, B: int):
    """Balance equations on the inner box [0,B]^2 and their taps on the states around it.

    Every source of an inner state lies in [0,B+1] x [0,B+2], the box of the
    inflow operator Q. Returns A = I - Q[inner, inner], the tap block
    Q[inner, outer], and the mask of inner states in that box (flattened as
    k*(B+3)+l).
    """
    Q = transformed_inflows(params, B + 1, B + 2)
    k, l = np.divmod(np.arange(Q.shape[0]), B + 3)
    inner = (k <= B) & (l <= B)
    Q = Q[inner]
    return np.eye((B + 1) ** 2) - Q[:, inner], Q[:, ~inner], inner


def solve(
    params: ModelParams, epsilon: float = 1e-12, *, T_min: int | None = None
) -> CompensationResult:
    """Full compensation solve: series + origin-box closure + normalization.

    Every state outside the box [0,2]^2 takes the value of the series; the
    box comes from its own balance equations. The series has
    n = max(ceil(log(epsilon)/log(w/w_hat)), 1) terms, as its terms shrink by
    the limit-root ratio w/w_hat of :func:`asymptotic_ratios`, with
    ``epsilon`` clamped at the 64-bit floor; its roots are the kernel's
    closed forms (:func:`gamma_root`, :func:`delta_root`). It counts as
    converged when its last term moves less than ``epsilon`` of the
    unnormalized mass; otherwise :class:`NumericsError` is raised. Returns
    the normalized grid and every sequence needed to evaluate the expansion.
    ``T_min`` enlarges the grid beyond the epsilon-derived truncation when a
    consumer needs more states (decay diagnostics want a deep tail, for
    instance).
    """
    epsilon_requested = epsilon
    epsilon = max(epsilon, EPSILON_FLOOR)
    T = max(grid_truncation(initial_gamma(params), epsilon), T_min or 3)
    w, w_hat = asymptotic_ratios(params)
    series = compute_series(params, max(math.ceil(math.log(epsilon) / math.log(w / w_hat)), 1))
    n = series.n_terms
    B = INNER_BOX
    A, taps, inner = _inner_box_system(params, B)

    def unnormalized_grid(n_terms: int) -> np.ndarray:
        # the taps reach l = B+2, which exceeds T on the smallest grids
        outer = _outer_values(series, n_terms, max(T, B + 2), B)
        vals = outer[: T + 1, : T + 1].copy()
        rhs = taps @ outer[: B + 2, : B + 3].ravel()[~inner]
        try:
            box = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"inner-box balance system is singular: {exc}") from exc
        vals[: B + 1, : B + 1] = box.reshape(B + 1, B + 1)
        return vals

    grid_un = unnormalized_grid(n)
    total = float(grid_un.sum())
    last_term_change = float(np.abs(grid_un - unnormalized_grid(n - 1)).sum()) / abs(total)
    if not last_term_change < epsilon:
        raise NumericsError(
            f"compensation series not converged at {n} terms: the last term moves "
            f"{last_term_change:.3e} of the mass (epsilon {epsilon:.1e})"
        )

    grid_vals = grid_un / total
    # round-off guard: the construction is sign-definite, anything below is noise
    floor = -1e-13 * float(grid_vals.max())
    if float(grid_vals.min()) < floor:
        raise NumericsError(f"normalized grid has negative entry {grid_vals.min():.3e}")

    series = replace(series, normalization=1.0 / total)
    grid = ProbabilityGrid(grid_vals, TRANSFORMED).clipped().normalized()
    grid.validate(sum_tol=1e-12, neg_tol=0.0)
    return CompensationResult(
        series=series,
        grid=grid,
        T=T,
        inner_box=B,
        n_used=n,
        epsilon_requested=epsilon_requested,
        epsilon_used=epsilon,
        last_term_change=last_term_change,
    )
