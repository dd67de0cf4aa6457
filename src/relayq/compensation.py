"""Equilibrium distribution of the transformed chain by boundary compensation.

The interior balance equations are satisfied by product forms gamma^k delta^l
whose parameters lie on a cubic kernel curve. Starting from gamma_0 = rho^2,
alternately repairing the vertical-boundary error (which fixes a new gamma
for the current delta) and the horizontal-boundary error (which fixes a new
delta plus the l in {0, 1} boundary coefficients) produces a geometrically
convergent series of product-form terms. The series gives every state
outside the box [0,2]^2 at the origin; the balance equations on that box,
solved by the GTH elimination the oracle uses too, supply (0,0), (0,1) and
(0,2), which lie outside both series regimes, together with their
neighbours, and a single normalization finishes the job.

The roots come from the kernel's algebra: kernel/gamma^2 is a convex cubic
in delta/gamma, whose root Newton's method reaches monotonically from the
small root of its quadratic part (:func:`delta_root`), and kernel/delta^2 is
a quadratic in gamma/delta with a cancellation-free small root
(:func:`gamma_root`). Each term is a product form, so its mass outside the
origin box is a geometric sum: :func:`converged_series` adds terms one at a
time and stops at the first whose mass so summed, plus the box's response to
it, is below epsilon of the box's mass. That check needs no grid, and the box
it solves is the one :func:`solve` writes into the series, which it evaluates
once, on its grid.

The kernel and the boundary equations behind the coefficients are written
in closed form here, because they are the method. The leading term's 3x2
boundary system and each repair step's 3x3 one share one solver, which
accepts x only if ||M x - r||_2 <= 1e-9 ||r||_2; one evaluator reads both
series forms from one table gamma_i^k. The inner-box equations are not
closed forms: one elimination of the chain's one-step matrix
(:func:`relayq.model.box_matrix`, built from the one-step law) gives the
box's response to the states around it, which the series values there feed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, StabilityError
from .grids import ProbabilityGrid, full
from .model import ModelParams, box_matrix, gth_stationary, truncation
# not called here: benchmarks/tracing.py, its only user, patches this name
from .model import transformed_inflows  # noqa: F401

__all__ = [
    "CompensationSeries",
    "CompensationResult",
    "kernel_residual",
    "initial_gamma",
    "delta_root",
    "gamma_root",
    "vertical_coefficient",
    "horizontal_coefficients",
    "leading_boundary_coefficients",
    "compute_series",
    "outer_values",
    "outer_row_sums",
    "converged_series",
    "solve",
]

# side of the origin box [0,2]^2 solved from its own balance equations: it holds
# (0,0), (0,1) and (0,2), the states outside both series regimes, and their neighbours
INNER_BOX = 2

_NEWTON_CAP = 50  # delta_root needs at most 6 steps over 1,000 random stable points
_TERM_CAP = 30  # converged_series stops at 8 terms at most over loads 1e-39 to 1 - 1e-8


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

    @property
    def n_terms(self) -> int:
        return len(self.deltas) - 1


@dataclass(frozen=True)
class CompensationResult:
    series: CompensationSeries
    grid: ProbabilityGrid
    inner_box: int
    n_used: int
    epsilon_used: float
    last_term_change: float  # closed-form bound on the share of the inner box's mass the last term moves, below epsilon_used


def kernel_residual(gamma: float, delta: float, params: ModelParams) -> float:
    """LHS - RHS of the interior product-form (kernel) equation."""
    p = params
    lhs = (1.0 - p.p_hold) * gamma * delta
    rhs = (p.p_dep * gamma + p.p_fwd) * delta**2 + p.p_both * delta**3 + p.p_dep * gamma**2
    return lhs - rhs


def initial_gamma(params: ModelParams) -> float:
    """Starting decay rate gamma_0 = rho^2, for a stable load whose rho^2 does not underflow."""
    rho = params.rho
    if rho >= 1.0:
        raise StabilityError(f"load {rho:.4f} >= 1; equilibrium does not exist")
    if not rho * rho > 0.0:
        raise NumericsError(f"gamma0 = rho^2 underflows to 0 at load {rho!r}")
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


def _solve_rows(M: np.ndarray, r: np.ndarray, what: str) -> np.ndarray:
    """Solve a boundary system M x = r, whose rows differ in scale by powers of gamma.

    Each row is divided by its largest entry (one that underflowed is 0/0
    and raises); a square M is solved directly, a taller one by least
    squares. Any failure, or ||M x - r||_2 > 1e-9 ||r||_2, is a NumericsError.
    """
    try:
        with np.errstate(divide="raise", invalid="raise"):
            scale = np.max(np.abs(M), axis=1)
            M, r = M / scale[:, None], r / scale
        x = np.linalg.solve(M, r) if M.shape[0] == M.shape[1] else np.linalg.lstsq(M, r, rcond=None)[0]
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NumericsError(f"{what} unsolvable: {exc}") from exc
    resid = float(np.linalg.norm(M @ x - r))
    if not resid <= 1e-9 * float(np.linalg.norm(r)):
        raise NumericsError(f"{what} inconsistent (residual {resid:.3e})")
    return x


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
    e0, e1 = _solve_rows(M, r, f"leading-term boundary system at gamma0={gamma0!r}")
    return float(e0), float(e1)


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
    e0, e1, d = _solve_rows(M, r, f"horizontal repair system at gamma={gamma_ip1!r}")
    return float(e0), float(e1), float(d)


def _series_steps(params: ModelParams):
    """Yield the series through compensation step n = 0, 1, 2, ...; each step's
    roots and coefficients are computed once, when the walk reaches it."""
    g0 = initial_gamma(params)
    gammas = [g0]
    deltas = [delta_root(g0, params)]
    d = [1.0]
    c: list[float] = []
    e0_0, e1_0 = leading_boundary_coefficients(g0, deltas[0], d[0], params)
    e0 = [e0_0]
    e1 = [e1_0]
    for i in itertools.count():
        gammas.append(gamma_root(deltas[i], params))
        c.append(vertical_coefficient(gammas[i], gammas[i + 1], deltas[i], d[i], params))
        yield CompensationSeries(*map(np.array, (gammas, deltas, d, c, e0, e1)))
        deltas.append(delta_root(gammas[i + 1], params))
        e0i, e1i, di = horizontal_coefficients(
            gammas[i + 1], deltas[i], deltas[i + 1], c[i], params
        )
        e0.append(e0i)
        e1.append(e1i)
        d.append(di)


def compute_series(params: ModelParams, n_terms: int) -> CompensationSeries:
    """Roots and coefficients through compensation step ``n_terms``."""
    return next(itertools.islice(_series_steps(params), n_terms, None))


def outer_values(series: CompensationSeries, k: np.ndarray, L: int) -> np.ndarray:
    """Unnormalized series values at the ascending rows ``k`` (floats) over columns l in [0, L].

    One table gamma_i^k serves both forms: columns l >= 2 take the pair form
    sum_i (d_i gamma_i^k + c_i gamma_{i+1}^k) delta_i^l, and columns l in {0, 1}
    the boundary form sum_i e_i gamma_i^k at k >= 1; at k = 0 they are inner-box
    states and hold NaN. The pair form is derived for l >= 3; the balance
    residual of the finished grid covers its use on the l = 2 row outside the
    box. :func:`solve` overwrites the inner box [0,2]^2.
    """
    gk = np.power.outer(series.gammas, k)  # (n+2, len(k))
    dl = np.power.outer(series.deltas, np.arange(2.0, L + 1))  # (n+1, L-1)
    vals = full((len(k), L + 1), np.nan)
    np.matmul((series.d[:, None] * gk[:-1] + series.c[:, None] * gk[1:]).T, dl, out=vals[:, 2:])
    j = int(k[0] == 0)  # the boundary form starts at k = 1
    vals[j:, 0] = series.e0 @ gk[:-1, j:]
    vals[j:, 1] = series.e1 @ gk[:-1, j:]
    return vals


def outer_row_sums(series: CompensationSeries, k: np.ndarray, L: int) -> np.ndarray:
    """Sums over l in [0, L] of :func:`outer_values` at the rows ``k`` >= 1, in closed form.

    The boundary columns l in {0, 1} are added as they are. The pair form's
    columns l in [2, L] are geometric in delta_i, so they sum to
    sum_i (d_i gamma_i^k + c_i gamma_{i+1}^k) delta_i^2 (1 - delta_i^(L-1)) / (1 - delta_i)
    without a row of L + 1 values.
    """
    gk = np.power.outer(series.gammas, k)  # (n+2, len(k))
    deltas = series.deltas
    columns = deltas**2 * (1.0 - deltas ** (L - 1.0)) / (1.0 - deltas)
    pairs = (series.d[:, None] * gk[:-1] + series.c[:, None] * gk[1:]).T @ columns
    return series.e0 @ gk[:-1] + series.e1 @ gk[:-1] + pairs


def _outside_box_mass(g, g1, dl, d, c, e):
    """Mass of the term (d g^k + c g1^k) dl^l (l >= 2), e g^k (l in {0, 1}, k >= 1)
    over the states of the quadrant outside the inner box [0,2]^2.

    The sums are geometric, over l >= 3 at every k and over k >= 3 on the
    rows l <= 2.
    """
    def geometric(x, lo):  # sum_{j >= lo} x^j
        return x**lo / (1.0 - x)

    return ((d * geometric(g, 0) + c * geometric(g1, 0)) * geometric(dl, 3)
            + (d * geometric(g, 3) + c * geometric(g1, 3)) * dl**2 + e * geometric(g, 3))


def _inner_box_system(params: ModelParams, B: int):
    """The inner box [0,B]^2's response to the states around it.

    Every step into or out of an inner state stays in [0,B+1] x [0,B+2], the
    box of :func:`relayq.model.box_matrix`. With the states around the inner box
    first, one :func:`relayq.model.gth_stationary` elimination of the inner
    ones gives R: row t holds the inner states' values per unit value at
    around-state t, so the box is (values around it) @ R. Each exit from the
    box is a sum of positive steps, so R is accurate entry by entry. Returns
    R and the mask of inner states in that box (flattened as k*(B+3)+l).
    """
    P = box_matrix(params, B + 1, B + 2)
    k, l = np.divmod(np.arange(len(P)), B + 3)
    inner = (k <= B) & (l <= B)
    order = np.argsort(inner, kind="stable")
    return gth_stationary(P[np.ix_(order, order)], kept=int((~inner).sum())), inner


def _last_term_share(
    series: CompensationSeries, R: np.ndarray, inner: np.ndarray
) -> tuple[float, np.ndarray]:
    """Bound on the share of the inner box's mass that the series' last term n
    moves, and the box's values, flattened.

    The box is R applied to the series values on the states around it
    (:func:`_inner_box_system`), once for the whole series and once for its
    last term. Outside the box the term's absolute mass is at most
    :func:`_outside_box_mass` of |d_n|, |c_n| and |e0_n| + |e1_n|; inside it,
    the term moves the box by R applied to the term's values around it. The
    term's own values inside the box, which the box replaces, are not counted.
    The box holds the grid's largest entries and at most its mass.
    """
    s, n = series, series.n_terms
    last = CompensationSeries(s.gammas[n:], s.deltas[n:], s.d[n:], s.c[n:], s.e0[n:], s.e1[n:])
    k = np.arange(INNER_BOX + 2.0)
    box, moved = np.stack([outer_values(x, k, INNER_BOX + 2).ravel()[~inner] for x in (series, last)]) @ R
    outside = _outside_box_mass(s.gammas[n], s.gammas[n + 1], s.deltas[n], abs(s.d[n]), abs(s.c[n]),
                                abs(s.e0[n]) + abs(s.e1[n]))
    return float(outside + np.abs(moved).sum()) / abs(float(box.sum())), box


def converged_series(
    params: ModelParams, epsilon: float = 1e-12
) -> tuple[CompensationSeries, int, float, float, np.ndarray]:
    """The series through the first step whose last term moves less than ``epsilon`` of the inner box's mass.

    :func:`relayq.model.truncation` gates the load and ``epsilon``, clamps
    ``epsilon`` at the 64-bit floor and sizes the grid's box. Terms come one
    at a time from the kernel's closed forms (:func:`gamma_root`,
    :func:`delta_root`), each computed once. After each, the share of the
    inner box's mass that the last term moves is bounded in closed form
    (:func:`_last_term_share`), without a grid, and the first depth n where
    that bound is below ``epsilon`` ends the walk. The box's mass is at most
    the grid's, so the bound holds for the grid's mass too. A series still
    above ``epsilon`` at ``_TERM_CAP`` terms raises :class:`NumericsError`.

    Returns (series, (T_k, T_l), clamped epsilon, the last term's share, and
    the inner box's unnormalized values, flattened, which :func:`solve` writes).
    """
    T_k, T_l, epsilon = truncation(params, epsilon)
    system = None
    # from step 1 on: at step 0 the last term is the whole series, which moves all of the box
    for series in itertools.islice(_series_steps(params), 1, _TERM_CAP + 1):
        system = system or _inner_box_system(params, INNER_BOX)  # after the series' own refusals
        share, box = _last_term_share(series, *system)
        if share < epsilon:
            return series, (T_k, T_l), epsilon, share, box
    raise NumericsError(
        f"compensation series not converged at {series.n_terms} terms: the last term moves "
        f"{share:.3e} of the inner box's mass (epsilon {epsilon:.1e})"
    )


def solve(params: ModelParams, epsilon: float = 1e-12) -> CompensationResult:
    """Full compensation solve: series + origin-box closure + normalization.

    Every state outside the box [0,2]^2 takes the value of the series of
    :func:`converged_series`, evaluated once on the grid [0,T_k] x [0,T_l];
    the box takes the values that :func:`converged_series` solved from its
    own balance equations, fed by the series on the states around it.
    Returns the normalized grid and every sequence the expansion needs.
    """
    series, (T_k, T_l), epsilon, share, box = converged_series(params, epsilon)
    B = INNER_BOX
    grid_un = outer_values(series, np.arange(T_k + 1.0), T_l)
    grid_un[: B + 1, : B + 1] = box.reshape(B + 1, B + 1)
    grid_un /= float(grid_un.sum())
    # round-off guard: the construction is sign-definite, anything below is noise
    floor = -1e-13 * float(grid_un.max())
    if float(grid_un.min()) < floor:
        raise NumericsError(f"normalized grid has negative entry {grid_un.min():.3e}")

    return CompensationResult(
        series=series,
        grid=ProbabilityGrid.finished(grid_un),
        inner_box=B,
        n_used=series.n_terms,
        epsilon_used=epsilon,
        last_term_change=share,
    )
