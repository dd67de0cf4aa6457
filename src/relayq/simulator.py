"""Slot-by-slot Monte Carlo simulation of the two-relay system.

Timing follows the early-arrival convention: the arrival (if any) joins the
shorter queue at the start of the slot — fair coin on a tie — then every
relay that is non-empty after the arrival attempts transmission with
probability ``a``; a lone attempt departs, two attempts collide and nothing
departs. The state is recorded at slot boundaries, matching the equilibrium
distribution the analytic solvers compute. The slot rule itself, ``step``,
lives in :mod:`relayq.model`, where both one-step laws are computed from it;
it is re-exported here.

The slot walk is sequential by nature: join-the-shortest-queue keeps the
chain near the boundary, where each slot's step depends on the state, so
there are no long i.i.d. stretches to vectorize. ``_paths`` therefore walks
each chunk of draws on plain Python values, and the bookkeeping (grid counts,
overflow, moment sums) is done once per chunk with numpy. The grid counts grow
with the states visited: the empirical grid is the smallest square that holds
every visited state inside the grid cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import ProbabilityGrid
from .model import ModelParams, is_stable, step, truncation

__all__ = ["SimConfig", "SimResult", "simulate", "step"]

_CHUNK = 65536


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    warmup_slots: int = 10_000
    measure_slots: int = 1_000_000
    replications: int = 10

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.measure_slots < 1:
            raise ValueError("measure_slots must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.warmup_slots < 0:
            raise ValueError("warmup_slots must be >= 0")


@dataclass(frozen=True)
class SimResult:
    e_qsum: float
    e_qsum_ci: float | None  # None with one replication, where the half-width is undefined
    e_sojourn: float
    e_sojourn_ci: float | None
    correlation: float | None
    correlation_ci: float | None
    empirical: ProbabilityGrid  # transformed, overflow excluded, side up to grid_cap + 1
    overflow_mass: float
    grid_cap: int
    per_replication_qsum: tuple[float, ...]


def _t_quantile(q: float, df: int) -> float:
    """Quantile q in [1/2, 1) of Student's t with integer ``df`` >= 1 degrees of freedom.

    Bisects on theta = atan(t / sqrt(df)) until the interval stops shrinking,
    using the closed form of P(|T| <= t) at integer df (Abramowitz & Stegun
    26.7.3-4), which increases with theta.
    """
    odd = df % 2

    def central(theta: float) -> float:
        c, total = math.cos(theta), 0.0
        term = c if odd else 1.0
        for j in range(1, (df - odd) // 2 + 1):
            total += term
            term *= c * c * (2 * j - 1 + odd) / (2 * j + odd)
        s = math.sin(theta) * total
        return 2.0 / math.pi * (theta + s) if odd else s

    lo, hi = 0.0, math.pi / 2
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if central(mid) < 2.0 * q - 1.0 else (lo, mid)
    return math.sqrt(df) * math.tan(mid)


def _replication_rng(seed: int, r: int) -> np.random.Generator:
    # replication seeds derive from (seed, index); the pooled entropy keeps
    # replication streams independent of each other and of the base seed
    return np.random.default_rng(np.random.SeedSequence((seed, r)))


def _paths(lam: float, a: float, slots: int, rng: np.random.Generator, q1: int = 0, q2: int = 0):
    """Walk ``slots`` slots from (q1, q2), one ``rng.random((4, n))`` draw per chunk.

    Yields, per chunk of at most ``_CHUNK`` slots, the lists of q1 and of q2
    at the start of each slot. The loop body is ``step`` inlined on plain
    Python values; ``step`` stays the reference it is tested against.
    """
    below = np.array([[lam], [0.5], [a], [a]])
    done = 0
    while done < slots:
        n = min(_CHUNK, slots - done)
        draws = rng.random((4, n)) < below  # arrival, tie to q1, attempt 1, attempt 2
        path1: list[int] = []
        path2: list[int] = []
        rec1, rec2 = path1.append, path2.append
        for arrival, tie_to_q1, att1, att2 in zip(*draws.tolist()):
            rec1(q1)
            rec2(q2)
            if arrival:
                if q1 < q2 or (tie_to_q1 and q1 == q2):
                    q1 += 1
                else:
                    q2 += 1
            if att1 and q1:
                if not (att2 and q2):
                    q1 -= 1
            elif att2 and q2:
                q2 -= 1
        yield path1, path2
        done += n


def _run_one(params: ModelParams, config: SimConfig, r: int, cap: int, counts: np.ndarray):
    """Replication ``r``: ``counts`` grown by its visits to the grid, its overflow and its moments."""
    rng = _replication_rng(config.seed, r)
    overflow = 0
    s1 = s2 = s11 = s22 = s12 = 0.0
    skip = config.warmup_slots
    n_total = config.warmup_slots + config.measure_slots
    for path1, path2 in _paths(params.lam, params.a, n_total, rng):
        if skip >= len(path1):
            skip -= len(path1)
            continue
        # the state seen at each measured slot boundary
        q1 = np.array(path1[skip:], dtype=np.int64)
        q2 = np.array(path2[skip:], dtype=np.int64)
        skip = 0
        k = np.minimum(q1, q2)
        l = np.abs(q1 - q2)
        inside = (k <= cap) & (l <= cap)
        k, l = k[inside], l[inside]
        overflow += len(q1) - len(k)
        if len(k):
            side = max(len(counts), int(k.max()) + 1, int(l.max()) + 1)
            counts = np.pad(counts, (0, side - len(counts)))
            counts += np.bincount(k * side + l, minlength=side * side).reshape(side, side)
        # float64 sums of non-negative integers are exact below 2**53, so the
        # order of summation cannot change them; floats cannot wrap either
        f1 = q1.astype(np.float64)
        f2 = q2.astype(np.float64)
        s1 += float(f1.sum())
        s2 += float(f2.sum())
        s11 += float((f1 * f1).sum())
        s22 += float((f2 * f2).sum())
        s12 += float((f1 * f2).sum())
    m = float(config.measure_slots)
    mom = dict(q1=s1 / m, q2=s2 / m, q11=s11 / m, q22=s22 / m, q12=s12 / m)
    return counts, overflow, mom


def simulate(params: ModelParams, config: SimConfig) -> SimResult:
    """Replicated simulation with Student-t confidence intervals.

    Stability is not required: unstable parameter points simply show linear
    queue growth in the averages. Identical (params, config) pairs produce
    bitwise identical results.
    """
    cap = 2 * truncation(params, 1e-10)[0] if is_stable(params).stable else 100

    qsums, sojourns, correls = [], [], []
    counts = np.zeros((1, 1), dtype=np.int64)
    overflow = 0
    for r in range(config.replications):
        counts, ov, mom = _run_one(params, config, r, cap, counts)
        overflow += ov
        qsum = mom["q1"] + mom["q2"]
        qsums.append(qsum)
        sojourns.append(qsum / params.lam)
        var1 = mom["q11"] - mom["q1"] ** 2
        var2 = mom["q22"] - mom["q2"] ** 2
        cov = mom["q12"] - mom["q1"] * mom["q2"]
        denom = math.sqrt(var1 * var2) if var1 > 0 and var2 > 0 else 0.0
        correls.append(cov / denom if denom > 0 else None)

    def mean_ci(xs: list[float]) -> tuple[float, float | None]:
        arr = np.asarray(xs, dtype=float)
        mean = float(arr.mean())
        if len(arr) < 2:
            return mean, None
        half = float(_t_quantile(0.975, len(arr) - 1) * arr.std(ddof=1) / math.sqrt(len(arr)))
        return mean, half

    e_qsum, ci_qsum = mean_ci(qsums)
    e_soj, ci_soj = mean_ci(sojourns)
    have_corr = [c for c in correls if c is not None]
    if len(have_corr) == len(correls) and have_corr:
        corr, ci_corr = mean_ci(have_corr)
    else:
        corr, ci_corr = None, None

    total = counts.sum() + overflow
    empirical = ProbabilityGrid(counts / total)
    return SimResult(
        e_qsum=e_qsum,
        e_qsum_ci=ci_qsum,
        e_sojourn=e_soj,
        e_sojourn_ci=ci_soj,
        correlation=corr,
        correlation_ci=ci_corr,
        empirical=empirical,
        overflow_mass=overflow / total,
        grid_cap=cap,
        per_replication_qsum=tuple(qsums),
    )
