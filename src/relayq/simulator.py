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
overflow, moment sums) is done once per chunk with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RelayQError
from .grids import TRANSFORMED, ProbabilityGrid
from .model import ModelParams, is_stable, step
from .oracle import choose_truncation

__all__ = ["SimConfig", "SimResult", "simulate", "estimate_stability_boundary", "step"]

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
    empirical: ProbabilityGrid  # transformed coordinates, overflow excluded
    overflow_mass: float
    grid_cap: int
    per_replication_qsum: tuple[float, ...]


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


def _run_one(params: ModelParams, config: SimConfig, r: int, cap: int):
    rng = _replication_rng(config.seed, r)
    width = cap + 1
    counts = np.zeros(width * width, dtype=np.int64)
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
        cells = (k * width + l)[inside]
        counts += np.bincount(cells, minlength=width * width)
        overflow += len(q1) - len(cells)
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
    return counts.reshape(width, width), overflow, mom


def simulate(params: ModelParams, config: SimConfig) -> SimResult:
    """Replicated simulation with Student-t confidence intervals.

    Stability is not required: unstable parameter points simply show linear
    queue growth in the averages. Identical (params, config) pairs produce
    bitwise identical results.
    """
    cap = 2 * choose_truncation(params, 1e-10) if is_stable(params).stable else 100

    qsums, sojourns, correls = [], [], []
    counts = np.zeros((cap + 1, cap + 1), dtype=np.int64)
    overflow = 0
    for r in range(config.replications):
        c, ov, mom = _run_one(params, config, r, cap)
        counts += c
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
        from scipy import stats  # imported here: it doubles the time to import relayq

        half = float(
            stats.t.ppf(0.975, len(arr) - 1) * arr.std(ddof=1) / math.sqrt(len(arr))
        )
        return mean, half

    e_qsum, ci_qsum = mean_ci(qsums)
    e_soj, ci_soj = mean_ci(sojourns)
    have_corr = [c for c in correls if c is not None]
    if len(have_corr) == len(correls) and have_corr:
        corr, ci_corr = mean_ci(have_corr)
    else:
        corr, ci_corr = None, None

    total = counts.sum() + overflow
    empirical = ProbabilityGrid(counts / total, TRANSFORMED)
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


def _growth_slope(lam: float, a: float, slots: int, rng: np.random.Generator) -> float:
    """Least-squares slope of the total queue length sampled along one run."""
    sample_every = 50
    samples: list[int] = []
    done = 0
    for path1, path2 in _paths(lam, a, slots, rng):
        first = -done % sample_every
        samples += [x + y for x, y in zip(path1[first::sample_every], path2[first::sample_every])]
        done += len(path1)
    y = np.asarray(samples, dtype=float)
    x = np.arange(len(y), dtype=float) * sample_every
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def estimate_stability_boundary(a: float, config: SimConfig, *, slots: int = 250_000) -> float:
    """Empirical critical arrival probability at attempt probability ``a``.

    Bisects on the arrival probability, classifying each run as unstable when
    the fitted growth slope of Q1+Q2 exceeds a threshold sized between the
    stable-side transient and the unstable-side drift. The true boundary is
    2*a*(1-a).
    """
    if not (0.0 < a < 1.0):
        raise RelayQError("attempt probability must be in (0,1)")
    threshold = 1.2e-3
    lo, hi = 0.01, 0.99
    probe = 0

    def unstable(lam: float) -> bool:
        nonlocal probe
        probe += 1
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 7_700_000 + probe)))
        return _growth_slope(lam, a, slots, rng) > threshold

    if unstable(lo) or not unstable(hi):
        raise RelayQError("bisection endpoints do not bracket the boundary")
    while hi - lo > 0.008:
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
