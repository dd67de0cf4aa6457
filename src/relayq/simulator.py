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
there are no long i.i.d. stretches to vectorize. ``_paths`` therefore walks a
memo of ``step``: each slot's four draws become one code, and a slot costs one
dict lookup, keyed by the state's id and the code, that ``step`` fills once per
(state, code) pair. The ids are of local states x = q - (t, t) in a window
that slides along the diagonal: ``step`` commutes with that shift once both
queues are non-empty, so one memo serves t = 0 and one every t >= 1, and the
memo stays bounded however far an unstable run climbs. A step out of the
window re-centres it. The bookkeeping (grid counts, overflow, exact integer
moment sums) is done per chunk over the distinct states visited, with their
visit counts. The grid counts grow with the states visited: the empirical grid
is the smallest square that holds every visited state inside the grid cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import ProbabilityGrid
from .model import ModelParams, is_stable, step, truncation

__all__ = ["SimConfig", "SimResult", "simulate", "step"]

_CHUNK = 65536
_SPAN = 64  # the window's width along the diagonal
_CODE = np.array([8, 4, 2, 1])  # a slot's draws (arrival, tie to q1, attempt 1, attempt 2) as one code
_DRAWS = [tuple(bool(c & bit) for bit in _CODE.tolist()) for c in range(16)]


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


class _Window:
    """Local states x = q - (t, t) with 0 <= min(x) < ``_SPAN``, and a memo of
    ``step`` on them for t = 0 and one for every t >= 1.

    ``walks[t > 0][16 * i + code]`` is 16 times the id of the local state that
    local state ``i`` steps to under the draws ``code``. At t >= 1 both queues
    are non-empty, where ``step`` commutes with a shift along the diagonal, so
    one memo serves every t. Ids follow the order the states are first reached.
    """

    def __init__(self) -> None:
        self.ids: dict[tuple[int, int], int] = {}
        self.coords: list[tuple[int, int]] = []
        self.walks: tuple[dict[int, int], dict[int, int]] = ({}, {})

    def key(self, x1: int, x2: int) -> int:
        """16 times the id of local state (x1, x2)."""
        i = self.ids.setdefault((x1, x2), len(self.coords))
        if i == len(self.coords):
            self.coords.append((x1, x2))
        return 16 * i

    def enter(self, q1: int, q2: int) -> tuple[int, dict[int, int], int]:
        """(t, memo, key) of the window centred on (q1, q2)."""
        t = max(0, min(q1, q2) - _SPAN // 2)
        return t, self.walks[t > 0], self.key(q1 - t, q2 - t)

    def follow(self, t: int, walk: dict[int, int], j: int, code: int) -> tuple[int, dict[int, int], int]:
        """(t, memo, key) after the state of key ``j`` steps under ``code``:
        ``step`` fills the memo, or the window re-centres where it leaves."""
        x1, x2 = self.coords[j >> 4]
        y1, y2 = step(x1 + t, x2 + t, *_DRAWS[code])
        if not 0 <= min(y1, y2) - t < _SPAN:
            return self.enter(y1, y2)
        walk[j + code] = nxt = self.key(y1 - t, y2 - t)
        return t, walk, nxt


def _paths(window: _Window, lam: float, a: float, slots: int, rng: np.random.Generator,
           q1: int = 0, q2: int = 0):
    """Walk ``slots`` slots from (q1, q2), one ``rng.random((4, n))`` draw per chunk.

    Yields, per chunk of at most ``_CHUNK`` slots, ``(visits, q1, q2)``: the
    state at the start of slot s is ``(q1[visits[s]], q2[visits[s]])``. Each
    slot is one lookup in the memo of ``step``; a miss fills it, or re-centres
    the window, which starts a new segment of the chunk.
    """
    below = np.array([[lam], [0.5], [a], [a]])
    t, walk, j = window.enter(q1, q2)
    done = 0
    while done < slots:
        n = min(_CHUNK, slots - done)
        codes = iter((_CODE @ (rng.random((4, n)) < below)).tolist())
        path: list[int] = []
        rec = path.append
        starts, offsets = [0], [t]  # each segment's first slot and its t
        while True:
            try:
                for c in codes:
                    rec(j)
                    j = walk[j + c]
                break
            except KeyError:
                t, walk, j = window.follow(t, walk, j, c)
                if t != offsets[-1]:
                    starts.append(len(path))
                    offsets.append(t)
        # index the chunk's states by (segment, local id)
        width = len(window.coords)
        segment = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))
        visits = segment * width + (np.fromiter(path, dtype=np.int64, count=n) >> 4)
        x = np.array(window.coords, dtype=np.int64).T
        t_of = np.array(offsets, dtype=np.int64)[:, None]
        yield visits, (x[0] + t_of).ravel(), (x[1] + t_of).ravel()
        done += n


def _run_one(params: ModelParams, config: SimConfig, r: int, cap: int, counts: np.ndarray, window: _Window):
    """Replication ``r``: ``counts`` grown by its visits to the grid, its overflow and its moments."""
    rng = _replication_rng(config.seed, r)
    overflow = 0
    s1 = s2 = s11 = s22 = s12 = 0
    skip = config.warmup_slots
    n_total = config.warmup_slots + config.measure_slots
    for visits, q1, q2 in _paths(window, params.lam, params.a, n_total, rng):
        if skip >= len(visits):
            skip -= len(visits)
            continue
        # each state seen at a measured slot boundary, and how often
        n = np.bincount(visits[skip:])
        skip = 0
        seen = np.flatnonzero(n)
        n, q1, q2 = n[seen], q1[seen], q2[seen]
        k = np.minimum(q1, q2)
        l = np.abs(q1 - q2)
        inside = (k <= cap) & (l <= cap)
        overflow += int(n[~inside].sum())
        if inside.any():
            k, l = k[inside], l[inside]
            side = max(len(counts), int(k.max()) + 1, int(l.max()) + 1)
            counts = np.pad(counts, (0, side - len(counts)))
            np.add.at(counts, (k, l), n[inside])
        # exact integer sums: int64 while the largest term bounds them below 2**63
        if int(max(q1.max(), q2.max())) ** 2 * int(n.sum()) >= 2**63:
            n, q1, q2 = n.astype(object), q1.astype(object), q2.astype(object)
        n1, n2 = n * q1, n * q2
        s1 += int(n1.sum())
        s2 += int(n2.sum())
        s11 += int((n1 * q1).sum())
        s22 += int((n2 * q2).sum())
        s12 += int((n1 * q2).sum())
    m = config.measure_slots  # int / int is the correctly rounded quotient
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
    window = _Window()  # the memo depends on no parameter, so the replications share it
    for r in range(config.replications):
        counts, ov, mom = _run_one(params, config, r, cap, counts, window)
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
