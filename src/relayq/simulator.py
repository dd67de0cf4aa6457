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
tables of ``step``, two slots per lookup. Each slot's four draws become one
code by bit operations on the comparisons, and two codes one pair code; a
pair costs one lookup in a flat list, the pair table, which gives the state
two slots on. The tables cover a block of local states x = q - (t, t): those
with min(x) below the width of a window that slides along the diagonal and
|x1 - x2| <= 4, where the chain spends almost every slot. ``step`` commutes
with that shift once both queues are non-empty, so one pair table serves
t = 0 and one every t >= 1; each is built per ``simulate`` call, by ``step``
on arrays over the block, with a one-slot table beside it. The state
between a pair's two slots is read back per chunk by one numpy lookup of the
one-slot table. Pairs that start outside the block or leave it, re-centres of
the window where a step leaves it, and a chunk's odd last slot go one slot at
a time through a memo that ``step`` fills. The bookkeeping (grid counts,
overflow, exact integer moment sums) is done per chunk over the distinct
states visited, with their visit counts. The grid counts grow with the states
visited: the empirical grid is the smallest square that holds every visited
state inside the grid cap.
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
_REACH = 4  # the block: local states with |x1 - x2| <= _REACH
_BLOCK = _SPAN * (2 * _REACH + 1)
_BITS = (3, 2, 1, 0)  # a slot's code: arrival * 8 + tie to q1 * 4 + attempt 1 * 2 + attempt 2
_DRAWS = [tuple(bool(c >> b & 1) for b in _BITS) for c in range(16)]
_OUT = 1 << 62  # a pair entry that leaves the block: the lookup after it fails


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
    """Local states x = q - (t, t) with 0 <= min(x) < ``_SPAN``, tables of
    ``step`` on a block of them and a memo of ``step`` off the block, for
    t = 0 and for every t >= 1.

    A state's key is 256 times its id. The block's states, those with
    |x1 - x2| <= ``_REACH``, hold the ids below ``_BLOCK``: (2 * _REACH + 1) *
    min(x) + x2 - x1 + _REACH. Every other state gets the next id when it is
    first reached. Per t > 0:

    - ``ones[t > 0][i, code]`` is the id block state ``i`` steps to under the
      draws ``code``, or -1 outside the block;
    - ``pairs[t > 0][key + 16 * c1 + c2]`` is the key after the two steps
      (c1, c2), or ``_OUT`` where either step leaves the block;
    - ``walks[t > 0][key + code]`` is the key after one step, filled by
      ``step`` on the first such move off the pair table.

    At t >= 1 both queues of a local state are non-empty, where ``step``
    commutes with a shift along the diagonal, so one set serves every t >= 1;
    the window builds its tables when it first leaves t = 0.
    """

    def __init__(self) -> None:
        k, d = np.divmod(np.arange(_BLOCK), 2 * _REACH + 1)
        d -= _REACH
        x1, x2 = k + np.maximum(-d, 0), k + np.maximum(d, 0)
        self.coords: list[tuple[int, int]] = list(zip(x1.tolist(), x2.tolist()))
        self.ids = {x: i for i, x in enumerate(self.coords)}
        self.walks: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.ones = np.full((2, _BLOCK, 16), -1)
        self.pairs = [self._pair_table(0), []]

    def _pair_table(self, t: int) -> list[int]:
        """The pair table at t (0, or 1 for every t >= 1), from one ``step``
        on arrays of the block; fills ``ones[t]`` on the way."""
        x1, x2 = np.array(self.coords[:_BLOCK]).T
        code = np.arange(16)
        y1, y2 = step(x1[:, None] + t, x2[:, None] + t, *(code >> b & 1 == 1 for b in _BITS))
        k, d = np.minimum(y1, y2) - t, y2 - y1
        inside = (0 <= k) & (k < _SPAN) & (np.abs(d) <= _REACH)
        ones = self.ones[t] = np.where(inside, (2 * _REACH + 1) * k + d + _REACH, -1)
        # the keys one step on from each block state, one int object per key; -1 reads
        # the pool's _OUT, and the last row, for a first step out of the block
        pool = np.array([*range(0, _BLOCK << 8, 256), _OUT], dtype=object)
        rows = pool[ones].tolist() + [[_OUT] * 16]
        pairs: list[int] = []
        for i in ones.ravel().tolist():
            pairs += rows[i]
        return pairs

    def key(self, x1: int, x2: int) -> int:
        """256 times the id of local state (x1, x2)."""
        i = self.ids.setdefault((x1, x2), len(self.coords))
        if i == len(self.coords):
            self.coords.append((x1, x2))
        return i << 8

    def enter(self, q1: int, q2: int) -> tuple[int, int]:
        """(t, key) of the window centred on (q1, q2)."""
        t = max(0, min(q1, q2) - _SPAN // 2)
        if t and not self.pairs[1]:
            self.pairs[1] = self._pair_table(1)
        return t, self.key(q1 - t, q2 - t)

    def follow(self, t: int, j: int, code: int) -> tuple[int, int]:
        """(t, key) after the state of key ``j`` steps under ``code``: ``step``
        fills the memo, or the window re-centres where the step leaves it."""
        walk = self.walks[t > 0]
        nxt = walk.get(j + code)
        if nxt is None:
            x1, x2 = self.coords[j >> 8]
            y1, y2 = step(x1 + t, x2 + t, *_DRAWS[code])
            if not 0 <= min(y1, y2) - t < _SPAN:
                return self.enter(y1, y2)
            walk[j + code] = nxt = self.key(y1 - t, y2 - t)
        return t, nxt


def _paths(window: _Window, lam: float, a: float, slots: int, rng: np.random.Generator,
           q1: int = 0, q2: int = 0):
    """Walk ``slots`` slots from (q1, q2), with the draws of one ``rng.random((4, n))`` per chunk.

    Yields, per chunk of at most ``_CHUNK`` slots, ``(visits, q1, q2)``: the
    state at the start of slot s is ``(q1[visits[s]], q2[visits[s]])``. The
    slots go by pairs, one lookup in the window's pair table per pair. A pair
    from outside the block, or one whose table entry is ``_OUT``, is walked
    one slot at a time by ``_Window.follow``, as is a chunk's odd last slot; a
    re-centre of the window starts a new segment of the chunk. The state
    between the two slots of a pair is read back afterwards from the
    one-slot table, or from what the slot-by-slot walk recorded.
    """
    below = (lam, 0.5, a, a)
    t, j = window.enter(q1, q2)
    done = 0
    while done < slots:
        n = min(_CHUNK, slots - done)
        m = n // 2
        # row by row, the stream of one rng.random((4, n)) without its float array
        bits = np.empty((4, n), dtype=bool)
        for row, p in zip(bits, below):
            np.less(rng.random(n), p, out=row)
        bits = bits.view(np.uint8)
        codes = bits[0] << 3 | bits[1] << 2 | bits[2] << 1 | bits[3]
        pair_codes = codes[0 : 2 * m : 2] << 4 | codes[1 : 2 * m : 2]
        rest = pair_codes.tolist()
        path = [j]  # the keys at slots 0, 2, 4, ...
        mids: dict[int, int] = {}  # pair -> the key at its middle slot, where walked slot by slot
        starts, offsets = [0], [t]  # each segment's first slot and its t

        def follow(s: int, j: int, code: int) -> int:
            nonlocal t
            t, j = window.follow(t, j, code)
            if t != offsets[-1]:
                starts.append(s)
                offsets.append(t)
            return j

        taken = iter(rest)
        while True:
            pairs = window.pairs[t > 0]
            try:
                path.extend(j := pairs[j + c] for c in taken)
                n_taken = len(path) - 1
            except IndexError:  # a pair from outside the block, or the one after _OUT
                n_taken = len(path)  # the failed pair's code is taken too
            if path[-1] == _OUT:  # the pair before left the block
                path.pop()
            while len(path) <= n_taken:  # pairs whose codes are taken, one slot at a time
                p = len(path) - 1
                mids[p] = follow(2 * p + 1, path[p], rest[p] >> 4)
                j = follow(2 * p + 2, mids[p], rest[p] & 15)
                path.append(j)
            if n_taken == m:
                break
        if n % 2:
            j = follow(n, path[-1], int(codes[-1]))  # the chunk's lone last slot
        else:
            j = path.pop()  # the next chunk's first state
        # each slot's (segment, local id)
        segment = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))
        ids = np.empty(n, dtype=np.int64)
        ids[::2] = np.fromiter(path, dtype=np.int64, count=len(path)) >> 8
        if m:
            evens = ids[0 : 2 * m : 2]
            shifted = np.minimum(offsets, 1)[segment[0 : 2 * m : 2]]
            # the modulus keeps ids outside the block in range; their pairs are in mids
            odd = window.ones.reshape(-1)[(shifted * _BLOCK + evens % _BLOCK) * 16 + (pair_codes >> 4)]
            if mids:
                odd[list(mids)] = np.fromiter(mids.values(), dtype=np.int64, count=len(mids)) >> 8
            ids[1 : 2 * m : 2] = odd
        width = len(window.coords)
        visits = segment * width + ids
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
