import hashlib
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relayq import simulator
from relayq.model import ModelParams, lambda_for_load, transition_distribution, truncation
from relayq.simulator import SimConfig, simulate, step


def small_config(seed=1234):
    return SimConfig(seed=seed, warmup_slots=2_000, measure_slots=100_000, replications=3)


def test_step_mechanics():
    # arrival joins the strictly shorter queue regardless of the tie coin
    assert step(1, 3, True, False, False, False) == (2, 3)
    assert step(3, 1, True, True, False, False) == (3, 2)
    # tie broken by the coin
    assert step(2, 2, True, True, False, False) == (3, 2)
    assert step(2, 2, True, False, False, False) == (2, 3)
    # lone attempt departs; two attempts collide; empty relays never transmit
    assert step(1, 1, False, True, True, False) == (0, 1)
    assert step(1, 1, False, True, True, True) == (1, 1)
    assert step(0, 1, False, True, True, True) == (0, 0)
    assert step(0, 0, False, True, True, True) == (0, 0)
    # a packet arriving at an empty system may depart in the same slot
    assert step(0, 0, True, True, True, False) == (0, 0)
    assert step(0, 0, True, True, False, False) == (1, 0)


def test_step_label_swap_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        q1, q2 = rng.integers(0, 5, size=2)
        arr, tie, a1, a2 = rng.random(4) < (0.4, 0.5, 0.6, 0.6)
        fwd = step(int(q1), int(q2), arr, tie, a1, a2)
        mirrored = step(int(q2), int(q1), arr, not tie, a2, a1)
        assert fwd == (mirrored[1], mirrored[0])


def _step_path(lam, a, slots, rng, q1, q2):
    """The reference: the same draws, one ``rng.random((4, n))`` per chunk, fed to ``step``."""
    path = []
    done = 0
    while done < slots:
        n = min(simulator._CHUNK, slots - done)
        u = rng.random((4, n))
        for t in range(n):
            path.append((q1, q2))
            q1, q2 = step(q1, q2, u[0, t] < lam, u[1, t] < 0.5, u[2, t] < a, u[3, t] < a)
        done += n
    return path


@pytest.mark.parametrize(
    "lam, start",
    [
        (0.3, (0, 0)), (0.3, (2, 2)), (0.3, (3, 1)), (0.3, (0, 5)), (0.6, (0, 0)),
        # the window slides: up from (300, 300) and from a lopsided start, down to t = 0
        (0.6, (300, 300)), (0.6, (0, 500)), (0.3, (300, 300)), (0.3, (0, 500)),
        # far off the block's diagonal band, and on its edge
        (0.3, (0, 40)), (0.6, (60, 64)),
    ],
)
def test_paths_follow_step(monkeypatch, lam, start):
    # a small chunk puts several chunk boundaries, and a short last chunk, in the run;
    # an odd chunk ends every chunk on a lone slot; a fresh window fills its memo during the run
    slots = 20_000
    for chunk in (4096, 4095):
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        got, recentred = [], set()
        window = simulator._Window()
        for visits, q1, q2 in simulator._paths(window, lam, 0.5, slots, np.random.default_rng(41), *start):
            segment = visits // len(window.coords)
            recentred |= {s % 2 for s in np.flatnonzero(np.diff(segment)).tolist()}
            q1, q2 = q1.tolist(), q2.tolist()
            got += [(q1[v], q2[v]) for v in visits.tolist()]
        assert got == _step_path(lam, 0.5, slots, np.random.default_rng(41), *start)
        if chunk % 2:
            continue  # the draws fall differently into odd chunks; the checks below are of the even run
        mins = [min(state) for state in got]
        if lam == 0.6 or max(start) >= 300:
            assert max(mins) > simulator._SPAN  # the window leaves t = 0
        if max(start) >= 300:
            # np.diff puts a re-centre on slot s + 1 at s: inside a pair for even s, after one for odd s
            assert recentred == {0, 1}
        if max(start) >= 300 and lam == 0.3:
            assert mins[-1] == 0  # and drains back to it


def _in_block(x):
    return 0 <= min(x) < simulator._SPAN and abs(x[0] - x[1]) <= simulator._REACH


def test_memo_holds_at_every_shift():
    """Every entry of the tables and the memo is step's move at every t it
    serves: t = 0 for the first of each, any t >= 1 for the second. A pair
    entry is two steps, and it is _OUT exactly where either leaves the block;
    a one-slot entry is -1 exactly where its step leaves the block."""
    window = simulator._Window()
    for lam, start in [(0.6, (0, 0)), (0.3, (300, 300))]:
        for _ in simulator._paths(window, lam, 0.5, 20_000, np.random.default_rng(5), *start):
            pass
    block = window.coords[: simulator._BLOCK]
    assert all(map(_in_block, block)) and len(set(block)) == simulator._BLOCK
    for shifted, shifts in [(False, (0,)), (True, (1, 2, 1000))]:
        pairs, ones, walk = window.pairs[shifted], window.ones[int(shifted)].tolist(), window.walks[shifted]
        assert walk and len(pairs) == 256 * simulator._BLOCK
        for t in shifts:
            def moved(x, code):
                q = step(x[0] + t, x[1] + t, *simulator._DRAWS[code])
                return q[0] - t, q[1] - t

            for key, nxt in walk.items():
                assert moved(window.coords[key >> 8], key & 255) == window.coords[nxt >> 8]
            for i, x in enumerate(block):
                for c1 in range(16):
                    y = moved(x, c1)
                    assert (ones[i][c1] >= 0) == _in_block(y)
                    if ones[i][c1] >= 0:
                        assert block[ones[i][c1]] == y
                    for c2 in range(16):
                        z = moved(y, c2)
                        entry = pairs[256 * i + 16 * c1 + c2]
                        assert (entry != simulator._OUT) == (_in_block(y) and _in_block(z))
                        if entry != simulator._OUT:
                            assert block[entry >> 8] == z


def test_sample_path_pinned():
    """Pinned values of one sample path: a kernel change that moves the draws
    or the dynamics moves them."""
    res = simulate(
        ModelParams(lam=0.3, a=0.5),
        SimConfig(seed=7, warmup_slots=500, measure_slots=20_000, replications=2),
    )
    assert res.per_replication_qsum == (0.7205999999999999, 0.7174499999999999)
    assert res.overflow_mass == 0.0
    assert res.empirical.values.shape == (5, 5)
    assert res.empirical.values.sum() == 1.0


@pytest.mark.parametrize(
    "lam, a, qsums, overflow, correlation, grid",
    [
        (lambda_for_load(0.9, 0.3), 0.3, (15.26156, 7.82092), 0.0, 0.9584559981916951,
         "c48429b1b3c36c0b3041d50fecb144508108087cc9654e55a499ec3e9b7617ed"),
        # the queues climb past the window's span, which slides along the diagonal
        (lambda_for_load(0.995, 0.5), 0.5, (121.24366, 42.494820000000004), 0.0, 0.9976934144600971,
         "88cc526e9afff13cab793b00b5b443f67d4224ca13da50531fd9b80418c8e4c7"),
        (0.6, 0.5, (2717.70034, 2551.99582), 0.97682, 0.9999986115335031,
         "09104cb3a35014bab2330970aee4fa79bce4b49c347fb787856b903ab2c0c6e9"),
    ],
)
def test_results_pinned(lam, a, qsums, overflow, correlation, grid):
    """Results of the slot-by-slot loop that the walk over the memo of step
    replaced, pinned bit for bit: the grid by the sha256 of its float64 bytes."""
    res = simulate(
        ModelParams(lam=lam, a=a),
        SimConfig(seed=1, warmup_slots=1_000, measure_slots=50_000, replications=2),
    )
    assert res.per_replication_qsum == qsums
    assert res.overflow_mass == overflow
    assert res.correlation == correlation
    assert hashlib.sha256(res.empirical.values.tobytes()).hexdigest() == grid


def test_grid_holds_only_visited_states():
    """Near saturation the grid cap is tens of thousands of states wide, yet a
    short run visits a corner of it; the grid is the square of the visits. The
    run gets 2 GiB of address space, so counts sized to the cap (6.4 GiB at
    this load) fail here instead of exhausting the host's memory."""
    pytest.importorskip("resource")
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**31, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "from relayq.model import ModelParams, lambda_for_load\n"
        "from relayq.simulator import SimConfig, simulate\n"
        "res = simulate(ModelParams(lam=lambda_for_load(0.999, 0.5), a=0.5),\n"
        "               SimConfig(seed=3, warmup_slots=0, measure_slots=1_000, replications=2))\n"
        "v = res.empirical.values\n"
        "print(res.grid_cap, len(v) - 1, res.overflow_mass, v.sum(), v[-1].any() or v[:, -1].any())"
    )
    src = str(Path(simulator.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    cap, T, overflow, mass, edge_visited = out.stdout.split()
    assert int(cap) > 20_000 and int(T) < 100
    assert float(overflow) == 0.0 and float(mass) == pytest.approx(1.0, abs=1e-12)
    assert edge_visited == "True"  # no all-zero outer row and column


def test_chunk_bookkeeping(monkeypatch):
    """Counts, overflow and moments of a made-up path: warm-up across a chunk
    boundary, states on and just past the grid cap, and q^2 summed over one
    chunk past 2**63, where an int64 sum would wrap. Then the same of walked
    paths, against those of ``_step_path``."""
    cap, far = 10, 30_000_000
    edge = [(10, 20), (20, 10), (11, 11), (3, 14)]  # (k, l) = (10, 10) twice, then two outside
    chunk = [(0, 0)] + [(far, 0)] * (simulator._CHUNK - 5) + edge
    measured = chunk[1:]

    def made_up_paths(window, lam, a, slots, rng):
        yield np.zeros(simulator._CHUNK, dtype=np.int64), np.array([5]), np.array([5])
        states = sorted(set(chunk), reverse=True)  # not in the order they are visited
        visits = np.array([states.index(state) for state in chunk])
        yield visits, np.array([q1 for q1, _ in states]), np.array([q2 for _, q2 in states])

    monkeypatch.setattr(simulator, "_paths", made_up_paths)
    config = SimConfig(
        seed=0, warmup_slots=simulator._CHUNK + 1, measure_slots=len(measured), replications=1
    )
    counts, overflow, mom = simulator._run_one(
        ModelParams(lam=0.3, a=0.5), config, 0, cap, np.zeros((1, 1), dtype=np.int64), simulator._Window()
    )
    assert counts[10, 10] == 2 and counts.sum() == 2
    assert overflow == len(measured) - 2
    n = len(measured)
    exact = dict(
        q1=sum(q1 for q1, _ in measured) / n,
        q2=sum(q2 for _, q2 in measured) / n,
        q11=sum(q1 * q1 for q1, _ in measured) / n,
        q22=sum(q2 * q2 for _, q2 in measured) / n,
        q12=sum(q1 * q2 for q1, q2 in measured) / n,
    )
    assert mom == exact

    # walked paths against _step_path: chunks of an odd size end on a lone slot,
    # and each warm-up ends between the two slots of a pair, once in the second
    # chunk; at lam = 0.6 the queues climb past the grid cap and the window's span
    monkeypatch.undo()
    monkeypatch.setattr(simulator, "_CHUNK", 4095)
    for lam, warmup in [(0.45, 4095 + 21), (0.6, 21)]:
        slots = 20_000
        config = SimConfig(seed=9, warmup_slots=warmup, measure_slots=slots, replications=1)
        counts, overflow, mom = simulator._run_one(
            ModelParams(lam=lam, a=0.5), config, 0, cap, np.zeros((1, 1), dtype=np.int64), simulator._Window()
        )
        measured = _step_path(lam, 0.5, warmup + slots, simulator._replication_rng(9, 0), 0, 0)[warmup:]
        kl = np.array([(min(q), abs(q[0] - q[1])) for q in measured])
        inside = kl[kl.max(axis=1) <= cap]
        expected = np.zeros_like(counts)
        np.add.at(expected, tuple(inside.T), 1)
        assert len(inside) and np.array_equal(counts, expected)
        assert overflow == slots - len(inside)
        if lam == 0.6:
            assert overflow and max(map(min, measured)) > simulator._SPAN
        assert mom == dict(
            q1=sum(q1 for q1, _ in measured) / slots,
            q2=sum(q2 for _, q2 in measured) / slots,
            q11=sum(q1 * q1 for q1, _ in measured) / slots,
            q22=sum(q2 * q2 for _, q2 in measured) / slots,
            q12=sum(q1 * q2 for q1, q2 in measured) / slots,
        )


def test_determinism(base_params):
    r1 = simulate(base_params, small_config())
    r2 = simulate(base_params, small_config())
    assert r1.e_qsum == r2.e_qsum
    assert r1.correlation == r2.correlation
    assert np.array_equal(r1.empirical.values, r2.empirical.values)
    r3 = simulate(base_params, small_config(seed=99))
    assert r3.e_qsum != r1.e_qsum


def test_near_empty_system():
    p = ModelParams(lam=0.001, a=0.5)
    res = simulate(p, SimConfig(seed=5, warmup_slots=500, measure_slots=50_000, replications=2))
    assert res.empirical.values[0, 0] > 0.99


def test_one_step_frequencies_match_law(base_params):
    """Empirical single-slot transition frequencies from pinned states match
    the region law within 4 sigma at 10^6 samples; this pins the early-arrival
    timing convention to the transition probabilities."""
    n = 1_000_000
    rng = np.random.default_rng(77)
    p = base_params
    u = rng.random((4, n))
    arr = (u[0] < p.lam).tolist()
    tie = (u[1] < 0.5).tolist()
    a1 = (u[2] < p.a).tolist()
    a2 = (u[3] < p.a).tolist()
    for state in [(3, 1), (2, 2), (4, 0), (0, 0)]:
        counts: dict = {}
        for t in range(n):
            nxt = step(state[0], state[1], arr[t], tie[t], a1[t], a2[t])
            counts[nxt] = counts.get(nxt, 0) + 1
        expected = {}
        for di, dj, pr in transition_distribution(state, p):
            dest = (state[0] + di, state[1] + dj)
            expected[dest] = expected.get(dest, 0.0) + pr
        assert set(counts) <= set(expected)
        for dest, pr in expected.items():
            got = counts.get(dest, 0) / n
            sigma = math.sqrt(pr * (1 - pr) / n)
            assert abs(got - pr) < 4 * sigma, (state, dest)


def test_empirical_distribution_properties(base_params):
    """The CLI emits the grid as it is: no entry carries a sign bit, and it holds 1 - overflow_mass."""
    res = simulate(base_params, small_config())
    assert not np.signbit(res.empirical.values).any()
    total = res.empirical.total() + res.overflow_mass
    assert total == pytest.approx(1.0, abs=1e-12)
    assert res.grid_cap == 2 * truncation(base_params, 1e-10)[0]
    assert res.e_sojourn == pytest.approx(res.e_qsum / base_params.lam, rel=1e-12)


@pytest.mark.parametrize("rho", [0.4, 0.7])
def test_total_is_geometric_at_half_attempt_probability(rho):
    """At a = 1/2, P(2k + l = n) = (1 - rho) rho^n (tests/test_routes.py).
    Slots within one replication are correlated, so the test runs across
    replications: 8 seeds of one replication each, whose mean P(n) for
    n = 0..5 must lie within t_(7, 0.9995) = 5.41 standard errors of the
    exact law. Seeds 0-7 give a largest |t| of 1.94 (rho = 0.4) and 2.22
    (rho = 0.7); 2 of 200 disjoint groups of 8 seeds exceed 5.41 at each
    load, a false-alarm rate of about 1 % per load."""
    p = ModelParams(lam=lambda_for_load(rho, 0.5), a=0.5)
    laws = []
    for seed in range(8):
        grid = simulate(p, SimConfig(seed=seed, warmup_slots=10_000, measure_slots=50_000, replications=1)).empirical
        K, L = np.indices(grid.values.shape)
        laws.append(np.bincount((2 * K + L).ravel(), weights=grid.values.ravel())[:6])
    laws = np.array(laws)
    exact = (1 - rho) * rho ** np.arange(6)
    t = (laws.mean(axis=0) - exact) / (laws.std(axis=0, ddof=1) / math.sqrt(len(laws)))
    assert np.max(np.abs(t)) < 5.41


def test_matches_oracle_within_ci(base_params, oracle_base):
    res = simulate(
        base_params, SimConfig(seed=31, warmup_slots=5_000, measure_slots=400_000, replications=4)
    )
    K, L = np.indices(oracle_base.values.shape)
    truth = float(((2 * K + L) * oracle_base.values).sum())
    assert abs(res.e_qsum - truth) < res.e_qsum_ci


def test_cesaro_stabilization(base_params):
    """Time averages stabilize across doubling horizons for stable inputs."""
    means = []
    for slots in (50_000, 100_000, 200_000):
        res = simulate(
            base_params, SimConfig(seed=13, warmup_slots=5_000, measure_slots=slots, replications=2)
        )
        means.append(res.e_qsum)
    assert abs(means[2] - means[1]) < abs(means[1] - means[0]) + 0.05


def test_unstable_runs_allowed():
    p = ModelParams(lam=0.6, a=0.5)
    res = simulate(p, SimConfig(seed=3, warmup_slots=0, measure_slots=20_000, replications=1))
    assert res.e_qsum > 100  # linear growth, no equilibrium
    assert res.overflow_mass > 0
    assert not np.signbit(res.empirical.values).any()
    assert abs(res.empirical.total() + res.overflow_mass - 1.0) <= 1e-12


def test_t_quantile_closed_forms():
    """The 0.975 quantile of Student's t matches its closed forms at df = 1, 2, 4."""
    # df = 4: P(|T| <= t) = s (3 - s^2) / 2 with s = sin(atan(t / 2)); the cubic's trigonometric root
    alpha = 4 * 0.975 * 0.025
    q = math.cos(math.acos(math.sqrt(alpha)) / 3) / math.sqrt(alpha)
    closed = {
        1: math.tan(0.475 * math.pi),
        2: 0.95 / math.sqrt(2 * 0.975 * 0.025),
        4: 2 * math.sqrt(q - 1),
    }
    for df, t in closed.items():
        assert simulator._t_quantile(0.975, df) == pytest.approx(t, rel=1e-13, abs=0)


def test_t_quantile_decreases_to_normal():
    z = statistics.NormalDist().inv_cdf(0.975)
    ts = [simulator._t_quantile(0.975, df) for df in (1, 2, 3, 5, 10, 30, 100, 1000, 10_000)]
    assert all(a > b > z for a, b in zip(ts, ts[1:]))
    assert ts[-1] - z < 1e-3
