import math

import numpy as np
import pytest

from relayq import oracle, simulator
from relayq.model import ModelParams, transition_distribution
from relayq.simulator import SimConfig, estimate_stability_boundary, simulate, step


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
    [(0.3, (0, 0)), (0.3, (2, 2)), (0.3, (3, 1)), (0.3, (0, 5)), (0.6, (0, 0))],
)
def test_paths_follow_step(monkeypatch, lam, start):
    # a small chunk puts several chunk boundaries, and a short last chunk, in the run
    monkeypatch.setattr(simulator, "_CHUNK", 4096)
    slots = 20_000
    got = [
        state
        for path1, path2 in simulator._paths(lam, 0.5, slots, np.random.default_rng(41), *start)
        for state in zip(path1, path2)
    ]
    assert got == _step_path(lam, 0.5, slots, np.random.default_rng(41), *start)


def test_sample_path_pinned():
    """Pinned values of one sample path: a kernel change that moves the draws
    or the dynamics moves them."""
    res = simulate(
        ModelParams(lam=0.3, a=0.5),
        SimConfig(seed=7, warmup_slots=500, measure_slots=20_000, replications=2),
    )
    assert res.per_replication_qsum == (0.7205999999999999, 0.7174499999999999)
    assert res.overflow_mass == 0.0
    assert res.empirical.values.sum() == 0.9999999999999999


def test_chunk_bookkeeping(monkeypatch):
    """Counts, overflow and moments of a made-up path: warm-up across a chunk
    boundary, states on and just past the grid cap, and q^2 summed over one
    chunk past 2**63, where an int64 sum would wrap."""
    cap, far = 10, 30_000_000
    edge = [(10, 20), (20, 10), (11, 11), (3, 14)]  # (k, l) = (10, 10) twice, then two outside
    chunk = [(0, 0)] + [(far, 0)] * (simulator._CHUNK - 5) + edge
    measured = chunk[1:]

    def made_up_paths(lam, a, slots, rng):
        yield [5] * simulator._CHUNK, [5] * simulator._CHUNK
        yield [q1 for q1, _ in chunk], [q2 for _, q2 in chunk]

    monkeypatch.setattr(simulator, "_paths", made_up_paths)
    config = SimConfig(
        seed=0, warmup_slots=simulator._CHUNK + 1, measure_slots=len(measured), replications=1
    )
    counts, overflow, mom = simulator._run_one(ModelParams(lam=0.3, a=0.5), config, 0, cap)
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
    assert mom == pytest.approx(exact, rel=1e-12)


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
        for di, dj, pr in transition_distribution(state, p).steps:
            dest = (state[0] + di, state[1] + dj)
            expected[dest] = expected.get(dest, 0.0) + pr
        assert set(counts) <= set(expected)
        for dest, pr in expected.items():
            got = counts.get(dest, 0) / n
            sigma = math.sqrt(pr * (1 - pr) / n)
            assert abs(got - pr) < 4 * sigma, (state, dest)


def test_empirical_distribution_properties(base_params):
    res = simulate(base_params, small_config())
    total = res.empirical.total() + res.overflow_mass
    assert total == pytest.approx(1.0, abs=1e-12)
    assert res.grid_cap == 2 * oracle.choose_truncation(base_params, 1e-10)
    assert res.e_sojourn == pytest.approx(res.e_qsum / base_params.lam, rel=1e-12)


def test_matches_oracle_within_ci(base_params, oracle_base):
    res = simulate(
        base_params, SimConfig(seed=31, warmup_slots=5_000, measure_slots=400_000, replications=4)
    )
    K, L = np.meshgrid(np.arange(oracle_base.T + 1), np.arange(oracle_base.T + 1), indexing="ij")
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


def test_stability_boundary_smoke():
    cfg = SimConfig(seed=17)
    est = estimate_stability_boundary(0.5, cfg, slots=120_000)
    assert est == pytest.approx(0.5, abs=0.02)
