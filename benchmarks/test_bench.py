"""Self-tests of the benchmark: python3 -m pytest benchmarks/test_bench.py"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, requests  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_emitted():
    spec = _spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layer:
        assert NAME.fullmatch(name), name
    assert set(e2e) == set(run.END_TO_END)
    emitted = set(tracing.metric_names()) | set(run.KIND_METRICS) | {"trace.overhead_ref_s"}
    assert set(layer) == emitted
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.units_of(m["name"]), m["name"]


def test_layer_metrics_cover_every_name_without_traffic():
    assert list(tracing.layer_metrics(tracing.Tracer())) == tracing.metric_names()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload):
    assert requests(workload, 7) == requests(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_only_order_and_sim_seeds(workload):
    a, b = requests(workload, 7), requests(workload, 8)
    assert [r.label() for r in a] != [r.label() for r in b]
    assert sorted(r.key() for r in a) == sorted(r.key() for r in b)
    seeds = lambda reqs: sorted(r.argv[r.argv.index("--seed") + 1] for r in reqs if "--seed" in r.argv)
    assert seeds(a) != seeds(b) or not seeds(a)


def _reply(vals, overflow=None):
    n = vals.shape[0]
    tables = {"measures": [], "grid": [{"k": k, "l": l, "prob": float(vals[k, l])}
                                       for k in range(n) for l in range(n)]}
    if overflow is not None:
        tables["measures"].append({"name": "overflow_mass", "value": overflow, "ci_halfwidth": None})
    return json.dumps(tables)


def _ca_request():
    return next(r for r in requests("low_load", 0) if r.kind == "ca" and r.is_json)


def test_checker_accepts_program_grid_and_rejects_perturbed_mass():
    from relayq import compensation

    req = _ca_request()
    vals = compensation.solve(checks.params_for(req.rho, req.a)).grid.values
    checks.PassChecker().check(0, req, _reply(vals))
    bad = vals.copy()
    bad[0, 0] += 1e-6
    with pytest.raises(checks.CheckError, match="mass"):
        checks.PassChecker().check(0, req, _reply(bad))
    moved = vals.copy()
    moved[0, 0] -= 1e-6
    moved[1, 0] += 1e-6  # mass kept, balance broken
    with pytest.raises(checks.CheckError, match="residual"):
        checks.PassChecker().check(0, req, _reply(moved))


def test_checker_rejects_negative_entry():
    vals = np.full((6, 6), 1.0 / 36)
    vals[0, 0] = -1e-3
    vals[0, 1] += 1.0 / 36 + 1e-3  # mass kept
    checks.check_grid(np.full((6, 6), 1.0 / 36))
    with pytest.raises(checks.CheckError, match="negative"):
        checks.check_grid(vals)


def test_wrappers_removed_after_traced_pass():
    from relayq import cli, compensation, psa

    originals = {(m, a): getattr(m, a) for m, a, *_ in tracing.SPANS + tracing.COUNTERS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert compensation.solve is not originals[(compensation, "solve")]
        checker = checks.PassChecker()
        outcomes = run.serve(cli, [_ca_request()], checker, tracer)
    finally:
        tracer.remove()
    assert outcomes[0].error is None
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn, attr
    metrics = tracing.layer_metrics(tracer)
    assert metrics["compensation.solve.s"] > 0
    assert metrics["compensation.root_calls"] > 0
    assert metrics["psa.solve.s"] == 0 and psa.solve is originals[(psa, "solve")]
    assert cli.run is originals[(cli, "run")]
