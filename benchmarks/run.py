"""relayq benchmark: CLI requests served in-process by one closed-loop client.

    python3 benchmarks/run.py --workload low_load --seed 1 --seconds 20 --trace 0

Run from the repository root. Each pass sends the workload's request list,
shuffled by the seed, through ``relayq.cli.main(argv)`` with stdout captured,
one request after another. Passes repeat until ``--seconds`` have elapsed.
Each reply is checked after its timer has stopped. A request's latency is its
median over the passes; the sums below add those medians over the mix.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced pass with a traced pass of the same requests and reports the
per-layer metrics, the untraced per-kind latencies and the tracing overhead;
its spans go to ``.bench_out/``. Times named ``*_ref_s`` and ``setup_s`` are
rescaled to a reference host speed (see hostspeed.py). The last line of
stdout is one JSON object; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import Sampler
from workloads import WORKLOADS, Request, requests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
SETUP_CODE = f"""
import sys, time
sys.path.insert(0, {str(BENCH)!r})
from hostspeed import Sampler
with Sampler() as sampler:
    t0 = time.perf_counter()
    import relayq.cli
    elapsed = time.perf_counter() - t0
print(elapsed, sampler.rescale(elapsed))
"""

UNITS = {
    "setup_s": "s", "setup_raw_s": "s", "wall_ref_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
    "ca_s": "s", "psa_s": "s", "oracle_s": "s", "sim_slots_per_s": "1/s",
    "failed_share": "share", "trace.overhead_ref_s": "s",
}
END_TO_END = ("wall_ref_s", "peak_rss_mb", "setup_s")
KIND_METRICS = ("wall_s", "ca_s", "psa_s", "oracle_s", "sim_slots_per_s", "failed_share")


@dataclass
class Outcome:
    req: Request
    latency: float
    ref_latency: float  # latency at the reference host speed
    error: str | None  # exception type, "exit <code>" or "CheckError: <why>"


def measure_setup(n: int = SETUP_PROBES) -> tuple[float, float]:
    """Median (rescaled, raw) time to import relayq.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    ref, raw = [], []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        elapsed, rescaled = map(float, out.stdout.split()[-2:])
        raw.append(elapsed)
        ref.append(rescaled)
    return statistics.median(ref), statistics.median(raw)


def blas_threads() -> int | None:
    """Thread count of the scipy-openblas bundled with numpy wheels, if present."""
    import numpy as np

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return int(lib.scipy_openblas_get_num_threads64_())
    return None


def serve(cli, reqs: list[Request], checker, tracer=None) -> list[Outcome]:
    """Send each request once, in order; check each reply after its timer stops."""
    from checks import CheckError

    outcomes = []
    for i, req in enumerate(reqs):
        out = io.StringIO()
        error = None
        gc.collect()  # every request starts from the same collector state
        if tracer is not None:
            tracer.request = i
            span = tracer.begin("request")
            span.attrs["argv"] = req.label()
        with Sampler() as sampler:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(list(req.argv))
            except Exception as exc:  # a crashing request is a failure, not a benchmark error
                rc, error = None, type(exc).__name__
            latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
        if error is None and rc != 0:
            error = f"exit {rc}"
        if error is None:
            try:
                checker.check(i, req, out.getvalue())
            except CheckError as exc:
                error = f"CheckError: {exc}"
        outcomes.append(Outcome(req, latency, sampler.rescale(latency), error))
    return outcomes


def median_latencies(passes: list[list[Outcome]]) -> dict[str, tuple[Request, float, float]]:
    """Each request of the mix with its median (raw, rescaled) latency over the passes."""
    groups: dict[str, list[Outcome]] = {}
    for outcomes in passes:
        for o in outcomes:
            groups.setdefault(o.req.key(), []).append(o)
    return {
        key: (group[0].req, statistics.median(o.latency for o in group),
              statistics.median(o.ref_latency for o in group))
        for key, group in groups.items()
    }


def summarize(passes: list[list[Outcome]]) -> dict[str, float]:
    """Latency sums over the mix, each request counted at its median latency."""
    latencies = median_latencies(passes).values()

    def total(kind=None):
        return sum((t for req, t, _ in latencies if kind in (None, req.kind)), 0.0)

    sim_s = total("sim")
    slots = sum(req.slots for req, _, _ in latencies)
    outcomes = [o for p in passes for o in p]
    return {
        "wall_ref_s": sum(t for _, _, t in latencies),
        "wall_s": total(),
        "ca_s": total("ca"),
        "psa_s": total("psa"),
        "oracle_s": total("oracle"),
        "sim_slots_per_s": slots / sim_s if sim_s > 0 else 0.0,
        "failed_share": sum(o.error is not None for o in outcomes) / len(outcomes),
    }


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def units_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    from tracing import units_of as layer_units

    return layer_units(name)


def write_spans(workload: str, seed: int, tracers) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for index, tracer in enumerate(tracers):
            for record in tracer.records():
                fh.write(json.dumps({"pass": index, **record}) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Serve passes for ``seconds``; returns the result object printed last."""
    setup = None if trace else measure_setup()
    sys.path.insert(0, str(SRC))
    from relayq import cli
    from checks import PassChecker, sim_references
    from tracing import Tracer, layer_metrics

    passes = []  # (outcomes, checker, tracer or None)
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        reqs = requests(workload, seed, index)
        checker = PassChecker()
        passes.append((serve(cli, reqs, checker), checker, None))
        if trace:
            tracer, checker = Tracer(), PassChecker()
            tracer.install()
            try:
                passes.append((serve(cli, reqs, checker, tracer), checker, tracer))
            finally:
                tracer.remove()
        index += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = sim_references([(o.req.rho, o.req.a) for outcomes, _, _ in passes for o in outcomes
                           if o.req.kind == "sim" and o.req.is_json])
    for outcomes, checker, _ in passes:
        for i, why in checker.finish(refs).items():
            if outcomes[i].error is None:
                outcomes[i].error = f"CheckError: {why}"

    untraced = [outcomes for outcomes, _, tracer in passes if tracer is None]
    kinds = summarize(untraced)
    report = {k: kinds[k] for k in KIND_METRICS}
    if trace:
        tracers = [tracer for _, _, tracer in passes if tracer is not None]
        traced = summarize([outcomes for outcomes, _, tracer in passes if tracer is not None])
        metrics = median_of([layer_metrics(t) for t in tracers]) | report
        metrics["trace.overhead_ref_s"] = traced["wall_ref_s"] - kinds["wall_ref_s"]
        write_spans(workload, seed, tracers)
    else:
        metrics = {"wall_ref_s": kinds["wall_ref_s"], "peak_rss_mb": peak_rss_mb, "setup_s": setup[0]}
        report["setup_raw_s"] = setup[1]

    outcomes = [o for p, _, _ in passes for o in p]
    failures = [o for o in outcomes if o.error is not None]
    print(f"relayq benchmark: workload={workload} seed={seed} trace={int(trace)} "
          f"passes={len(untraced)} requests/pass={len(passes[0][0])} blas_threads={blas_threads()}")
    for name, value in (metrics | report).items():
        print(f"  {name:48s} {value:16.6f} {units_of(name)}")
    print("untraced passes, wall_s (wall_ref_s): " + " ".join(
        f"{sum(o.latency for o in p):.3f} ({sum(o.ref_latency for o in p):.3f})" for p in untraced))
    print(f"request latency (raw s, rescaled s), median over {len(untraced)} untraced passes:")
    for key, (_, t, t_ref) in sorted(median_latencies(untraced).items(), key=lambda kv: -kv[1][1]):
        print(f"  {t:10.4f} {t_ref:10.4f}  relayq {key}")
    print(f"failures: {len(failures)} of {len(outcomes)} requests")
    for label, error in sorted({(o.req.label(), o.error) for o in failures}):
        count = sum(1 for o in failures if o.req.label() == label and o.error == error)
        print(f"  {count} x {error}: relayq {label}")
    return {
        "correct": not any(o.error.startswith("CheckError") for o in failures),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units_of(name)} for name in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relayq" / "__init__.py").is_file():
        print(f"error: relayq sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
