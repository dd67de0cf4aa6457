"""Command-line front end.

Parameters are given either as an arrival probability (--lambda) or as a
load (--rho, converted in closed form given --a). Results are emitted as CSV
(default) or JSON with bit-stable formatting; the exit code distinguishes
usage errors (2), unstable parameter points (3), and numerical failures (4).

Each subcommand takes --format and --out, and besides them only the options
it reads:

- stability: --lambda, --rho, --a
- solve: --lambda, --rho, --a, --method, --epsilon, --G, --seed, --warmup,
  --slots, --reps (which of them matter depends on --method)
- compare: --lambda, --rho, --a, --epsilon, --G
- table1: --epsilon, --G
- decay: --lambda, --rho, --a, --epsilon
- vs-single-server: --lambda (which it needs), --epsilon
- simulate: --lambda, --rho, --a, --seed, --warmup, --slots, --reps

Every default is a field default of :class:`RunSpec`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import compensation, measures, oracle, psa, simulator
from .errors import GridError, NumericsError, RelayQError, StabilityError, UnsupportedParameterError
from .grids import ProbabilityGrid
from .model import EPSILON_FLOOR, ModelParams, is_stable, lambda_for_load

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSTABLE = 3
EXIT_NUMERICAL = 4

OUTPUT_DIR_ENV = "RELAYQ_OUT_DIR"

_TABLE1_LOADS = (0.1, 0.4, 0.7, 0.9, 0.95)


class UsageError(RelayQError):
    pass


@dataclass(frozen=True)
class RunSpec:
    command: str
    lam: float | None = None
    rho: float | None = None
    a: float = 0.5
    method: str = "ca"
    epsilon: float = 1e-12
    G: float = 1.0
    seed: int = 0
    warmup: int = 10_000
    slots: int = 1_000_000
    reps: int = 10
    fmt: str = "csv"
    out: str | None = None


def _fmt(x) -> str:
    """Format one CSV cell; the cell format shared by both emitters.

    - ``None`` -> empty cell;
    - ``str`` -> verbatim;
    - ``bool`` / ``numpy.bool_`` -> ``true`` / ``false``;
    - ``int`` / ``numpy.integer`` -> decimal;
    - anything else -> ``float`` printed with ``%.17g`` (round-trips exactly).

    ``_to_json`` maps the same types to JSON ``null``, strings, booleans,
    integers and floats.
    """
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _resolve_params(spec: RunSpec) -> ModelParams:
    if (spec.lam is None) == (spec.rho is None):
        raise UsageError("provide exactly one of --lambda or --rho")
    try:
        lam = spec.lam if spec.lam is not None else lambda_for_load(spec.rho, spec.a)
        return ModelParams(lam=lam, a=spec.a)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _grid_rows(grid: ProbabilityGrid) -> list[dict]:
    vals = grid.clipped().values
    return [
        {"k": k, "l": l, "prob": float(vals[k, l])}
        for k in range(vals.shape[0])
        for l in range(vals.shape[1])
    ]


def _measure_rows(report: measures.MeasureReport) -> list[dict]:
    rows = [
        {"name": "e_qsum", "value": report.e_qsum, "ci_halfwidth": None},
        {"name": "e_sojourn", "value": report.e_sojourn, "ci_halfwidth": None},
        {"name": "correlation", "value": report.correlation, "ci_halfwidth": None},
    ]
    if report.decay_ratio is not None:
        rows.append({"name": "decay_ratio", "value": report.decay_ratio, "ci_halfwidth": None})
    if report.marginal_min_decay is not None:
        rows.append(
            {"name": "marginal_min_decay", "value": report.marginal_min_decay, "ci_halfwidth": None}
        )
    return rows


def _psa_reporting_grid(solution) -> ProbabilityGrid:
    # a non-converged reconstruction carries round-off (or divergence) mass;
    # measures are reported from the clipped, renormalized grid
    return solution.grid.clipped().normalized()


def _solve_grid(params: ModelParams, spec: RunSpec) -> ProbabilityGrid:
    if spec.method == "ca":
        return compensation.solve(params, epsilon=spec.epsilon).grid
    if spec.method == "psa":
        solution = psa.solve(params, G=spec.G, epsilon=spec.epsilon)
        if not solution.diagnostics.converged:
            # a warning, not an error: the grid is still the best iterate and is emitted
            print(
                f"warning: power series did not converge (stop: {solution.diagnostics.stop_reason}, "
                f"N = {solution.N_psa}); measures come from the clipped, renormalized partial sum",
                file=sys.stderr,
            )
        return _psa_reporting_grid(solution)
    if spec.method == "oracle":
        T = oracle.choose_truncation(params, spec.epsilon)
        return oracle.stationary(oracle.build(params, T))
    raise UsageError(f"unknown method {spec.method!r}")


@dataclass(frozen=True)
class _CaPsa:
    """CA and PSA solutions of one parameter point, as ``compare`` and ``table1`` report them."""

    ca_grid: ProbabilityGrid
    psa_grid: ProbabilityGrid
    psa_converged: bool
    ca_measures: measures.MeasureReport
    psa_measures: measures.MeasureReport


def _solve_ca_and_psa(params: ModelParams, spec: RunSpec) -> _CaPsa:
    ca_grid = compensation.solve(params, epsilon=spec.epsilon).grid
    ps = psa.solve(params, G=spec.G, epsilon=spec.epsilon)
    psa_grid = _psa_reporting_grid(ps)
    return _CaPsa(
        ca_grid=ca_grid,
        psa_grid=psa_grid,
        psa_converged=ps.diagnostics.converged,
        ca_measures=measures.moments_from_transformed(ca_grid, params),
        psa_measures=measures.moments_from_transformed(psa_grid, params),
    )


def _simulation_tables(params: ModelParams, spec: RunSpec) -> dict:
    """Tables of ``simulate`` and of ``solve --method sim``: estimates and empirical grid."""
    try:
        config = simulator.SimConfig(
            seed=spec.seed,
            warmup_slots=spec.warmup,
            measure_slots=spec.slots,
            replications=spec.reps,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sim = simulator.simulate(params, config)
    rows = [
        {"name": "e_qsum", "value": sim.e_qsum, "ci_halfwidth": sim.e_qsum_ci},
        {"name": "e_sojourn", "value": sim.e_sojourn, "ci_halfwidth": sim.e_sojourn_ci},
        {"name": "correlation", "value": sim.correlation, "ci_halfwidth": sim.correlation_ci},
        {"name": "overflow_mass", "value": sim.overflow_mass, "ci_halfwidth": None},
    ]
    return {"tables": {"measures": rows, "grid": _grid_rows(sim.empirical)}}


def run(spec: RunSpec) -> dict:
    """Execute a RunSpec; returns {"tables": {name: [row dicts]}}."""
    if not (math.isfinite(spec.epsilon) and spec.epsilon > 0):
        raise UsageError(f"--epsilon must be finite and > 0, got {spec.epsilon}")
    if not (math.isfinite(spec.G) and spec.G >= 0):
        raise UsageError(f"--G must be finite and >= 0, got {spec.G}")
    if spec.command == "stability":
        params = _resolve_params(spec)
        rep = is_stable(params)
        rows = [
            {
                "lambda": params.lam,
                "a": params.a,
                "load": params.rho,
                "margin": rep.margin,
                "verdict": "stable" if rep.stable else "unstable",
            }
        ]
        return {"tables": {"stability": rows}}

    if spec.command == "solve":
        params = _resolve_params(spec)
        if spec.method == "sim":
            return _simulation_tables(params, spec)
        grid = _solve_grid(params, spec)
        report = measures.moments_from_transformed(grid, params)
        return {"tables": {"measures": _measure_rows(report), "grid": _grid_rows(grid)}}

    if spec.command == "compare":
        params = _resolve_params(spec)
        if abs(params.a - 0.5) > 1e-15:
            raise UsageError("compare runs the power-series method and needs a = 1/2")
        # build the oracle chain first: an oversized box fails before any solve
        chain = oracle.build(params, oracle.choose_truncation(params, min(spec.epsilon, 1e-10)))
        both = _solve_ca_and_psa(params, spec)
        orc = oracle.stationary(chain)

        def maxnorm(g1: ProbabilityGrid, g2: ProbabilityGrid) -> float:
            m = min(g1.T, g2.T)
            return float(np.max(np.abs(g1.values[: m + 1, : m + 1] - g2.values[: m + 1, : m + 1])))

        m_ca, m_ps = both.ca_measures, both.psa_measures
        rows = [
            {"name": "maxnorm_ca_oracle", "value": maxnorm(both.ca_grid, orc), "ci_halfwidth": None},
            {"name": "maxnorm_psa_oracle", "value": maxnorm(both.psa_grid, orc), "ci_halfwidth": None},
            {"name": "maxnorm_ca_psa", "value": maxnorm(both.ca_grid, both.psa_grid), "ci_halfwidth": None},
            {"name": "abs_diff_e_sojourn", "value": abs(m_ca.e_sojourn - m_ps.e_sojourn), "ci_halfwidth": None},
            {
                "name": "abs_diff_correlation",
                "value": abs((m_ca.correlation or 0.0) - (m_ps.correlation or 0.0)),
                "ci_halfwidth": None,
            },
        ]
        return {"tables": {"compare": rows}}

    if spec.command == "table1":
        rows = []
        for rho in _TABLE1_LOADS:
            both = _solve_ca_and_psa(ModelParams(lam=lambda_for_load(rho, 0.5), a=0.5), spec)
            m_ca, m_ps = both.ca_measures, both.psa_measures
            rows.append(
                {
                    "rho": rho,
                    "e_sojourn_ca": m_ca.e_sojourn,
                    "e_sojourn_psa": m_ps.e_sojourn,
                    "abs_diff_e_sojourn": abs(m_ca.e_sojourn - m_ps.e_sojourn),
                    "correlation_ca": m_ca.correlation,
                    "correlation_psa": m_ps.correlation,
                    "abs_diff_correlation": abs(m_ca.correlation - m_ps.correlation),
                    "psa_converged": both.psa_converged,
                }
            )
        return {"tables": {"table1": rows}}

    if spec.command == "decay":
        params = _resolve_params(spec)
        # decay estimates probe the tail, so guarantee a deep enough grid
        result = compensation.solve(params, epsilon=spec.epsilon, T_min=24)
        diag = measures.decay_diagnostics(result.grid, params)
        rows = [{"name": "expected_rho_squared", "l": None, "value": diag.expected}]
        for l, est in sorted(diag.fixed_l_estimates.items()):
            rows.append({"name": "fixed_l_ratio", "l": l, "value": est})
        rows.append({"name": "marginal_min_ratio", "l": None, "value": diag.marginal_estimate})
        return {"tables": {"decay": rows}}

    if spec.command == "vs-single-server":
        if spec.lam is None:
            raise UsageError("vs-single-server needs --lambda")
        lam = _resolve_params(spec).lam
        a_grid = tuple(np.round(np.arange(0.05, 1.0, 0.05), 10))
        comp = measures.single_server_comparison(lam, a_grid, epsilon=spec.epsilon)
        rows = [
            {
                "a": r.a,
                "single_stable": r.single_stable,
                "jsrq_stable": r.jsrq_stable,
                "single_mean_queue": r.single_mean_queue,
                "jsrq_mean_total": r.jsrq_mean_total,
            }
            for r in comp.rows
        ]
        head = [{"name": "a_minus", "value": comp.a_minus}, {"name": "a_plus", "value": comp.a_plus}]
        return {"tables": {"stability_interval": head, "vs_single_server": rows}}

    if spec.command == "simulate":
        return _simulation_tables(_resolve_params(spec), spec)

    raise UsageError(f"unknown command {spec.command!r}")


def _to_csv(artifact: dict) -> str:
    chunks = []
    for name, rows in artifact["tables"].items():
        if not rows:
            continue
        header = list(rows[0].keys())
        lines = [f"# table: {name}", ",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(row[h]) for h in header))
        chunks.append("\n".join(lines))
    return "\n".join(chunks) + "\n"


def _json_scalar(obj):
    """Plain Python value of a numpy scalar; ``json.dumps`` asks only for non-plain types."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot emit {type(obj).__name__} as JSON")


def _to_json(artifact: dict) -> str:
    """JSON twin of ``_to_csv``; cells follow the types listed in ``_fmt``."""
    return json.dumps(artifact["tables"], indent=2, default=_json_scalar) + "\n"


def emit(artifact: dict, spec: RunSpec) -> str:
    text = _to_csv(artifact) if spec.fmt == "csv" else _to_json(artifact)
    if spec.out:
        path = spec.out
        base_dir = os.environ.get(OUTPUT_DIR_ENV)
        if base_dir and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    return text


# every option a subcommand may take; no default here, absent options keep RunSpec's
_OPTIONS = {
    "--lambda": dict(dest="lam", type=float, help="arrival probability per slot"),
    "--rho": dict(type=float, help="system load (alternative to --lambda)"),
    "--a": dict(type=float, help="per-relay transmission attempt probability"),
    "--method": dict(choices=("ca", "psa", "oracle", "sim")),
    "--epsilon": dict(type=float, help=f"precision target (clamped at {EPSILON_FLOOR:g})"),
    "--G": dict(type=float, help="series acceleration parameter"),
    "--seed": dict(type=int),
    "--warmup": dict(type=int),
    "--slots": dict(type=int),
    "--reps": dict(type=int),
    "--format": dict(dest="fmt", choices=("csv", "json")),
    "--out": dict(help=f"output path (relative paths join ${OUTPUT_DIR_ENV} when set)"),
}
_PARAMS = ("--lambda", "--rho", "--a")
_SIM = ("--seed", "--warmup", "--slots", "--reps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayq",
        description="Equilibrium analysis of a two-relay random-access network "
        "with join-the-shortest-queue routing and collisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in (*flags, "--format", "--out"):
            p.add_argument(flag, **_OPTIONS[flag])

    command("stability", "load, margin and verdict", *_PARAMS)
    command("solve", "equilibrium grid plus measures", *_PARAMS, "--method", "--epsilon", "--G", *_SIM)
    command("compare", "cross-method distances", *_PARAMS, "--epsilon", "--G")
    command("table1", "sojourn/correlation sweep over loads", "--epsilon", "--G")
    command("decay", "geometric decay diagnostics", *_PARAMS, "--epsilon")
    command("vs-single-server", "two relays vs one server", "--lambda", "--epsilon")
    command("simulate", "Monte Carlo estimates", *_PARAMS, *_SIM)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    spec = RunSpec(**vars(args))
    try:
        artifact = run(spec)
    except (UsageError, UnsupportedParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (NumericsError, GridError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    text = emit(artifact, spec)
    if not spec.out:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
