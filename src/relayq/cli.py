"""Command-line front end.

Parameters are given either as an arrival probability (--lambda) or as a
load (--rho, converted in closed form given --a). Results are emitted as CSV
(default) or JSON with bit-stable formatting; the exit code distinguishes
usage errors (2), unstable parameter points (3), and numerical failures (4).

Output is a set of named tables. JSON is byte-equal to ``json.dumps(tables,
indent=2)`` of the tables as lists of row dicts, the grid table as one
``{"k", "l", "prob"}`` dict per state in (k, l) order. CSV writes each table
as a ``# table: <name>`` line, a header line and one line per row, cells as
:func:`_fmt` formats them (floats with ``%.17g``). JSON writes each table of
row dicts through ``json.dumps`` itself. A grid's states, 207k of them at
rho = 0.97, are written from its values array, one k-row at a time, as
``ProbabilityGrid.finished`` left it and the measures read it, out of text
pieces made once: each row's head once per row and each column's ``l``
piece once per grid, so a state costs one float format and one
concatenation (:func:`_grid_pieces`). Every ``{"name", "value",
"ci_halfwidth"}`` table comes from one row builder, :func:`_rows`.

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

Every default is a field default of :class:`RunSpec`. The argument parser
is built once per process, on the first :func:`main` call, and every later
call reuses it. ``solve``, ``compare`` and ``table1`` reach CA, PSA and the
oracle only through :func:`relayq.solve`;
``decay`` reaches CA's series through :func:`relayq.measures.decay_diagnostics`,
and ``vs-single-server`` through :func:`relayq.measures.single_server_comparison`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import measures, routes, simulator
from .errors import GridError, NumericsError, RelayQError, StabilityError
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
    """Format one CSV cell:

    - ``None`` -> empty cell;
    - ``str`` -> verbatim;
    - ``bool`` / ``numpy.bool_`` -> ``true`` / ``false``;
    - ``int`` / ``numpy.integer`` -> decimal;
    - anything else -> ``float`` printed with ``%.17g`` (round-trips exactly).

    Its JSON twin is ``json.dumps`` with :func:`_numpy_scalar`: ``null``,
    escaped strings, booleans, integers and floats (``repr``, or ``NaN`` /
    ``Infinity``).
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


def _rows(values: dict, ci: dict | None = None) -> list[dict]:
    """One name/value row per entry of ``values``, in order; ``ci`` maps a name to its half-width."""
    return [{"name": name, "value": value, "ci_halfwidth": (ci or {}).get(name)} for name, value in values.items()]


def _differences(ca: routes.Solution, ps: routes.Solution | None) -> dict:
    """|CA - PSA| of the mean sojourn and of the correlation (``None`` read as 0), ``None`` without PSA."""
    if ps is None:
        return {"abs_diff_e_sojourn": None, "abs_diff_correlation": None}
    m_ca, m_ps = ca.measures, ps.measures
    return {
        "abs_diff_e_sojourn": abs(m_ca.e_sojourn - m_ps.e_sojourn),
        "abs_diff_correlation": abs((m_ca.correlation or 0.0) - (m_ps.correlation or 0.0)),
    }


def _psa_or_none(params: ModelParams, spec: RunSpec) -> routes.Solution | None:
    """PSA's solution, or ``None`` with a warning where the series gives no answer."""
    try:
        return routes.solve(params, "psa", spec.epsilon, spec.G)
    except NumericsError as exc:
        print(f"warning: {exc}; the power-series cells are empty", file=sys.stderr)
        return None


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
    names = ("e_qsum", "e_sojourn", "correlation", "overflow_mass")
    ci = {name: getattr(sim, f"{name}_ci") for name in names[:3]}
    rows = _rows({name: getattr(sim, name) for name in names}, ci)
    return {"measures": rows, "grid": sim.empirical.values}


def run(spec: RunSpec) -> dict:
    """Execute a RunSpec; returns its tables as {name: table}.

    A table is a list of row dicts sharing their keys, or, for the ``grid``
    table, the values array of a grid, emitted with one row per state.
    """
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
        return {"stability": rows}

    if spec.command == "solve":
        params = _resolve_params(spec)
        if spec.method == "sim":
            return _simulation_tables(params, spec)
        sol = routes.solve(params, spec.method, spec.epsilon, spec.G)
        if not sol.converged:
            # a warning, not an error: the series settled within 1e-6, and its grid is emitted
            print(f"warning: power series did not converge (stop: {sol.stop_reason}, N = {sol.depth}); "
                  "measures come from the clipped, renormalized partial sum", file=sys.stderr)
        m = sol.measures
        decay = [name for name in ("decay_ratio", "marginal_min_decay") if getattr(m, name) is not None]
        values = {name: getattr(m, name) for name in ("e_qsum", "e_sojourn", "correlation", *decay)}
        return {"measures": _rows(values), "grid": sol.grid.values}

    if spec.command == "compare":
        params = _resolve_params(spec)
        ca, ps = routes.solve(params, "ca", spec.epsilon), _psa_or_none(params, spec)
        orc = routes.solve(params, "oracle", min(spec.epsilon, 1e-10))

        def maxnorm(s1: routes.Solution | None, s2: routes.Solution | None) -> float | None:
            if s1 is None or s2 is None:
                return None
            k, l = np.minimum(s1.grid.values.shape, s2.grid.values.shape)  # the common box on each axis
            return float(np.max(np.abs(s1.grid.values[:k, :l] - s2.grid.values[:k, :l])))

        cells = {"maxnorm_ca_oracle": maxnorm(ca, orc), "maxnorm_psa_oracle": maxnorm(ps, orc),
                 "maxnorm_ca_psa": maxnorm(ca, ps), **_differences(ca, ps)}
        return {"compare": _rows(cells)}

    if spec.command == "table1":
        rows = []
        for rho in _TABLE1_LOADS:
            params = ModelParams(lam=lambda_for_load(rho, 0.5), a=0.5)
            ca, ps = routes.solve(params, "ca", spec.epsilon), _psa_or_none(params, spec)
            m_ca, m_ps = ca.measures, None if ps is None else ps.measures
            diff = _differences(ca, ps)
            rows.append(
                {
                    "rho": rho,
                    "e_sojourn_ca": m_ca.e_sojourn,
                    "e_sojourn_psa": None if m_ps is None else m_ps.e_sojourn,
                    "abs_diff_e_sojourn": diff["abs_diff_e_sojourn"],
                    "correlation_ca": m_ca.correlation,
                    "correlation_psa": None if m_ps is None else m_ps.correlation,
                    "abs_diff_correlation": diff["abs_diff_correlation"],
                    "psa_converged": ps is not None and ps.converged,
                }
            )
        return {"table1": rows}

    if spec.command == "decay":
        diag = measures.decay_diagnostics(_resolve_params(spec), spec.epsilon)
        rows = [{"name": "expected_rho_squared", "l": None, "value": diag.expected}]
        for l, est in sorted(diag.fixed_l_estimates.items()):
            rows.append({"name": "fixed_l_ratio", "l": l, "value": est})
        rows.append({"name": "marginal_min_ratio", "l": None, "value": diag.marginal_estimate})
        return {"decay": rows}

    if spec.command == "vs-single-server":
        if spec.lam is None:
            raise UsageError("vs-single-server needs --lambda")
        lam = _resolve_params(spec).lam
        a_grid = tuple(np.round(np.arange(0.05, 1.0, 0.05), 10))
        comp = measures.single_server_comparison(lam, a_grid, epsilon=spec.epsilon)
        # SingleServerRow's field order is the column order
        rows = [asdict(r) for r in comp.rows]
        head = [{"name": "a_minus", "value": comp.a_minus}, {"name": "a_plus", "value": comp.a_plus}]
        return {"stability_interval": head, "vs_single_server": rows}

    if spec.command == "simulate":
        return _simulation_tables(_resolve_params(spec), spec)

    raise UsageError(f"unknown command {spec.command!r}")


def _grid_pieces(values: np.ndarray, head: str, mid: str, tail: str, sep: str, prob):
    """A grid's states (k, l, prob) in (k, l) order, one k-row at a time, as
    pieces that concatenate to ``head % k + str(l) + mid + prob(p) + tail``
    per state, joined by ``sep``.

    The pieces are shared: ``head % k`` is made once per row and ``f"{l}{mid}"``
    once per column, for ``values.shape[1]`` columns, so a state costs one
    ``prob`` call and one concatenation.
    """
    cols = [f"{l}{mid}" for l in range(values.shape[1])]
    for k in range(len(values)):
        first = head % k
        row = (tail + sep + first).join([col + p for col, p in zip(cols, map(prob, values[k].tolist()))])
        yield f"{sep if k else ''}{first}{row}{tail}"


def _to_csv(tables: dict) -> str:
    """CSV of the tables: per table a ``# table:`` line, a header and its rows.
    A grid's rows come from :func:`_grid_pieces` with the row head ``"k,"``
    and the column piece ``"l,"``, its floats in ``%.17g``."""
    parts = []
    for name, table in tables.items():
        if len(table) == 0:
            continue
        parts.append(f"# table: {name}\n")
        if isinstance(table, np.ndarray):
            parts += ["k,l,prob\n", *_grid_pieces(table, "%d,", ",", "", "\n", "%.17g".__mod__), "\n"]
        else:
            parts.append(",".join(table[0]) + "\n")
            parts += [",".join([_fmt(cell) for cell in row.values()]) + "\n" for row in table]
    return "".join(parts) or "\n"


def _numpy_scalar(x):
    """``json.dumps`` hook: a numpy scalar as its Python value; other types raise ``TypeError``."""
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _to_json(tables: dict) -> str:
    """JSON twin of ``_to_csv``, byte-equal to ``json.dumps(tables, indent=2)``
    of the tables as lists of row dicts. Row-dict tables go through
    ``json.dumps`` itself; a grid's rows come from :func:`_grid_pieces`, with
    the ``{"k": k, "l": `` head made once per row and the ``l, "prob": ``
    piece once per column, each float written by ``repr`` as ``json.dumps``
    writes it."""
    parts = []
    for name, table in tables.items():
        parts += [",\n" if parts else "{\n", f"  {json.dumps(name)}: "]
        if isinstance(table, np.ndarray) and len(table):
            prob = repr if np.isfinite(table).all() else json.dumps
            pieces = ('    {\n      "k": %d,\n      "l": ', ',\n      "prob": ', "\n    }", ",\n")
            parts += ["[\n", *_grid_pieces(table, *pieces, prob), "\n  ]"]
        else:
            parts.append(json.dumps(list(table), indent=2, default=_numpy_scalar).replace("\n", "\n  "))
    parts.append("\n}\n" if parts else "{}\n")
    return "".join(parts)


def emit(tables: dict, spec: RunSpec) -> str:
    text = _to_csv(tables) if spec.fmt == "csv" else _to_json(tables)
    if spec.out:
        path = spec.out
        base_dir = os.environ.get(OUTPUT_DIR_ENV)
        if base_dir and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {path}: {exc}") from exc
    return text


# every option a subcommand may take; no default here, absent options keep RunSpec's
_OPTIONS = {
    "--lambda": dict(dest="lam", type=float, help="arrival probability per slot"),
    "--rho": dict(type=float, help="system load (alternative to --lambda)"),
    "--a": dict(type=float, help="per-relay transmission attempt probability"),
    "--method": dict(choices=(*routes.METHODS, "sim")),
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first :func:`main` call, not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    spec = RunSpec(**vars(args))
    try:
        text = emit(run(spec), spec)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (NumericsError, GridError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # numpy's message names the allocation that failed; a bare MemoryError has none
        print(f"numerical failure: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not spec.out:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
