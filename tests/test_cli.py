import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relayq import cli, compensation, oracle, psa, routes
from relayq.errors import GridError
from relayq.model import ModelParams, lambda_for_load


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    tables = {}
    current = None
    header = None
    for line in text.strip().splitlines():
        if line.startswith("# table: "):
            current = line.split(": ", 1)[1]
            tables[current] = []
            header = None
        elif header is None:
            header = line.split(",")
        else:
            row = dict(zip(header, line.split(",")))
            tables[current].append(row)
    return tables


def test_stability_output(capsys):
    code, out, _ = run_cli(["stability", "--lambda", "0.3", "--a", "0.5"], capsys)
    assert code == 0
    rows = parse_csv(out)["stability"]
    assert rows[0]["verdict"] == "stable"
    assert float(rows[0]["load"]) == pytest.approx(3 / 7, rel=1e-15)
    code, out, _ = run_cli(["stability", "--lambda", "0.5", "--a", "0.5"], capsys)
    rows = parse_csv(out)["stability"]
    assert rows[0]["verdict"] == "unstable"
    assert float(rows[0]["margin"]) == 0.0


def test_usage_errors(capsys):
    # both or neither of --lambda/--rho
    code, _, err = run_cli(["solve", "--lambda", "0.3", "--rho", "0.4", "--a", "0.5"], capsys)
    assert code == 2
    code, _, err = run_cli(["solve", "--a", "0.5"], capsys)
    assert code == 2
    # argparse-level garbage
    assert cli.main(["solve", "--method", "bogus", "--rho", "0.4"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--lambda", "0.3", "--slots", "0"],
        ["simulate", "--lambda", "0.3", "--reps", "0"],
        ["simulate", "--lambda", "0.3", "--warmup", "-5"],
        ["simulate", "--lambda", "0.3", "--seed", "-1"],
        ["solve", "--rho", "-0.1"],
        ["vs-single-server", "--lambda", "0"],
        ["solve", "--method", "psa", "--rho", "0.4", "--G", "-1"],
        ["solve", "--method", "oracle", "--rho", "0.4", "--epsilon", "0"],
        ["compare", "--rho", "0.4", "--epsilon", "0"],
        ["solve", "--rho", "0.4", "--epsilon", "nan"],
        ["solve", "--method", "psa", "--rho", "0.4", "--epsilon", "nan"],
        ["solve", "--rho", "0.4", "--epsilon", "-1"],
        ["decay", "--rho", "0.4", "--epsilon", "inf"],
        ["solve", "--method", "psa", "--rho", "0.4", "--G", "nan"],
        ["solve", "--method", "psa", "--rho", "0.4", "--G", "inf"],
        ["solve", "--rho", "0.4", "--a", "0"],
        ["solve", "--rho", "0.4", "--a", "1.0"],
        ["solve", "--rho", "0.4", "--a", "1.5"],
        ["solve", "--rho", "inf"],  # nan <= 0 is false: these once exited 2 naming a lambda never given
        ["stability", "--rho", "nan"],
    ],
)
def test_bad_values_are_usage_errors(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "usage error" in err
    if "--a" in args:
        assert "attempt probability" in err
    elif args[-2] == "--rho":
        assert err == f"usage error: load must be finite and positive, got {float(args[-1])}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["stability", "--rho", "0.4", "--G", "1"],
        ["decay", "--rho", "0.4", "--G", "2"],
        ["vs-single-server", "--lambda", "0.2", "--a", "0.3"],
        ["vs-single-server", "--rho", "0.4"],
        ["simulate", "--lambda", "0.3", "--epsilon", "1e-6"],
    ],
)
def test_subcommands_reject_options_they_do_not_read(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "unrecognized arguments" in err


def test_vs_single_server_names_only_lambda(capsys):
    code, _, err = run_cli(["vs-single-server"], capsys)
    assert code == 2
    assert "--lambda" in err
    assert "--rho" not in err


# the shortest command line each subcommand accepts
_MINIMAL_ARGV = {
    "stability": ["--rho", "0.4"],
    "solve": ["--rho", "0.4"],
    "compare": ["--rho", "0.4"],
    "table1": [],
    "decay": ["--rho", "0.4"],
    "vs-single-server": ["--lambda", "0.2"],
    "simulate": ["--lambda", "0.3"],
}


def test_parser_dests_are_runspec_fields(capsys, monkeypatch):
    defaults = {f.name: f.default for f in dataclasses.fields(cli.RunSpec)}
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(_MINIMAL_ARGV)
    specs = []
    monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or {})
    for name, parser in subparsers.choices.items():
        options = [a for a in parser._actions if a.dest != "help"]
        assert {a.dest for a in options} <= set(defaults)
        argv = _MINIMAL_ARGV[name]
        assert cli.main([name, *argv]) == 0
        given = {"command"} | {a.dest for a in options if set(a.option_strings) & set(argv)}
        spec = dataclasses.asdict(specs[-1])
        assert {f: spec[f] for f in spec if f not in given} == {
            f: defaults[f] for f in defaults if f not in given
        }


def test_stability_exit_code(capsys):
    code, _, err = run_cli(["solve", "--lambda", "0.6", "--a", "0.5"], capsys)
    assert code == 3
    assert "stability" in err


@pytest.mark.parametrize(
    "point",
    [["--lambda", "0.4443135333059235", "--a", "0.3331370821691103"],  # load 1 - 1 ulp
     ["--lambda", "0.3529559493000562", "--a", "0.771149452055452"],  # load 1
     ["--lambda", "0.3", "--a", "0.5"]],
)
def test_stability_verdict_agrees_with_solve(point, capsys):
    """stability says unstable exactly where solve exits 3, within ulps of load 1 too."""
    _, out, _ = run_cli(["stability", *point], capsys)
    verdict = parse_csv(out)["stability"][0]["verdict"]
    code, _, _ = run_cli(["solve", *point], capsys)
    assert (verdict == "unstable") == (code == 3)


def test_numerical_exit_code(capsys, monkeypatch):
    def boom(*a, **k):
        raise GridError("synthetic numerical failure")

    monkeypatch.setattr(cli.measures, "decay_diagnostics", boom)
    code, _, err = run_cli(["decay", "--rho", "0.4", "--a", "0.5"], capsys)
    assert code == 4
    assert "numerical failure" in err


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 1.42 GiB for an array with shape (13810, 13810) and data type float64",
         "numerical failure: out of memory: Unable to allocate 1.42 GiB"),
        ("", "numerical failure: out of memory"),
    ],
)
def test_out_of_memory_is_a_numerical_failure(message, line, capsys, monkeypatch):
    """A failed allocation exits 4 with one line on stderr, not a traceback."""
    def no_memory(*a, **k):
        raise MemoryError(message)

    monkeypatch.setattr(compensation, "solve", no_memory)
    monkeypatch.setattr(compensation, "converged_series", no_memory)
    for args in (["solve", "--rho", "0.999"], ["decay", "--rho", "0.999"]):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (4, "")
        assert err.startswith(line) and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "decay", "compare"])
def test_a_grid_beyond_the_address_space_is_out_of_memory(command, capsys):
    """At rho = 0.99999999 CA's grid has side 1.38e9, more bytes than numpy
    can address; the command exits 4 with one line, as any failed allocation.
    decay forms no grid, nor a row of one, and answers there."""
    code, out, err = run_cli([command, "--rho", "0.99999999"], capsys)
    if command == "decay":
        assert code == 0 and err == "" and "marginal_min_ratio" in out
        return
    assert (code, out) == (4, "")
    assert err.startswith("numerical failure: out of memory: Unable to allocate") and err.count("\n") == 1


def test_unreachable_oracle_chain_is_a_numerical_failure(capsys, monkeypatch):
    """A boundary chain whose last state cannot reach (0, 0) exits 4 with one line."""
    build = oracle.build

    def unreachable(params, T, T_l):
        chain = build(params, T, T_l)
        bad = chain.boundary.copy()
        bad[-1, :] = 0.0
        bad[-1, -1] = 1.0  # absorbing: a second closed class
        return dataclasses.replace(chain, boundary=bad)

    monkeypatch.setattr(oracle, "build", unreachable)
    code, out, err = run_cli(["solve", "--method", "oracle", "--rho", "0.4"], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("numerical failure: chain is reducible") and err.count("\n") == 1


def test_solve_psa_warns_when_series_does_not_converge(capsys, monkeypatch):
    """A non-converged series still exits 0 with the same stdout, but says so on stderr."""
    args = ["solve", "--method", "psa", "--rho", "0.1", "--a", "0.5"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    solve, depths = psa.solve, []

    def not_converged(*a, **k):
        sol = solve(*a, **k)
        depths.append(sol.N_psa)
        diag = dataclasses.replace(sol.diagnostics, stop_reason="cap")
        return dataclasses.replace(sol, diagnostics=diag)

    monkeypatch.setattr(psa, "solve", not_converged)
    code, warned_out, err = run_cli(args, capsys)
    assert code == 0 and warned_out == out
    assert err.splitlines() == [
        f"warning: power series did not converge (stop: cap, N = {depths[0]}); "
        "measures come from the clipped, renormalized partial sum"
    ]


def test_solve_psa_prints_no_decay_rows(capsys):
    """PSA converges at rho = 0.85 and exits 0 without the decay rows, which
    read 0.6205 there against rho^2 = 0.7225; CA prints them."""
    for method, rows in (("psa", []), ("ca", ["decay_ratio", "marginal_min_decay"])):
        code, out, err = run_cli(["solve", "--method", method, "--rho", "0.85"], capsys)
        assert (code, err) == (0, "")
        assert [r["name"] for r in parse_csv(out)["measures"]] == ["e_qsum", "e_sojourn", "correlation", *rows]


def test_solve_csv_schema(capsys):
    code, out, _ = run_cli(["solve", "--rho", "0.1", "--a", "0.5"], capsys)
    assert code == 0
    tables = parse_csv(out)
    assert set(tables) == {"measures", "grid"}
    assert list(tables["grid"][0].keys()) == ["k", "l", "prob"]
    assert list(tables["measures"][0].keys()) == ["name", "value", "ci_halfwidth"]
    meas = {r["name"]: r["value"] for r in tables["measures"]}
    assert float(meas["e_sojourn"]) == pytest.approx(1.2222, abs=1e-3)


def test_rho_lambda_equivalence(capsys):
    _, out1, _ = run_cli(["solve", "--rho", "0.1", "--a", "0.5"], capsys)
    _, out2, _ = run_cli(["solve", "--lambda", str(1 / 11), "--a", "0.5"], capsys)
    assert out1 == out2


def test_byte_identical_outputs(tmp_path, capsys):
    args = [
        "simulate", "--lambda", "0.3", "--a", "0.5", "--seed", "7",
        "--warmup", "500", "--slots", "20000", "--reps", "2",
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_simulate_and_solve_sim_agree(capsys):
    args = [
        "--lambda", "0.3", "--a", "0.5", "--seed", "7",
        "--warmup", "500", "--slots", "20000", "--reps", "2",
    ]
    code1, out1, _ = run_cli(["simulate", *args], capsys)
    code2, out2, _ = run_cli(["solve", "--method", "sim", *args], capsys)
    assert code1 == code2 == 0
    assert out1 and out1.encode() == out2.encode()


def _assert_json_and_csv_agree(args, tmp_path):
    pc, pj = tmp_path / "r.csv", tmp_path / "r.json"
    assert cli.main(args + ["--format", "csv", "--out", str(pc)]) == 0
    assert cli.main(args + ["--format", "json", "--out", str(pj)]) == 0
    csv_tables = parse_csv(pc.read_text())
    json_tables = json.loads(pj.read_text())
    assert list(csv_tables) == list(json_tables)
    for name, rows in json_tables.items():
        assert len(csv_tables[name]) == len(rows)
        for csv_row, json_row in zip(csv_tables[name], rows):
            for key, jval in json_row.items():
                cval = csv_row[key]
                if jval is None:
                    assert cval == ""
                elif isinstance(jval, bool):
                    assert cval == ("true" if jval else "false")
                elif isinstance(jval, float):
                    assert float(cval) == jval  # identical at full precision
                else:
                    assert str(jval) == cval


def test_json_and_csv_agree(tmp_path):
    # simulate: floats, ints and None cells
    _assert_json_and_csv_agree(
        [
            "simulate", "--lambda", "0.3", "--a", "0.5", "--seed", "7",
            "--warmup", "500", "--slots", "20000", "--reps", "2",
        ],
        tmp_path,
    )
    # vs-single-server: booleans, None cells and strings as well
    _assert_json_and_csv_agree(["vs-single-server", "--lambda", "0.2"], tmp_path)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_single_replication_json_is_strict(capsys):
    code, out, _ = run_cli(
        ["simulate", "--lambda", "0.3", "--slots", "2000", "--reps", "1", "--format", "json"], capsys
    )
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out, parse_constant=_reject_constant)["measures"]}
    assert rows["e_qsum"]["ci_halfwidth"] is None
    assert rows["e_sojourn"]["ci_halfwidth"] is None


_SMALL_SIM = ["--warmup", "100", "--slots", "2000", "--reps", "2"]

# every subcommand but table1, and every solve method
_EVERY_COMMAND = [
    ["stability", "--rho", "0.4"],
    ["solve", "--rho", "0.1"],
    ["solve", "--method", "psa", "--rho", "0.1"],
    ["solve", "--method", "oracle", "--rho", "0.1"],
    ["solve", "--method", "sim", "--rho", "0.1", *_SMALL_SIM],
    ["compare", "--rho", "0.1"],
    ["decay", "--rho", "0.4"],
    ["decay", "--rho", "1e-7"],  # CA's series rows are subnormal at k = 21, and l = 3 underflows to zero
    ["vs-single-server", "--lambda", "0.45"],
    ["simulate", "--rho", "0.1", *_SMALL_SIM],
]


def test_one_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    """The process's one parser gives every call the exit code, stdout and
    stderr a freshly built parser gives, across a usage error and --help."""
    argvs = [*_EVERY_COMMAND[:3], ["solve", "--rho", "0.1", "--bogus"], *_EVERY_COMMAND[3:6],
             ["solve", "--help"], *_EVERY_COMMAND[6:]]
    shared = [run_cli(args, capsys) for args in argvs]
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0] * 3 + [2] + [0] * (len(argvs) - 4)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [run_cli(args, capsys) for args in argvs] == shared


def test_no_option_leaks_into_the_next_call(capsys, monkeypatch):
    run, specs = cli.run, []
    monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or run(spec))
    assert run_cli(["solve", "--method", "psa", "--rho", "0.1"], capsys)[0] == 0
    code, out, _ = run_cli(["solve", "--rho", "0.1"], capsys)
    assert code == 0 and [spec.method for spec in specs] == ["psa", "ca"]
    assert "decay_ratio" in out  # CA reports the decay rows, PSA does not


@pytest.mark.parametrize("args", _EVERY_COMMAND)
def test_json_output_is_strict(args, capsys):
    """Every subcommand but table1 writes standard JSON: no NaN or Infinity."""
    code, out, _ = run_cli([*args, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)


def _numpy_scalar(obj):
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"cannot emit {type(obj).__name__} as JSON")


def _row_dicts(tables):
    """The tables as lists of row dicts, a grid array as one dict per state."""
    return {
        name: [{"k": k, "l": l, "prob": float(table[k, l])} for k, l in np.ndindex(table.shape)]
        if isinstance(table, np.ndarray) else table
        for name, table in tables.items()
    }


def _reference_json(tables):
    return json.dumps(_row_dicts(tables), indent=2, default=_numpy_scalar) + "\n"


def _reference_csv(tables):
    chunks = []
    for name, rows in _row_dicts(tables).items():
        if not rows:
            continue
        header = list(rows[0].keys())
        lines = [f"# table: {name}", ",".join(header)]
        for row in rows:
            lines.append(",".join(cli._fmt(row[h]) for h in header))
        chunks.append("\n".join(lines))
    return "\n".join(chunks) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", [*_EVERY_COMMAND, ["solve", "--rho", "0.9"]])  # the last a 133^2 CA grid
def test_stdout_is_the_row_dict_reference(args, fmt, capsys, monkeypatch):
    """JSON writes row-dict tables through ``json.dumps`` and a grid's rows
    from its array out of shared row and column pieces; stdout equals
    ``json.dumps(indent=2)`` of the row dicts, or the ``_fmt`` join of their
    cells, computed from the same tables."""
    run, replies = cli.run, []
    monkeypatch.setattr(cli, "run", lambda spec: replies.append(run(spec)) or replies[-1])
    code, out, _ = run_cli([*args, "--format", fmt], capsys)
    assert code == 0
    reference = {"csv": _reference_csv, "json": _reference_json}[fmt]
    assert out == reference(replies[0])


_NAME_VALUE = ["name", "value", "ci_halfwidth"]
_GRID = ["k", "l", "prob"]
_MEASURES = ["e_qsum", "e_sojourn", "correlation"]
_DECAY = ["decay_ratio", "marginal_min_decay"]
_SIM_ESTIMATES = (_NAME_VALUE, [*_MEASURES, "overflow_mass"])

# per command: table -> (keys of every row in order, the name column in order or None)
_PINNED_TABLES = {
    "stability --rho 0.4": {"stability": (["lambda", "a", "load", "margin", "verdict"], None)},
    "solve --rho 0.4": {"measures": (_NAME_VALUE, _MEASURES + _DECAY), "grid": (_GRID, None)},
    "solve --method psa --rho 0.4": {"measures": (_NAME_VALUE, _MEASURES), "grid": (_GRID, None)},
    "solve --method oracle --rho 0.4": {"measures": (_NAME_VALUE, _MEASURES + _DECAY), "grid": (_GRID, None)},
    "solve --method sim --rho 0.4 " + " ".join(_SMALL_SIM): {"measures": _SIM_ESTIMATES, "grid": (_GRID, None)},
    "compare --rho 0.4": {
        "compare": (_NAME_VALUE, ["maxnorm_ca_oracle", "maxnorm_psa_oracle", "maxnorm_ca_psa",
                                  "abs_diff_e_sojourn", "abs_diff_correlation"]),
    },
    "table1 --epsilon 1e-4": {
        "table1": (["rho", "e_sojourn_ca", "e_sojourn_psa", "abs_diff_e_sojourn", "correlation_ca",
                    "correlation_psa", "abs_diff_correlation", "psa_converged"], None),
    },
    "decay --rho 0.4": {
        "decay": (["name", "l", "value"], ["expected_rho_squared", *["fixed_l_ratio"] * 3, "marginal_min_ratio"]),
    },
    "vs-single-server --lambda 0.2": {
        "stability_interval": (["name", "value"], ["a_minus", "a_plus"]),
        "vs_single_server": (["a", "single_stable", "jsrq_stable", "single_mean_queue", "jsrq_mean_total"], None),
    },
    "simulate --rho 0.4 " + " ".join(_SMALL_SIM): {"measures": _SIM_ESTIMATES, "grid": (_GRID, None)},
}


@pytest.mark.parametrize("command", _PINNED_TABLES)
def test_table_columns_are_pinned(command, capsys):
    """Every command's tables in order, each table's keys in order and the
    name column of every name/value table in order."""
    code, out, _ = run_cli([*command.split(), "--format", "json"], capsys)
    assert code == 0
    tables = json.loads(out, parse_constant=_reject_constant)
    assert list(tables) == list(_PINNED_TABLES[command])
    for name, (keys, names) in _PINNED_TABLES[command].items():
        assert tables[name] and all(list(row) == keys for row in tables[name]), name
        if names is not None:
            assert [row["name"] for row in tables[name]] == names, name


def test_json_cells_of_numpy_and_plain_types():
    row = {
        "flag": np.bool_(True),
        "count": np.int64(3),
        "single": np.float32(0.1),
        "double": np.float64(0.1),
        "missing": None,
        "name": "x",
    }
    assert cli._to_json({"mixed": [row]}) == (
        '{\n  "mixed": [\n    {\n      "flag": true,\n      "count": 3,\n'
        '      "single": 0.10000000149011612,\n      "double": 0.1,\n'
        '      "missing": null,\n      "name": "x"\n    }\n  ]\n}\n'
    )
    odd = [
        {"x": math.nan, "s": 'quote " back \\ tab \t nl \n é %s'},
        {"x": math.inf, "s": ""},
        {"x": -math.inf, "s": "%"},
        {"x": -0.0, "s": "plain"},
        {"x": np.float64(np.nan), "s": np.str_("numpy")},
    ]
    grid = np.array([[0.5, -0.0, 1e-300], [math.nan, math.inf, -math.inf], [0.0, 0.1, 2.0]])
    for tables in (
        {"odd": odd},
        {"empty": []},
        {},
        {"first": odd, "none": [], "grid": grid, "%key": [{"%d": 1, "a\"b": True}]},
        {"grid": grid[:1, :1]},
        {"grid": grid[:2, :3]},  # rectangles: the column pieces follow shape[1]
        {"grid": grid[:3, :1]},
        {"grid": np.zeros((0, 0))},
    ):
        assert cli._to_json(tables) == _reference_json(tables)
        assert cli._to_csv(tables) == _reference_csv(tables)
    with pytest.raises(TypeError):
        cli._to_json({"bad": [{"cell": object()}]})


def test_csv_grid_floats_are_the_row_cells():
    """A grid's floats are written with %.17g, which is what _fmt writes for
    every Python float: non-finite, signed zero and subnormal included."""
    cells = [math.nan, math.inf, -math.inf, -0.0, 1e-320, 0.1]
    assert ["%.17g" % x for x in cells] == [cli._fmt(x) for x in cells]
    assert cli._to_csv({"grid": np.array([cells[:3], cells[3:]])}) == (
        "# table: grid\nk,l,prob\n0,0,nan\n0,1,inf\n0,2,-inf\n"
        "1,0,-0\n1,1,9.9998886718268301e-321\n1,2,0.10000000000000001\n"
    )


def test_psa_that_never_settles_is_a_numerical_failure(capsys, monkeypatch):
    """Without acceleration the series at rho = 0.6 changes least at depth 1;
    solve exits 4 with nothing on stdout, compare and table1 write null PSA cells."""
    point = ["--rho", "0.6", "--G", "0", "--epsilon", "1e-6"]
    code, out, err = run_cli(["solve", "--method", "psa", *point], capsys)
    assert (code, out) == (4, "")
    assert "did not settle" in err
    code, out, err = run_cli(["compare", *point, "--format", "json"], capsys)
    assert code == 0 and "did not settle" in err
    cells = {r["name"]: r["value"] for r in json.loads(out)["compare"]}
    assert cells["maxnorm_ca_oracle"] < 1e-6
    assert [cells[name] for name in ("maxnorm_psa_oracle", "maxnorm_ca_psa", "abs_diff_e_sojourn",
                                     "abs_diff_correlation")] == [None] * 4
    monkeypatch.setattr(cli, "_TABLE1_LOADS", (0.1, 0.6))
    code, out, err = run_cli(["table1", "--G", "0", "--epsilon", "1e-6", "--format", "json"], capsys)
    assert code == 0
    low, high = json.loads(out)["table1"]
    assert low["psa_converged"] and low["e_sojourn_psa"] is not None
    assert high["psa_converged"] is False and high["e_sojourn_ca"] > 0
    assert [high[c] for c in ("e_sojourn_psa", "abs_diff_e_sojourn", "correlation_psa",
                              "abs_diff_correlation")] == [None] * 4


def test_table1_at_all_five_loads(capsys):
    """The paper's five loads: the series converges up to rho = 0.7, reports a
    flagged best iterate at 0.9, and at 0.95 leaves its cells empty, with one
    warning, since its level budget completes no depth beyond the first."""
    code, out, err = run_cli(["table1", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["table1"]
    assert [r["rho"] for r in rows] == list(cli._TABLE1_LOADS) == [0.1, 0.4, 0.7, 0.9, 0.95]
    psa_cells = ("e_sojourn_psa", "abs_diff_e_sojourn", "correlation_psa", "abs_diff_correlation")
    for row in rows[:3]:
        assert row["psa_converged"] is True
        assert row["abs_diff_e_sojourn"] < 1e-6 and row["abs_diff_correlation"] < 1e-6
    assert rows[3]["psa_converged"] is False
    assert all(rows[3][c] is not None for c in psa_cells)
    assert rows[4]["psa_converged"] is False and rows[4]["e_sojourn_ca"] > 0
    assert [rows[4][c] for c in psa_cells] == [None] * 4
    assert err.count("warning:") == 1 and "budget" in err


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main(["stability", "--rho", "0.4", "--a", "0.5", "--out", "verdict.csv"]) == 0
    assert (tmp_path / "verdict.csv").exists()


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    """A directory cannot be made under a regular file: the command exits 2
    with one line, where makedirs' FileExistsError once escaped with exit 1."""
    plain = tmp_path / "plain"
    plain.write_text("")
    code, out, err = run_cli(["solve", "--rho", "0.4", "--out", str(plain / "x")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: cannot write --out ") and err.count("\n") == 1


def test_unwritable_out_path_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    """main checks the directory of --out before it runs the request, so a
    path under a regular file costs no solve; a run that fails leaves no
    file, since only emit opens it."""

    def no_run(spec):
        raise AssertionError("ran the request")

    monkeypatch.setattr(cli, "run", no_run)
    plain = tmp_path / "plain"
    plain.write_text("")
    for out in (plain / "x", plain / "sub" / "x"):
        code, stdout, err = run_cli(["solve", "--method", "oracle", "--rho", "0.99", "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("usage error: cannot write --out ") and err.count("\n") == 1


def test_failed_run_leaves_no_out_file(tmp_path, capsys):
    out = tmp_path / "made" / "grid.json"
    code, _, err = run_cli(["solve", "--rho", "1.5", "--out", str(out)], capsys)
    assert code == 3 and err.startswith("stability error")
    assert out.parent.is_dir() and not out.exists()


def test_compare_command(capsys):
    # the oracle reaches rho = 0.9, beyond the dense box it replaced
    for rho, a in (("0.4", "0.5"), ("0.9", "0.3")):
        code, out, _ = run_cli(["compare", "--rho", rho, "--a", a], capsys)
        assert code == 0
        rows = {r["name"]: float(r["value"]) for r in parse_csv(out)["compare"]}
        assert rows["maxnorm_ca_oracle"] < 1e-8
        assert rows["maxnorm_psa_oracle"] < 1e-6
        assert rows["abs_diff_e_sojourn"] < 1e-3


def test_compare_maxnorm_is_the_largest_difference_over_the_common_box(capsys, monkeypatch):
    """Each maxnorm_* cell is the largest |difference| over the box the two
    route grids share on each axis. The oracle is solved here at epsilon
    1e-10, CA and PSA at 1e-12, so the oracle's box is the smaller one."""
    solve = routes.solve

    def oracle_at_1e10(params, method="ca", epsilon=1e-12, G=1.0):
        return solve(params, method, 1e-10 if method == "oracle" else epsilon, G)

    monkeypatch.setattr(routes, "solve", oracle_at_1e10)
    code, out, _ = run_cli(["compare", "--rho", "0.4", "--format", "json"], capsys)
    assert code == 0
    cells = {r["name"]: r["value"] for r in json.loads(out)["compare"]}
    p = ModelParams(lam=lambda_for_load(0.4, 0.5), a=0.5)
    grids = {method: oracle_at_1e10(p, method).grid.values for method in routes.METHODS}
    assert grids["ca"].shape != grids["oracle"].shape
    for x, y in (("ca", "oracle"), ("psa", "oracle"), ("ca", "psa")):
        k, l = np.minimum(grids[x].shape, grids[y].shape)
        assert cells[f"maxnorm_{x}_{y}"] == float(np.max(np.abs(grids[x][:k, :l] - grids[y][:k, :l])))


def test_power_series_runs_at_any_attempt_probability(capsys):
    code, _, _ = run_cli(["solve", "--method", "psa", "--lambda", "0.2", "--a", "0.4"], capsys)
    assert code == 0
    code, out, _ = run_cli(["compare", "--rho", "0.4", "--a", "0.3"], capsys)
    assert code == 0
    rows = {r["name"]: float(r["value"]) for r in parse_csv(out)["compare"]}
    assert rows["maxnorm_psa_oracle"] < 1e-6


_TINY_LOAD_COMMANDS = [
    *(["solve", "--method", method] for method in ("ca", "psa", "oracle")),
    ["solve", "--method", "sim", *_SMALL_SIM],
    ["decay"],
    ["compare"],
    ["simulate", *_SMALL_SIM],
]


@pytest.mark.parametrize(
    "load",
    [
        *(pytest.param(["--rho", rho], id=rho) for rho in ("1e-100", "1e-200", "1e-300", "1e-309", "1e-316")),
        pytest.param(["--lambda", "5e-324"], id="lambda-5e-324"),
    ],
)
@pytest.mark.parametrize("args", _TINY_LOAD_COMMANDS, ids=lambda args: args[2] if args[0] == "solve" else args[0])
def test_tiny_loads_answer_or_fail_typed(args, load, capsys):
    """rho^2 underflows from rho = 1e-162, rho itself from about 1e-308 and
    to 0 at lambda = 5e-324: every route sizes its box from log(rho), and CA,
    which needs rho^2 itself, fails typed."""
    code, _, err = run_cli([*args, *load], capsys)
    assert code in (0, 4) and "Traceback" not in err


@pytest.mark.parametrize("rho", [1e-100, 1e-200, 1e-300])
@pytest.mark.parametrize("method", ["psa", "oracle"])
def test_tiny_loads_mean_total(method, rho, capsys):
    """At a = 1/2, E[Q1 + Q2] = rho / (1 - rho), as for one server."""
    code, out, _ = run_cli(["solve", "--method", method, "--rho", repr(rho)], capsys)
    assert code == 0
    rows = {r["name"]: r["value"] for r in parse_csv(out)["measures"]}
    assert float(rows["e_qsum"]) == pytest.approx(rho / (1 - rho), rel=1e-12, abs=0)


@pytest.mark.parametrize("rho", [1e-309, 1e-316])
@pytest.mark.parametrize("method", ["psa", "oracle"])
def test_subnormal_loads_answer(method, rho, capsys):
    """Where rho itself is subnormal and keeps only a few digits, PSA and the
    oracle still answer, with E[Q1 + Q2] = rho to those digits."""
    code, out, _ = run_cli(["solve", "--method", method, "--rho", repr(rho)], capsys)
    assert code == 0
    rows = {r["name"]: r["value"] for r in parse_csv(out)["measures"]}
    assert float(rows["e_qsum"]) == pytest.approx(rho, rel=1e-6, abs=0)


def test_ca_refusal_at_a_light_load_is_one_line():
    """At rho = 1e-80 a row of CA's horizontal repair system underflows, so
    its scaling is 0/0: the solve exits 4 with one stderr line, where numpy's
    RuntimeWarning lines came first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "relayq.cli", "solve", "--rho", "1e-80"], env=env, capture_output=True, text=True
    )
    assert out.returncode == 4
    assert out.stderr.splitlines() == [out.stderr.strip()]
    assert out.stderr.startswith("numerical failure: horizontal repair system")


def test_ca_floor_is_the_repair_system(capsys):
    """CA answers down to rho = 1e-46; at 1e-50 the d column of the horizontal
    repair system underflows to zeros and the solve exits 4 with one line."""
    code, _, err = run_cli(["solve", "--rho", "1e-50"], capsys)
    assert code == 4
    assert err.splitlines() == [err.strip()]
    assert err.startswith("numerical failure: horizontal repair system")


@pytest.mark.parametrize("lam, expected", [("1e-20", 0), ("1e-60", 4)])
def test_vs_single_server_reaches_ca_with_python_floats(lam, expected, capsys):
    """The attempt probabilities are Python floats, so a refusal names its
    root as a plain float, not as numpy's repr np.float64(...)."""
    code, _, err = run_cli(["vs-single-server", "--lambda", lam], capsys)
    assert code == expected
    assert "np.float64(" not in err


def test_decay_command(capsys):
    code, out, _ = run_cli(["decay", "--rho", "0.4", "--a", "0.5"], capsys)
    assert code == 0
    rows = parse_csv(out)["decay"]
    by_name = {}
    for r in rows:
        key = (r["name"], r.get("l", ""))
        by_name[key] = float(r["value"])
    assert by_name[("expected_rho_squared", "")] == pytest.approx(0.16, abs=1e-12)
    for l in ("0", "1", "3"):
        assert by_name[("fixed_l_ratio", l)] == pytest.approx(0.16, abs=1e-4)
    assert by_name[("marginal_min_ratio", "")] == pytest.approx(0.16, abs=1e-4)


def test_vs_single_server_command(capsys):
    code, out, _ = run_cli(["vs-single-server", "--lambda", "0.3"], capsys)
    assert code == 0
    tables = parse_csv(out)
    interval = {r["name"]: float(r["value"]) for r in tables["stability_interval"]}
    assert interval["a_minus"] == pytest.approx(0.18377, abs=5e-6)
    assert interval["a_plus"] == pytest.approx(0.81623, abs=5e-6)
    rows = {float(r["a"]): r for r in tables["vs_single_server"]}
    mid = rows[0.5]
    assert float(mid.get("single_mean_queue")) == pytest.approx(
        float(mid.get("jsrq_mean_total")), abs=1e-6
    )


def test_import_loads_no_scipy():
    """Importing the CLI loads no scipy module and builds no parser;
    psa.lfilter and oracle.connected_components, which the benchmark tracer
    patches, still resolve on lookup."""
    code = (
        "import sys, relayq.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(callable(relayq.psa.lfilter), callable(relayq.oracle.connected_components))\n"
        "print(relayq.cli._parser.cache_info().currsize)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:3] == ["[]", "True True", "0"]


def test_every_subcommand_runs_without_scipy():
    """With scipy unimportable, every subcommand still exits 0 at small sizes."""
    sim = ["--slots", "2000", "--warmup", "100", "--reps", "3"]
    argvs = [
        ["stability", "--rho", "0.4"],
        ["solve", "--rho", "0.4"],
        ["solve", "--method", "psa", "--rho", "0.4"],
        ["solve", "--method", "oracle", "--rho", "0.4"],
        ["solve", "--method", "sim", "--rho", "0.4", *sim],
        ["compare", "--rho", "0.4"],
        ["table1", "--epsilon", "1e-4"],
        ["decay", "--rho", "0.4"],
        ["vs-single-server", "--lambda", "0.2"],
        ["simulate", "--lambda", "0.3", *sim],
    ]
    assert {argv[0] for argv in argvs} == set(_MINIMAL_ARGV)
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from relayq import cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(codes)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == str([0] * len(argvs)), out.stderr
