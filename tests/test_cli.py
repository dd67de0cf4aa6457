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

from relayq import cli
from relayq.errors import GridError


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
    # power series needs a = 1/2
    code, _, err = run_cli(
        ["solve", "--method", "psa", "--lambda", "0.2", "--a", "0.4"], capsys
    )
    assert code == 2
    assert "1/2" in err
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
    ],
)
def test_bad_values_are_usage_errors(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "usage error" in err


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
    monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or {"tables": {}})
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


def test_numerical_exit_code(capsys, monkeypatch):
    def boom(*a, **k):
        raise GridError("synthetic numerical failure")

    monkeypatch.setattr(cli.measures, "decay_diagnostics", boom)
    code, _, err = run_cli(["decay", "--rho", "0.4", "--a", "0.5"], capsys)
    assert code == 4
    assert "numerical failure" in err


def test_solve_psa_warns_when_series_does_not_converge(capsys, monkeypatch):
    """A non-converged series still exits 0 with the same stdout, but says so on stderr."""
    args = ["solve", "--method", "psa", "--rho", "0.1", "--a", "0.5"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    solve, depths = cli.psa.solve, []

    def not_converged(*a, **k):
        sol = solve(*a, **k)
        depths.append(sol.N_psa)
        diag = dataclasses.replace(sol.diagnostics, converged=False, stop_reason="cap")
        return dataclasses.replace(sol, diagnostics=diag)

    monkeypatch.setattr(cli.psa, "solve", not_converged)
    code, warned_out, err = run_cli(args, capsys)
    assert code == 0 and warned_out == out
    assert err.splitlines() == [
        f"warning: power series did not converge (stop: cap, N = {depths[0]}); "
        "measures come from the clipped, renormalized partial sum"
    ]


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
    ["decay", "--rho", "1e-7"],  # the CA tail is exactly zero at the probe
    ["vs-single-server", "--lambda", "0.45"],
    ["simulate", "--rho", "0.1", *_SMALL_SIM],
]


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


def _reference_json(artifact):
    return json.dumps(_row_dicts(artifact["tables"]), indent=2, default=_numpy_scalar) + "\n"


def _reference_csv(artifact):
    chunks = []
    for name, rows in _row_dicts(artifact["tables"]).items():
        if not rows:
            continue
        header = list(rows[0].keys())
        lines = [f"# table: {name}", ",".join(header)]
        for row in rows:
            lines.append(",".join(cli._fmt(row[h]) for h in header))
        chunks.append("\n".join(lines))
    return "\n".join(chunks) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", _EVERY_COMMAND)
def test_stdout_is_the_row_dict_reference(args, fmt, capsys, monkeypatch):
    """The writers fill row templates, and a grid's rows come from its array;
    stdout equals ``json.dumps(indent=2)`` of the row dicts, or the ``_fmt``
    join of their cells, computed from the same artifact."""
    run, artifacts = cli.run, []
    monkeypatch.setattr(cli, "run", lambda spec: artifacts.append(run(spec)) or artifacts[-1])
    code, out, _ = run_cli([*args, "--format", fmt], capsys)
    assert code == 0
    reference = {"csv": _reference_csv, "json": _reference_json}[fmt]
    assert out == reference(artifacts[0])


def test_json_cells_of_numpy_and_plain_types():
    row = {
        "flag": np.bool_(True),
        "count": np.int64(3),
        "single": np.float32(0.1),
        "double": np.float64(0.1),
        "missing": None,
        "name": "x",
    }
    assert cli._to_json({"tables": {"mixed": [row]}}) == (
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
    ):
        artifact = {"tables": tables}
        assert cli._to_json(artifact) == _reference_json(artifact)
        assert cli._to_csv(artifact) == _reference_csv(artifact)
    with pytest.raises(TypeError):
        cli._to_json({"tables": {"bad": [{"cell": object()}]}})


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


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main(["stability", "--rho", "0.4", "--a", "0.5", "--out", "verdict.csv"]) == 0
    assert (tmp_path / "verdict.csv").exists()


def test_compare_command(capsys):
    code, out, _ = run_cli(["compare", "--rho", "0.4", "--a", "0.5"], capsys)
    assert code == 0
    rows = {r["name"]: float(r["value"]) for r in parse_csv(out)["compare"]}
    assert rows["maxnorm_ca_oracle"] < 1e-8
    assert rows["maxnorm_psa_oracle"] < 1e-6
    assert rows["abs_diff_e_sojourn"] < 1e-3


def test_compare_requires_half(capsys):
    code, _, err = run_cli(["compare", "--rho", "0.4", "--a", "0.6"], capsys)
    assert code == 2


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
    """Importing the CLI loads no scipy module; psa.lfilter and
    oracle.connected_components, which the benchmark tracer patches, still
    resolve on lookup."""
    code = (
        "import sys, relayq.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(callable(relayq.cli.psa.lfilter), callable(relayq.cli.oracle.connected_components))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "True True"]
