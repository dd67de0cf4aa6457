"""Output checks for relayq CLI replies.

Replies are parsed after each request's timer has stopped. A request fails
its check when its grid is not a probability grid, when a CA grid leaves its
balance equations unsatisfied, or when two routes to the same equilibrium
disagree. The cross-route checks need replies from several requests, so they
run once the whole request list has been served.
"""

from __future__ import annotations

import json
import math

import numpy as np

from relayq import compensation, measures
from relayq.model import ModelParams, lambda_for_load, max_interior_residual

# Grid mass. Replies carry floats with 17 significant digits, so parsing is
# exact; summing up to 455^2 entries costs ~1e-11 of round-off.
MASS_TOL = 1e-9
# Largest balance residual of a CA grid. Observed at most 1.2e-16 over the
# benchmark's CA points; 1e-10 is the bound the test suite puts on an oracle
# grid's residual.
RESIDUAL_TOL = 1e-10
# Max-norm distance CA vs oracle (oracle at --epsilon 1e-10). Observed at most
# 4.7e-12; 1e-8 is the test suite's bound for the same comparison.
ORACLE_CA_TOL = 1e-8
# Max-norm distance converged PSA vs CA. Observed at most 5.4e-12 (rho = 0.7);
# 1e-6 is the test suite's bound for the same comparison.
PSA_CA_TOL = 1e-6
# Simulated E[Q1+Q2] may lie outside its Student-t CI by this share of the CA
# value. With 2 reps of 200k slots the per-rep relative sd is up to 0.057 and
# the warm-up bias up to -5 % (rho = 0.9, a = 0.3), so the 2-rep mean has sd
# ~0.04: 0.25 is over 5 sd from the bias, which keeps false alarms negligible
# over thousands of requests.
SIM_MARGIN = 0.25


class CheckError(Exception):
    """A reply that the program produced is wrong."""


def params_for(rho: float, a: float) -> ModelParams:
    return ModelParams(lam=lambda_for_load(rho, a), a=a)


def maxnorm(x: np.ndarray, y: np.ndarray) -> float:
    m = min(x.shape[0], y.shape[0])
    return float(np.max(np.abs(x[:m, :m] - y[:m, :m])))


def parse_grid(rows: list[dict]) -> np.ndarray:
    n = math.isqrt(len(rows))
    if n * n != len(rows) or n == 0:
        raise CheckError(f"grid has {len(rows)} rows, not a square")
    last = rows[-1]
    if (last["k"], last["l"]) != (n - 1, n - 1):
        raise CheckError("grid rows are not in (k, l) order")
    return np.fromiter((r["prob"] for r in rows), float, len(rows)).reshape(n, n)


def check_grid(vals: np.ndarray, overflow: float = 0.0) -> None:
    if not np.all(np.isfinite(vals)):
        raise CheckError("grid has a non-finite entry")
    if vals.min() < 0.0:
        raise CheckError(f"grid has negative entry {vals.min():.3e}")
    mass = float(vals.sum()) + overflow
    if abs(mass - 1.0) > MASS_TOL:
        raise CheckError(f"grid mass {mass!r} is not 1")


class PassChecker:
    """Checks the replies of one pass over a request list."""

    def __init__(self) -> None:
        self.ca: dict[tuple[float, float], np.ndarray] = {}
        self.cross: list[tuple[int, str, tuple[float, float], np.ndarray]] = []
        self.sims: list[tuple[int, tuple[float, float], float, float]] = []

    def check(self, index: int, req, text: str) -> None:
        """Raise CheckError when the reply to ``req`` is wrong."""
        if not req.is_json:
            if not text.startswith("# table: "):
                raise CheckError("CSV reply has no table header")
            return
        try:
            tables = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckError(f"reply is not JSON: {exc}") from None
        named = {r["name"]: r for r in tables.get("measures", []) + tables.get("compare", [])}
        for name, row in named.items():
            if row["value"] is not None and not math.isfinite(row["value"]):
                raise CheckError(f"{name} is not finite")
        point = (req.rho, req.a)
        if "grid" in tables:
            vals = parse_grid(tables["grid"])
            overflow = named["overflow_mass"]["value"] if "overflow_mass" in named else 0.0
            check_grid(vals, overflow)
            if req.kind == "ca":
                res = max_interior_residual(vals, params_for(*point))
                if res > RESIDUAL_TOL:
                    raise CheckError(f"CA balance residual {res:.3e} > {RESIDUAL_TOL}")
                self.ca[point] = vals
            elif req.kind == "oracle" or req.psa_converges:
                self.cross.append((index, req.kind, point, vals))
        if req.kind == "sim":
            e = named["e_qsum"]
            self.sims.append((index, point, e["value"], e["ci_halfwidth"]))
        if "compare" in tables:
            if named["maxnorm_ca_oracle"]["value"] > ORACLE_CA_TOL:
                raise CheckError("compare: CA and oracle disagree")
            if named["maxnorm_psa_oracle"]["value"] > PSA_CA_TOL:
                raise CheckError("compare: PSA and oracle disagree")
        if "stability" in tables and tables["stability"][0]["verdict"] != "stable":
            raise CheckError("stability: a load below 1 was reported unstable")

    def finish(self, sim_refs: dict[tuple[float, float], float]) -> dict[int, str]:
        """Cross-route checks; returns {request index: reason} for failures."""
        bad = {}
        for index, kind, point, vals in self.cross:
            if point not in self.ca:
                continue  # the CA request failed, and is counted already
            tol = ORACLE_CA_TOL if kind == "oracle" else PSA_CA_TOL
            dist = maxnorm(vals, self.ca[point])
            if dist > tol:
                bad[index] = f"{kind} vs CA max-norm {dist:.3e} > {tol}"
        for index, point, e_qsum, ci in self.sims:
            ref = sim_refs[point]
            if abs(e_qsum - ref) > ci + SIM_MARGIN * ref:
                bad[index] = f"simulated e_qsum {e_qsum:.4f} vs CA {ref:.4f} (ci {ci:.4f})"
        return bad


def sim_references(points) -> dict[tuple[float, float], float]:
    """CA value of E[Q1+Q2] at each (rho, a), for the simulator check."""
    refs = {}
    for point in sorted(set(points)):
        params = params_for(*point)
        grid = compensation.solve(params).grid
        refs[point] = measures.moments_from_transformed(grid, params).e_qsum
    return refs
