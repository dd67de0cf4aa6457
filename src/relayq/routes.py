"""One entry point, :func:`solve`, for CA, PSA and the QBD oracle, each on the
box of :func:`relayq.model.truncation`. Routes and measures are looked up on
their modules at call time, so a patched ``psa.solve`` is the one that runs.
"""

from __future__ import annotations

import dataclasses
import functools

from . import compensation, measures, oracle, psa
from .grids import ProbabilityGrid
from .measures import MeasureReport
from .model import ModelParams, truncation

__all__ = ["METHODS", "Solution", "solve"]

METHODS = ("ca", "psa", "oracle")


@dataclasses.dataclass(frozen=True)
class Solution:
    """One route's normalized grid at ``params``; ``route`` is the route's own result."""

    method: str
    params: ModelParams
    grid: ProbabilityGrid
    depth: int | None  # CA's series terms, PSA's depth N_psa, None for the oracle
    stop_reason: str  # "epsilon" once within epsilon; PSA's "cap" or "divergence" otherwise
    route: compensation.CompensationResult | psa.PsaSolution | oracle.QBDChain

    @property
    def converged(self) -> bool:
        return self.stop_reason == "epsilon"

    @functools.cached_property
    def measures(self) -> MeasureReport:
        """The grid's measures, computed on first read. PSA's have no decay rows,
        as the simulator's have none: at k = T_k - 3 its partial sum has not resolved
        the tail (0.6205 against rho^2 = 0.7225 at rho = 0.85, a = 1/2, converged)."""
        report = measures.moments_from_transformed(self.grid, self.params)
        if self.method != "psa":
            return report
        return dataclasses.replace(report, decay_ratio=None, marginal_min_decay=None)


def solve(params: ModelParams, method: str = "ca", epsilon: float = 1e-12, G: float = 1.0) -> Solution:
    """Solve ``params`` by ``method``; only PSA reads ``G``, and only PSA may
    answer unconverged, with a series that settled (:func:`relayq.psa.solve`)."""
    if method == "ca":
        route = compensation.solve(params, epsilon=epsilon)
        grid, depth, stop_reason = route.grid, route.n_used, "epsilon"
    elif method == "psa":
        route = psa.solve(params, G=G, epsilon=epsilon)
        grid, depth, stop_reason = route.grid, route.N_psa, route.diagnostics.stop_reason
    elif method == "oracle":
        route = oracle.build(params, *truncation(params, epsilon)[:2])
        grid, depth, stop_reason = oracle.stationary(route), None, "epsilon"
    else:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    return Solution(method, params, grid, depth, stop_reason, route)
