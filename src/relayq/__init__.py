"""Equilibrium analysis of a two-relay slotted random-access network.

A single saturated source feeds two relay queues under join-the-shortest-queue
routing; relays transmit over a collision channel. The package computes the
joint equilibrium queue-length distribution by three mutually cross-checking
routes — a boundary-compensation series, a power-series expansion in the
load, and a matrix-geometric solve of the chain — plus a Monte Carlo
simulator, and derives sojourn-time, correlation, and decay measures from any
of them. :func:`solve` runs any of the three routes and returns one
:class:`Solution`: its grid, measures, depth and stop reason, with the
route's own result on ``route``.
"""

from . import compensation, grids, measures, model, oracle, psa, routes, simulator
from .errors import (
    GridError,
    NumericsError,
    RelayQError,
    StabilityError,
)
from .grids import ProbabilityGrid
from .measures import MeasureReport, moments_from_transformed
from .model import (
    ModelParams,
    StabilityReport,
    is_stable,
    lambda_for_load,
    transform_state,
    transition_distribution,
)
from .routes import Solution, solve
from .simulator import SimConfig, SimResult, simulate

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "ProbabilityGrid",
    "MeasureReport",
    "Solution",
    "SimConfig",
    "SimResult",
    "StabilityReport",
    "RelayQError",
    "StabilityError",
    "NumericsError",
    "GridError",
    "is_stable",
    "transform_state",
    "transition_distribution",
    "lambda_for_load",
    "moments_from_transformed",
    "solve",
    "simulate",
    "compensation",
    "psa",
    "oracle",
    "routes",
    "measures",
    "model",
    "grids",
    "simulator",
]
