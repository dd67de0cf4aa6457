"""Equilibrium analysis of a two-relay slotted random-access network.

A single saturated source feeds two relay queues under join-the-shortest-queue
routing; relays transmit over a collision channel. The package computes the
joint equilibrium queue-length distribution by three mutually cross-checking
routes — a boundary-compensation series, a power-series expansion in the
load, and a direct truncated-chain solve — plus a Monte Carlo simulator, and
derives sojourn-time, correlation, and decay measures from any of them.
"""

from . import compensation, grids, measures, model, oracle, psa, simulator
from .errors import (
    GridError,
    NumericsError,
    RelayQError,
    StabilityError,
    UnsupportedParameterError,
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
from .simulator import SimConfig, SimResult, simulate

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "ProbabilityGrid",
    "MeasureReport",
    "SimConfig",
    "SimResult",
    "StabilityReport",
    "RelayQError",
    "StabilityError",
    "NumericsError",
    "UnsupportedParameterError",
    "GridError",
    "is_stable",
    "transform_state",
    "transition_distribution",
    "lambda_for_load",
    "moments_from_transformed",
    "simulate",
    "compensation",
    "psa",
    "oracle",
    "measures",
    "model",
    "grids",
    "simulator",
]
