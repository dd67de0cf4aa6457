"""Finite equilibrium-distribution grids of the transformed chain."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError

__all__ = ["ProbabilityGrid", "full"]


def full(shape: tuple[int, int], fill: float) -> np.ndarray:
    """A float array of ``shape`` and ``fill``; a fill of 0.0 commits pages
    only as they are written.

    numpy raises ValueError, not MemoryError, for a size that no address
    space holds; that allocation fails like any other, so it raises
    MemoryError here.
    """
    try:
        return np.zeros(shape) if fill == 0.0 else np.full(shape, fill)
    except ValueError:
        raise MemoryError(f"Unable to allocate a {shape} array of float64: {8 * math.prod(shape):.3g} bytes "
                          f"exceed the address space") from None


@dataclass(frozen=True)
class ProbabilityGrid:
    """Equilibrium probabilities on a truncation of the state space.

    ``values[k, l]`` over (k, l) = (min, |difference|) in the box [0,T_k] x [0,T_l].
    CA, PSA and the oracle build their grids only through :meth:`finished`,
    which clips the route's array at zero and normalizes it in place; the
    measures and the CLI read that array as it is. A bare power-series
    partial sum, :func:`relayq.psa.evaluate`, keeps its round-off-scale
    negatives. The simulator's grid is non-negative and holds 1 - ``overflow_mass``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise GridError(f"grid must be 2-D, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    def total(self) -> float:
        return float(self.values.sum())

    @classmethod
    def finished(cls, values: np.ndarray) -> "ProbabilityGrid":
        """The grid of ``values``, an array the caller owns and gives up: clipped
        at zero and divided by its sum, both in place."""
        np.maximum(values, 0.0, out=values)
        tot = float(values.sum())
        if tot <= 0:
            raise GridError("cannot normalize a grid with non-positive mass")
        values /= tot
        return cls(values)
