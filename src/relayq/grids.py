"""Finite equilibrium-distribution grids of the transformed chain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError

__all__ = ["ProbabilityGrid", "square"]


def square(T: int, fill: float) -> np.ndarray:
    """A (T + 1, T + 1) float array of ``fill``; a fill of 0.0 commits pages
    only as they are written.

    numpy raises ValueError, not MemoryError, for a size that no address
    space holds; that allocation fails like any other, so it raises
    MemoryError here.
    """
    shape = (T + 1, T + 1)
    try:
        return np.zeros(shape) if fill == 0.0 else np.full(shape, fill)
    except ValueError:
        raise MemoryError(f"Unable to allocate a {shape} array of float64: {8 * (T + 1) ** 2:.3g} bytes "
                          f"exceed the address space") from None


@dataclass(frozen=True)
class ProbabilityGrid:
    """Equilibrium probabilities on a square truncation of the state space.

    ``values[k, l]`` over (k, l) = (min, |difference|), 0 <= k, l <= T.
    Each route (CA, PSA, the oracle) clips its own grid at zero and normalizes
    it, so callers emit it as it is; a power-series partial sum may carry
    round-off-scale negatives, which :func:`relayq.psa.evaluate` leaves in.
    The simulator's grid is non-negative and holds 1 - ``overflow_mass``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise GridError(f"grid must be square 2-D, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def T(self) -> int:
        return self.values.shape[0] - 1

    def total(self) -> float:
        return float(self.values.sum())

    def normalized(self) -> "ProbabilityGrid":
        tot = self.total()
        if tot <= 0:
            raise GridError("cannot normalize a grid with non-positive mass")
        return ProbabilityGrid(self.values / tot)

    def clipped(self) -> "ProbabilityGrid":
        """Non-negative copy; does not renormalize."""
        return ProbabilityGrid(np.maximum(self.values, 0.0))
