"""Finite equilibrium-distribution grids and coordinate mapping helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError

TRANSFORMED = "transformed"  # (k, l) = (min, |difference|)
ORIGINAL = "original"        # (Q1, Q2)

__all__ = ["ProbabilityGrid", "TRANSFORMED", "ORIGINAL"]


@dataclass(frozen=True)
class ProbabilityGrid:
    """Equilibrium probabilities on a square truncation of the state space.

    ``values[k, l]`` (transformed coordinates) or ``values[i, j]`` (original
    coordinates), 0 <= index <= T. Producers decide how strictly to validate:
    the direct solvers emit exactly normalized, non-negative grids, while the
    power-series reconstruction may carry round-off-scale negatives that are
    clipped only when reporting.
    """

    values: np.ndarray
    coords: str = TRANSFORMED

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise GridError(f"grid must be square 2-D, got shape {v.shape}")
        if self.coords not in (TRANSFORMED, ORIGINAL):
            raise GridError(f"unknown coordinate tag {self.coords!r}")
        object.__setattr__(self, "values", v)

    @property
    def T(self) -> int:
        return self.values.shape[0] - 1

    def total(self) -> float:
        return float(self.values.sum())

    def validate(self, *, sum_tol: float = 1e-12, neg_tol: float = 0.0) -> None:
        """Raise GridError unless mass is 1 within sum_tol and entries >= -neg_tol."""
        tot = self.total()
        if abs(tot - 1.0) > sum_tol:
            raise GridError(f"grid mass {tot!r} differs from 1 by more than {sum_tol}")
        worst = float(self.values.min())
        if worst < -neg_tol:
            raise GridError(f"grid has entry {worst} below -{neg_tol}")

    def normalized(self) -> "ProbabilityGrid":
        tot = self.total()
        if tot <= 0:
            raise GridError("cannot normalize a grid with non-positive mass")
        return ProbabilityGrid(self.values / tot, self.coords)

    def clipped(self) -> "ProbabilityGrid":
        """Non-negative copy (for reporting; does not renormalize)."""
        return ProbabilityGrid(np.maximum(self.values, 0.0), self.coords)

    def to_transformed(self) -> "ProbabilityGrid":
        """Push an original-coordinate grid forward through (min, |diff|)."""
        if self.coords != TRANSFORMED:
            i, j = np.indices(self.values.shape)
            pi = np.zeros_like(self.values)
            np.add.at(pi, (np.minimum(i, j), np.abs(i - j)), self.values)
            return ProbabilityGrid(pi, TRANSFORMED)
        return self
