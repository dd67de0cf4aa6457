"""Exception types shared across the package.

Every solver either returns an answer or raises one of these: a load >= 1
(:class:`StabilityError`), a numerical routine that cannot deliver
(:class:`NumericsError`), or an unusable grid (:class:`GridError`). Bad
argument values raise ``ValueError``.
"""


class RelayQError(Exception):
    """Base class for all package errors."""


class StabilityError(RelayQError):
    """Equilibrium requested for an unstable parameter point (load >= 1)."""


class NumericsError(RelayQError):
    """A numerical routine failed (lost bracket, singular system, divergence)."""


class UnreachableStateError(NumericsError):
    """GTH elimination met the state with index ``state``, which cannot reach the states it keeps."""

    def __init__(self, state: int) -> None:
        super().__init__(f"state {state} cannot reach the kept states (reducible chain)")
        self.state = state


class GridError(RelayQError):
    """A probability grid is too small, unnormalized, or otherwise unusable."""
