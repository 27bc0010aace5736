"""Exception types shared across the package."""

from __future__ import annotations


class CyclatError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidWordError(CyclatError):
    """Input is not a permutation word / cycle literal."""


class NotAdmittedError(CyclatError):
    """Triangular vector violates the admissibility conditions."""

    def __init__(self, message: str, *, kind: str, where: tuple[int, ...]):
        super().__init__(message)
        # "shape" | "not_integer" | "adjacent_nonzero" | "negative" | "delta_out_of_range"
        self.kind = kind
        self.where = where        # (n,), (i, j) or (i, j, k) naming the violation


class NotAnInversionSetError(CyclatError):
    """Pair set fails the closure conditions of an inversion-by-value set."""


class PtolemyViolationError(CyclatError):
    """Bit sequence over triples breaks the quadruple exchange relation."""


class InvalidTriangulationError(CyclatError):
    """Triangle set is not a triangulation of the polygon."""


class QuadNotFlippableError(CyclatError):
    """The quadrilateral is not triangulated by the given triangulation."""


class InvalidWindowError(CyclatError):
    """Integer tuple is not an affine-permutation window."""


class NotInIntervalError(CyclatError):
    """Window lies outside the interval handled by the vector bijection."""


class NotAChainError(CyclatError):
    """Label sequence is not a saturated chain from the given element."""


class NotComparableError(CyclatError):
    """The two elements are incomparable in the order."""


class NotALatticeError(CyclatError):
    """Bound search found no unique extremum (must never happen)."""


class CapExceededError(CyclatError):
    """Requested enumeration exceeds the configured cap."""


class UnknownCheckError(CyclatError):
    """No verification check registered under that name."""
