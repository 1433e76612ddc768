"""Exception taxonomy shared by every hypermat module."""

from __future__ import annotations


class HypermatError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HypermatError):
    """Operands do not have compatible orders."""


class SingularMatrix(HypermatError):
    """A matrix that must be inverted is singular to working precision."""


class SingularShift(SingularMatrix):
    """An integer shift base + kI of a parameter matrix is singular.

    ``SingularShift(k)`` reads "base + k*I is singular", and ``shift`` is
    k + 1, the Pochhammer index n of the first (P)_n^-1 that needs the
    singular P + kI (3 for a singular C + 2I, 1 when P itself is singular).
    Inverse Pochhammer chains, ``calculus.gamma_limit``, the series engine
    and the recursions' coefficients all raise it so. A singular C - kI of
    the recursions is a plain SingularMatrix.
    """

    def __init__(self, k: int):
        super().__init__(f"base + {k}*I is singular")
        self.shift = k + 1


class NonConvergent(HypermatError):
    """LAPACK's eigenvalue iteration did not converge (``linalg.spectrum``)."""


class Overflow(HypermatError):
    """A value left the double range: a scaled accumulation, a matrix
    exponential, or the exact factorial part of a recursion term's weight."""


class NotConverged(HypermatError):
    """A truncated series hit max_degree before the stopping rule fired.

    The partial result is attached as ``report`` (converged flag False).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class DomainViolation(HypermatError):
    """Evaluation point lies outside the convergence region."""


class HypothesisViolated(HypermatError):
    """Identity hypotheses (commutation or invertibility) do not hold."""


class GenerationFailed(HypermatError):
    """Random input generation exhausted its retry budget."""


class UnknownIdentity(HypermatError):
    """An identity id that is not in the catalog."""


class ParseError(HypermatError):
    """An input document failed validation.

    ``location`` is a dotted/indexed path such as ``matrices.A[1][0]``.
    """

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
