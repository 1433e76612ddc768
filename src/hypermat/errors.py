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
    It is built in two places: ``calculus._check_reach``, the one verdict of
    the checked reads of a single entry (``PochhammerChain.at``, behind the
    recursions' coefficients, and the product tree behind ``gamma_limit``,
    ``pochhammer`` and ``pochhammer_inverse``), and the member exit of the
    series engine. A singular C - kI of the recursions is a plain
    SingularMatrix. ``args`` is (k,), so a copy or an unpickled error is
    built again from it.
    """

    def __init__(self, k: int):
        super().__init__(k)
        self.shift = k + 1

    def __str__(self) -> str:
        return f"base + {self.args[0]}*I is singular"


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
    ``args`` is (location, message), so a copy or an unpickled error is
    built again from it.
    """

    def __init__(self, location: str, message: str):
        super().__init__(location, message)
        self.location = location

    def __str__(self) -> str:
        return "{}: {}".format(*self.args)
