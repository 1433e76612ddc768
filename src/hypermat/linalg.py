"""Dense complex matrix arithmetic.

Matrices are square numpy arrays of complex128, treated as immutable values.
Downstream modules take solves, inverses, norms, the invertibility verdict
and the matrix exponential from here; series, calculus and recursions call
``@``, ``np.matmul`` and ``np.einsum`` themselves. Products are never
reordered: ``a @ b`` is a*b, full stop.

Solves, inverses, condition numbers and eigenvalues are LAPACK through
``numpy.linalg``, with no order cap. Invertibility has one contract: a
matrix is singular when its 1-norm reciprocal condition number
1 / (||M||_1 ||M^-1||_1), from ``np.linalg.cond(m, 1)`` on one matrix or a
stack, is below SINGULARITY_RTOL (a matrix with an exact zero pivot, the zero
matrix among them, reads 0). ``lu_factor`` returns the matrix with that
verdict so callers decide before ``solve`` raises, and ``shift_inverses``
inverts a whole run of shifts base + kI in one stacked call, for one base or
a stack of them, and reports how far each base reaches before its first
singular shift. The matrix exponential uses scaling and squaring around a
truncated Taylor core and raises Overflow past the double range; only the
eigenvalue iteration of ``spectrum`` raises NonConvergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergent, Overflow, SingularMatrix

Matrix = np.ndarray

#: 1-norm reciprocal condition number below which a matrix is treated as
#: singular. For a matrix of order r the 1-norm value lies within a factor r
#: of sigma_min / sigma_max on either side.
SINGULARITY_RTOL = 1e-12

_EXP_NORM_LIMIT = 600.0


def as_matrix(entries) -> Matrix:
    """Validate and copy ``entries`` into a square complex128 array."""
    return _validated(entries, stacked=False)


def as_matrices(entries) -> np.ndarray:
    """Validate and copy one square matrix, or a stack of them, as complex128.

    A sequence of b matrices of one order becomes one (b, r, r) array.
    """
    return _validated(entries, stacked=True)


def _validated(entries, stacked: bool) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim not in ((2, 3) if stacked else (2,)) or m.shape[-1] != m.shape[-2]:
        expected = "a square matrix or a stack of them" if stacked else "a square matrix"
        raise DimensionMismatch(f"expected {expected}, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise DimensionMismatch("matrix order must be at least 1")
    if not np.isfinite(m).all():  # complex isfinite tests both parts
        raise ValueError("matrix entries must be finite")
    return m


def identity(order: int) -> Matrix:
    return np.eye(order, dtype=complex)


def zeros(order: int) -> Matrix:
    return np.zeros((order, order), dtype=complex)


def frobenius_norm(m: Matrix) -> float:
    return float(np.linalg.norm(m))


def commutator_norm(a: Matrix, b: Matrix) -> float:
    """Frobenius norm of a*b - b*a, the commutation defect."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"orders differ: {a.shape} vs {b.shape}")
    return frobenius_norm(a @ b - b @ a)


def reciprocal_condition(m: np.ndarray) -> np.ndarray:
    """1 / (||M||_1 ||M^-1||_1) of a matrix or of each matrix in a stack.

    ``np.linalg.cond(m, 1)`` inverts the matrix or the stack once and reads
    inf, never raising, where LAPACK meets an exact zero pivot, so such a
    matrix (the zero matrix among them) gets 0. This is the single
    invertibility measure of the package: a matrix counts as singular when
    its value is below SINGULARITY_RTOL.
    """
    return 1.0 / np.linalg.cond(m, 1)


@dataclass(frozen=True, eq=False)
class CheckedMatrix:
    """A square matrix together with its 1-norm reciprocal condition number.

    LAPACK factors the matrix inside ``solve``; the handle only carries the
    invertibility verdict so callers can decide before solving.
    """

    matrix: Matrix
    rcond: float

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def is_invertible(self) -> bool:
        return self.rcond >= SINGULARITY_RTOL


def lu_factor(m: Matrix) -> CheckedMatrix:
    """Validate ``m`` as ``as_matrix`` does and check it for invertibility.

    Never raises on singular input.
    """
    a = as_matrix(m)
    return CheckedMatrix(a, float(reciprocal_condition(a)))


def is_invertible(m: Matrix) -> bool:
    """True when the matrix, or every matrix of a stack, has a 1-norm
    reciprocal condition number of at least SINGULARITY_RTOL."""
    return bool(np.all(reciprocal_condition(m) >= SINGULARITY_RTOL))


def solve(f: CheckedMatrix, rhs: Matrix) -> Matrix:
    """Solve M*X = rhs given f = lu_factor(M), by LAPACK gesv."""
    if rhs.shape[0] != f.order:
        raise DimensionMismatch(f"rhs has {rhs.shape[0]} rows, expected {f.order}")
    if not f.is_invertible():
        raise SingularMatrix(
            f"matrix is singular to working precision (rcond {f.rcond:.3e})"
        )
    return np.linalg.solve(f.matrix, rhs)


def inverse(m: Matrix) -> Matrix:
    """M^-1 via a checked solve against the identity."""
    f = lu_factor(m)
    return solve(f, identity(f.order))


def shifted(base: np.ndarray, shifts) -> np.ndarray:
    """The stack of base + k I over the shifts k, in order.

    ``base`` is one matrix or a stack of them; the result has one entry of
    that shape per shift.
    """
    ks = np.asarray(shifts, dtype=float).reshape((-1,) + (1,) * base.ndim)
    return base + ks * identity(base.shape[-1])


def shift_inverses(base: np.ndarray, shifts) -> tuple[np.ndarray, np.ndarray]:
    """(base + k I)^{-1} for the shifts k in order, and each base's reach.

    ``base`` is one matrix or a stack of them, one per member. One batched
    rcond test judges every shift of every member and one stacked inverse
    inverts them all. ``reach`` holds, per member, the number of shifts
    before its first singular one (``len(shifts)`` when there is none), and
    that member's inverses from there on are NaN.
    """
    stack = shifted(base, shifts)
    reached = np.logical_and.accumulate(reciprocal_condition(stack) >= SINGULARITY_RTOL, axis=0)
    stack[~reached] = identity(base.shape[-1])  # keeps the inverse clear of singular shifts
    inverses = np.linalg.inv(stack)
    inverses[~reached] = np.nan
    return inverses, np.count_nonzero(reached, axis=0)


def mat_exp(m: Matrix) -> Matrix:
    """exp(m) by scaling and squaring with a truncated Taylor core.

    The argument is scaled so its Frobenius norm is at most 1/2, the Taylor
    series is summed until its terms fall below roundoff, and the result is
    squared back up. A norm past _EXP_NORM_LIMIT, or a square that leaves the
    double range, raises Overflow.
    """
    a = as_matrix(m)
    norm = frobenius_norm(a)
    if norm > _EXP_NORM_LIMIT:
        raise Overflow(f"matrix exponential overflow, norm {norm:.3e}")
    squarings = 0
    if norm > 0.5:
        squarings = max(0, int(math.ceil(math.log2(norm / 0.5))))
        a = a / (2.0 ** squarings)
    n = a.shape[0]
    result = identity(n)
    term = identity(n)
    # ||a^j / j!||_F <= 2^-j / j! falls below the test by j = 16, so the
    # loop always breaks before its bound.
    for j in range(1, 40):
        term = term @ a / j
        result = result + term
        if frobenius_norm(term) <= 1e-17 * (1.0 + frobenius_norm(result)):
            break
    for _ in range(squarings):
        result = result @ result
    if not np.isfinite(result).all():
        raise Overflow("matrix exponential overflowed during squaring")
    return result


def spectrum(m: Matrix) -> list[complex]:
    """Eigenvalues of a dense complex matrix of any order (LAPACK geev)."""
    try:
        values = np.linalg.eigvals(as_matrix(m))
    except np.linalg.LinAlgError as exc:
        raise NonConvergent(f"eigenvalue iteration failed: {exc}") from exc
    return [complex(z) for z in values]


def is_positive_stable(m: Matrix) -> bool:
    """True when every eigenvalue has strictly positive real part."""
    return min(z.real for z in spectrum(m)) > 0.0
