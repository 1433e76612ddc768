"""Dense complex matrix arithmetic.

Matrices are square numpy arrays of complex128, treated as immutable values.
Downstream modules take inverses, norms, the invertibility verdict and the
matrix exponential from here; series, calculus and recursions call
``@``, ``np.matmul`` and ``np.einsum`` themselves. Products are never
reordered: ``a @ b`` is a*b, full stop.

Inverses, condition numbers and eigenvalues are LAPACK through
``numpy.linalg``, with no order cap. Invertibility has one contract: a
matrix is singular when its 1-norm reciprocal condition number
1 / (||M||_1 ||M^-1||_1) is below SINGULARITY_RTOL. The value is read off the
inverse that ``np.linalg.inv`` hands out, so each matrix, or each member of a
stack, is factored once for its verdict and its inverse together; a matrix
with an exact zero pivot, the zero matrix among them, reads 0.
``shift_inverses`` inverts a whole run of shifts base + kI in one stacked
call, for one base or a stack of them, and reports how far each base reaches
before its first singular shift. Frobenius norms stay finite up to the
double range. The matrix exponential uses scaling and squaring around a
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


def _rescaled_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a real 2-D array, each row scaled
    exactly by a power of two 2^-e first so that no square overflows; the
    fallback where the plain sum of squares passes the double range, as it
    does once an entry passes about 1.34e154."""
    _, e = np.frexp(np.abs(rows).max(axis=1))
    scaled = np.ldexp(rows, -e[:, np.newaxis])
    return np.ldexp(np.sqrt(np.einsum("ij,ij->i", scaled, scaled)), e)


def frobenius_norm(m: Matrix) -> float:
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
        if norm == math.inf:
            norm = float(_rescaled_norms(np.abs(m).reshape(1, -1))[0])
    return norm


def commutator_norm(a: Matrix, b: Matrix) -> float:
    """Frobenius norm of a*b - b*a, the commutation defect."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"orders differ: {a.shape} vs {b.shape}")
    return frobenius_norm(a @ b - b @ a)


def _inverted(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M^-1, 1 / (||M||_1 ||M^-1||_1)) of a matrix or of each matrix in a
    stack, from one LAPACK inversion.

    A member with an exact zero pivot gets a NaN inverse and rcond 0, and so
    does one whose norm product is not finite.
    """
    with np.errstate(all="ignore"):
        try:
            inverse = np.linalg.inv(m)
        except np.linalg.LinAlgError:  # raised only for an exact zero pivot
            singular = np.linalg.slogdet(m)[0] == 0
            inverse = np.full_like(m, np.nan)
            inverse[~singular] = np.linalg.inv(m[~singular])
        product = np.linalg.norm(m, 1, axis=(-2, -1)) * np.linalg.norm(inverse, 1, axis=(-2, -1))
        return inverse, np.where(product < math.inf, 1.0 / product, 0.0)[()]


def reciprocal_condition(m: np.ndarray) -> np.ndarray:
    """1 / (||M||_1 ||M^-1||_1) of a matrix or of each matrix in a stack.

    The value is read off the inverse of one LAPACK inversion. A matrix
    with an exact zero pivot (the zero matrix among them), or whose inverse
    leaves the double range, gets 0. This is the single invertibility
    measure of the package: a matrix counts as singular when its value is
    below SINGULARITY_RTOL.
    """
    return _inverted(m)[1]


# Unused by the package; kept because perfbench/tracer.py patches lu_factor and solve by name.
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
    """M^-1 of a validated matrix; SingularMatrix when its reciprocal
    condition number is below SINGULARITY_RTOL."""
    value, rcond = _inverted(as_matrix(m))
    if rcond < SINGULARITY_RTOL:
        raise SingularMatrix(f"matrix is singular to working precision (rcond {rcond:.3e})")
    return value


def shifted(base: np.ndarray, shifts) -> np.ndarray:
    """The stack of base + k I over the shifts k, in order.

    ``base`` is one matrix or a stack of them; the result has one entry of
    that shape per shift.
    """
    ks = np.asarray(shifts, dtype=float).reshape((-1,) + (1,) * base.ndim)
    return base + ks * identity(base.shape[-1])


def shift_inverses(base: np.ndarray, shifts) -> tuple[np.ndarray, np.ndarray]:
    """(base + k I)^{-1} for the shifts k in order, and each base's reach.

    ``base`` is one matrix or a stack of them, one per member. One stacked
    inversion inverts every shift of every member and gives each its rcond.
    ``reach`` holds, per member, the number of shifts before its first
    singular one (``len(shifts)`` when there is none), and that member's
    inverses from there on are NaN.
    """
    inverses, rcond = _inverted(shifted(base, shifts))
    reached = np.logical_and.accumulate(rcond >= SINGULARITY_RTOL, axis=0)
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
