"""Shifted factorials of matrix argument and their supporting calculus.

The rising factorial of a square matrix A is the ordered product

    (A)_0 = I,    (A)_n = A (A + I) (A + 2I) ... (A + (n-1)I),

and every series in this package is built from such products together with
inverse chains (C)_n^{-1}, whose shifts C + kI are solved in stacked blocks
and folded in one factor at a time rather than by inverting the accumulated
product. This module also provides the limit formula for the gamma function
of a positive stable matrix, the reciprocal-gamma shift residual used for
verification, multinomial coefficients, and a generator of families of
simultaneously diagonalized (hence commuting) parameter matrices.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    GenerationFailed,
    NonConvergent,
    Overflow,
    SingularMatrix,
    SingularShift,
)
from .linalg import Matrix

#: Spectra of generated families stay in this band of the right half plane,
#: which keeps C + nI invertible for every n >= 0 and all members positive
#: stable.
SPECTRUM_REAL_RANGE = (0.5, 3.0)
SPECTRUM_IMAG_RANGE = (-0.5, 0.5)

#: Generated transforms need cond(P) <= 1000.
_TRANSFORM_MIN_RCOND = 1e-3
_GENERATION_ATTEMPTS = 100
_GAMMA_BLOCK = 128


class _Stack:
    """Contiguous (k, r, r) array of matrices that grows by doubling."""

    def __init__(self, first: Matrix):
        self.data = first[np.newaxis].copy()
        self.size = 1

    def push(self, matrix: Matrix) -> None:
        if self.size == len(self.data):
            grown = np.empty((2 * self.size,) + self.data.shape[1:], dtype=complex)
            grown[: self.size] = self.data
            self.data = grown
        self.data[self.size] = matrix
        self.size += 1

    @property
    def view(self) -> np.ndarray:
        return self.data[: self.size]


class PochhammerChain:
    """Grow-only cache of (A)_k and optionally (A)_k^{-1}.

    products[k] is the ordered product (A)_k; when inverses are enabled,
    inverse_products[k] satisfies products[k] @ inverse_products[k] = I to
    working precision. Both are views of contiguous (k, r, r) buffers, so a
    series can slice a whole run of indices at once. Confined to a single
    evaluation; not thread safe.
    """

    def __init__(self, base: Matrix, track_inverses: bool):
        self.base = base
        self._eye = linalg.identity(base.shape[0])
        self._products = _Stack(self._eye)
        self._inverses = _Stack(self._eye) if track_inverses else None

    @classmethod
    def for_products(cls, base: Matrix) -> "PochhammerChain":
        return cls(linalg.as_matrix(base), track_inverses=False)

    @classmethod
    def for_inverses(cls, base: Matrix) -> "PochhammerChain":
        return cls(linalg.as_matrix(base), track_inverses=True)

    @property
    def order(self) -> int:
        return self.base.shape[0]

    @property
    def products(self) -> np.ndarray:
        return self._products.view

    @property
    def inverse_products(self) -> np.ndarray | None:
        return None if self._inverses is None else self._inverses.view

    def products_through(self, n: int) -> np.ndarray:
        """(A)_0, ..., (A)_n as one (n + 1, r, r) view, extending the cache."""
        if n < 0:
            raise ValueError("Pochhammer index must be nonnegative")
        stack = self._products
        while stack.size <= n:
            k = stack.size - 1
            stack.push(stack.data[k] @ (self.base + k * self._eye))
        return stack.data[: n + 1]

    def inverses_through(self, n: int) -> np.ndarray:
        """(A)_0^{-1}, ..., (A)_n^{-1} as one view, extending the cache.

        The cache grows by a block at least as long as what it holds, solved
        in one stacked call and folded in as (A)_{k+1}^{-1} =
        (A + kI)^{-1} (A)_k^{-1}. A singular shift inside the block cuts it
        short; SingularShift is raised only when index n needs that shift.
        """
        if self._inverses is None:
            raise ValueError("chain was created without inverse tracking")
        stack = self._inverses
        if stack.size <= n:
            shifts = np.arange(stack.size - 1, max(n, 2 * stack.size - 1))
            for factor in linalg.shift_inverses(self.base, shifts):
                stack.push(factor @ stack.data[stack.size - 1])
            if stack.size <= n:
                k = stack.size - 1
                raise SingularShift(f"base + {k}*I is singular", shift=k + 1)
        return stack.data[: n + 1]

    def product(self, n: int) -> Matrix:
        """(A)_n, extending the cache as needed."""
        return self.products_through(n)[n]

    def inverse(self, n: int) -> Matrix:
        """(A)_n^{-1}, extending the inverse cache as needed."""
        return self.inverses_through(n)[n]


def pochhammer(a: Matrix, n: int) -> Matrix:
    """The ordered product (a)_n; identity for n = 0."""
    return PochhammerChain.for_products(a).product(n)


def pochhammer_inverse(a: Matrix, n: int) -> Matrix:
    """(a)_n^{-1} built through an inverse chain."""
    return PochhammerChain.for_inverses(a).inverse(n)


def pochhammer_shift_identity_residual(a: Matrix, n: int) -> float:
    """Frobenius defect of (A+I)_n = A^{-1} (A)_n (A + nI)."""
    a = linalg.as_matrix(a)
    eye = linalg.identity(a.shape[0])
    factored = linalg.lu_factor(a)
    if not factored.is_invertible():
        raise SingularMatrix("shift identity needs an invertible base")
    lhs = pochhammer(a + eye, n)
    rhs = linalg.solve(factored, pochhammer(a, n) @ (a + n * eye))
    return linalg.frobenius_norm(lhs - rhs)


def pochhammer_c_decrement_residual(c: Matrix, n: int) -> float:
    """Frobenius defect of (C-I)_n^{-1} = (C)_n^{-1} [I + n (C-I)^{-1}]."""
    c = linalg.as_matrix(c)
    eye = linalg.identity(c.shape[0])
    lhs = pochhammer_inverse(c - eye, n)
    rhs = pochhammer_inverse(c, n) @ (eye + n * linalg.inverse(c - eye))
    return linalg.frobenius_norm(lhs - rhs)


def gamma_limit(a: Matrix, n: int) -> Matrix:
    """Gamma function of a positive stable matrix via the factorial limit.

    Returns (n-1)! (A)_n^{-1} n^A for the given n. The shifts A + kI are
    inverted in stacked blocks of _GAMMA_BLOCK and folded in one factor
    k (A + kI)^{-1} at a time, keeping the running product near unit scale;
    a naive (n-1)! overflows long before the interesting n. The power n^A is
    exp(ln(n) A).
    """
    a = linalg.as_matrix(a)
    if n < 1:
        raise ValueError("n must be positive")
    if not linalg.is_positive_stable(a):
        raise ValueError("gamma limit requires a positive stable matrix")
    acc = linalg.identity(a.shape[0])
    for start in range(0, n, _GAMMA_BLOCK):
        shifts = np.arange(start, min(n, start + _GAMMA_BLOCK))
        factors = linalg.shift_inverses(a, shifts)
        if len(factors) < len(shifts):
            k = start + len(factors)
            where = "matrix itself" if k == 0 else f"matrix + {k}*I"
            raise SingularShift(f"{where} is singular", shift=k)
        for k, factor in zip(range(start, n), factors):
            # A^{-1} (k = 0) enters with weight 1; (n-1)! is the product of the rest.
            acc = max(k, 1) * (factor @ acc)
    try:
        power = linalg.mat_exp(math.log(n) * a)
    except NonConvergent as exc:  # pragma: no cover - extreme norms
        raise Overflow(str(exc)) from exc
    result = acc @ power
    if not np.all(np.isfinite(result.real)) or not np.all(np.isfinite(result.imag)):
        raise Overflow("gamma limit accumulation overflowed")
    return result


def multinomial(s: int, k1: int, k2: int) -> int:
    """s! / (k1! k2! (s-k1-k2)!), zero outside the admissible index range."""
    if k1 < 0 or k2 < 0 or k1 + k2 > s:
        return 0
    return math.factorial(s) // (
        math.factorial(k1) * math.factorial(k2) * math.factorial(s - k1 - k2)
    )


# Lanczos approximation (g = 7, 9 coefficients), accurate to ~1e-13 on the
# half plane Re z > 0.5 that all generated spectra live in.
_LANCZOS_G = 7.0
_LANCZOS_COEFFICIENTS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def scalar_gamma(z: complex) -> complex:
    """Gamma function of a complex scalar (Lanczos, with reflection)."""
    z = complex(z)
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * scalar_gamma(1.0 - z))
    z -= 1.0
    x = _LANCZOS_COEFFICIENTS[0]
    for i, coefficient in enumerate(_LANCZOS_COEFFICIENTS[1:], start=1):
        x += coefficient / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


@dataclass(frozen=True, eq=False)
class CommutingFamily:
    """Parameter matrices sharing one similarity transform.

    Each named member is realized as P diag(spectrum) P^{-1}, so any two
    members commute up to roundoff and scalar functions extend to members
    entrywise on the spectrum. Spectra are confined to the band with real
    part in SPECTRUM_REAL_RANGE.
    """

    order: int
    transform: Matrix
    transform_inverse: Matrix
    spectra: dict[str, tuple[complex, ...]]

    def __post_init__(self):
        lo, hi = SPECTRUM_REAL_RANGE
        for name, values in self.spectra.items():
            if len(values) != self.order:
                raise ValueError(f"spectrum of {name} has wrong length")
            for z in values:
                if not (lo <= z.real <= hi):
                    raise ValueError(
                        f"spectrum of {name} leaves the real band [{lo}, {hi}]"
                    )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.spectra)

    def realize(self, name: str) -> Matrix:
        """The member matrix P diag(spectra[name]) P^{-1}."""
        return self.apply_scalar(name, lambda z: z)

    def apply_scalar(self, name: str, fn) -> Matrix:
        """Lift a scalar function to the member through the shared transform."""
        values = np.array([fn(z) for z in self.spectra[name]], dtype=complex)
        return self.transform @ np.diag(values) @ self.transform_inverse


def reciprocal_gamma_shift_residual(
    family: CommutingFamily, name: str, n: int
) -> float:
    """Frobenius defect of 1/Gamma(A) = (A)_n * (1/Gamma)(A + nI).

    The reciprocal gamma of a member is evaluated entrywise on its spectrum
    through the family's transform, which is exactly the setting in which
    that function of a matrix is computable without further machinery.
    """
    member = family.realize(name)
    lhs = family.apply_scalar(name, lambda z: 1.0 / scalar_gamma(z))
    shifted = family.apply_scalar(name, lambda z: 1.0 / scalar_gamma(z + n))
    rhs = pochhammer(member, n) @ shifted
    return linalg.frobenius_norm(lhs - rhs)


def random_commuting_family(
    order: int, names: list[str] | tuple[str, ...], seed: int
) -> CommutingFamily:
    """Draw a deterministic commuting family for the given parameter names.

    The transform P has entries uniform in the complex unit square and is
    redrawn until its reciprocal condition number is at least 1e-3 (at most
    100 tries, then GenerationFailed). Spectra are sampled with real parts in
    [0.5, 3.0] and imaginary parts in [-0.5, 0.5]. Identical seeds yield
    bit-identical families.
    """
    if not 1 <= order <= 8:
        raise ValueError("families are generated at desk scale, 1 <= order <= 8")
    rng = random.Random(seed)
    transform = None
    factored = None
    for _ in range(_GENERATION_ATTEMPTS):
        candidate = np.array(
            [
                [complex(rng.random(), rng.random()) for _ in range(order)]
                for _ in range(order)
            ],
            dtype=complex,
        )
        factored = linalg.lu_factor(candidate)
        if factored.rcond >= _TRANSFORM_MIN_RCOND:
            transform = candidate
            break
    if transform is None:
        raise GenerationFailed("no acceptable transform after 100 draws")
    lo, hi = SPECTRUM_REAL_RANGE
    im_lo, im_hi = SPECTRUM_IMAG_RANGE
    spectra = {
        name: tuple(
            complex(lo + (hi - lo) * rng.random(), im_lo + (im_hi - im_lo) * rng.random())
            for _ in range(order)
        )
        for name in names
    }
    transform_inverse = linalg.solve(factored, linalg.identity(order))
    return CommutingFamily(order, transform, transform_inverse, spectra)
