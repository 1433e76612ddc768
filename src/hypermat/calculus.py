"""Shifted factorials of matrix argument and their supporting calculus.

The rising factorial of a square matrix A is the ordered product

    (A)_0 = I,    (A)_n = A (A + I) (A + 2I) ... (A + (n-1)I),

and every series in this package is built from such products together with
inverse chains (C)_n^{-1}. A chain keeps one convention, the factorial-scaled
run (A)_n / n! or n! (C)_n^{-1}, which grows like a power of n where the
unscaled products overflow double precision near n = 170. It grows by whole
blocks of shifts: the factors (A + kI)/(k+1) or (k+1)(C + kI)^{-1} of a
block are built in one batched call, the shifts C + kI inverted in one stacked
call rather than by inverting the accumulated product, and folded in one at
a time. A chain holds one base or a stack of bases, one per member of a
batch of series. Reading a run never raises for a singular shift C + kI:
the member's entries past k are NaN. One checked read, ``at(n)``, hands out
entry n and raises SingularShift(k), with ``shift`` k + 1, when n is past
the smallest such k; product(n), inverse(n), gamma_limit and the
recursions' coefficients all read through it, and only the series engine,
whose members exit one by one, decides a member's singular shift itself.
An index is an int or a numpy integer (``linalg.is_count``); a float or a
bool is refused with ValueError. This module also provides the limit
formula for the gamma function of a positive stable matrix, read off the
scaled inverse chain, and a generator of families of simultaneously
diagonalized (hence commuting) parameter matrices.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import GenerationFailed, Overflow, SingularShift
from .linalg import Matrix

#: Spectra of generated families stay in this band of the right half plane,
#: which keeps C + nI invertible for every n >= 0 and all members positive
#: stable.
SPECTRUM_REAL_RANGE = (0.5, 3.0)
SPECTRUM_IMAG_RANGE = (-0.5, 0.5)

#: Generated transforms need a 2-norm condition number cond(P) <= 1000.
_TRANSFORM_MAX_COND = 1e3
_GENERATION_ATTEMPTS = 100

#: Chains grow by blocks of at least this many indices. Every series sums at
#: least three diagonals and most need 15 to 40, so shorter blocks would pay
#: the fixed cost of a batched call (rcond test, inverse, shift stack) per index.
_CHAIN_BLOCK = 8


def _factorial_chunks(n: int):
    """Floats below 1e300 whose product is n!, so that scaling a run entry by
    them one at a time overflows or underflows only where the result does."""
    chunk = 1
    for k in range(2, n + 1):
        if chunk * k > 10**300:
            yield float(chunk)
            chunk = 1
        chunk *= k
    yield float(chunk)


class PochhammerChain:
    """Grow-only cache of the factorial-scaled run of (A)_k or of (A)_k^{-1}.

    A product chain holds (A)_k / k!, which grows like k^(A - I), and an
    inverse chain k! (A)_k^{-1}, which grows like k^(I - A), where the
    unscaled (A)_k grows like k!. The run is one contiguous (k, ...) buffer,
    and through(n) hands out its first n + 1 entries as one view, so a series
    can slice a whole run of indices at once; at(n) hands out entry n, and
    product(n) and inverse(n) unscale it to (A)_n and (A)_n^{-1}. The base
    is one matrix or a stack of b members; a stack keeps (k, b, r, r)
    entries whose members share every batched product, rcond test and block
    inverse. A singular shift is only recorded, as the member's ``reach``,
    and the entries past it read as NaN; ``at`` turns it into SingularShift.
    Confined to a single evaluation; not thread safe.
    """

    def __init__(self, base: np.ndarray, track_inverses: bool):
        self.base = base
        self._run = np.empty((1,) + base.shape, dtype=complex)
        self._run[0] = linalg.identity(base.shape[-1])  # broadcast over members
        self._size = 1
        #: Per member of an inverse chain, the last index of its run that is
        #: not NaN: the first singular shift base + kI stops it at k, and
        #: until then it is the last index held.
        self.reach = np.zeros(base.shape[:-2], dtype=int) if track_inverses else None

    @classmethod
    def for_products(cls, base: np.ndarray) -> "PochhammerChain":
        return cls(linalg.as_matrices(base), track_inverses=False)

    @classmethod
    def for_inverses(cls, base: np.ndarray) -> "PochhammerChain":
        return cls(linalg.as_matrices(base), track_inverses=True)

    @property
    def products(self) -> np.ndarray | None:
        """The held run of a product chain (None for an inverse chain)."""
        return self._run[: self._size] if self.reach is None else None

    @property
    def inverse_products(self) -> np.ndarray | None:
        """The held run of an inverse chain (None for a product chain)."""
        return None if self.reach is None else self._run[: self._size]

    def through(self, n: int) -> np.ndarray:
        """(A)_k / k! or k! (A)_k^{-1} for k = 0, ..., n as one (n + 1, ...) view.

        When n is not held, the run grows by one whole block of the shifts
        k, ..., k + max(n - k, _CHAIN_BLOCK) - 1 after the last held index k,
        so it may end past n. A product chain
        folds (A)_{j+1}/(j+1)! = (A)_j/j! (A + jI)/(j+1), and an inverse chain
        folds (j+1)! (A)_{j+1}^{-1} = (j+1) (A + jI)^{-1} j! (A)_j^{-1}, with
        every shift of the block inverted in one stacked call. A singular shift
        base + kI stops a member at index k, its ``reach``: the NaN factor
        makes all its later entries NaN while the other members go on. The
        read never raises for that; ``at`` and the series engine decide it
        where a value is handed out.
        An n that is not a nonnegative int or numpy integer, a bool among
        them, raises ValueError.
        """
        if not linalg.is_count(n) or n < 0:
            raise ValueError("Pochhammer index must be a nonnegative integer")
        products = self.reach is None
        if n >= self._size:
            k = self._size - 1
            shifts = np.arange(k, k + max(n - k, _CHAIN_BLOCK))
            scale = (shifts + 1.0).reshape((-1,) + (1,) * self.base.ndim)
            if products:
                factors = linalg.shifted(self.base, shifts)
                factors *= 1.0 / scale
            else:
                factors, reach = linalg.shift_inverses(self.base, shifts)
                factors *= scale
                self.reach = np.where(self.reach < k, self.reach, k + reach)
            size = self._size + len(shifts)
            if size > len(self._run):
                grown = np.empty((max(size, 2 * len(self._run)),) + self.base.shape, dtype=complex)
                grown[: self._size] = self._run[: self._size]
                self._run = grown
            run = self._run
            for j, factor in enumerate(factors, start=k):
                if products:
                    np.matmul(run[j], factor, out=run[j + 1])
                else:
                    np.matmul(factor, run[j], out=run[j + 1])
            self._size = size
        return self._run[: n + 1]

    def at(self, n: int) -> np.ndarray:
        """Entry n of the scaled run, through(n)[n], extending the run as needed.

        On an inverse chain, raises SingularShift(k) for the smallest reach k
        of the chain's members when n is past it; a product chain has no
        singular shift.
        """
        run = self.through(n)
        if self.reach is not None and n > self.reach.min():
            raise SingularShift(int(self.reach.min()))
        return run[n]

    def product(self, n: int) -> np.ndarray:
        """(A)_n, extending the run as needed."""
        if self.reach is not None:
            raise ValueError("chain was created for inverses")
        return functools.reduce(np.multiply, _factorial_chunks(n), self.at(n))

    def inverse(self, n: int) -> np.ndarray:
        """(A)_n^{-1}, extending the run as needed; SingularShift as ``at``."""
        if self.reach is None:
            raise ValueError("chain was created without inverse tracking")
        return functools.reduce(np.divide, _factorial_chunks(n), self.at(n))


def pochhammer(a: Matrix, n: int) -> Matrix:
    """The ordered product (a)_n; identity for n = 0."""
    return PochhammerChain.for_products(a).product(n)


def pochhammer_inverse(a: Matrix, n: int) -> Matrix:
    """(a)_n^{-1} built through an inverse chain."""
    return PochhammerChain.for_inverses(a).inverse(n)


def gamma_limit(a: Matrix, n: int) -> Matrix:
    """Gamma function of a positive stable matrix via the factorial limit.

    Returns (n-1)! (A)_n^{-1} n^A for the given n, read as n! (A)_n^{-1} / n
    from the factorial-scaled inverse chain, which stays near unit scale
    where a naive (n-1)! overflows long before the interesting n. The power
    n^A is exp(ln(n) A). Raises ValueError for an n that is not a positive
    integer or an A that is not positive stable: a count below 1 reads "n
    must be positive", and anything that is not a count (a bool, a float, a
    string) is left to the chain's index check. Raises SingularShift(k) from
    ``PochhammerChain.at`` when the shift A + kI with k < n is singular (its
    ``shift`` is k + 1, as for every chain), and Overflow when n^A or the
    product leaves the double range.
    """
    a = linalg.as_matrix(a)
    if linalg.is_count(n) and n < 1:
        raise ValueError("n must be positive")
    if not linalg.is_positive_stable(a):
        raise ValueError("gamma limit requires a positive stable matrix")
    result = PochhammerChain.for_inverses(a).at(n) / n @ linalg.mat_exp(math.log(n) * a)
    if not np.isfinite(result).all():
        raise Overflow("gamma limit accumulation overflowed")
    return result


@dataclass(frozen=True, eq=False)
class CommutingFamily:
    """Parameter matrices sharing one similarity transform.

    Each named member is realized as P diag(spectrum) P^{-1}, so any two
    members commute up to roundoff and scalar functions extend to members
    entrywise on the spectrum. The transform P has condition number at most
    1000. Spectra are confined to the band with real part in
    SPECTRUM_REAL_RANGE.
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

    def realize(self, name: str) -> Matrix:
        """The member matrix P diag(spectra[name]) P^{-1}."""
        values = np.array(self.spectra[name], dtype=complex)
        return self.transform @ np.diag(values) @ self.transform_inverse


def random_commuting_family(
    order: int, names: list[str] | tuple[str, ...], seed: int
) -> CommutingFamily:
    """Draw a deterministic commuting family for the given parameter names.

    The transform P has entries uniform in the complex unit square and is
    redrawn until its condition number is at most 1000 (the 2-norm
    cond(P) = sigma_max / sigma_min; at most 100 tries, then
    GenerationFailed). Spectra are sampled with real parts in
    [0.5, 3.0] and imaginary parts in [-0.5, 0.5]. Identical seeds yield
    bit-identical families.
    """
    if not linalg.is_count(order) or order < 1:
        raise ValueError(f"family order must be a positive integer, got {order!r}")
    rng = random.Random(seed)
    transform = None
    for _ in range(_GENERATION_ATTEMPTS):
        candidate = np.array(
            [
                [complex(rng.random(), rng.random()) for _ in range(order)]
                for _ in range(order)
            ],
            dtype=complex,
        )
        if np.linalg.cond(candidate) <= _TRANSFORM_MAX_COND:
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
    transform_inverse = linalg.inverse(transform)
    return CommutingFamily(order, transform, transform_inverse, spectra)
