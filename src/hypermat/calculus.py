"""Shifted factorials of matrix argument and their supporting calculus.

The rising factorial of a square matrix A is the ordered product

    (A)_0 = I,    (A)_n = A (A + I) (A + 2I) ... (A + (n-1)I),

and every series in this package is built from such products together with
inverse chains (C)_n^{-1}. A chain keeps one convention, the factorial-scaled
run (A)_n / n! or n! (C)_n^{-1}, which grows like a power of n where the
unscaled products overflow double precision near n = 170. It grows by whole
blocks of at least CHAIN_BLOCK shifts: the factors (A + kI)/(k+1) or
(k+1)(C + kI)^{-1} of a block are built in one batched call, the shifts
C + kI inverted in one stacked call rather than by inverting the accumulated
product, and folded in one at a time. A chain holds one base or a stack of
bases; the series engine stacks the members of all numerator parameters of
a batch in one product chain and those of all denominators in one inverse
chain. Reading a run never raises for a singular shift C + kI: the member's
entries past k are NaN. One checked read of a chain, ``at(n)``, hands out
entry n; the recursions' coefficients read through it, and only the series
engine, whose members exit one by one, decides a member's singular shift
itself. A reader of a single entry, pochhammer, pochhammer_inverse and
gamma_limit, keeps no run: it builds the entry's n factors in one stacked
call and multiplies them as a balanced product tree, ceil(log2 n) stacked
products where a chain makes n. Both checked reads share one verdict: entry
n raises SingularShift(k), with ``shift`` k + 1, when n is past the smallest
singular k. An index is an int or a numpy integer (``linalg.is_count``); a
float or a bool is refused with ValueError. This module also provides the
limit formula for the gamma function of a positive stable matrix, read off
one scaled inverse entry, and a generator of families of simultaneously
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
#: This is the one block length: at orders 1-3 each turn of the series engine
#: after the first forms this many diagonals, and the first runs on to the
#: predicted stopping degree; a chain grows by at least the block it is read
#: through, so every turn grows each chain once.
CHAIN_BLOCK = 8


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


def _require_index(n) -> None:
    """ValueError unless n is a nonnegative int or numpy integer (no bool)."""
    if not linalg.is_count(n) or n < 0:
        raise ValueError("Pochhammer index must be a nonnegative integer")


def _scaled_factors(base: np.ndarray, shifts: np.ndarray, inverse: bool):
    """The factors (A + kI)/(k+1), or for ``inverse`` (k+1)(A + kI)^{-1}, over
    the shifts k in one stacked call, and for inverses each member's reach
    (``linalg.shift_inverses``; None for products)."""
    scale = (shifts + 1.0).reshape((-1,) + (1,) * base.ndim)
    if not inverse:
        factors = linalg.shifted(base, shifts)
        factors *= 1.0 / scale
        return factors, None
    factors, reach = linalg.shift_inverses(base, shifts)
    factors *= scale
    return factors, reach


def _check_reach(n: int, reach: np.ndarray) -> None:
    """The one singular-shift verdict of a checked read of entry n: raises
    SingularShift(k) for the smallest reach k among the members when n is
    past it, since entry n needs the singular shift base + kI."""
    k = int(reach.min())
    if n > k:
        raise SingularShift(k)


class PochhammerChain:
    """Grow-only cache of the factorial-scaled run of (A)_k or of (A)_k^{-1}.

    A product chain holds (A)_k / k!, which grows like k^(A - I), and an
    inverse chain k! (A)_k^{-1}, which grows like k^(I - A), where the
    unscaled (A)_k grows like k!. The run is one contiguous (k, ...) buffer,
    and through(n) hands out its first n + 1 entries as one view, so a series
    can slice a whole run of indices at once; at(n) hands out entry n, and
    product(n) and inverse(n), which no package code calls, unscale it to
    (A)_n and (A)_n^{-1}. The base is one matrix or a stack of b members,
    which may be the members of several parameters; a stack keeps
    (k, b, r, r) entries whose members share every batched product, rcond
    test and block inverse. Each member is multiplied and inverted on its
    own, so its run is bitwise that of its base's chain alone. A singular
    shift is only recorded, as the member's ``reach``, and the entries past
    it read as NaN; ``at`` turns it into SingularShift.
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
        k, ..., k + max(n - k, CHAIN_BLOCK) - 1 after the last held index k,
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
        _require_index(n)
        products = self.reach is None
        if n >= self._size:
            k = self._size - 1
            shifts = np.arange(k, k + max(n - k, CHAIN_BLOCK))
            factors, reach = _scaled_factors(self.base, shifts, inverse=not products)
            if not products:
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
        if self.reach is not None:
            _check_reach(n, self.reach)
        return run[n]

    # Unused by the package; kept because perfbench/tracer.py patches product and inverse by name.
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


def _scaled_entry(base: Matrix, n: int, inverse: bool) -> Matrix:
    """(A)_n / n! or, for ``inverse``, n! (A)_n^{-1} of one base, as a product tree.

    The n factors (A + kI)/(k+1) or (k+1)(A + kI)^{-1} are built in one
    stacked call, as a chain builds a block, and stay near unit scale. Each
    round multiplies adjacent pairs with one stacked ``@`` and carries an odd
    leftover to the next, so the product takes ceil(log2 n) calls, and its
    rounding grows like log n rather than n. Products ascend,
    A (A + I) ... (A + (n-1)I); inverses descend,
    (A + (n-1)I)^{-1} ... A^{-1}. n = 0 gives I. The index check and the
    singular-shift verdict are those of ``PochhammerChain.at``.
    """
    _require_index(n)
    if n == 0:
        return linalg.identity(base.shape[-1])
    factors, reach = _scaled_factors(base, np.arange(n), inverse)
    if inverse:
        _check_reach(n, reach)
        factors = factors[::-1]
    while len(factors) > 1:
        paired = factors[:-1:2] @ factors[1::2]
        factors = np.concatenate((paired, factors[-1:])) if len(factors) % 2 else paired
    return factors[0]


def pochhammer(a: Matrix, n: int) -> Matrix:
    """The ordered product (a)_n; identity for n = 0."""
    entry = _scaled_entry(linalg.as_matrix(a), n, inverse=False)
    return functools.reduce(np.multiply, _factorial_chunks(n), entry)


def pochhammer_inverse(a: Matrix, n: int) -> Matrix:
    """(a)_n^{-1}; SingularShift(k) when a shift a + kI with k < n is singular."""
    entry = _scaled_entry(linalg.as_matrix(a), n, inverse=True)
    return functools.reduce(np.divide, _factorial_chunks(n), entry)


def gamma_limit(a: Matrix, n: int) -> Matrix:
    """Gamma function of a positive stable matrix via the factorial limit.

    Returns (n-1)! (A)_n^{-1} n^A for the given n, read as n! (A)_n^{-1} / n
    from one factorial-scaled entry, which stays near unit scale where a
    naive (n-1)! overflows long before the interesting n; its n factors are
    multiplied as a balanced product tree. The power n^A is exp(ln(n) A).
    Raises ValueError for an n that is not a positive integer or an A that
    is not positive stable: a count below 1 reads "n must be positive", and
    anything that is not a count (a bool, a float, a string) is left to the
    entry's index check. Raises SingularShift(k) when the shift A + kI with
    k < n is singular (its ``shift`` is k + 1, as for every chain), and
    Overflow when n^A or the product leaves the double range.
    """
    a = linalg.as_matrix(a)
    if linalg.is_count(n) and n < 1:
        raise ValueError("n must be positive")
    if not linalg.is_positive_stable(a):
        raise ValueError("gamma limit requires a positive stable matrix")
    result = _scaled_entry(a, n, inverse=True) / n @ linalg.mat_exp(math.log(n) * a)
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
