"""Truncated-series evaluation of the Gauss and Appell matrix functions.

Five function kinds are supported, all with square complex matrix parameters
of one common order r:

    2F1(A, B; C; x)          sum_n (A)_n (B)_n (C)_n^{-1} x^n / n!
    F1(A, B, B'; C; x, y)    sum   (A)_{m+n} (B)_m (B')_n (C)_{m+n}^{-1}
    F2(A, B, B'; C, C')      sum   (A)_{m+n} (B)_m (B')_n (C)_m^{-1} (C')_n^{-1}
    F3(A, A', B, B'; C)      sum   (A)_m (A')_n (B)_m (B')_n (C)_{m+n}^{-1}
    F4(A, B; C, C')          sum   (A)_{m+n} (B)_{m+n} (C)_m^{-1} (C')_n^{-1}

with the two-variable kinds weighted by x^m y^n / (m! n!). The parameters do
not commute in general, so these rows are kept as one term table (_TERMS):
per kind, the ordered factors (parameter, inverse?, index) with index m, n or
N = m + n. 2F1 is the single-variable case, whose only index pair on
diagonal N is (N, 0). A kind's signature is read off the same table:
FunctionKind.numerator_names and denominator_names, the product and inverse
slots in printed order. A ParameterSet is checked once, by its constructor;
its copies, ``moved`` (integer multiples of I added) and ``renamed`` (slots
permuted), are built by one unchecked copy.

The chains hold the factorial-scaled runs (P)_k / k! and k! (P)_k^{-1}, which
grow like a power of k where (P)_k overflows, so the factorials move from the
weights into the factors. In every row the m- and n-indexed factors net
1 - p more products than inverses, where p is that net count of the
N-indexed factors, so the scaled term carries the weight
x^m y^n C(m + n, m)^p: x^m y^n for F1 (p = 0), C(N, m) x^m y^n for F2
(p = 1), x^m y^n / C(N, m) for F3 (p = -1), C(N, m)^2 x^m y^n for F4
(p = 2) and x^N for 2F1. Each diagonal's row of weights is grown from the
last one's; for 2F1 it is the one weight x^N.

One engine, evaluate_many, sums a batch of parameter sets of one kind and
one order at one point; evaluate is the batch of one. The engine is two
parts. A generator, _diagonals, owns the chains, the blocks and the weights,
and yields each diagonal's (b, r, r) stack of member sums in order of
degree, with every member's denominator reach. Its one consumer,
evaluate_many, owns the norms, the stopping rule and the member exit, and
stops drawing once no member is left, so no later block is formed. A batch
of b members grows two Pochhammer chains: one product chain over the members
of every numerator parameter and one inverse chain over those of every
denominator, stacked parameter-major: an entry of a chain over q parameters
is a (qb, r, r) array, and a factor's run is the zero-copy slice of its
parameter's b members. Each turn of the generator forms a block of
consecutive diagonals m + n = N for all members: one read of each chain. A
term's N-indexed factors before its first m- or n-indexed factor (the lead)
and after its last (the trail) are the same for every pair of a diagonal, so
by left and right distributivity they multiply the diagonal's weighted sum
over m once: (A)_N for F1, F2 and F4, (B)_N for F4, (C)_N^{-1} for F1 and
F3. Per factor of the middle there is one gather of the entries of every
index pair of the block and one batched product, then one weighting and a
sum over m per diagonal, then lead @ sum @ trail once per diagonal and
member. Every product runs left to right, and no factor ever changes its
place relative to another. 2F1 has no m- or n-indexed factor and one pair
per diagonal, so all its factors stay in the middle, multiplied per pair as
printed. The kernel is chosen by order. Up to order 3 the first block runs
to the degree N at which rho^N first falls to tol, rho the kind's decay rate
per diagonal at the point (the gauge check_domain reads: |x|, max(|x|, |y|),
|x| + |y| or (sqrt|x| + sqrt|y|)^2), and holds at least calculus.CHAIN_BLOCK
diagonals; each later block holds CHAIN_BLOCK, the length the chains grow
by. A chain grows by at least the block it is read through, so every turn
grows each chain once. Any block stops short at max_degree or where its
pairs x members x r^2 would pass an entry budget. The rate only sizes
blocks: the stopping rule alone decides where a member stops, and for
rho = 0 or rho >= 1 (domain guard off) the first block is CHAIN_BLOCK long
too.
Entries are laid out entries-first so that each product is r multiply-adds
over long vectors; each diagonal's sum starts from its own first pair, and
no product takes numpy's scalar path for one-element arrays, so a member's
result is bitwise the same in any batch and any block, and from run to run,
but rounds differently from a per-matrix BLAS product. From order 4 on a
block is one diagonal, multiplied by ``@`` over zero-copy views of the runs,
with BLAS per-matrix products: the entries-first kernel's r multiply-adds
per product cost r^3 elementwise passes, so its lead shrinks with the order
(eval cost per order at b = 1: -20 % at order 3, a tie at order 5, +73 to
+79 % at order 8). At every order the Appell values round differently from a
per-pair product of all the factors, while 2F1 values are bitwise that
product. A verification batches its left-hand side with every inner series
of its right-hand side, so they share every product, rcond test and block
inverse.

Series are summed diagonal by diagonal, and each member stops once three
consecutive diagonal sums of its own fall below tol * (1 + ||partial sum||_F);
it is then frozen with its own total and degree while the batch goes on.
Reading a chain never raises: past a singular shift C + rI of a denominator,
the member's chain entries are NaN, so its increment is first NaN at degree
r + 1. A member leaves at one exit, on the degree that meets the stopping
rule, brings a non-finite increment or reaches the hard max_degree cap. The
exit builds the member's one report and decides, in this order: converged;
the cap, NotConverged "still moving" with the partial report attached; a
non-finite increment with a denominator reach r below the degree,
SingularShift(r), whose ``shift`` is r + 1; otherwise NotConverged
"overflowed". Each is the exception the member would raise alone. The
reach is the one _diagonals yields with the diagonal, taken once the
chains have grown for its block, so a member that leaves in a later block
sees the shifts that block inverted.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

import numpy as np

from . import linalg
from .calculus import CHAIN_BLOCK, PochhammerChain
from .errors import DimensionMismatch, DomainViolation, NotConverged, SingularShift
from .linalg import Matrix


class FunctionKind(enum.Enum):
    """The five supported series, tagged by their conventional names."""

    GAUSS_2F1 = "2F1"
    APPELL_F1 = "F1"
    APPELL_F2 = "F2"
    APPELL_F3 = "F3"
    APPELL_F4 = "F4"

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in _TERMS[self])

    @property
    def numerator_names(self) -> tuple[str, ...]:
        return tuple(name for name, inverse, _ in _TERMS[self] if not inverse)

    @property
    def denominator_names(self) -> tuple[str, ...]:
        return tuple(name for name, inverse, _ in _TERMS[self] if inverse)

    @property
    def is_two_variable(self) -> bool:
        return self is not FunctionKind.GAUSS_2F1


# Each kind's term as the paper prints it, one (parameter, inverse?, index)
# entry per factor, multiplied left to right. The index is m, n or N = m + n;
# 2F1 is the single-variable case, summed over the one pair (m, n) = (N, 0).
# Primed parameters are spelled with a trailing "p" so names survive JSON,
# CLI arguments and file systems unscathed.
_TERMS = {
    FunctionKind.GAUSS_2F1: (("A", False, "N"), ("B", False, "N"), ("C", True, "N")),
    FunctionKind.APPELL_F1: (
        ("A", False, "N"), ("B", False, "m"), ("Bp", False, "n"), ("C", True, "N"),
    ),
    FunctionKind.APPELL_F2: (
        ("A", False, "N"), ("B", False, "m"), ("Bp", False, "n"),
        ("C", True, "m"), ("Cp", True, "n"),
    ),
    FunctionKind.APPELL_F3: (
        ("A", False, "m"), ("Ap", False, "n"), ("B", False, "m"), ("Bp", False, "n"),
        ("C", True, "N"),
    ),
    FunctionKind.APPELL_F4: (
        ("A", False, "N"), ("B", False, "N"), ("C", True, "m"), ("Cp", True, "n"),
    ),
}

#: Truncation stops after this many consecutive small diagonals.
_CONSECUTIVE_SMALL = 3

#: At orders up to _ENTRIES_FIRST_ORDER, the first turn of _diagonals forms
#: the diagonals through the predicted stopping degree, at least
#: calculus.CHAIN_BLOCK of them, and each later turn CHAIN_BLOCK, as long as
#: the block's index pairs x members x r^2 stay within _BLOCK_ENTRIES; above
#: it a turn is one diagonal. The crossover is measured: against the
#: one-diagonal BLAS kernel, eval cost per order at b = 1 is -20 % at order 3,
#: a tie at order 5 (-1 to +5 %), +73 to +79 % at order 8 and x4.5 at order 16
#: (the benchmark's seed-0 eval cases of passes 0-3, best of 5 per case, one
#: BLAS thread).
_BLOCK_ENTRIES = 1 << 13
_ENTRIES_FIRST_ORDER = 3


@dataclass(frozen=True, eq=False)
class ParameterSet:
    """The named parameter matrices of one function kind, one common order."""

    kind: FunctionKind
    matrices: Mapping[str, Matrix]

    def __post_init__(self):
        _check_slots(self.kind, self.matrices)
        validated = {
            name: linalg.as_matrix(m) for name, m in self.matrices.items()
        }
        orders = {m.shape for m in validated.values()}
        if len(orders) != 1:
            raise DimensionMismatch(f"parameter orders differ: {sorted(orders)}")
        object.__setattr__(self, "matrices", MappingProxyType(validated))

    @property
    def order(self) -> int:
        return next(iter(self.matrices.values())).shape[0]

    def __getitem__(self, name: str) -> Matrix:
        return self.matrices[name]

    def moved(self, shifts: dict[str, int]) -> "ParameterSet":
        """A copy with ``shifts[name] * I`` added to each named parameter.

        A name outside the kind's slots raises ValueError naming them, as the
        constructor would.
        """
        eye = linalg.identity(self.order)
        updated = dict(self.matrices)
        for name, amount in shifts.items():
            if name not in updated:
                _check_slots(self.kind, [*updated, name])
            updated[name] = updated[name] + amount * eye
        return self._unchecked(updated)

    def renamed(self, mapping: dict[str, str]) -> "ParameterSet":
        """A copy with parameters moved to new slots (used for A <-> B swaps).

        The copy holds this set's own arrays. A mapping that does not permute
        the kind's slots raises ValueError, as the constructor would.
        """
        updated = {mapping.get(name, name): m for name, m in self.matrices.items()}
        _check_slots(self.kind, updated)
        return self._unchecked(updated)

    def _unchecked(self, matrices: dict[str, Matrix]) -> "ParameterSet":
        """A copy of this kind over ``matrices``, skipping the constructor's checks.

        Shifting checked matrices by integer multiples of I, or moving them
        between slots, keeps them square, of one order and finite, so
        ``moved`` and ``renamed`` build their copies here.
        """
        copy = object.__new__(ParameterSet)
        object.__setattr__(copy, "kind", self.kind)
        object.__setattr__(copy, "matrices", MappingProxyType(matrices))
        return copy


def _check_slots(kind: FunctionKind, names) -> None:
    """Raise ValueError unless ``names`` are exactly the kind's parameter slots."""
    expected, present = set(kind.parameter_names), set(names)
    if present != expected:
        raise ValueError(f"{kind.value} needs parameters {sorted(expected)}, got {sorted(present)}")


@dataclass(frozen=True)
class EvalPoint:
    """The series variables; y is present exactly for the Appell kinds."""

    x: complex
    y: complex | None = None


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy for one evaluation.

    ``max_degree`` is an int or a numpy integer of at least 1; a float or a
    bool raises ValueError.
    """

    tol: float = 1e-12
    max_degree: int = 500
    enforce_domain: bool = True

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if not linalg.is_count(self.max_degree) or self.max_degree < 1:
            raise ValueError("max_degree must be an integer of at least 1")


DEFAULT_CONFIG = SeriesConfig()


@dataclass(eq=False)
class EvalReport:
    """Value plus convergence diagnostics of one series evaluation."""

    value: Matrix
    degrees_used: int
    last_increment_norm: float
    converged: bool


def check_domain(kind: FunctionKind, point: EvalPoint) -> bool:
    """Classical convergence region of the scalar counterpart, boundary excluded.

    A point with y for 2F1, or without y for an Appell kind, raises ValueError.
    """
    return _decay_rate(kind, point.x, point.y) < 1.0


def _decay_rate(kind: FunctionKind, x, y) -> float:
    """The rate rho per diagonal at which the kind's terms fall at (x, y).

    |x| for 2F1, max(|x|, |y|) for F1 and F3, |x| + |y| for F2 and
    (sqrt|x| + sqrt|y|)^2 for F4: the classical region is rho < 1, its
    boundary excluded, and a NaN coordinate gives NaN. A y for 2F1, or none
    for an Appell kind, raises ValueError.
    """
    ax = abs(x)
    if kind is FunctionKind.GAUSS_2F1:
        if y is not None:
            raise ValueError("2F1 takes a single variable")
        return ax
    if y is None:
        raise ValueError(f"{kind.value} needs a second variable")
    ay = abs(y)
    if kind in (FunctionKind.APPELL_F1, FunctionKind.APPELL_F3):
        return float(np.maximum(ax, ay))
    if kind is FunctionKind.APPELL_F2:
        return ax + ay
    return (math.sqrt(ax) + math.sqrt(ay)) ** 2


def _predicted_degree(kind: FunctionKind, x, y, tol: float) -> int:
    """The degree N at which rho^N first falls to tol, or 0 outside 0 < rho < 1.

    It only sizes the first turn of _diagonals; the stopping rule alone
    decides where a member stops.
    """
    rate = _decay_rate(kind, x, y)
    return math.ceil(math.log(tol) / math.log(rate)) if 0.0 < rate < 1.0 else 0


def _pair_picks(lo: int, hi: int, two_variable: bool):
    """Each index's chain entry for the index pairs (m, N - m) of diagonals lo..hi.

    The pairs run diagonal by diagonal, in order of rising m on each; 2F1 has
    only (N, 0). Returns the picks by index (N, m and n) and the offset of
    each diagonal's first pair.
    """
    degrees = np.arange(lo, hi + 1)
    counts = degrees + 1 if two_variable else np.ones_like(degrees)
    offsets = np.cumsum(counts) - counts
    total = np.repeat(degrees, counts)
    m = np.arange(len(total)) - np.repeat(offsets, counts) if two_variable else total
    return {"N": total, "m": m, "n": total - m}, offsets


def _entries_first_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right for stacks laid out entries-first, (r, r, ...): r multiply-adds.

    Both operands of each product keep all their axes: numpy multiplies a
    one-element array by one of fewer axes, or in place, by a scalar path
    that rounds unlike its vector loop, which would give a lone order-1
    member's one-diagonal block a rounding of its own.
    """
    out = left[:, 0, np.newaxis] * right[np.newaxis, 0]
    for k in range(1, len(right)):
        out += left[:, k, np.newaxis] * right[np.newaxis, k]
    return out


def _block_sums(runs, indices, middle: slice, lo: int, hi: int, rows: list, two_variable: bool):
    """Every member's diagonal sums for degrees lo..hi, one (b, r, r) stack per degree.

    ``runs`` holds each factor's stacked scaled chain run through entry hi,
    and ``indices`` its index letter. The factors before the ``middle``
    slice (the lead) and after it (the trail) are N-indexed, the same for
    every index pair of a diagonal. The middle factors of every pair of the
    block are multiplied left to right, weighted by ``rows`` (each
    diagonal's weights, one per pair; 2F1's one pair (N, 0) has the one
    weight x^N) and summed over m, diagonal by diagonal. Each sum is then
    multiplied once, lead @ sum @ trail, left to right, so no factor
    changes its place relative to another. For 2F1 lead and trail are
    empty, so every factor is multiplied per pair. Up to order
    _ENTRIES_FIRST_ORDER the block holds one or more diagonals within the
    entry budget, and the picked entries are laid out entries-first,
    (r, r, pairs, members), so each product is r multiply-adds over long
    vectors. Above it the block is one diagonal (lo == hi), multiplied by
    ``@`` over zero-copy views of the runs: entry N for index N, entries
    0..N for m and N..0 for n = N - m.
    """
    lead, trail = runs[:middle.start], runs[middle.stop:]
    factors = zip(runs[middle], indices[middle])
    if runs[0].shape[-1] > _ENTRIES_FIRST_ORDER:
        views = {"N": lambda run: run[hi], "m": lambda run: run, "n": lambda run: run[::-1]}
        term = reduce(np.matmul, (views[index](run) for run, index in factors))
        sums = (term * rows[0][:, np.newaxis, np.newaxis, np.newaxis]).sum(axis=0)
        lead, trail = ([run[hi] for run in part] for part in (lead, trail))
        return reduce(np.matmul, [*lead, sums, *trail])[np.newaxis]
    picks, offsets = _pair_picks(lo, hi, two_variable)
    # Gathered lazily, so only one factor's block is alive beside the product.
    term = reduce(_entries_first_product, (
        np.ascontiguousarray(run.transpose(2, 3, 0, 1))[:, :, picks[index]] for run, index in factors
    ))
    term = term * np.concatenate(rows).reshape(1, 1, -1, 1)
    # reduceat starts each diagonal's sum from its own first pair, so a
    # member's sum depends neither on the block nor on the batch around it.
    sums = np.add.reduceat(term, offsets, axis=2)
    lead, trail = ([run[lo:hi + 1].transpose(2, 3, 0, 1) for run in part] for part in (lead, trail))
    sums = reduce(_entries_first_product, [*lead, sums, *trail])
    return np.moveaxis(sums, (0, 1), (2, 3))


def _diagonals(param_sets: list[ParameterSet], x, y, max_degree: int, tol: float):
    """Yield (degree, stack, reach) for the degrees 0..max_degree in order.

    ``stack`` is the (b, r, r) sum of diagonal ``degree`` for the b members,
    and ``reach`` each member's smallest denominator reach once the chains
    have grown for the block that holds it. The batch grows one product
    chain over every numerator's members and one inverse chain over every
    denominator's, stacked parameter-major. Each turn forms a block of
    consecutive diagonals (_block_sums) from one read of each chain, then
    yields them in order; a consumer that stops drawing forms no later block.
    Up to order _ENTRIES_FIRST_ORDER the first turn runs through degree
    max(CHAIN_BLOCK - 1, _predicted_degree(..., tol)) and each later one
    CHAIN_BLOCK diagonals; above it every turn is one diagonal. The entry
    budget and max_degree cut any turn short.
    """
    kind, order, size = param_sets[0].kind, param_sets[0].order, len(param_sets)
    # A factor's members are the slots j*size .. (j+1)*size - 1 of its chain,
    # j its parameter's place among the chain's parameters.
    stacked = {False: kind.numerator_names, True: kind.denominator_names}
    factors, indices = [], []
    for name, inverse, index in _TERMS[kind]:
        j = stacked[inverse].index(name)
        factors.append((inverse, slice(j * size, (j + 1) * size)))
        indices.append(index)
    # The middle runs from the first m- or n-indexed factor to the last; 2F1,
    # with none, keeps every factor in it.
    inner = [k for k, index in enumerate(indices) if index != "N"] or [0, len(indices) - 1]
    middle = slice(inner[0], inner[-1] + 1)
    chains = {
        False: PochhammerChain.for_products([p[n] for n in stacked[False] for p in param_sets]),
        True: PochhammerChain.for_inverses([p[n] for n in stacked[True] for p in param_sets]),
    }
    two_variable = kind.is_two_variable
    # Diagonals per turn; at the entries-first orders the first turn runs on
    # to the predicted stopping degree.
    step = CHAIN_BLOCK if order <= _ENTRIES_FIRST_ORDER else 1
    diagonals = max(step, _predicted_degree(kind, x, y, tol) + 1) if step > 1 else 1
    x, y = complex(x), complex(y) if two_variable else 0j
    # p of the weights x^m y^n C(N, m)^p: the N-indexed products minus inverses
    power = sum(-1 if inverse else 1 for _, inverse, index in _TERMS[kind] if index == "N")
    # The weights of diagonal N's pairs (m, N - m), m = 0..N; 2F1 carries x^N.
    row = np.ones(1, dtype=complex)
    # The entries a pair costs.
    pair_entries = size * order * order
    lo = 0
    while lo <= max_degree:
        # The block lo..hi grows while its pairs stay within the budget.
        hi, pairs = lo, (lo + 1 if two_variable else 1)
        while hi - lo + 1 < diagonals and hi < max_degree:
            pairs += hi + 2 if two_variable else 1
            if pairs * pair_entries > _BLOCK_ENTRIES:
                break
            hi += 1
        rows = []
        for degree in range(lo, hi + 1):
            if degree and two_variable:
                # C(N, m) = C(N - 1, m) N / (N - m) for m < N, and C(N, N) = 1.
                growth = np.arange(degree, 0, -1.0) ** -power * (y * degree**power)
                row = np.concatenate((row * growth, row[-1:] * x))
            elif degree:
                row = row * x
            rows.append(row)
        held = {inverse: chain.through(hi) for inverse, chain in chains.items()}
        runs = [held[inverse][:, members] for inverse, members in factors]
        block = _block_sums(runs, indices, middle, lo, hi, rows, two_variable)
        reach = chains[True].reach.reshape(-1, size).min(axis=0)
        for degree, diagonal in zip(range(lo, hi + 1), block):
            yield degree, diagonal, reach
        lo, diagonals = hi + 1, step


def evaluate_many(
    param_sets: list[ParameterSet], point: EvalPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> list[EvalReport | Exception]:
    """Evaluate parameter sets of one kind and one order at one point, as one batch.

    The consumer of _diagonals: it draws the batch's diagonal sums one degree
    at a time and keeps the stopping rule per member and per degree, so a
    member that meets it inside a block is frozen with its own degree's
    total and degrees_used, and the batch goes on until no member is left;
    then no further block is formed. Each entry of the result is what
    ``evaluate`` gives for that member alone, bit for bit: its EvalReport,
    or the exception it would raise, with the same text and partial report.
    The point's ValueError or DomainViolation comes first. After that, a
    member leaves at one exit, which decides in order: converged;
    NotConverged "still moving" at max_degree; SingularShift(r) (``shift``
    r + 1) for a non-finite increment when the smallest reach r of the
    member's denominator slots is below the degree; NotConverged
    "overflowed" otherwise.
    """
    if not param_sets:
        return []
    kind, order, size = param_sets[0].kind, param_sets[0].order, len(param_sets)
    if any(p.kind is not kind for p in param_sets):
        raise ValueError("a batch holds parameter sets of one kind")
    if any(p.order != order for p in param_sets):
        raise DimensionMismatch("a batch holds parameter sets of one order")
    try:
        if not check_domain(kind, point) and cfg.enforce_domain:
            raise DomainViolation(f"point ({point.x}, {point.y}) outside the {kind.value} region")
    except (ValueError, DomainViolation) as exc:
        return [exc] * size
    label = "double series" if kind.is_two_variable else "series"
    outcomes: list[EvalReport | Exception | None] = [None] * size
    active = list(range(size))  # members neither frozen nor failed
    small_run = [0] * size
    # sums[0] is the diagonal just added and sums[1] the running total, so one
    # call takes the Frobenius norms of both for every member.
    sums = np.zeros((2, size, order, order), dtype=complex)
    flat = sums.reshape(2 * size, -1).view(np.float64)
    increment, total = sums
    with np.errstate(over="ignore", invalid="ignore"):
        diagonals = _diagonals(param_sets, point.x, point.y, cfg.max_degree, cfg.tol)
        for degree, diagonal, reach in diagonals:
            increment[...] = diagonal
            total += increment
            norms = linalg.row_norms(flat)
            for i in list(active):
                last = norms[i]
                small_run[i] = small_run[i] + 1 if last <= cfg.tol * (1.0 + norms[size + i]) else 0
                finite = math.isfinite(last)
                converged = finite and small_run[i] >= _CONSECUTIVE_SMALL
                if finite and not converged and degree != cfg.max_degree:
                    continue
                active.remove(i)
                report = EvalReport(total[i].copy(), degree, last, converged)
                # Past a singular shift C + rI every entry of the chain is NaN,
                # so the increment is first NaN at degree r + 1.
                if converged:
                    outcomes[i] = report
                elif finite:
                    outcomes[i] = NotConverged(f"{label} still moving at degree {degree}", report)
                elif reach[i] < degree:
                    outcomes[i] = SingularShift(int(reach[i]))
                else:
                    outcomes[i] = NotConverged(f"{label} overflowed at degree {degree}", report)
            if not active:
                break
    return outcomes


def evaluate(
    params: ParameterSet, point: EvalPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> EvalReport:
    """Evaluate any supported kind at a point, honoring the domain guard.

    The batch of one: raises what ``evaluate_many`` reports for the member.
    Overflowing increments (possible past the edge of a region with the
    domain guard off) fail immediately instead of spinning to max_degree.
    """
    (outcome,) = evaluate_many([params], point, cfg)
    return _member_report(outcome)


def _member_report(outcome: EvalReport | Exception) -> EvalReport:
    """A batch member's report, or the exception it gave, raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
