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
diagonal N is (N, 0).

The chains hold the factorial-scaled runs (P)_k / k! and k! (P)_k^{-1}, which
grow like a power of k where (P)_k overflows, so the factorials move from the
weights into the factors. In every row the m- and n-indexed factors net
1 - p more products than inverses, where p is that net count of the
N-indexed factors, so the scaled term carries the weight
x^m y^n C(m + n, m)^p: x^m y^n for F1 (p = 0), C(N, m) x^m y^n for F2
(p = 1), x^m y^n / C(N, m) for F3 (p = -1), C(N, m)^2 x^m y^n for F4
(p = 2) and x^N for 2F1.

One engine, evaluate_many, sums a batch of parameter sets of one kind and
one order at one point; evaluate is the batch of one. Each parameter feeds
one Pochhammer chain over the stack of its b members, whose entries are
(b, r, r) arrays. Each diagonal m + n = N is one left-to-right batched
product per factor of the stacked chain slices, in exactly the printed
order, then one weighted sum over m for all members; nothing is ever
algebraically reordered. A verification batches its left-hand side with
every inner series of its right-hand side, so they share every product,
rcond test and block inverse.

Series are summed diagonal by diagonal, and each member stops once three
consecutive diagonal sums of its own fall below tol * (1 + ||partial sum||_F);
it is then frozen with its own total and degree while the batch goes on. A
hard max_degree cap guards divergence; hitting it raises NotConverged with
the partial report attached. Reading a chain never raises: past a singular
shift C + rI of a denominator, the member's chain entries are NaN, so its
increment is first NaN at degree r + 1, and it leaves with SingularShift(r),
whose ``shift`` is r + 1. Each member's exit is decided from its own
increment alone: converged, overflow, singular shift or the cap, each with
the exception it would raise alone.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import linalg
from .calculus import PochhammerChain
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


@dataclass(frozen=True, eq=False)
class ParameterSet:
    """The named parameter matrices of one function kind, one common order."""

    kind: FunctionKind
    matrices: Mapping[str, Matrix]

    def __post_init__(self):
        expected = set(self.kind.parameter_names)
        present = set(self.matrices)
        if present != expected:
            raise ValueError(
                f"{self.kind.value} needs parameters {sorted(expected)}, "
                f"got {sorted(present)}"
            )
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

    def shifted(self, name: str, amount: int) -> "ParameterSet":
        """A copy with ``amount * I`` added to the named parameter."""
        return self.moved({name: amount})

    def moved(self, shifts: dict[str, int]) -> "ParameterSet":
        """A copy with ``shifts[name] * I`` added to each named parameter.

        Adding an integer multiple of I keeps checked matrices square, of one
        order and finite, so the copy skips the checks of the constructor.
        """
        eye = linalg.identity(self.order)
        updated = dict(self.matrices)
        for name, amount in shifts.items():
            updated[name] = updated[name] + amount * eye
        copy = object.__new__(ParameterSet)
        object.__setattr__(copy, "kind", self.kind)
        object.__setattr__(copy, "matrices", MappingProxyType(updated))
        return copy

    def renamed(self, mapping: dict[str, str]) -> "ParameterSet":
        """A copy with parameters moved to new slots (used for A <-> B swaps)."""
        updated = {mapping.get(name, name): m for name, m in self.matrices.items()}
        return ParameterSet(self.kind, updated)


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
    """Classical convergence region of the scalar counterpart, boundary excluded."""
    ax = abs(point.x)
    if kind is FunctionKind.GAUSS_2F1:
        return ax < 1.0
    if point.y is None:
        raise ValueError(f"{kind.value} needs a second variable")
    ay = abs(point.y)
    if kind in (FunctionKind.APPELL_F1, FunctionKind.APPELL_F3):
        return ax < 1.0 and ay < 1.0
    if kind is FunctionKind.APPELL_F2:
        return ax + ay < 1.0
    return math.sqrt(ax) + math.sqrt(ay) < 1.0


def _check_point(kind: FunctionKind, point: EvalPoint, cfg: SeriesConfig) -> None:
    if kind.is_two_variable and point.y is None:
        raise ValueError(f"{kind.value} needs a second variable")
    if not kind.is_two_variable and point.y is not None:
        raise ValueError("2F1 takes a single variable")
    if cfg.enforce_domain and not check_domain(kind, point):
        raise DomainViolation(f"point ({point.x}, {point.y}) outside the {kind.value} region")


def _diagonal(blocks: list[np.ndarray], weights: np.ndarray, out: np.ndarray) -> None:
    """Every member's sum of the terms with m + n = N, weighted in order of rising m.

    Each factor contributes one slice of its stacked scaled chain, each entry
    of which holds one matrix per member: entry N for index N, entries 0..N
    for m and N..0 for n = N - m. The slices are multiplied left to right in
    the printed order, then weighted and summed over m into ``out``.
    """
    term = blocks[0]
    for block in blocks[1:]:
        term = term @ block
    (term * weights[:, np.newaxis, np.newaxis, np.newaxis]).sum(axis=0, out=out)


def evaluate_many(
    param_sets: list[ParameterSet], point: EvalPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> list[EvalReport | Exception]:
    """Evaluate parameter sets of one kind and one order at one point, as one batch.

    Each parameter feeds one chain over the stack of its members, so every
    diagonal is one batched product per factor, in the printed order, and
    one weighted sum for all members. The stopping rule is kept per member:
    a member that meets it is frozen with its own total and degrees_used,
    and the batch goes on until no member is left. Each entry of the result
    is what ``evaluate`` gives for that member alone: its EvalReport, or the
    exception it would raise, with the same text and partial report. That
    is ValueError or DomainViolation for the point and NotConverged when it
    reaches max_degree. A member whose increment is not finite leaves with
    SingularShift(r) (``shift`` r + 1) when an inverse chain's reach r is
    below the degree (the smallest such r), and with the overflow
    NotConverged otherwise.
    """
    if not param_sets:
        return []
    kind, order = param_sets[0].kind, param_sets[0].order
    if any(p.kind is not kind for p in param_sets):
        raise ValueError("a batch holds parameter sets of one kind")
    if any(p.order != order for p in param_sets):
        raise DimensionMismatch("a batch holds parameter sets of one order")
    try:
        _check_point(kind, point, cfg)
    except (ValueError, DomainViolation) as exc:
        return [exc] * len(param_sets)
    factors = []
    for name, inverse, index in _TERMS[kind]:
        build = PochhammerChain.for_inverses if inverse else PochhammerChain.for_products
        factors.append((build([p[name] for p in param_sets]), index))
    label = "double series" if kind.is_two_variable else "series"
    x = complex(point.x)
    y = complex(point.y) if kind.is_two_variable else 0j
    # p of the weights x^m y^n C(N, m)^p: the N-indexed products minus inverses
    power = sum(-1 if inverse else 1 for _, inverse, index in _TERMS[kind] if index == "N")
    row = np.ones(1, dtype=complex)  # the weights x^m y^n C(N, m)^p, m = 0..N
    size = len(param_sets)
    outcomes: list[EvalReport | Exception | None] = [None] * size
    active = list(range(size))  # members neither frozen nor failed
    small_run = [0] * size
    last_norms = [math.inf] * size
    # sums[0] is the diagonal just added and sums[1] the running total, so one
    # call takes the Frobenius norms of both for every member.
    sums = np.zeros((2, size, order, order), dtype=complex)
    flat = sums.reshape(2 * size, -1).view(np.float64)
    increment, total = sums
    with np.errstate(over="ignore", invalid="ignore"):
        for degree in range(cfg.max_degree + 1):
            if degree:
                # C(N, m) = C(N - 1, m) N / (N - m) for m < N, and C(N, N) = 1.
                growth = np.arange(degree, 0, -1.0) ** -power * (y * degree**power)
                row = np.concatenate((row * growth, row[-1:] * x))
            blocks = []
            for chain, index in factors:
                stack = chain.through(degree)
                if index == "N":
                    blocks.append(stack[degree])
                else:
                    blocks.append(stack if index == "m" else stack[::-1])
            # m over the index pairs (m, degree - m); 2F1 has only (N, 0).
            _diagonal(blocks, row if kind.is_two_variable else row[-1:], out=increment)
            total += increment
            norms = np.sqrt(np.einsum("ij,ij->i", flat, flat)).tolist()
            if math.inf in norms:
                norms = linalg._rescaled_norms(flat).tolist()
            last_norms = norms[:size]
            for i in list(active):
                last = last_norms[i]
                if not math.isfinite(last):
                    # Past a singular shift C + rI every entry of the chain is
                    # NaN, so the increment is first NaN at degree r + 1.
                    reach = min(chain.reach[i] for chain, _ in factors if chain.reach is not None)
                    if reach < degree:
                        outcomes[i] = SingularShift(int(reach))
                    else:
                        outcomes[i] = NotConverged(
                            f"{label} overflowed at degree {degree}",
                            report=EvalReport(total[i].copy(), degree, last, False),
                        )
                    active.remove(i)
                elif last <= cfg.tol * (1.0 + norms[size + i]):
                    small_run[i] += 1
                    if small_run[i] >= _CONSECUTIVE_SMALL:
                        outcomes[i] = EvalReport(total[i].copy(), degree, last, True)
                        active.remove(i)
                else:
                    small_run[i] = 0
            if not active:
                break
    for i in active:
        outcomes[i] = NotConverged(
            f"{label} still moving at degree {cfg.max_degree}",
            report=EvalReport(total[i].copy(), cfg.max_degree, last_norms[i], False),
        )
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
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
