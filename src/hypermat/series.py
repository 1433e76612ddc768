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
N = m + n. One evaluator serves all five kinds. It builds each diagonal
m + n = N as one left-to-right batched product of stacked Pochhammer chain
slices in exactly the printed order, then one weighted sum over m; nothing is
ever algebraically reordered. 2F1 is the single-variable case, whose only
index pair on diagonal N is (N, 0).

Series are summed diagonal by diagonal, and truncation stops once three
consecutive diagonal sums fall below tol * (1 + ||partial sum||_F). A hard
max_degree cap guards divergence; hitting it raises NotConverged with the
partial report attached.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .calculus import PochhammerChain
from .errors import DimensionMismatch, DomainViolation, NotConverged
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
    matrices: dict[str, Matrix]

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
        object.__setattr__(self, "matrices", validated)

    @property
    def order(self) -> int:
        return next(iter(self.matrices.values())).shape[0]

    def __getitem__(self, name: str) -> Matrix:
        return self.matrices[name]

    def shifted(self, name: str, amount: int) -> "ParameterSet":
        """A copy with ``amount * I`` added to the named parameter."""
        eye = linalg.identity(self.order)
        updated = dict(self.matrices)
        updated[name] = updated[name] + amount * eye
        return ParameterSet(self.kind, updated)

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
    """Truncation policy for one evaluation."""

    tol: float = 1e-12
    max_degree: int = 500
    enforce_domain: bool = True

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if self.max_degree < 1:
            raise ValueError("max_degree must be at least 1")

    def with_tol(self, tol: float) -> "SeriesConfig":
        return replace(self, tol=tol)


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


def _check_point(params: ParameterSet, point: EvalPoint, cfg: SeriesConfig) -> None:
    if params.kind.is_two_variable and point.y is None:
        raise ValueError(f"{params.kind.value} needs a second variable")
    if not params.kind.is_two_variable and point.y is not None:
        raise ValueError("2F1 takes a single variable")
    if cfg.enforce_domain and not check_domain(params.kind, point):
        raise DomainViolation(
            f"point ({point.x}, {point.y}) outside the {params.kind.value} region"
        )


def _diagonal(factors, degree: int, weights: np.ndarray) -> Matrix:
    """Sum of the terms with m + n = degree, weighted in order of rising m.

    Each factor contributes one stacked slice of its chain: a single matrix
    for index N, (P)_0..(P)_N for m and (P)_N..(P)_0 for n = N - m. The slices
    are multiplied left to right in the printed order, then weighted.
    """
    term = None
    for through, index in factors:
        stack = through(degree)
        if index == "N":
            block = stack[degree]
        else:
            block = stack if index == "m" else stack[::-1]
        term = block if term is None else term @ block
    return (term * weights[:, np.newaxis, np.newaxis]).sum(axis=0)


def evaluate(
    params: ParameterSet, point: EvalPoint, cfg: SeriesConfig = DEFAULT_CONFIG
) -> EvalReport:
    """Evaluate any supported kind at a point, honoring the domain guard.

    Overflowing increments (possible when a series is pushed toward the edge
    of its region) fail immediately instead of spinning to max_degree.
    """
    _check_point(params, point, cfg)
    kind = params.kind
    factors = [
        (
            PochhammerChain.for_inverses(params[name]).inverses_through
            if inverse
            else PochhammerChain.for_products(params[name]).products_through,
            index,
        )
        for name, inverse, index in _TERMS[kind]
    ]
    label = "double series" if kind.is_two_variable else "series"
    x = complex(point.x)
    y = complex(point.y) if kind.is_two_variable else 0j
    xs, ys = [1.0 + 0.0j], [1.0 + 0.0j]  # x^m / m!, y^n / n!
    total = linalg.zeros(params.order)
    small_run = 0
    last_norm = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for degree in range(cfg.max_degree + 1):
            if degree:
                xs.append(xs[-1] * x / degree)
                ys.append(ys[-1] * y / degree)
            # m over the index pairs (m, degree - m); 2F1 has only (N, 0).
            ms = range(degree + 1) if kind.is_two_variable else (degree,)
            weights = np.array([xs[m] * ys[degree - m] for m in ms])
            increment = _diagonal(factors, degree, weights)
            total = total + increment
            last_norm = linalg.frobenius_norm(increment)
            if not math.isfinite(last_norm):
                raise NotConverged(
                    f"{label} overflowed at degree {degree}",
                    report=EvalReport(total, degree, last_norm, False),
                )
            if last_norm <= cfg.tol * (1.0 + linalg.frobenius_norm(total)):
                small_run += 1
                if small_run >= _CONSECUTIVE_SMALL:
                    return EvalReport(total, degree, last_norm, True)
            else:
                small_run = 0
    report = EvalReport(total, cfg.max_degree, last_norm, False)
    raise NotConverged(
        f"{label} still moving at degree {cfg.max_degree}", report=report
    )
