"""Independent reference implementations used only by the tests.

Everything here is written straight from the series definitions with scalar
arithmetic or plain matrix products and naive loops, sharing no code with the package under test, so
agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

import fractions
import math

import numpy as np

_CAP = 400
_EPS = 1e-16


def scalar_pochhammer(a: complex, n: int) -> complex:
    value = 1.0 + 0.0j
    for k in range(n):
        value *= a + k
    return value


def scalar_gauss(a, b, c, x, cap: int = _CAP) -> complex:
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(cap):
        if n > 0:
            term *= (a + n - 1) * (b + n - 1) / ((c + n - 1) * n) * x
        total += term
        if abs(term) <= _EPS * (1.0 + abs(total)) and n > 3:
            break
    return total


def _double_sum(coefficient, x, y, cap: int = _CAP) -> complex:
    """Sum coefficient(m, n) x^m y^n / (m! n!) by total degree."""
    total = 0.0 + 0.0j
    xs = [1.0 + 0.0j]
    ys = [1.0 + 0.0j]
    quiet = 0
    for degree in range(cap):
        while len(xs) <= degree:
            k = len(xs)
            xs.append(xs[k - 1] * x / k)
            ys.append(ys[k - 1] * y / k)
        block = 0.0 + 0.0j
        for m in range(degree + 1):
            n = degree - m
            block += coefficient(m, n) * xs[m] * ys[n]
        total += block
        if abs(block) <= _EPS * (1.0 + abs(total)):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    return total


def scalar_f1(a, b, bp, c, x, y, cap: int = _CAP) -> complex:
    return _double_sum(
        lambda m, n: scalar_pochhammer(a, m + n)
        * scalar_pochhammer(b, m)
        * scalar_pochhammer(bp, n)
        / scalar_pochhammer(c, m + n),
        x,
        y,
        cap,
    )


def scalar_f2(a, b, bp, c, cp, x, y, cap: int = _CAP) -> complex:
    return _double_sum(
        lambda m, n: scalar_pochhammer(a, m + n)
        * scalar_pochhammer(b, m)
        * scalar_pochhammer(bp, n)
        / (scalar_pochhammer(c, m) * scalar_pochhammer(cp, n)),
        x,
        y,
        cap,
    )


def scalar_f3(a, ap, b, bp, c, x, y, cap: int = _CAP) -> complex:
    return _double_sum(
        lambda m, n: scalar_pochhammer(a, m)
        * scalar_pochhammer(ap, n)
        * scalar_pochhammer(b, m)
        * scalar_pochhammer(bp, n)
        / scalar_pochhammer(c, m + n),
        x,
        y,
        cap,
    )


def scalar_f4(a, b, c, cp, x, y, cap: int = _CAP) -> complex:
    return _double_sum(
        lambda m, n: scalar_pochhammer(a, m + n)
        * scalar_pochhammer(b, m + n)
        / (scalar_pochhammer(c, m) * scalar_pochhammer(cp, n)),
        x,
        y,
        cap,
    )


#: kind tag -> (scalar oracle, parameter slot order)
SCALAR_ORACLES = {
    "2F1": (scalar_gauss, ("A", "B", "C")),
    "F1": (scalar_f1, ("A", "B", "Bp", "C")),
    "F2": (scalar_f2, ("A", "B", "Bp", "C", "Cp")),
    "F3": (scalar_f3, ("A", "Ap", "B", "Bp", "C")),
    "F4": (scalar_f4, ("A", "B", "C", "Cp")),
}


def scalar_value(kind_tag: str, spectra: dict[str, complex], x, y=None) -> complex:
    """Scalar function value for named scalar parameters."""
    oracle, slots = SCALAR_ORACLES[kind_tag]
    args = [spectra[name] for name in slots]
    if kind_tag == "2F1":
        return oracle(*args, x)
    return oracle(*args, x, y)


#: The five term rows written out again from the definitions, independently
#: of the package: per kind, the factors (parameter, inverted, index) in the
#: printed order, index "m", "n" or "N" = m + n.
PRINTED_TERMS = {
    "2F1": (("A", False, "N"), ("B", False, "N"), ("C", True, "N")),
    "F1": (("A", False, "N"), ("B", False, "m"), ("Bp", False, "n"), ("C", True, "N")),
    "F2": (
        ("A", False, "N"),
        ("B", False, "m"),
        ("Bp", False, "n"),
        ("C", True, "m"),
        ("Cp", True, "n"),
    ),
    "F3": (
        ("A", False, "m"),
        ("Ap", False, "n"),
        ("B", False, "m"),
        ("Bp", False, "n"),
        ("C", True, "N"),
    ),
    "F4": (("A", False, "N"), ("B", False, "N"), ("C", True, "m"), ("Cp", True, "n")),
}


def printed_order_sum(factors, matrices, x, y=None, degree_cap: int = 60):
    """Term-by-term matrix series with each term multiplied in factor order.

    Sums prod(factors) x^m y^n / (m! n!) over m + n <= degree_cap, or
    x^N / N! alone when y is None. Shifted factorials are plain products
    (P)(P + I)...(P + (k-1)I) and their inverses are dense inverses of those
    products, so nothing is shared with the package's chains.
    """
    order = next(iter(matrices.values())).shape[0]
    eye = np.eye(order, dtype=complex)
    tables = {}
    for name, inverted, _ in factors:
        rising = [eye]
        for k in range(degree_cap):
            rising.append(rising[-1] @ (matrices[name] + k * eye))
        tables[name, inverted] = (
            [np.linalg.inv(p) for p in rising] if inverted else rising
        )
    total = np.zeros((order, order), dtype=complex)
    for degree in range(degree_cap + 1):
        for m in range(degree + 1) if y is not None else (degree,):
            n = degree - m
            index = {"m": m, "n": n, "N": degree}
            term = eye
            for name, inverted, which in factors:
                term = term @ tables[name, inverted][index[which]]
            weight = x**m / math.factorial(m)
            if y is not None:
                weight *= y**n / math.factorial(n)
            total += term * weight
    return total


def _frobenius(matrix) -> float:
    """The Frobenius norm by math.hypot, which scales instead of overflowing."""
    return math.hypot(*np.ascontiguousarray(matrix).ravel().view(np.float64))


def per_degree_exit(factors, matrices, x, y=None, tol=1e-12, max_degree=500):
    """How a plain per-degree sum of the series ends, as (text, degree, shift).

    The diagonals m + n = N (only (N, 0) when y is None) are summed one at a
    time, each term multiplied in factor order from factorial-scaled shifted
    factorials: (P)_k / k! as the product of (P + jI) / (j + 1) over j < k,
    and k! (P)_k^{-1} as its dense inverse. The factorials left over, with
    1 / (m! n!), make one exact rational per term. The sum ends, in order:
    - converged, (None, N, None), on the third consecutive diagonal whose
      Frobenius norm is at most tol * (1 + ||partial sum||);
    - at N = max_degree, ("<label> still moving at degree N", N, None);
    - on the first diagonal that needs an inverted factor past its first
      singular shift P + jI, ("base + j*I is singular", None, j + 1);
    - on the first non-finite diagonal, ("<label> overflowed at degree N", N,
      None).
    The label is "series" without y and "double series" with it.
    """
    order = next(iter(matrices.values())).shape[0]
    eye = np.eye(order, dtype=complex)
    label = "series" if y is None else "double series"
    singular = {}  # per inverted factor, its first singular shift j
    for name, inverted, _ in factors:
        if inverted:
            for j in range(max_degree + 1):
                if np.linalg.matrix_rank(matrices[name] + j * eye) < order:
                    singular[name] = j
                    break
    rising = {name: [eye] for name, _, _ in factors}

    def scaled(name, inverted, k):
        table = rising[name]
        while len(table) <= k:
            j = len(table) - 1
            table.append(table[j] @ (matrices[name] + j * eye) / (j + 1))
        return np.linalg.inv(table[k]) if inverted else table[k]

    total = np.zeros((order, order), dtype=complex)
    quiet = 0
    with np.errstate(all="ignore"):
        for degree in range(max_degree + 1):
            diagonal = np.zeros((order, order), dtype=complex)
            for m in range(degree + 1) if y is not None else (degree,):
                n = degree - m
                index = {"m": m, "n": n, "N": degree}
                number = fractions.Fraction(1, math.factorial(m) * math.factorial(n))
                term = eye
                for name, inverted, which in factors:
                    k = index[which]
                    if inverted and k > singular.get(name, k):
                        j = singular[name]
                        return f"base + {j}*I is singular", None, j + 1
                    term = term @ scaled(name, inverted, k)
                    number *= fractions.Fraction(math.factorial(k)) ** (-1 if inverted else 1)
                weight = np.complex128(x) ** m * (np.complex128(y) ** n if y is not None else 1)
                diagonal += term * (weight * float(number))
            total += diagonal
            size = _frobenius(diagonal)
            if not math.isfinite(size):
                return f"{label} overflowed at degree {degree}", degree, None
            quiet = quiet + 1 if size <= tol * (1.0 + _frobenius(total)) else 0
            if quiet >= 3:
                return None, degree, None
            if degree == max_degree:
                return f"{label} still moving at degree {degree}", degree, None
