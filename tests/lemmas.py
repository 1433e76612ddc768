"""The paper's preliminary shifted-factorial lemmas as residual checks.

Each function returns the Frobenius defect of one lemma. The shifted
factorials come from the package's public Pochhammer API, everything else
from numpy; the reciprocal gamma is ``scipy.special.rgamma``, so no part of
the reference is computed by the package.
"""

from __future__ import annotations

import numpy as np
import scipy.special

from hypermat import pochhammer, pochhammer_inverse


def shift_identity_residual(a, n: int) -> float:
    """Frobenius defect of (A+I)_n = A^{-1} (A)_n (A + nI)."""
    eye = np.eye(a.shape[0])
    lhs = pochhammer(a + eye, n)
    rhs = np.linalg.solve(a, pochhammer(a, n) @ (a + n * eye))
    return float(np.linalg.norm(lhs - rhs))


def c_decrement_residual(c, n: int) -> float:
    """Frobenius defect of (C-I)_n^{-1} = (C)_n^{-1} [I + n (C-I)^{-1}]."""
    eye = np.eye(c.shape[0])
    lhs = pochhammer_inverse(c - eye, n)
    rhs = pochhammer_inverse(c, n) @ (eye + n * np.linalg.inv(c - eye))
    return float(np.linalg.norm(lhs - rhs))


def reciprocal_gamma(family, name: str, shift: int = 0):
    """(1/Gamma)(A + shift I) for the member A, entrywise on its spectrum."""
    values = scipy.special.rgamma(np.array(family.spectra[name]) + shift)
    return family.transform @ np.diag(values) @ family.transform_inverse


def reciprocal_gamma_residual(family, name: str, n: int) -> float:
    """Frobenius defect of 1/Gamma(A) = (A)_n (1/Gamma)(A + nI)."""
    rhs = pochhammer(family.realize(name), n) @ reciprocal_gamma(family, name, n)
    return float(np.linalg.norm(reciprocal_gamma(family, name) - rhs))
