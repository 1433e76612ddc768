import math
import random

import numpy as np
import pytest

from hypermat import linalg
from hypermat.errors import DimensionMismatch, NonConvergent, SingularMatrix


def random_matrix(order, rng, scale=1.0):
    return np.array(
        [
            [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale for _ in range(order)]
            for _ in range(order)
        ]
    )


def test_zero_and_rank_one_are_not_invertible():
    assert not linalg.is_invertible(linalg.zeros(3))
    assert linalg.lu_factor(linalg.zeros(3)).rcond == 0.0
    u = np.array([1.0, 2.0j, -0.5])
    assert not linalg.is_invertible(np.outer(u, u.conj()))


def test_tiny_multiple_of_identity_is_invertible():
    # The contract is relative: 1e-14 I is perfectly conditioned.
    f = linalg.lu_factor(1e-14 * linalg.identity(3))
    assert f.rcond == 1.0
    assert f.is_invertible()
    assert np.allclose(linalg.solve(f, linalg.identity(3)), 1e14 * np.eye(3), rtol=1e-15)


def test_reciprocal_condition_batched():
    stack = np.stack([np.diag([1.0, 4.0]), np.zeros((2, 2)), np.diag([2.0, 2.0])]).astype(complex)
    assert linalg.reciprocal_condition(stack).tolist() == [0.25, 0.0, 1.0]
    assert not linalg.is_invertible(stack)
    assert linalg.is_invertible(stack[[0, 2]])


def test_shift_inverses_stop_at_first_singular_shift():
    base = np.diag([-3.0, 0.5 + 1.0j, 2.0]).astype(complex)
    base[0, 2] = 1.0
    shifts = np.arange(6)
    inverses, reach = linalg.shift_inverses(base, shifts)
    assert len(inverses) == 6 and reach == 3  # base + 3I is singular
    for k, inv in zip(shifts[:reach], inverses):
        assert np.linalg.norm(inv @ (base + k * np.eye(3)) - np.eye(3)) <= 1e-14
    assert np.isnan(inverses[reach:]).all()
    assert linalg.shift_inverses(base, [3, 4])[1] == 0
    assert linalg.shift_inverses(base, [4, 5])[1] == 2
    # In a stack each member stops at its own first singular shift.
    stack = np.stack([base, np.diag([-1.0, 2.0, 3.0]).astype(complex)])
    inverses, reach = linalg.shift_inverses(stack, shifts)
    assert reach.tolist() == [3, 1]
    for member, stop in enumerate(reach):
        for k in range(stop):
            product = inverses[k, member] @ (stack[member] + k * np.eye(3))
            assert np.linalg.norm(product - np.eye(3)) <= 1e-14
        assert np.isnan(inverses[stop:, member]).all()


def test_solve_identity_factor():
    m = random_matrix(3, random.Random(3))
    assert np.array_equal(linalg.solve(linalg.lu_factor(linalg.identity(3)), m), m)


def test_solve_diagonal():
    f = linalg.lu_factor(np.diag([2.0, 4.0]).astype(complex))
    assert np.allclose(linalg.solve(f, linalg.identity(2)), np.diag([0.5, 0.25]), atol=1e-15)


def test_solve_residual():
    rng = random.Random(5)
    for _ in range(5):
        m, b = random_matrix(3, rng), random_matrix(3, rng)
        x = linalg.solve(linalg.lu_factor(m), b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        linalg.solve(linalg.lu_factor(linalg.zeros(2)), linalg.identity(2))


@pytest.mark.parametrize("entry", [linalg.lu_factor, linalg.inverse])
def test_factor_and_inverse_validate_their_input(entry):
    with pytest.raises(DimensionMismatch):
        entry(np.zeros((0, 0), dtype=complex))
    with pytest.raises(DimensionMismatch):
        entry([[1.0, 2.0]])
    with pytest.raises(ValueError, match="finite"):
        entry([[math.nan, 0.0], [0.0, 1.0]])


def test_inverse():
    rng = random.Random(9)
    m = random_matrix(3, rng)
    assert np.linalg.norm(m @ linalg.inverse(m) - np.eye(3)) <= 1e-10


def test_inverse_diagonal():
    assert np.allclose(
        linalg.inverse(np.diag([2.0, 4.0]).astype(complex)),
        np.diag([0.5, 0.25]),
        atol=1e-15,
    )


def test_frobenius_norm_values():
    assert linalg.frobenius_norm(linalg.identity(4)) == pytest.approx(2.0)
    assert linalg.frobenius_norm(linalg.zeros(3)) == 0.0
    assert linalg.frobenius_norm(np.diag([3.0, 4.0]).astype(complex)) == pytest.approx(5.0)


def test_mat_exp_zero():
    assert np.array_equal(linalg.mat_exp(linalg.zeros(3)), linalg.identity(3))


def test_mat_exp_diagonal():
    result = linalg.mat_exp(np.diag([1.0, 2.0]).astype(complex))
    assert np.allclose(result, np.diag([math.e, math.e**2]), rtol=1e-12)


def test_mat_exp_inverse_pair():
    rng = random.Random(13)
    for _ in range(5):
        a = random_matrix(3, rng)
        a *= 5.0 / linalg.frobenius_norm(a)
        product = linalg.mat_exp(a) @ linalg.mat_exp(-a)
        assert np.linalg.norm(product - np.eye(3)) <= 1e-10


def test_mat_exp_commuting_sum_property():
    # exp(A+B) = exp(A) exp(B) needs commuting arguments; diagonalize jointly.
    rng = random.Random(17)
    p = random_matrix(3, rng)
    p_inv = np.linalg.inv(p)
    a = p @ np.diag([0.3 + 0.2j, -0.5, 1.1]) @ p_inv
    b = p @ np.diag([0.9, 0.4 - 0.7j, -0.2]) @ p_inv
    assert linalg.commutator_norm(a, b) <= 1e-12 * (
        linalg.frobenius_norm(a) * linalg.frobenius_norm(b)
    )
    lhs = linalg.mat_exp(a + b)
    rhs = linalg.mat_exp(a) @ linalg.mat_exp(b)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)


def test_mat_exp_overflow_reported():
    with pytest.raises(NonConvergent):
        linalg.mat_exp(1e4 * linalg.identity(2))


def test_spectrum_diagonal():
    eigs = linalg.spectrum(np.diag([1.0, 2.0 + 1.0j]))
    assert sorted(eigs, key=lambda z: z.real) == pytest.approx([1.0, 2.0 + 1.0j])


def test_spectrum_nilpotent():
    eigs = linalg.spectrum(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert eigs == [0.0, 0.0]


@pytest.mark.parametrize("order", [2, 3, 4, 6, 12, 16])
def test_spectrum_similarity_invariance(order):
    rng = random.Random(order)
    diag = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(order)]
    while True:
        p = random_matrix(order, rng)
        if np.linalg.cond(p) <= 50:
            break
    m = p @ np.diag(diag) @ np.linalg.inv(p)
    found = sorted(linalg.spectrum(m), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    expected = sorted(diag, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert max(abs(f - e) for f, e in zip(found, expected)) <= 1e-7


def test_is_positive_stable():
    assert linalg.is_positive_stable(linalg.identity(3))
    assert not linalg.is_positive_stable(-linalg.identity(2))
    assert linalg.is_positive_stable(np.diag([0.1, 5.0 - 2.0j]))


def test_commutator_norm_values():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([5.0, -3.0]).astype(complex)
    assert linalg.commutator_norm(a, b) == 0.0
    c = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    d = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    assert linalg.commutator_norm(c, d) == pytest.approx(math.sqrt(2.0))


def test_commutator_norm_on_shared_eigenbasis():
    from hypermat.calculus import random_commuting_family

    fam = random_commuting_family(3, ("A", "B"), seed=42)
    a, b = fam.realize("A"), fam.realize("B")
    bound = 1e-12 * linalg.frobenius_norm(a) * linalg.frobenius_norm(b)
    assert linalg.commutator_norm(a, b) <= bound


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.as_matrix([[math.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        linalg.as_matrix([[1.0, 2.0]])
