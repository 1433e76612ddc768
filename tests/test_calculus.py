import math

import numpy as np
import pytest

from hypermat import calculus, linalg
from hypermat.calculus import (
    CommutingFamily,
    PochhammerChain,
    gamma_limit,
    pochhammer,
    pochhammer_inverse,
    random_commuting_family,
)
from hypermat.errors import GenerationFailed, Overflow, SingularShift

from lemmas import (
    c_decrement_residual,
    reciprocal_gamma,
    reciprocal_gamma_residual,
    shift_identity_residual,
)
from oracles import scalar_pochhammer

SQRT_PI_HALF = 0.8862269254527580


def family_with_clearance(order, names, seed, avoid_ints, name="C"):
    """Redraw until the named spectrum clears the given integers by 0.1."""
    for attempt in range(200):
        fam = random_commuting_family(order, names, seed + 1000 * attempt)
        if all(
            abs(z - k) >= 0.1 for z in fam.spectra[name] for k in avoid_ints
        ):
            return fam
    raise AssertionError("could not draw a clear family")


def test_pochhammer_zero_is_identity():
    m = np.array([[2.0, 1.0], [0.5, 3.0]], dtype=complex)
    assert np.array_equal(pochhammer(m, 0), np.eye(2))


def test_pochhammer_identity_matrix():
    assert np.allclose(pochhammer(np.eye(2, dtype=complex), 3), 6.0 * np.eye(2), atol=0)


def test_pochhammer_diagonal_matches_scalar_oracle():
    m = np.diag([1.0, 2.0]).astype(complex)
    expected = np.diag(
        [scalar_pochhammer(1.0, 2), scalar_pochhammer(2.0, 2)]
    )
    assert np.allclose(pochhammer(m, 2), expected, atol=0)
    assert np.allclose(pochhammer(m, 2), np.diag([2.0, 6.0]), atol=0)


def test_pochhammer_chain_recurrence_order():
    fam = random_commuting_family(3, ["A"], seed=5)
    a = fam.realize("A")
    chain = PochhammerChain.for_products(a)
    eye = np.eye(3)
    for n in range(30):
        expected = chain.product(n) @ (a + n * eye)
        actual = chain.product(n + 1)
        assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(actual)


def test_pochhammer_inverse_base_cases():
    c = np.array([[2.0]], dtype=complex)
    assert np.array_equal(pochhammer_inverse(c, 0), np.eye(1))
    assert np.allclose(pochhammer_inverse(c, 2), np.array([[1.0 / 6.0]]), atol=1e-16)


def test_pochhammer_inverse_chain_residual():
    fam = random_commuting_family(3, ["C"], seed=21)
    c = fam.realize("C")
    products = PochhammerChain.for_products(c)
    inverses = PochhammerChain.for_inverses(c)
    for n in range(31):
        residual = np.linalg.norm(products.product(n) @ inverses.inverse(n) - np.eye(3))
        assert residual <= 1e-10


def test_pochhammer_inverse_singular_shift_reports_index():
    c = np.diag([-2.0, 1.0]).astype(complex)
    with pytest.raises(SingularShift) as err:
        pochhammer_inverse(c, 4)  # C + 2I is singular
    assert err.value.shift == 3


def _non_normal_with_eigenvalue(value):
    """A non-normal 3x3 matrix whose spectrum is {value, 1.5, 2.2 + 0.3i}."""
    p = np.array([[1.0, 0.4, 0.2j], [0.3, 1.0, 0.5], [0.1j, 0.2, 1.0]])
    return p @ np.diag([value, 1.5, 2.2 + 0.3j]) @ np.linalg.inv(p)


def _with_eigenvalue_minus_five():
    """C + 5I is singular."""
    return _non_normal_with_eigenvalue(-5.0)


def test_inverse_chain_lookahead_raises_only_when_asked():
    c = _with_eigenvalue_minus_five()
    stepwise = PochhammerChain.for_inverses(c)
    for n in range(6):  # the block grown at n = 4 reaches C + 5I and must not raise
        assert len(stepwise.through(n)) == n + 1
        assert np.isfinite(stepwise.inverse(n)).all()
    grown = PochhammerChain.for_inverses(c)
    assert len(grown.through(3)) == 4
    for chain in (stepwise, grown, PochhammerChain.for_inverses(c)):
        with pytest.raises(SingularShift) as err:
            chain.inverse(8)
        assert err.value.shift == 6
        assert np.array_equal(chain.through(5), stepwise.through(5))
        # The read itself never raises: past the reach the run is NaN.
        run = chain.through(8)
        assert chain.reach == 5
        assert np.isfinite(run[:6]).all()
        assert np.isnan(run[6:]).all()


def test_stacked_chain_reach_per_member():
    # C + 10I is singular past the first block of 8, C + 3I within it.
    members = [_non_normal_with_eigenvalue(-10.0), _non_normal_with_eigenvalue(-3.0)]
    members.append(_non_normal_with_eigenvalue(0.7))
    reaches = [10, 3, 20]  # the clean member is finite through index 20
    lone = [PochhammerChain.for_inverses(c) for c in members]
    with pytest.raises(SingularShift) as err:
        lone[0].inverse(11)
    assert err.value.shift == 11
    assert len(lone[0].through(10)) == 11
    assert np.isfinite(lone[0].inverse(10)).all()
    stepwise = PochhammerChain.for_inverses(members)
    for n in range(21):
        stepwise.through(n)
    jumped = PochhammerChain.for_inverses(members)
    for chain in (stepwise, jumped):
        run = chain.through(20)
        assert chain.reach.tolist() == [10, 3, len(chain.inverse_products) - 1]
        for i, reach in enumerate(reaches):
            assert np.array_equal(run[: reach + 1, i], lone[i].through(reach))
            assert np.isnan(run[reach + 1 :, i]).all()
    products = PochhammerChain.for_products(members).through(20)
    for i, c in enumerate(members):
        assert np.array_equal(products[:, i], PochhammerChain.for_products(c).through(20))


def test_stacked_inverse_raises_at_the_smallest_reach():
    members = [_non_normal_with_eigenvalue(v) for v in (-10.0, -3.0, 0.7)]
    chain = PochhammerChain.for_inverses(members)
    assert np.isfinite(chain.inverse(3)).all()
    with pytest.raises(SingularShift) as err:
        chain.inverse(4)  # C + 3I of the second member is singular
    assert err.value.shift == 4
    assert str(err.value) == "base + 3*I is singular"
    assert np.isnan(chain.through(4)[4, 1]).all()  # the read itself does not raise



@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16])
def test_a_chain_over_two_parameters_holds_each_parameters_own_run(order):
    # The series engine stacks the members of several parameters in one
    # chain. A stacked product or inversion treats each matrix on its own, so
    # every slot holds bitwise its parameter's lone run, and a singular shift
    # C + 5I stops its own member only.
    rng = np.random.default_rng(order)

    def member():
        p = np.eye(order) + 0.3 * (
            rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
        ) / math.sqrt(order)
        spectrum = rng.uniform(0.5, 3.0, order) + 1j * rng.uniform(-0.5, 0.5, order)
        return p @ np.diag(spectrum) @ np.linalg.inv(p)

    singular = member()
    singular[:, 0] = 0.0
    singular[0, 0] = -5.0  # C + 5I has a zero first column
    first = [member(), member()]
    second = [member(), singular, member()]
    for build in (PochhammerChain.for_products, PochhammerChain.for_inverses):
        stacked, alone = build(first + second), (build(first), build(second))
        for n in (0, 3, 9, 20):
            run = stacked.through(n)
            assert np.array_equal(run[:, :2], alone[0].through(n), equal_nan=True)
            assert np.array_equal(run[:, 2:], alone[1].through(n), equal_nan=True)
        if stacked.reach is not None:
            held = len(stacked.inverse_products) - 1
            assert stacked.reach.tolist() == [held, held, held, 5, held]
            assert stacked.reach.tolist() == alone[0].reach.tolist() + alone[1].reach.tolist()
            assert np.isnan(run[6:, 3]).all()
        assert np.isfinite(np.delete(run, 3, axis=1)).all()

def test_chain_lookups_keep_their_mode():
    c = _non_normal_with_eigenvalue(0.7)
    with pytest.raises(ValueError):
        PochhammerChain.for_inverses(c).product(2)
    with pytest.raises(ValueError):
        PochhammerChain.for_products(c).inverse(2)


def test_at_is_the_scaled_run_entry():
    members = [_non_normal_with_eigenvalue(v) for v in (0.7, 1.9)]
    for base in (members[0], members):
        for build in (PochhammerChain.for_products, PochhammerChain.for_inverses):
            chain = build(base)
            for n in (0, 3, 9, 30, 12):
                assert np.array_equal(chain.at(n), build(base).through(n)[n])
                assert np.array_equal(chain.at(n), chain.through(n)[n])


def test_at_raises_at_the_smallest_reach_of_a_stack():
    members = [_non_normal_with_eigenvalue(v) for v in (-10.0, -3.0, 0.7)]
    chain = PochhammerChain.for_inverses(members)
    assert np.isfinite(chain.at(3)).all()
    for n in (4, 12, 30):
        with pytest.raises(SingularShift) as err:
            chain.at(n)
        assert err.value.shift == int(chain.reach.min()) + 1 == 4
    with pytest.raises(SingularShift) as err:
        PochhammerChain.for_inverses(members[0]).at(11)
    assert err.value.shift == 11


def test_at_never_raises_on_a_product_chain():
    # (A)_n of a base with eigenvalue -3 is singular from n = 4 on, but a
    # product needs no inverse.
    members = [_non_normal_with_eigenvalue(v) for v in (-10.0, -3.0, 0.7)]
    for base in (members[1], members):
        chain = PochhammerChain.for_products(base)
        for n in (3, 4, 12, 30):
            assert np.isfinite(chain.at(n)).all()


def well_conditioned_member(order, seed, max_cond=100.0):
    """P diag(spectrum) P^-1 with cond(P) <= max_cond and a generated-band spectrum."""
    rng = np.random.default_rng(seed)
    while True:
        p = rng.uniform(-1, 1, (order, order)) + 1j * rng.uniform(-1, 1, (order, order))
        if np.linalg.cond(p) <= max_cond:
            break
    spectrum = rng.uniform(0.5, 3.0, order) + 1j * rng.uniform(-0.5, 0.5, order)
    return p, spectrum, p @ np.diag(spectrum) @ np.linalg.inv(p)


@pytest.mark.parametrize("seed", range(4))
def test_inverse_chain_blocks_stay_inverse_at_order_eight(seed):
    # The defect grows with cond(P)^2; cond(P) <= 50 keeps it below 1e-10.
    _, _, c = well_conditioned_member(8, seed, max_cond=50.0)
    products = PochhammerChain.for_products(c).through(64)
    inverses = PochhammerChain.for_inverses(c).through(64)
    residuals = np.linalg.norm(products @ inverses - np.eye(8), axis=(1, 2))
    assert residuals.max() <= 1e-10


def test_unscaled_lookups_read_the_scaled_run():
    # The chains hold (A)_n / n! and n! (A)_n^-1; product and inverse undo the scaling.
    a = random_commuting_family(3, ["A"], seed=7).realize("A")
    products = PochhammerChain.for_products(a)
    inverses = PochhammerChain.for_inverses(a)
    for n in (0, 1, 5, 30):
        factorial = float(math.factorial(n))
        assert np.array_equal(products.product(n), factorial * products.through(n)[n])
        assert np.array_equal(inverses.inverse(n), inverses.through(n)[n] / factorial)


def test_a_bool_index_is_refused():
    # A bool is not a count; read as an index it would also slice the run as a mask.
    a = random_commuting_family(3, ["A"], seed=7).realize("A")
    for lookup in (
        lambda n: PochhammerChain.for_products(a).through(n),
        lambda n: PochhammerChain.for_inverses(a).through(n),
        lambda n: PochhammerChain.for_products(a).at(n),
        lambda n: PochhammerChain.for_inverses(a).at(n),
        lambda n: PochhammerChain.for_products(a).product(n),
        lambda n: PochhammerChain.for_inverses(a).inverse(n),
        lambda n: pochhammer(a, n),
        lambda n: pochhammer_inverse(a, n),
        lambda n: gamma_limit(a, n),
    ):
        with pytest.raises(ValueError, match="Pochhammer index must be a nonnegative integer"):
            lookup(True)
        lookup(np.int64(1))


def _through(a, n):
    return PochhammerChain.for_inverses(a).through(n)


def _product_at(a, n):
    return PochhammerChain.for_products(a).at(n)


def _inverse_at(a, n):
    return PochhammerChain.for_inverses(a).at(n)


@pytest.mark.parametrize(
    "lookup, n",
    [
        (gamma_limit, 2.5),
        (pochhammer, 2.5),
        (pochhammer_inverse, 2.5),
        (_through, 2.5),
        (_through, -1),
        (_product_at, 2.5),
        (_inverse_at, 2.5),
        (_inverse_at, -1),
    ],
)
def test_an_index_that_is_not_a_nonnegative_integer_is_rejected(lookup, n):
    with pytest.raises(ValueError, match="Pochhammer index must be a nonnegative integer"):
        lookup(np.array([[1.5]]), n)


def test_gamma_limit_rejects_n_zero():
    with pytest.raises(ValueError, match="n must be positive"):
        gamma_limit(np.array([[1.5]]), 0)


@pytest.mark.parametrize(
    "n, message",
    [
        ("3", "Pochhammer index must be a nonnegative integer"),
        (None, "Pochhammer index must be a nonnegative integer"),
        (False, "Pochhammer index must be a nonnegative integer"),
        (True, "Pochhammer index must be a nonnegative integer"),
        (2.5, "Pochhammer index must be a nonnegative integer"),
        (0, "n must be positive"),
        (-1, "n must be positive"),
    ],
)
def test_gamma_limit_checks_a_count_before_its_range(n, message):
    with pytest.raises(ValueError) as err:
        gamma_limit(np.array([[1.5]]), n)
    assert str(err.value) == message


def test_unscaled_lookups_past_the_double_range():
    # (A)_200 overflows and (A)_200^-1 underflows; neither may raise OverflowError.
    a = np.array([[2.0, 1.0], [0.5, 3.0]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(pochhammer(a, 200)).all()
        assert np.array_equal(pochhammer_inverse(a, 200), np.zeros((2, 2)))
    # 171! overflows, but (0.001)_171 = 7.299e303 and its inverse do not.
    small = np.array([[1e-3]], dtype=complex)
    assert pochhammer(small, 171)[0, 0] == pytest.approx(7.29901146236384e303, rel=1e-12)
    assert pochhammer_inverse(small, 171)[0, 0] == pytest.approx(1.3700485403487e-304, rel=1e-12)


def test_shift_identity_scalar_case():
    # r = 1, base 2, n = 3: (3)_3 = 60 against (1/2)(2)_3(2+3) = 60.
    assert shift_identity_residual(np.array([[2.0]], dtype=complex), 3) == (
        pytest.approx(0.0, abs=1e-12)
    )


def test_shift_identity_n_zero():
    fam = random_commuting_family(2, ["A"], seed=3)
    assert shift_identity_residual(fam.realize("A"), 0) <= 1e-12


def test_shift_identity_family_members():
    for seed in range(5):
        fam = random_commuting_family(3, ["A"], seed=seed)
        a = fam.realize("A")
        for n in (1, 4, 10):
            scale = np.linalg.norm(pochhammer(a + np.eye(3), n))
            assert shift_identity_residual(a, n) <= 1e-9 * scale


def test_c_decrement_residual():
    for seed in range(5):
        fam = family_with_clearance(3, ["C"], seed=seed, avoid_ints=(1,))
        c = fam.realize("C")
        for n in (1, 5, 10):
            scale = np.linalg.norm(pochhammer_inverse(c - np.eye(3), n))
            assert c_decrement_residual(c, n) <= 1e-9 * scale


def test_c_decrement_two_index_form():
    # The two-index variant only depends on m + n, so check it through sums.
    fam = family_with_clearance(2, ["C"], seed=40, avoid_ints=(1,))
    c = fam.realize("C")
    eye = np.eye(2)
    c_minus_inv = linalg.inverse(c - eye)
    for m, n in [(1, 2), (3, 4), (5, 5)]:
        lhs = pochhammer_inverse(c - eye, m + n)
        rhs = pochhammer_inverse(c, m + n) @ (
            eye + m * c_minus_inv + n * c_minus_inv
        )
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)


def test_reciprocal_gamma_shift_residual_n_zero():
    fam = random_commuting_family(2, ["A"], seed=8)
    assert reciprocal_gamma_residual(fam, "A", 0) <= 1e-12


def test_reciprocal_gamma_shift_residual_family():
    for seed in (1, 2, 3):
        fam = random_commuting_family(3, ["A"], seed=seed)
        scale = np.linalg.norm(reciprocal_gamma(fam, "A"))
        assert reciprocal_gamma_residual(fam, "A", 4) <= 1e-9 * scale


def test_gamma_limit_scalar_one_is_exact():
    for n in (10, 1000):
        value = gamma_limit(np.array([[1.0]], dtype=complex), n)
        assert abs(value[0, 0] - 1.0) <= 1e-12


def test_gamma_limit_half_integer():
    value = gamma_limit(np.array([[1.5]], dtype=complex), 10**4)
    assert abs(value[0, 0] - SQRT_PI_HALF) <= 1e-3


def test_gamma_limit_gamma_two():
    value = gamma_limit(np.array([[2.0]], dtype=complex), 10**4)
    assert abs(value[0, 0] - 1.0) <= 1e-3


def test_gamma_limit_error_shrinks_with_n():
    target = np.diag([SQRT_PI_HALF, 1.0])
    m = np.diag([1.5, 2.0]).astype(complex)
    err_n = np.linalg.norm(gamma_limit(m, 4000) - target)
    err_2n = np.linalg.norm(gamma_limit(m, 8000) - target)
    assert err_2n < err_n


def _lifted_finite_gamma(p, spectrum, n):
    """(n-1)! (A)_n^-1 n^A by mpmath on each eigenvalue, lifted by P."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    finite = [
        complex(mpmath.gamma(n) * mpmath.gamma(z) * mpmath.power(n, z) / mpmath.gamma(z + n))
        for z in map(mpmath.mpc, spectrum)
    ]
    return p @ np.diag(finite) @ np.linalg.inv(p)


def test_gamma_limit_above_order_eight():
    p, spectrum, a = well_conditioned_member(12, seed=12)
    expected = _lifted_finite_gamma(p, spectrum, 250)
    value = gamma_limit(a, 250)
    assert np.linalg.norm(value - expected) <= 1e-5 * np.linalg.norm(expected)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
def test_gamma_limit_stays_within_the_gate_of_the_finite_formula(order):
    # The reference is mpmath's finite-n value, not a sequential fold: n^A
    # amplifies rounding, so two product orders give gamma values up to about
    # 1e-6 apart while their scaled entries agree to 1e-14.
    p, spectrum, a = well_conditioned_member(order, seed=50 + order)
    for n in (250, 1000):
        expected = _lifted_finite_gamma(p, spectrum, n)
        value = gamma_limit(a, n)
        assert np.linalg.norm(value - expected) <= 1e-5 * np.linalg.norm(expected)


@pytest.mark.parametrize("order", [1, 2, 3, 8])
def test_one_entry_tree_agrees_with_the_chain(order):
    # The same factors in another association: a balanced tree against the
    # chain's one-at-a-time fold.
    _, _, a = well_conditioned_member(order, seed=30 + order)
    for inverse, build in ((False, PochhammerChain.for_products), (True, PochhammerChain.for_inverses)):
        chain = build(a)
        for n in (0, 1, 2, 3, 7, 8, 9, 250, 1000):
            expected = chain.at(n)
            entry = calculus._scaled_entry(a, n, inverse)
            assert np.linalg.norm(entry - expected) <= 1e-12 * np.linalg.norm(expected)


def test_one_entry_tree_raises_the_singular_shift_of_at():
    c = _with_eigenvalue_minus_five()
    for n in range(6):  # entry n needs the shifts below n only
        assert np.isfinite(calculus._scaled_entry(c, n, inverse=True)).all()
        assert np.isfinite(pochhammer_inverse(c, n)).all()
    for n in (6, 7, 30):
        with pytest.raises(SingularShift) as tree:
            calculus._scaled_entry(c, n, inverse=True)
        with pytest.raises(SingularShift) as chain:
            PochhammerChain.for_inverses(c).at(n)
        raised = [(str(err.value), err.value.shift) for err in (tree, chain)]
        assert raised[0] == raised[1] == ("base + 5*I is singular", 6)


@pytest.mark.parametrize("n", [True, False, 2.0, 2.5, "3", -1])
@pytest.mark.parametrize("inverse", [False, True])
def test_one_entry_tree_refuses_an_index_as_at_does(n, inverse):
    a = _non_normal_with_eigenvalue(0.7)
    build = PochhammerChain.for_inverses if inverse else PochhammerChain.for_products
    with pytest.raises(ValueError) as chain:
        build(a).at(n)
    with pytest.raises(ValueError) as tree:
        calculus._scaled_entry(a, n, inverse)
    assert str(tree.value) == str(chain.value) == "Pochhammer index must be a nonnegative integer"


def test_gamma_limit_singular_shift_names_the_matrix():
    # Positive stable (both eigenvalues 1) but rcond is about 1e-26.
    with pytest.raises(SingularShift) as err:
        gamma_limit(np.array([[1.0, 1e13], [0.0, 1.0]], dtype=complex), 10)
    assert str(err.value) == "base + 0*I is singular"
    assert err.value.shift == 1


def test_gamma_limit_and_the_inverse_chain_raise_one_singular_shift():
    # The matrix's own rcond is about 1e-26, so both stop at the base itself.
    m = np.array([[1.0, 1e13], [0.0, 1.0]], dtype=complex)
    raised = []
    for lookup in (gamma_limit, pochhammer_inverse):
        with pytest.raises(SingularShift) as err:
            lookup(m, 10)
        raised.append((str(err.value), err.value.shift))
    assert raised[0] == raised[1] == ("base + 0*I is singular", 1)


def test_gamma_limit_requires_positive_stable():
    with pytest.raises(ValueError):
        gamma_limit(-np.eye(2, dtype=complex), 10)


def test_gamma_limit_overflow_of_the_power_is_overflow():
    # n^A = exp(ln(10) * 300): the exponent's norm, 690.8, is past the
    # limit that mat_exp accepts.
    with pytest.raises(Overflow) as err:
        gamma_limit(np.array([[300.0]]), 10)
    assert str(err.value) == "matrix exponential overflow, norm 6.908e+02"


def test_family_scalar_order_one():
    fam = random_commuting_family(1, ["A", "B"], seed=12)
    assert linalg.commutator_norm(fam.realize("A"), fam.realize("B")) == 0.0


def test_family_commutators_small():
    fam = random_commuting_family(3, ["A", "B"], seed=6)
    a, b = fam.realize("A"), fam.realize("B")
    bound = 1e-11 * linalg.frobenius_norm(a) * linalg.frobenius_norm(b)
    assert linalg.commutator_norm(a, b) <= bound


def test_family_determinism():
    one = random_commuting_family(3, ["A", "B", "C"], seed=99)
    two = random_commuting_family(3, ["A", "B", "C"], seed=99)
    assert one.spectra == two.spectra
    assert np.array_equal(one.transform, two.transform)
    for name in ("A", "B", "C"):
        assert np.array_equal(one.realize(name), two.realize(name))


@pytest.mark.parametrize("order", [1, 3, 8])
def test_family_transform_is_conditioned_as_stated(order):
    fam = random_commuting_family(order, ["A"], seed=order)
    assert np.linalg.cond(fam.transform) <= 1e3
    product = fam.transform @ fam.transform_inverse
    assert np.linalg.norm(product - np.eye(order)) <= 1e-12


def test_family_spectrum_band():
    fam = random_commuting_family(4, ["A"], seed=0)
    for z in fam.spectra["A"]:
        assert 0.5 <= z.real <= 3.0
        assert -0.5 <= z.imag <= 0.5
    assert linalg.is_positive_stable(fam.realize("A"))


def test_family_order_cap():
    with pytest.raises(ValueError):
        random_commuting_family(0, ["A"], seed=0)
    fam = random_commuting_family(9, ["A", "B"], seed=0)
    assert fam.order == 9
    assert fam.realize("A").shape == (9, 9)
    assert linalg.is_positive_stable(fam.realize("B"))


@pytest.mark.parametrize("order", [2.5, True, "2"])
def test_family_order_must_be_an_integer(order):
    with pytest.raises(ValueError, match="family order must be a positive integer"):
        random_commuting_family(order, ["A"], seed=0)


def test_family_rejects_bad_spectecheck():
    with pytest.raises(ValueError):
        CommutingFamily(
            order=1,
            transform=np.eye(1, dtype=complex),
            transform_inverse=np.eye(1, dtype=complex),
            spectra={"A": (complex(-1.0, 0.0),)},
        )
