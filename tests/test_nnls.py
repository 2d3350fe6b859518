import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from marginleak.nnls import nnls_normal


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(5, 40))
    n = int(rng.integers(1, 12))
    a = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    want, _ = scipy.optimize.nnls(a, b)
    got = nnls_normal(a.T @ a, a.T @ b)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_optimality_conditions(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.normal(size=(30, 8))
    b = rng.normal(size=30)
    gram, rhs = a.T @ a, a.T @ b
    assert_optimal(gram, rhs, nnls_normal(gram, rhs))


def assert_optimal(gram, rhs, x):
    assert np.all(x >= 0)
    dual = rhs - gram @ x
    scale = max(1.0, np.max(np.abs(rhs)))
    # Zero dual on the positive set, nonpositive dual elsewhere.
    assert np.all(dual[x > 0] <= 1e-8 * scale)
    assert np.all(np.abs(dual[x > 0]) <= 1e-8 * scale)
    assert np.all(dual[x == 0] <= 1e-10 * scale)


def test_exact_nonnegative_solution_recovered():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(20, 5))
    x_true = np.array([0.0, 1.5, 0.0, 2.0, 0.3])
    b = a @ x_true
    x = nnls_normal(a.T @ a, a.T @ b)
    np.testing.assert_allclose(x, x_true, atol=1e-10)


def test_all_negative_correlations_give_zero():
    a = np.eye(3)
    b = -np.ones(3)
    x = nnls_normal(a.T @ a, a.T @ b)
    np.testing.assert_array_equal(x, np.zeros(3))


def test_duplicate_columns_handled(start=None):
    rng = np.random.default_rng(8)
    col = rng.normal(size=12)
    a = np.column_stack([col, col, rng.normal(size=12)])
    b = 2.0 * col
    x = nnls_normal(a.T @ a, a.T @ b, start)
    # The split between the twin columns is arbitrary; the fit is not.
    np.testing.assert_allclose(a @ x, b, atol=1e-8)
    assert np.all(x >= 0)


@pytest.mark.parametrize("twin", [0, 1])
def test_duplicate_columns_handled_warm_from_each_twin(twin):
    test_duplicate_columns_handled(start=np.arange(3) == twin)


def test_shape_validation():
    with pytest.raises(ValueError):
        nnls_normal(np.ones((2, 3)), np.ones(2))


def test_tiny_column_matches_scipy():
    # ||rhs||_inf is 1.18e-38: an absolute floor on the stop would return 0.
    a, b = np.array([[-1.18e-38]]), np.array([-1.0])
    got = nnls_normal(a.T @ a, a.T @ b)
    np.testing.assert_allclose(got, scipy.optimize.nnls(a, b)[0], rtol=1e-12)
    np.testing.assert_allclose(got, [1.0 / 1.18e-38], rtol=1e-12)


def test_solution_does_not_depend_on_scale():
    # x(c A, c b) = x(A, b): the stops are relative to ||rhs||_inf and max|x|.
    rng = np.random.default_rng(0)
    problems = []
    for _ in range(300):
        m, n = int(rng.integers(1, 13)), int(rng.integers(1, 7))
        problems.append((rng.normal(size=(m, n)), rng.normal(size=m)))
    for k in (4, 8, 20, 50, 100, -4, -8, -20, -50, -100):
        for a, b in problems:
            want = nnls_normal(a.T @ a, a.T @ b)
            ac, bc = a * 10.0**k, b * 10.0**k
            got = nnls_normal(ac.T @ ac, ac.T @ bc)
            assert np.array_equal(got > 0.0, want > 0.0), k
            np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9 * max(1.0, want.max()))


@pytest.mark.parametrize("a, b", [([[-2.51e-203]], [-1.0]), ([[-1e-170]], [-1e160])],
                         ids=["unit-b", "large-b"])
def test_gram_underflowed_to_zero_returns(a, b):
    # A^T A underflows to 0 while A^T b does not: the restricted solve leaves
    # the new entry at 0 with nothing to shrink, and no x can be learned.
    a, b = np.array(a), np.array(b)
    assert (a.T @ a)[0, 0] == 0.0 and (a.T @ b)[0] > 0.0
    np.testing.assert_array_equal(nnls_normal(a.T @ a, a.T @ b), [0.0])


# The problems are kept at unit scale: every nonzero entry has magnitude at
# least 1e-3.  The stops are relative, but the normal equations cannot
# resolve columns whose scales differ by many orders of magnitude: with
# A = [[1, -1.14e-105]] and b = [-1], nnls_normal returns 0 (objective 1)
# where scipy, working on A itself, takes x_2 = 8.8e104 to an objective near 0.
_entries = st.floats(-10.0, 10.0, allow_nan=False).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)


@st.composite
def _problems(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    a = draw(hnp.arrays(float, (m, n), elements=_entries))
    b = draw(hnp.arrays(float, m, elements=_entries))
    return a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_problems())
def test_property_objective_matches_scipy(problem):
    a, b = problem
    want, _ = scipy.optimize.nnls(a, b)
    got = nnls_normal(a.T @ a, a.T @ b)
    assert np.all(got >= 0.0)
    objective = lambda x: float(np.sum((a @ x - b) ** 2))
    assert abs(objective(got) - objective(want)) <= 1e-8 * max(1.0, float(b @ b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_problems())
def test_property_zero_pattern_matches_scipy_when_unique(problem):
    a, b = problem
    # Full column rank makes the solution unique; keep it well conditioned so
    # that the normal equations resolve it.
    assume(a.shape[0] >= a.shape[1] and np.linalg.cond(a) < 1e4)
    gram, rhs = a.T @ a, a.T @ b
    want, _ = scipy.optimize.nnls(a, b)
    got = nnls_normal(gram, rhs)
    # Compare only where strict complementarity fixes the pattern: clearly
    # positive, or zero with a clearly negative dual.  An entry that is zero
    # with a zero dual (b on a face of the cone) is zero only up to rounding.
    tol = 1e-9 * max(1.0, float(np.max(np.abs(rhs))), float(np.max(want)))
    dual = rhs - gram @ want
    positive = want > tol
    inactive = (want == 0.0) & (dual < -tol)
    assert np.all(got[positive] > 0.0)
    assert np.all(got[inactive] == 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_problems(), st.data())
def test_property_warm_start(problem, data):
    a, b = problem
    gram, rhs = a.T @ a, a.T @ b
    start = data.draw(hnp.arrays(bool, a.shape[1]))
    cold = nnls_normal(gram, rhs)
    warm = nnls_normal(gram, rhs, start)
    assert_optimal(gram, rhs, warm)
    objective = lambda x: float(np.sum((a @ x - b) ** 2))
    assert abs(objective(warm) - objective(cold)) <= 1e-8 * max(1.0, float(b @ b))
    # An all-False start is the cold start, and a start at the cold solution's
    # positive set returns that solution, bit for bit.
    assert np.array_equal(nnls_normal(gram, rhs, np.zeros_like(start)), cold)
    assert np.array_equal(nnls_normal(gram, rhs, cold > 0.0), cold)
