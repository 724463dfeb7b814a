import numpy as np
import pytest

from gptkit import lp
from gptkit.errors import DimensionMismatch, InvalidArgument, NumericalFailure


def test_equality_and_inequality():
    # x + y = 1 with x in the box [0.25, 0.5], the upper side as -x >= -0.5
    prob = lp.LpProblem(
        n_vars=2,
        a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
        a_ub=np.array([[1.0, 0.0], [-1.0, 0.0]]), b_ub=np.array([0.25, -0.5]))
    res = lp.solve(prob)
    assert res.status == "optimal"
    x, y = res.x
    assert abs(x + y - 1.0) < 1e-9
    assert 0.25 - 1e-9 <= x <= 0.5 + 1e-9 and y >= 0.0


def test_infeasible_has_valid_certificate():
    # x >= 2 and x <= 1 simultaneously
    prob = lp.LpProblem(n_vars=1,
                        a_ub=np.array([[1.0], [-1.0]]),
                        b_ub=np.array([2.0, -1.0]))
    res = lp.solve(prob)
    assert res.status == "infeasible"
    # x >= 0 makes no rows, so the certificate is on the a_ub rows: y >= 0
    # weights them into 0 >= y.a_ub x >= y.b_ub > 0
    y = res.certificate
    assert np.all(y >= 0)
    assert np.all(y @ prob.a_ub <= lp.CERT_TOL)
    assert y @ prob.b_ub > 0


def test_point_outside_hull_infeasible():
    # (2, 0) is not a convex combination of the simplex vertices
    verts = np.eye(2)
    prob = lp.LpProblem(
        n_vars=2,
        a_eq=np.vstack([verts.T, np.ones(2)]),
        b_eq=np.array([2.0, 0.0, 1.0]))
    assert lp.solve(prob).status == "infeasible"


def test_hull_weights():
    square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    x = np.array([0.5, -0.25])
    w = lp.hull_weights(square, x)
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= lp.FEASTOL
    assert np.abs(w @ square - x).max() <= lp.FEASTOL
    assert lp.hull_weights(square, np.array([1.5, 0.0])) is None


def test_deterministic_repeats():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 6))
    b = a @ rng.uniform(size=6)
    # the box x <= 2 as rows -x >= -2
    prob = lp.LpProblem(n_vars=6, a_eq=a, b_eq=b,
                        a_ub=-np.eye(6), b_ub=np.full(6, -2.0))
    first = lp.solve(prob)
    assert first.status == "optimal"
    for _ in range(5):
        again = lp.solve(prob)
        assert again.status == first.status
        assert np.abs(again.x - first.x).max() == 0.0


def test_degenerate_no_cycling():
    # classic degenerate vertex: the first two rows have b = 0 and are tight
    # at the first basis
    prob = lp.LpProblem(
        n_vars=3,
        a_ub=-np.array([[0.25, -60.0, -0.04],
                        [0.5, -90.0, -0.02],
                        [0.0, 0.0, 1.0]]),
        b_ub=-np.array([0.0, 0.0, 1.0]))
    res = lp.solve(prob)
    assert res.status == "optimal"
    assert (prob.a_ub @ res.x - prob.b_ub).min() >= -lp.FEASTOL


def test_feasibility_only_problem():
    prob = lp.LpProblem(n_vars=2,
                        a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    res = lp.solve(prob)
    assert res.status == "optimal"
    assert res.certificate is None
    assert res.x.min() >= 0.0 and abs(res.x.sum() - 1.0) <= lp.FEASTOL


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp.LpProblem(n_vars=2, a_eq=np.ones((1, 3)), b_eq=np.ones(1))
    with pytest.raises(DimensionMismatch):
        lp.LpProblem(n_vars=2, a_ub=np.ones((2, 2)), b_ub=np.ones(3))
    with pytest.raises(DimensionMismatch):
        lp.LpProblem(n_vars=2, a_eq=np.ones((1, 2)))


def test_negative_rhs_rows():
    # equality with negative rhs exercises the row-flip path
    prob = lp.LpProblem(n_vars=2,
                        a_eq=np.array([[1.0, -1.0]]), b_eq=np.array([-3.0]))
    res = lp.solve(prob)
    assert res.status == "optimal"
    assert abs(res.x[0] - res.x[1] + 3.0) < 1e-9


def test_bound_check():
    # x >= 0 holds up to FEASTOL, relative to the largest |x_i| above 1
    prob = lp.LpProblem(n_vars=3)
    lp._check_feasible(prob, np.array([-0.5e-9, 0.0, 1.0]))
    lp._check_feasible(prob, np.array([-5e-9, 0.0, 10.0]))
    with pytest.raises(NumericalFailure, match="x >= 0 violated"):
        lp._check_feasible(prob, np.array([-1e-6, 0.0, 0.0]))
    with pytest.raises(NumericalFailure, match="x >= 0 violated"):
        lp._check_feasible(prob, np.array([0.0, -2e-9, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["a_eq", "b_eq", "a_ub", "b_ub"])
def test_non_finite_problem_rejected(where, bad):
    fields = dict(a_eq=np.ones((1, 2)), b_eq=np.ones(1),
                  a_ub=np.eye(2), b_ub=np.zeros(2))
    fields[where] = fields[where].copy()
    fields[where].flat[0] = bad
    with pytest.raises(InvalidArgument, match="non-finite"):
        lp.LpProblem(n_vars=2, **fields)
