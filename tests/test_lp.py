import numpy as np
import pytest

from gptkit import lp
from gptkit.errors import DimensionMismatch, NumericalFailure


def test_box_maximum():
    # max x1 + x2 on the unit box -> (1, 1)
    prob = lp.LpProblem(n_vars=2, objective=np.array([1.0, 1.0]),
                        bounds=[(0.0, 1.0), (0.0, 1.0)])
    res = lp.solve(prob)
    assert res.status == "optimal"
    assert abs(res.objective_value - 2.0) < 1e-9
    assert np.abs(res.x - 1.0).max() < 1e-9


def test_equality_and_inequality():
    # max x on {x + y = 1, x >= 0.25, y >= 0}
    prob = lp.LpProblem(
        n_vars=2, objective=np.array([1.0, 0.0]),
        a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
        a_ub=np.array([[1.0, 0.0]]), b_ub=np.array([0.25]),
        bounds=[(None, None), (0.0, None)])
    res = lp.solve(prob)
    assert res.status == "optimal"
    assert abs(res.objective_value - 1.0) < 1e-9


def test_infeasible_has_valid_certificate():
    # x >= 2 and x <= 1 simultaneously
    prob = lp.LpProblem(n_vars=1,
                        a_ub=np.array([[1.0], [-1.0]]),
                        b_ub=np.array([2.0, -1.0]))
    res = lp.solve(prob)
    assert res.status == "infeasible"
    # x is free, so the certificate is on the a_ub rows: y >= 0 weights
    # them into 0 >= y.b_ub > 0
    y = res.certificate
    assert np.all(y >= 0)
    assert np.abs(y @ prob.a_ub).max() <= lp.CERT_TOL
    assert y @ prob.b_ub > 0


def test_point_outside_hull_infeasible():
    # (2, 0) is not a convex combination of the simplex vertices
    verts = np.eye(2)
    prob = lp.LpProblem(
        n_vars=2,
        a_eq=np.vstack([verts.T, np.ones(2)]),
        b_eq=np.array([2.0, 0.0, 1.0]),
        bounds=[(0.0, None)] * 2)
    assert lp.solve(prob).status == "infeasible"


def test_unbounded():
    prob = lp.LpProblem(n_vars=1, objective=np.array([1.0]),
                        bounds=[(0.0, None)])
    assert lp.solve(prob).status == "unbounded"


def test_deterministic_repeats():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 6))
    b = a @ rng.uniform(size=6)
    c = rng.normal(size=6)
    prob = lp.LpProblem(n_vars=6, objective=c, a_eq=a, b_eq=b,
                        bounds=[(0.0, 2.0)] * 6)
    first = lp.solve(prob)
    for _ in range(5):
        again = lp.solve(prob)
        assert again.status == first.status
        assert np.abs(again.x - first.x).max() == 0.0


def test_degenerate_no_cycling():
    # classic degenerate vertex: many constraints active at the origin
    prob = lp.LpProblem(
        n_vars=3, objective=np.array([0.75, -150.0, 0.02]),
        a_ub=-np.array([[0.25, -60.0, -0.04],
                        [0.5, -90.0, -0.02],
                        [0.0, 0.0, 1.0]]),
        b_ub=-np.array([0.0, 0.0, 1.0]),
        bounds=[(0.0, None)] * 3)
    res = lp.solve(prob)
    assert res.status == "optimal"


def test_feasibility_only_problem():
    prob = lp.LpProblem(n_vars=2,
                        a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
                        bounds=[(0.0, None)] * 2)
    res = lp.solve(prob)
    assert res.status == "optimal"
    assert res.objective_value == 0.0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp.LpProblem(n_vars=2, objective=np.array([1.0]))
    with pytest.raises(DimensionMismatch):
        lp.LpProblem(n_vars=2, a_eq=np.ones((1, 3)), b_eq=np.ones(1))
    with pytest.raises(DimensionMismatch):
        lp.LpProblem(n_vars=2, bounds=[(0, 1)])


def test_negative_rhs_rows():
    # equality with negative rhs exercises the row-flip path
    prob = lp.LpProblem(n_vars=2,
                        a_eq=np.array([[1.0, -1.0]]), b_eq=np.array([-3.0]),
                        bounds=[(0.0, 5.0), (0.0, 5.0)])
    res = lp.solve(prob)
    assert res.status == "optimal"
    assert abs(res.x[0] - res.x[1] + 3.0) < 1e-9


def test_bound_check():
    # a missing bound is never violated; a finite one only beyond FEASTOL
    prob = lp.LpProblem(n_vars=3, bounds=[(0.0, None), (None, 1.0), (None, None)])
    lp._check_feasible(prob, np.array([-0.5e-9, 1.0 + 0.5e-9, -1.0]))
    with pytest.raises(NumericalFailure, match="lower bound violated"):
        lp._check_feasible(prob, np.array([-1e-6, 0.0, 0.0]))
    with pytest.raises(NumericalFailure, match="upper bound violated"):
        lp._check_feasible(prob, np.array([0.0, 1.0 + 1e-6, 0.0]))
