import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from gptkit import bell, distinguish, lp
from gptkit.composites import enumerate_vertices, max_tensor
from gptkit.errors import DimensionMismatch, InvalidArgument, NumericalFailure
from gptkit.spaces import contains_state, is_pure, make_gbit, make_polytopic

from .conftest import polygon
from .oracles import scipy_convex_combination_feasible


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


def test_slack_start_needs_no_pivot():
    # every row of a_ub has b <= 0: each surplus starts in the basis at -b,
    # x = 0 is that basis, and there is no artificial to drive out
    prob = lp.LpProblem(n_vars=3,
                        a_ub=np.array([[1.0, -2.0, 0.5], [-1.0, 0.0, -1.0],
                                       [0.0, 3.0, -1.0]]),
                        b_ub=np.array([0.0, -2.0, -0.5]))
    res = lp.solve(prob)
    assert res.status == "optimal" and res.pivots == 0
    assert (res.x == 0.0).all()


def test_mixed_signs_keep_artificials():
    # rows with b > 0 start from an artificial, rows with b <= 0 from their
    # surplus, and only the artificial rows enter the phase-1 costs
    a_ub = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    feasible = lp.LpProblem(n_vars=2, a_eq=np.array([[1.0, -1.0]]),
                            b_eq=np.array([-0.5]), a_ub=a_ub,
                            b_ub=np.array([1.0, -2.0, 0.5, -3.0]))
    tab, basis, flip = lp._standard_form(feasible)
    ncols = tab.shape[1] - 1
    assert list(basis) == [ncols, ncols + 1, 3, ncols + 3, 5]
    assert list(flip) == [True, False, True, False, True]
    assert (tab[-1] == -(tab[0] + tab[1] + tab[3])).all()
    res = lp.solve(feasible)
    assert res.status == "optimal" and res.pivots > 0
    x, y = res.x
    assert abs(x - y + 0.5) <= 1e-9
    assert (a_ub @ res.x - feasible.b_ub).min() >= -1e-9

    # x + y >= 3 against x <= 1 and y <= 1: infeasible, and the certificate
    # is on the caller's rows, flipped ones included
    infeasible = lp.LpProblem(n_vars=2, a_ub=a_ub[[0, 1, 3]],
                              b_ub=np.array([3.0, -1.0, -1.0]))
    res = lp.solve(infeasible)
    assert res.status == "infeasible" and res.pivots > 0
    y = res.certificate
    assert np.all(y >= 0)
    assert np.all(y @ infeasible.a_ub <= lp.CERT_TOL)
    assert y @ infeasible.b_ub > 0


def _ns_polytope():
    g = make_gbit()
    ns = max_tensor(g, g)
    return make_polytopic(enumerate_vertices(ns), ns.u)


def _recorded_solves(monkeypatch):
    results = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve",
                        lambda prob: results.append(solve(prob)) or results[-1])
    return results


def test_ns_witness_pivot_bound(monkeypatch):
    # 30 pivots here
    ns = _ns_polytope()
    results = _recorded_solves(monkeypatch)
    assert distinguish.perfectly_distinguishable(ns, ns.vertices[[0, 5, 10]])
    assert len(results) == 1 and results[0].pivots <= 35


def test_ns_capacity_pivot_bound(monkeypatch):
    # 1031 pivots here, in 42 LPs; the bound leaves about 15% for rounding
    # to pick other pivots
    ns = _ns_polytope()
    results = _recorded_solves(monkeypatch)
    assert distinguish.capacity(ns, n_max=4) == 4
    assert sum(res.pivots for res in results) <= 1200


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


def _weights_or_failure(hull, points, x):
    """hull(points, x), or the NumericalFailure it raised."""
    try:
        return hull(points, x)
    except NumericalFailure as exc:
        return exc


def _lp_only(points, x):
    """The hull LP posed by hand, with no guess before it."""
    k = points.shape[0]
    res = lp.solve(lp.LpProblem(n_vars=k, a_eq=np.vstack([points.T, np.ones(k)]),
                                b_eq=np.append(x, 1.0)))
    return res.x if res.status == "optimal" else None


def _hull_cases(n_hulls):
    """(points, x, inside) over seeded hulls of 1-30 points in dimension 2-6.

    Each hull gives one point whose verdict ``inside`` is known by
    construction (a convex combination, or a point at least 0.05 beyond
    the hull along a direction) and one point in the band, with ``inside``
    None: a listed point, a point on a facet, or one within 1e-9 to 1e-6
    of a facet or of the centroid, on either side.
    """
    rng = np.random.default_rng(20)
    for case in range(n_hulls):
        dim, k = int(rng.integers(2, 7)), int(rng.integers(1, 31))
        points = rng.normal(size=(k, dim))
        centre = points.mean(axis=0)
        if case % 2:
            yield points, rng.dirichlet(np.ones(k)) @ points, True
        else:
            g = rng.normal(size=dim)
            far = points[(points @ g).argmax()]
            yield (points, far + rng.uniform(0.05, 1.0) * g / np.linalg.norm(g),
                   False)
        step = rng.uniform(1e-9, 1e-6) * rng.choice([-1.0, 1.0])
        kind = case % 4
        if kind == 0:
            yield points, points[rng.integers(k)].copy(), None
        elif kind == 1 or k <= dim:  # qhull needs a full-dimensional hull
            g = rng.normal(size=dim)
            yield points, centre + step * g / np.linalg.norm(g), None
        else:
            hull = ConvexHull(points)
            f = rng.integers(len(hull.simplices))
            on = points[hull.simplices[f]].mean(axis=0)
            # equations hold unit outward normals; kind 2 stays on the facet
            yield points, on + (kind == 3) * step * hull.equations[f, :-1], None


def test_hull_shortcut_matches_lp(monkeypatch):
    # the centroid-ray guess may only replace an "outside" verdict, and
    # every weight vector still comes from the same LP, bit for bit
    posed = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prob: posed.append(prob) or solve(prob))
    fired = 0
    for n, (points, x, inside) in enumerate(_hull_cases(2000)):
        direct = _weights_or_failure(_lp_only, points, x)
        before = len(posed)
        w = _weights_or_failure(lp.hull_weights, points, x)
        fired += len(posed) == before
        if isinstance(direct, NumericalFailure):
            # the same LP fails, unless the guess refuted x before it
            assert w is None or isinstance(w, NumericalFailure)
            continue
        if direct is None:
            assert w is None
        else:
            assert w is not None and (w == direct).all()
        if inside is not None:
            assert (w is not None) == inside
            if n % 10 == 0:  # HiGHS is slow: every fifth clear case
                assert scipy_convex_combination_feasible(points, x) == inside
    assert fired > 500


def test_hull_shortcut_refutes_without_lp(monkeypatch):
    def refuse(prob):
        raise NumericalFailure("LP posed")
    monkeypatch.setattr(lp, "solve", refuse)
    for v in np.ndindex(2, 2, 2):
        assert bell.classical_membership(bell.pr_box(*v)) is None
    for space in (make_gbit(), polygon(5)):
        centre = space.vertices.mean(axis=0)
        for v in space.vertices:
            assert not contains_state(space, centre + 1.05 * (v - centre))
            assert is_pure(space, v)
    with pytest.raises(NumericalFailure, match="LP posed"):
        contains_state(make_gbit(), np.array([0.25, -0.5, 1.0]))


def test_hull_shortcut_guards():
    # no input reaches the guess's arithmetic unchecked: a NaN or a division
    # by zero there would warn, and a warning fails this test
    points = np.random.default_rng(4).normal(size=(6, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # x at the centroid has no ray: the LP decides
        assert lp.hull_weights(points, points.mean(axis=0)) is not None
        with pytest.raises(DimensionMismatch):
            lp.hull_weights(points, np.zeros(4))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(InvalidArgument, match="non-finite"):
                lp.hull_weights(points, np.array([bad, 0.0, 0.0]))
