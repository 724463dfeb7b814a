import hashlib
import warnings
from dataclasses import replace

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
    # each guess may only replace the LP's verdict: the centroid ray an
    # "outside", the least-norm weights an "inside".  Weights that did not
    # come from the LP need not be the LP's, but must be as feasible.
    posed = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prob: posed.append(prob) or solve(prob))
    refuted = certified = 0
    for n, (points, x, inside) in enumerate(_hull_cases(2000)):
        direct = _weights_or_failure(_lp_only, points, x)
        before = len(posed)
        w = _weights_or_failure(lp.hull_weights, points, x)
        guessed = len(posed) == before
        refuted += guessed and w is None
        certified += guessed and w is not None
        if isinstance(direct, NumericalFailure):
            # the same LP fails, unless the guess refuted x before it
            assert w is None or isinstance(w, NumericalFailure)
            continue
        if direct is None:
            assert w is None
        else:
            assert w is not None
        if w is not None:
            # the guess's own rule is w >= 0; the LP's, w >= 0 to FEASTOL
            assert w.min() >= (0.0 if guessed else -lp.FEASTOL)
            assert np.abs(w @ points - x).max() <= lp.FEASTOL
            assert abs(w.sum() - 1.0) <= lp.FEASTOL
        if inside is not None:
            assert (w is not None) == inside
            if n % 10 == 0:  # HiGHS is slow: every fifth clear case
                assert scipy_convex_combination_feasible(points, x) == inside
    # 1018 refuted and 1313 certified here
    assert refuted > 900 and certified > 1100


def test_centroid_ray_refutations_pass_refutes(monkeypatch):
    # Hull.weights decides the centroid ray from points @ d alone; every x
    # it refutes there, with no LP posed, is refuted by the Farkas vector
    # y = (d, -top) / |(d, -top)|_1 formed explicitly and checked by
    # _refutes, on the survey of test_hull_shortcut_matches_lp
    posed = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prob: posed.append(prob) or solve(prob))
    refuted = 0
    for points, x, _ in _hull_cases(2000):
        before = len(posed)
        if (_weights_or_failure(lp.hull_weights, points, x) is None
                and len(posed) == before):
            hull = lp.Hull(points)
            d = x - hull.centroid
            y = np.append(d, -(points @ d).max())
            assert lp._refutes(y / np.abs(y).sum(), hull.a, np.append(x, 1.0))
            refuted += 1
    assert refuted > 900


def _refuse_lp(monkeypatch):
    def refuse(prob):
        raise NumericalFailure("LP posed")
    monkeypatch.setattr(lp, "solve", refuse)


def test_hull_shortcut_refutes_without_lp(monkeypatch):
    _refuse_lp(monkeypatch)
    for v in np.ndindex(2, 2, 2):
        assert bell.classical_membership(bell.pr_box(*v)) is None
    for space in (make_gbit(), polygon(5)):
        centre = space.vertices.mean(axis=0)
        for v in space.vertices:
            assert not contains_state(space, centre + 1.05 * (v - centre))
            assert is_pure(space, v)
    # the gbit's least-norm weights are (1 + x.v_i) / 4 over its vertices
    # v_i: nonnegative inside the diamond |x_1| + |x_2| <= 1 only
    gbit = make_gbit()
    inner = np.array([0.25, -0.5, 1.0])
    assert contains_state(gbit, inner)
    w = lp.hull_weights(gbit.vertices, inner)
    assert np.abs(w - [0.3125, 0.0625, 0.1875, 0.4375]).max() <= 1e-12
    corner = np.array([0.9, 0.9, 1.0])
    assert abs((gbit._hull._pinv @ np.append(corner, 1.0))[0] + 0.2) <= 1e-12
    with pytest.raises(NumericalFailure, match="LP posed"):
        contains_state(gbit, corner)


def test_least_norm_certifies_inside_without_lp(monkeypatch):
    _refuse_lp(monkeypatch)
    rng = np.random.default_rng(27)
    # a regular polygon's least-norm weights are 1/n + 2 x.v_i / n, so
    # every point within 1/2 of the centre is certified
    for space in (make_gbit(), polygon(5)):
        for _ in range(50):
            r, t = rng.uniform(0.0, 0.45), rng.uniform(0.0, 2 * np.pi)
            assert contains_state(space, [r * np.cos(t), r * np.sin(t), 1.0])
    verts = np.hstack([rng.uniform(-1.0, 1.0, size=(96, 7)), np.ones((96, 1))])
    space = make_polytopic(verts, np.eye(8)[7])
    for _ in range(50):
        assert contains_state(space, rng.dirichlet(np.full(96, 5.0)) @ verts)
    for _ in range(50):
        table = bell.mix_deterministic(rng.dirichlet(np.full(16, 10.0)))
        model = bell.classical_membership(table)
        assert np.abs(model.table().p - table.p).max() <= lp.FEASTOL


def test_least_norm_rejects_negative_weights(monkeypatch):
    # 1e-4 beyond the facet w_1 = 0 of the triangle, far from the centroid
    # ray's reach: the least-norm weights are the barycentric ones, with
    # -1e-4 on the first vertex, so any tolerance on w >= 0 looser than
    # 1e-4 would call it a state
    triangle = make_polytopic(np.eye(3), np.ones(3))
    x = np.array([-1e-4, 0.9, 0.1001])
    assert abs((triangle._hull._pinv @ np.append(x, 1.0))[0] + 1e-4) <= 1e-12
    results = _recorded_solves(monkeypatch)
    assert not contains_state(triangle, x)
    assert [res.status for res in results] == ["infeasible"]


def test_hull_is_kept_per_space():
    # each space builds and keeps its own hull: two spaces with different
    # vertices, and a space made from a built one by dataclasses.replace
    square, wide = make_gbit(), make_polytopic(2 * make_gbit().vertices - [0, 0, 1],
                                               [0.0, 0.0, 1.0])
    x = np.array([1.5, 0.0, 1.0])
    assert not contains_state(square, x) and contains_state(wide, x)
    assert square._hull is square._hull and square._hull is not wide._hull
    for made in (replace(square, vertices=wide.vertices), replace(wide)):
        assert made._hull is not square._hull and made._hull is not wide._hull
        assert contains_state(made, x)
    assert not contains_state(square, x)
    assert (square._hull.a[:-1] == square.vertices.T).all()


def _pinv_calls(monkeypatch):
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(lp.np.linalg, "pinv",
                        lambda a, **kw: calls.append(a.shape) or pinv(a, **kw))
    return calls


def test_hull_without_one_point_reuses_the_pseudo_inverse(monkeypatch):
    # with one point dropped, the least-norm weights of the rest come from
    # the parent's pseudo-inverse and equal a fresh SVD's; with every copy
    # of a point dropped, or a vertex that takes a dimension with it, the
    # smaller hull makes its own SVD
    rng = np.random.default_rng(28)
    cases = []
    for dim, k in ((3, 6), (4, 12), (6, 48), (8, 96)):
        points = rng.uniform(-1.0, 1.0, size=(k, dim))
        cases.append((points, np.eye(k, dtype=bool)[rng.integers(k)], []))
        copied = np.vstack([points, points[[1, 1]]])
        cases.append((copied, (copied == points[1]).all(axis=1),
                      [(dim + 1, k - 1)]))
    cases.append((np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  np.array([True, False, False]), [(3, 2)]))
    for points, drop, svds in cases:
        hull = lp.Hull(points)
        hull._pinv
        b = np.append(rng.uniform(-1.0, 1.0, size=points.shape[1]), 1.0)
        calls = _pinv_calls(monkeypatch)
        got = hull.without(drop)._least_norm(b)
        assert calls == svds
        monkeypatch.undo()
        want = np.linalg.pinv(lp.Hull(points[~drop]).a, rcond=lp.RANK_TOL) @ b
        assert np.abs(got - want).max() <= 1e-10
    with pytest.raises(DimensionMismatch, match="at least one point"):
        hull.without(np.ones(len(points), dtype=bool))


def test_is_pure_reuses_the_space_pseudo_inverse(monkeypatch):
    # the gbit's centre, listed as a fifth vertex, is impure: the centroid
    # ray of the other four is zero, and their least-norm weights 1/4 each
    # certify it with no LP, from one SVD of the space's hull in all
    _refuse_lp(monkeypatch)
    calls = _pinv_calls(monkeypatch)
    space = make_polytopic(np.vstack([make_gbit().vertices, [0.0, 0.0, 1.0]]),
                           [0.0, 0.0, 1.0])
    for _ in range(3):
        assert not is_pure(space, np.array([0.0, 0.0, 1.0]))
    assert calls == [(4, 5)]


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


@pytest.mark.parametrize("points, x", [
    (np.zeros((4, 3)), np.zeros((3, 1))),
    (np.zeros((4, 3)), "abc"),
    (np.zeros((4, 3)), np.zeros(2)),
    (np.zeros((4, 3)), 0.0),
    (np.zeros(3), np.zeros(3)),
    (np.zeros((2, 4, 3)), np.zeros(3)),
], ids=["x 2-d", "x string", "x too short", "x scalar", "points 1-d",
        "points 3-d"])
def test_hull_weights_shape_errors(points, x):
    with pytest.raises(DimensionMismatch):
        lp.hull_weights(points, x)


def _reference_standard_form(prob):
    """The standard form as it was built by fancy indexing: the surplus
    diagonal, the flips and the artificial row."""
    n = prob.n_vars
    m_eq = 0 if prob.a_eq is None else prob.a_eq.shape[0]
    m_ub = 0 if prob.a_ub is None else prob.a_ub.shape[0]
    m = m_eq + m_ub
    tab = np.zeros((m + 1, n + m_ub + 1))
    if m_eq:
        tab[:m_eq, :n] = prob.a_eq
        tab[:m_eq, -1] = prob.b_eq
    if m_ub:
        tab[m_eq:m, :n] = prob.a_ub
        tab[m_eq:m, -1] = prob.b_ub
        tab[m_eq + np.arange(m_ub), n + np.arange(m_ub)] = -1.0
    slack = m_eq + np.flatnonzero(tab[m_eq:m, -1] <= 0)
    basis = np.arange(n + m_ub, n + m_ub + m)
    basis[slack] = n - m_eq + slack
    flip = tab[:m, -1] < 0
    flip[slack] = True
    tab[:m][flip] *= -1.0
    tab[m] = -tab[:m][basis >= n + m_ub].sum(axis=0)
    return tab, basis, flip


def _seeded_problems(count, seed):
    """Equality-only, inequality-only and mixed problems, by turns, with
    normal or small-integer rows and right-hand sides of either sign, 0.0
    and -0.0 among them."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, 9))
        fields = {}
        for name, present, rows in (("eq", i % 3 != 1, int(rng.integers(1, 5))),
                                    ("ub", i % 3 != 0, int(rng.integers(1, 12)))):
            if not present:
                continue
            a = (rng.integers(-3, 4, size=(rows, n)).astype(float) if i % 5 == 0
                 else rng.normal(size=(rows, n)))
            # a feasible b by numpy's own sum, not BLAS, so that every build
            # poses the same problems
            b = (a * rng.uniform(size=n)).sum(axis=1) if i % 2 else rng.normal(size=rows)
            b[rng.uniform(size=rows) < 0.25] = 0.0
            b[rng.uniform(size=rows) < 0.1] = -0.0
            fields.update({"a_" + name: a, "b_" + name: b})
        yield lp.LpProblem(n_vars=n, **fields)


def test_standard_form_matches_reference():
    # bit for bit, signed zeros included: the tableau, basis and flips
    mixes = set()
    for prob in _seeded_problems(600, 5):
        got, want = lp._standard_form(prob), _reference_standard_form(prob)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        mixes.add((prob.a_eq is not None, prob.a_ub is not None,
                   bool(got[2].any()), bool((~got[2]).any())))
    assert len(mixes) >= 6


# computed when the tableau was still built as in _reference_standard_form
INFEASIBLE_PINNED, PIVOTS_PINNED, DIGEST_PINNED = 512, 2517, "a45b22baf0701714"


def test_pinned_pivots_and_results():
    # the pivots and the primal results of a seeded LP set, pinned; a change
    # to the standard form or to the pivot rules moves them.  Certificates
    # come from LAPACK's solve, which may round differently across builds,
    # so only their count is pinned (each is validated inside solve).
    digest, pivots, statuses = hashlib.sha256(), 0, []
    for prob in _seeded_problems(1000, 7):
        res = lp.solve(prob)
        pivots += res.pivots
        statuses.append(res.status)
        digest.update(res.status.encode())
        if res.x is not None:
            digest.update(res.x.tobytes())
    assert statuses.count("infeasible") == INFEASIBLE_PINNED
    assert pivots == PIVOTS_PINNED
    assert digest.hexdigest()[:16] == DIGEST_PINNED
