"""Property-based cross-checks against independent oracles.

Every LP-backed verdict (polytope membership, joint distinguishability,
plain LP feasibility) is compared against an implementation
that shares no code with the package solver: qhull facet enumeration and
scipy's HiGHS.  Together the suites run well over 500 cases.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from gptkit import lp
from gptkit.composites import enumerate_vertices, max_tensor
from gptkit.distinguish import perfectly_distinguishable
from gptkit.spaces import (contains_state, is_pure, make_classical, make_gbit,
                           make_polytopic)

from .conftest import polygon
from .oracles import (facet_margin, facet_membership, halfspace_vertices,
                      scipy_convex_combination_feasible,
                      scipy_distinguishable)

FIXED_SPACES = [make_classical(2), make_classical(3), make_classical(4),
                make_gbit()]


def random_polytopic_space(rng, dim):
    """Random polytope on the slice x_dim = 1, ambient dimension dim."""
    nv = rng.integers(dim, 2 * dim + 3)
    pts = rng.uniform(-1.0, 1.0, size=(nv, dim - 1))
    verts = np.hstack([pts, np.ones((nv, 1))])
    u = np.zeros(dim)
    u[-1] = 1.0
    return make_polytopic(verts, u)


def pick_space(rng):
    if rng.uniform() < 0.4:
        return FIXED_SPACES[rng.integers(len(FIXED_SPACES))]
    return random_polytopic_space(rng, int(rng.integers(2, 5)))


def query_point(rng, space):
    verts = space.vertices
    w = rng.dirichlet(np.ones(verts.shape[0]))
    x = w @ verts
    if rng.uniform() < 0.5:
        # push off the hull (may or may not leave it)
        x = x + rng.normal(scale=0.3, size=x.shape)
        # project back to the normalization slice
        x = x + (1.0 - space.u @ x) * space.u / (space.u @ space.u)
    return x


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_membership_matches_facet_oracle(seed):
    rng = np.random.default_rng(seed)
    space = pick_space(rng)
    x = query_point(rng, space)
    ours = contains_state(space, x)
    hull = facet_membership(space.vertices, x)
    highs = scipy_convex_combination_feasible(space.vertices, x)
    if ours != hull or ours != highs:
        # disagreement is tolerated only in a razor-thin boundary band
        assert abs(facet_margin(space.vertices, x)) < 1e-6, \
            (seed, ours, hull, highs)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
@example(seed=584)
@example(seed=2376)
@example(seed=2752)
def test_distinguishability_matches_highs(seed):
    rng = np.random.default_rng(seed)
    space = pick_space(rng)
    n = int(rng.integers(2, 4))
    states = []
    for _ in range(n):
        if rng.uniform() < 0.6:
            states.append(space.vertices[rng.integers(space.vertices.shape[0])])
        else:
            w = rng.dirichlet(np.ones(space.vertices.shape[0]))
            states.append(w @ space.vertices)
    states = np.array(states)
    ours = perfectly_distinguishable(space, states) is not None
    oracle = scipy_distinguishable(space, states)
    assert ours == oracle, (seed, ours, oracle)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_full_rank_subsets_match_highs(monkeypatch, dim):
    # n = K vertices of a random polytope fix every effect, so the verdict
    # takes no LP; 60 seeded polytopes per dimension give both verdicts
    monkeypatch.setattr(lp, "solve", None)  # must not be reached
    verdicts = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        space = random_polytopic_space(rng, dim)
        nv = space.vertices.shape[0]
        states = space.vertices[rng.choice(nv, dim, replace=False)]
        ours = perfectly_distinguishable(space, states) is not None
        assert ours == scipy_distinguishable(space, states), (dim, seed, ours)
        verdicts.append(ours)
    assert any(verdicts) and not all(verdicts)


# What a draw changes after the rest is drawn: nothing, nothing, or repeat
# the first equality row with its rhs (phase 1 then ends with an artificial
# in the basis at zero).
VARIANTS = ("plain", "plain", "repeated row")


def max_violation(prob, x):
    """Largest amount by which x breaks a row of prob or x >= 0."""
    parts = [-x, prob.b_ub - prob.a_ub @ x]
    if prob.a_eq is not None:
        parts.append(np.abs(prob.a_eq @ x - prob.b_eq))
    return float(np.concatenate(parts).max())


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_lp_matches_highs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(1, 5))
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = rng.normal(size=m_eq) if m_eq else None
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = rng.normal(size=m_ub)
    if VARIANTS[rng.integers(len(VARIANTS))] == "repeated row":
        if a_eq is None:
            a_eq, b_eq = rng.normal(size=(1, n)), rng.normal(size=1)
        a_eq, b_eq = np.vstack([a_eq, a_eq[:1]]), np.concatenate([b_eq, b_eq[:1]])

    prob = lp.LpProblem(n_vars=n, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
    ours = lp.solve(prob)

    # HiGHS uses A_ub x <= b_ub; ours is A_ub x >= b_ub.  A feasibility
    # problem is HiGHS's with a zero objective.
    ref = linprog(np.zeros(n), A_ub=-a_ub, b_ub=-b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, None)] * n, method="highs")
    feasible = ref.status == 0
    assert ours.status == ("optimal" if feasible else "infeasible"), seed
    assert (ours.certificate is not None) == (not feasible), seed
    if feasible:
        # solve's own guarantee: FEASTOL, relative to the largest |x_i| > 1
        scale = max(1.0, float(np.abs(ours.x).max()))
        assert max_violation(prob, ours.x) <= lp.FEASTOL * scale, seed


def degenerate_problem(rng):
    """A highly degenerate LP: small integer rows, most of ``a_ub`` with
    rhs 0, and repeated columns, some doubled, so that ratios tie."""
    n = int(rng.integers(2, 6))
    m_eq, m_ub = int(rng.integers(0, 3)), int(rng.integers(3, 9))
    base = rng.integers(-2, 3, size=(m_eq + m_ub, n)).astype(float)
    extra = rng.choice(n, int(rng.integers(1, n + 1)))
    a = np.hstack([base, base[:, extra] * rng.choice([1.0, 2.0], extra.size)])
    b_ub = np.zeros(m_ub)
    rows = rng.choice(m_ub, int(rng.integers(0, 3)), replace=False)
    b_ub[rows] = rng.integers(-2, 3, rows.size)
    if rng.uniform() < 0.5:  # equalities met by a sparse point
        x0 = rng.integers(0, 2, a.shape[1]) * rng.integers(0, 3, a.shape[1])
        b_eq = a[:m_eq] @ x0
    else:
        b_eq = rng.integers(-2, 3, m_eq).astype(float)
    return lp.LpProblem(n_vars=a.shape[1], a_eq=a[:m_eq] if m_eq else None,
                        b_eq=b_eq if m_eq else None, a_ub=a[m_eq:], b_ub=b_ub)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_degenerate_lp_matches_highs(seed):
    prob = degenerate_problem(np.random.default_rng(seed))
    n, m_ub = prob.n_vars, prob.a_ub.shape[0]
    ours = lp.solve(prob)
    ref = linprog(np.zeros(n), A_ub=-prob.a_ub, b_ub=-prob.b_ub,
                  A_eq=prob.a_eq, b_eq=prob.b_eq,
                  bounds=[(0.0, None)] * n, method="highs")
    feasible = ref.status == 0
    assert ours.status == ("optimal" if feasible else "infeasible"), seed
    if feasible:
        scale = max(1.0, float(np.abs(ours.x).max()))
        assert max_violation(prob, ours.x) <= lp.FEASTOL * scale, seed
    else:
        # the certificate is on the caller's rows: [a_eq 0; a_ub -I] z = b
        a_ub = np.hstack([prob.a_ub, -np.eye(m_ub)])
        a, b = a_ub, prob.b_ub
        if prob.a_eq is not None:
            a = np.vstack([np.hstack([prob.a_eq, np.zeros((len(prob.b_eq), m_ub))]),
                           a_ub])
            b = np.concatenate([prob.b_eq, prob.b_ub])
        assert lp._refutes(ours.certificate, a, b), seed


@pytest.mark.parametrize("run", [0, 1])
def test_bland_fallback_same_verdicts(monkeypatch, run):
    # Bland's rule from the first (0) or second (1) degenerate pivot on:
    # the rule the fallback switches to reaches the same verdicts
    problems = [degenerate_problem(np.random.default_rng(s)) for s in range(300)]
    default = [lp.solve(prob).status for prob in problems]
    monkeypatch.setattr(lp, "DEGENERATE_RUN", run)
    for prob, status in zip(problems, default):
        res = lp.solve(prob)
        assert res.status == status
        if status == "optimal":
            assert max_violation(prob, res.x) <= lp.FEASTOL * max(1.0, res.x.max())


@pytest.mark.parametrize("seed,vertex", [(19, 4), (26, 3), (27, 4), (28, 0)])
def test_purity_on_96_vertices_matches_qhull(seed, vertex):
    # inputs on which a drifting tableau once failed its residual check
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, (96, 7))
    verts = np.hstack([pts, np.ones((96, 1))])
    u = np.zeros(8)
    u[-1] = 1.0
    ours = is_pure(make_polytopic(verts, u), verts[vertex])
    assert ours == (vertex in ConvexHull(pts).vertices)


def check_max_tensor_vertices(a, b, count):
    comp = max_tensor(a, b)
    verts = enumerate_vertices(comp)
    assert verts.shape[0] == count
    assert (verts @ comp.ineqs.T).min() >= -1e-9
    assert np.abs(verts @ comp.u - 1.0).max() <= 1e-9
    interior = np.kron(a.vertices.mean(axis=0), b.vertices.mean(axis=0))
    assert halfspace_vertices(comp.ineqs, comp.u, interior).shape[0] == count
    # no vertex is listed twice: the double description makes no duplicates
    gaps = np.abs(verts[:, None] - verts[None]).max(axis=2)
    assert gaps[~np.eye(count, dtype=bool)].min() > lp.DEDUP_TOL


@pytest.mark.parametrize("n, m, count", [
    (3, 3, 9), (3, 4, 12), (3, 5, 15), (3, 6, 18), (4, 4, 24), (4, 5, 60),
    (4, 6, 144), (5, 5, 135), (5, 6, 630)])
def test_polygon_pair_vertices_match_qhull(n, m, count):
    check_max_tensor_vertices(polygon(n), polygon(m), count)


@pytest.mark.parametrize("a, b, count", [
    ((3, 0.3), (4, 1.1), 12), ((5, 0.7), (5, 2.0), 135),
    ((3, 0.5), (6, 0.2), 18)])
def test_turned_polygon_pair_vertices_match_qhull(a, b, count):
    check_max_tensor_vertices(polygon(*a), polygon(*b), count)


def test_turned_square_pentagon_vertices_match_qhull():
    check_max_tensor_vertices(polygon(4, 1.6951199159934145),
                              polygon(5, 0.25744424357926954), 60)


def test_hexagon_hexagon_vertices_match_qhull():
    check_max_tensor_vertices(polygon(6), polygon(6), 552)


def test_gbit_membership_grid_oracle():
    # exhaustive grid on the square: LP verdict vs direct coordinates
    g = make_gbit()
    for x in np.linspace(-1.4, 1.4, 15):
        for y in np.linspace(-1.4, 1.4, 15):
            point = np.array([x, y, 1.0])
            direct = abs(x) <= 1 + 1e-9 and abs(y) <= 1 + 1e-9
            assert contains_state(g, point) == direct, (x, y)


def test_infeasibility_certificates_are_farkas():
    # spot-check the certificate inequality on gbit points outside the square
    g = make_gbit()
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = np.array([rng.uniform(1.1, 3.0) * rng.choice([-1, 1]),
                      rng.uniform(-3.0, 3.0), 1.0])
        verts = g.vertices
        prob = lp.LpProblem(
            n_vars=4,
            a_eq=np.vstack([verts.T, np.ones(4)]),
            b_eq=np.concatenate([x, [1.0]]))
        res = lp.solve(prob)
        assert res.status == "infeasible"
        # x >= 0 makes no rows: the certificate is on a_eq itself
        y = res.certificate
        assert np.all(y @ prob.a_eq <= lp.CERT_TOL)
        assert y @ prob.b_eq > 0
