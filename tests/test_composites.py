import itertools

import numpy as np
import pytest

from gptkit import composites, distinguish, geometry, lp
from gptkit.composites import (check_supermultiplicativity,
                               effect_cone_generators, enumerate_vertices,
                               max_tensor, min_tensor, product_state,
                               quantum_product_reduced, reduced_state,
                               sampled_block_positive)
from gptkit.errors import (DimensionMismatch, InvalidArgument, NumericalFailure,
                           ScaleLimit, UnsupportedKind)
from gptkit.spaces import (Effect, Measurement, contains_state, is_effect,
                           is_pure, is_reversible_transformation, make_ball,
                           make_classical, make_gbit, make_quantum,
                           mat_to_coords, space_to_json)

from .conftest import polygon


def test_max_tensor_takes_each_factor_rows_once(monkeypatch):
    # one double description per factor, and rows bitwise those of the
    # comprehension that took each factor's rows afresh
    a, b = make_gbit(), make_gbit()
    want = np.array([np.kron(e.coeffs, f.coeffs)
                     for e in effect_cone_generators(a)
                     for f in effect_cone_generators(b)])
    calls = []

    def counted(name, f):
        return lambda *args: calls.append(name) or f(*args)

    monkeypatch.setattr(composites, "effect_cone_generators",
                        counted("generators", effect_cone_generators))
    monkeypatch.setattr(geometry, "cone_extreme_rays",
                        counted("rays", geometry.cone_extreme_rays))
    got = max_tensor(a, b).ineqs
    assert sorted(calls) == ["generators", "generators", "rays", "rays"]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_classical_effect_generators():
    c3 = make_classical(3)
    gens = effect_cone_generators(c3)
    coeffs = sorted(tuple(np.round(g.coeffs, 9)) for g in gens)
    assert coeffs == sorted(tuple(row) for row in np.eye(3))


def test_gbit_effect_generators():
    g = make_gbit()
    gens = effect_cone_generators(g)
    expected = {(0.5, 0.0, 0.5), (-0.5, 0.0, 0.5),
                (0.0, 0.5, 0.5), (0.0, -0.5, 0.5)}
    got = {tuple(np.round(e.coeffs, 9)) for e in gens}
    assert got == expected


def test_effect_generators_limits():
    with pytest.raises(UnsupportedKind):
        effect_cone_generators(make_ball(3))
    with pytest.raises(ScaleLimit):
        effect_cone_generators(make_classical(11))


def test_classical_min_equals_max():
    for na, nb in [(2, 2), (2, 3)]:
        a, b = make_classical(na), make_classical(nb)
        vmin = min_tensor(a, b).vertices
        vmax = enumerate_vertices(max_tensor(a, b))
        assert vmin.shape == vmax.shape
        smin = sorted(tuple(np.round(v, 9)) for v in vmin)
        smax = sorted(tuple(np.round(v, 9)) for v in vmax)
        assert smin == smax


def test_gbit_max_tensor_vertices():
    g = make_gbit()
    comp = max_tensor(g, g)
    verts = enumerate_vertices(comp)
    assert verts.shape[0] == 24
    # affine dimension 8
    diffs = verts[1:] - verts[0]
    assert np.linalg.matrix_rank(diffs, tol=1e-8) == 8
    # min tensor has only the 16 product vertices, strictly smaller
    assert min_tensor(g, g).vertices.shape[0] == 16


def test_min_subset_of_max():
    g = make_gbit()
    comp = max_tensor(g, g)
    for v in min_tensor(g, g).vertices:
        assert contains_state(comp, v)


def test_membership_and_nonmembership():
    g = make_gbit()
    comp = max_tensor(g, g)
    center = product_state(np.array([0, 0, 1.0]), np.array([0, 0, 1.0]))
    assert contains_state(comp, center)
    assert not contains_state(comp, 2 * center)
    bad = center.copy()
    bad[0] = 5.0
    assert not contains_state(comp, bad)


def test_reduced_states():
    g = make_gbit()
    comp = max_tensor(g, g)
    wa = np.array([1.0, 1.0, 1.0])
    wb = np.array([-1.0, 1.0, 1.0])
    st = product_state(wa, wb)
    assert np.abs(reduced_state(comp, st, "A") - wa).max() < 1e-12
    assert np.abs(reduced_state(comp, st, "B") - wb).max() < 1e-12


def test_pr_reduced_state_is_center():
    # the PR-box vertex has maximally mixed marginals
    from gptkit.bell import classify_ns_vertex, table_from_composite_state
    g = make_gbit()
    comp = max_tensor(g, g)
    for v in enumerate_vertices(comp):
        if classify_ns_vertex(table_from_composite_state(v)) == "pr":
            ra = reduced_state(comp, v, "A")
            rb = reduced_state(comp, v, "B")
            assert np.abs(ra - [0, 0, 1.0]).max() < 1e-9
            assert np.abs(rb - [0, 0, 1.0]).max() < 1e-9
            break
    else:
        pytest.fail("no PR-type vertex found")


def test_quantum_partial_trace(rng):
    from .conftest import random_density
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    coords = mat_to_coords(np.kron(rho_a, rho_b))
    back_a = quantum_product_reduced(coords, 2, 2, "A")
    back_b = quantum_product_reduced(coords, 2, 2, "B")
    assert np.abs(back_a - mat_to_coords(rho_a)).max() < 1e-12
    assert np.abs(back_b - mat_to_coords(rho_b)).max() < 1e-12


def test_sampled_block_positivity(rng):
    # entangled state: positive, hence passes; a non-block-positive
    # operator is refuted
    ket = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(ket, ket.conj())
    assert sampled_block_positive(mat_to_coords(rho), 2, 2)
    bad = mat_to_coords(np.diag([1.0, -0.5, 0.5, 0.0]))
    assert not sampled_block_positive(bad, 2, 2)


def test_supermultiplicativity():
    g = make_gbit()
    rep = check_supermultiplicativity(g, g, max_tensor(g, g))
    assert rep["verified"]
    assert rep["lower_bound"] == 4
    rep = check_supermultiplicativity(make_quantum(2), make_quantum(2))
    assert rep["verified"]
    assert rep["lower_bound"] == 4


def test_supermultiplicativity_octagons(monkeypatch):
    # distinguishable states are linearly independent, so in dimension 3
    # no subset of more than 3 octagon vertices is tried: per factor the
    # 56 triples, then pairs (0, 1), (0, 2) and (0, 3)
    octagon = polygon(8)
    sizes = []
    witness = distinguish._witness
    monkeypatch.setattr(distinguish, "_witness",
                        lambda space, states, n: sizes.append(n)
                        or witness(space, states, n))
    rep = check_supermultiplicativity(octagon, octagon)
    assert sizes == ([3] * 56 + [2] * 3) * 2
    assert rep["verified"]
    assert rep["lower_bound"] == 4
    assert rep["factor_capacities"] == (2, 2)


def test_non_polytopic_rejected():
    with pytest.raises(UnsupportedKind):
        min_tensor(make_quantum(2), make_classical(2))
    with pytest.raises(UnsupportedKind):
        max_tensor(make_ball(3), make_gbit())


def test_supermultiplicativity_rejects_ball_factor():
    with pytest.raises(UnsupportedKind):
        check_supermultiplicativity(make_ball(3), make_ball(3))
    with pytest.raises(UnsupportedKind):
        check_supermultiplicativity(make_gbit(), make_ball(3))


def _first_product_state(comp):
    return product_state(*(enumerate_vertices(f)[0] for f in comp.factors))


KIND_SPACES = {
    "gbit": make_gbit,
    "gbit-gbit-max": lambda: max_tensor(make_gbit(), make_gbit()),
    "ball3": lambda: make_ball(3),
    "quantum2": lambda: make_quantum(2),
    "quantum4": lambda: make_quantum(4),
}
KIND_QUESTIONS = {
    "enumerate_vertices": lambda s: enumerate_vertices(s).shape,
    "capacity": lambda s: distinguish.capacity(s, n_max=4),
    "effect_cone_generators": lambda s: len(effect_cone_generators(s)),
    "min_tensor": lambda s: min_tensor(s, make_gbit()).vertices.shape,
    "max_tensor": lambda s: max_tensor(make_gbit(), s).ineqs.shape,
    "reduced_state": lambda s: tuple(reduced_state(
        s, _first_product_state(s) if s.factors else s.u / (s.u @ s.u), "A")),
    "supermultiplicativity": lambda s: check_supermultiplicativity(
        s, make_classical(2))["factor_capacities"],
}
# what each question answers on each kind of space, or the error it raises;
# effect_cone_generators on quantum(4) (ambient dimension 16, above its
# limit of 10) must refuse the kind before the size
KIND_ANSWERS = {
    "gbit": [(4, 3), 2, 4, (16, 9), (16, 9), UnsupportedKind, (2, 2)],
    "gbit-gbit-max": [(24, 9), 4, 16, (96, 27), (64, 27), (-1.0, -1.0, 1.0),
                      None],
    "ball3": [UnsupportedKind, InvalidArgument, UnsupportedKind,
              UnsupportedKind, UnsupportedKind, UnsupportedKind,
              UnsupportedKind],
    "quantum2": [UnsupportedKind, 2, UnsupportedKind, UnsupportedKind,
                 UnsupportedKind, UnsupportedKind, (2, 2)],
    "quantum4": [UnsupportedKind, 4, UnsupportedKind, UnsupportedKind,
                 UnsupportedKind, UnsupportedKind, (4, 2)],
}
KIND_CASES = [(kind, question, answer)
              for kind, answers in KIND_ANSWERS.items()
              for question, answer in zip(KIND_QUESTIONS, answers)
              # the ineqs space's subset search is ScaleLimit (open)
              if answer is not None]


@pytest.mark.parametrize("kind, question, answer", KIND_CASES,
                         ids=[f"{k}-{q}" for k, q, _ in KIND_CASES])
def test_kind_question_matrix(kind, question, answer):
    space = KIND_SPACES[kind]()
    if isinstance(answer, type):
        with pytest.raises(answer) as info:
            KIND_QUESTIONS[question](space)
        assert type(info.value) is answer
    else:
        assert KIND_QUESTIONS[question](space) == answer


def _outside_arrangement_vertex(comp):
    """A point where dim - 1 rows are tight and u.x = 1, outside the polytope.

    Its tight rows with u have full rank, so only the feasibility test
    can reject it.
    """
    n = comp.ambient_dim
    for rows in itertools.combinations(range(comp.ineqs.shape[0]), n - 1):
        face = np.vstack([comp.ineqs[list(rows)], comp.u])
        if np.linalg.matrix_rank(face) == n:
            x = np.linalg.solve(face, np.eye(n)[-1])
            if (comp.ineqs @ x).min() < -1e-3:
                return x
    raise AssertionError("no infeasible arrangement vertex")


def test_enumerated_vertices_are_checked(monkeypatch):
    # the double description's output gains a non-extremal point (the
    # centroid), then a point that is not feasible; both must be refused
    g = make_gbit()
    comp = max_tensor(g, g)
    verts = geometry.polytope_vertices(comp.ineqs, comp.u)
    for point in (verts.mean(axis=0), _outside_arrangement_vertex(comp)):
        monkeypatch.setattr(geometry, "polytope_vertices",
                            lambda ineqs, u, p=point: np.vstack([verts, p]))
        with pytest.raises(NumericalFailure):
            enumerate_vertices(max_tensor(g, g))


@pytest.mark.parametrize("check", [
    lambda c: quantum_product_reduced(c, 2, 2, "A"),
    lambda c: sampled_block_positive(c, 2, 2)],
    ids=["reduced", "block-positive"])
def test_quantum_product_length_checked(check):
    with pytest.raises(DimensionMismatch):
        check(np.zeros(9))


@pytest.mark.parametrize("a, b", [
    (make_gbit(), make_gbit()), (polygon(4), polygon(5)),
    (make_classical(2), make_classical(3))],
    ids=["gbit-gbit", "square-pentagon", "c2-c3"])
def test_ineqs_verdicts_match_vertex_hull(a, b):
    # points on chords between two vertices, pushed 5% in or out from the
    # centroid: the row test and the hull LP over the vertices must agree
    comp = max_tensor(a, b)
    verts = enumerate_vertices(comp)
    hull = lp.Hull(verts)
    centre = verts.mean(axis=0)
    rng = np.random.default_rng(11)
    for _ in range(300):
        i, j = rng.choice(len(verts), 2, replace=False)
        t = rng.uniform()
        chord = t * verts[i] + (1 - t) * verts[j]
        x = centre + rng.uniform(0.95, 1.05) * (chord - centre)
        assert contains_state(comp, x) == (hull.weights(x) is not None)
    assert all(is_pure(comp, v) for v in verts)


def test_nested_max_composite_needs_no_enumeration(monkeypatch):
    def refuse(ineqs, u):
        raise AssertionError("vertex enumeration called")
    monkeypatch.setattr(geometry, "polytope_vertices", refuse)
    g = make_gbit()
    inner = max_tensor(g, g)
    comp = max_tensor(g, inner)
    assert comp.ambient_dim == 27 and comp.ineqs.shape == (64, 27)
    assert comp.factors[0] is g and comp.factors[1] is inner
    centre, corner = np.array([0.0, 0.0, 1.0]), g.vertices[2]
    assert contains_state(comp, product_state(centre, product_state(centre,
                                                                    centre)))
    pure = product_state(corner, product_state(corner, corner))
    assert contains_state(comp, pure) and is_pure(comp, pure)
    assert not is_pure(comp, (pure + product_state(
        g.vertices[0], product_state(corner, corner))) / 2)


def test_non_finite_point_rejected_on_max_composite():
    g = make_gbit()
    x = product_state(g.vertices[0], g.vertices[1])
    x[4] = np.nan
    with pytest.raises(InvalidArgument):
        contains_state(max_tensor(g, g), x)


def test_is_effect_on_nested_max_composite_needs_no_enumeration(monkeypatch):
    def refuse(ineqs, u):
        raise AssertionError("vertex enumeration called")
    monkeypatch.setattr(geometry, "polytope_vertices", refuse)
    g = make_gbit()
    comp = max_tensor(g, max_tensor(g, g))
    assert is_effect(comp, comp.u / 2) and is_effect(comp, comp.u)
    assert not is_effect(comp, 1.5 * comp.u)
    assert not is_effect(comp, -comp.u / 2)
    half = product_state(np.array([0.5, 0.0, 0.5]), product_state(g.u, g.u))
    assert is_effect(comp, half) and not is_effect(comp, 2.5 * half)
    Measurement((Effect(half), Effect(comp.u - half))).validate(comp)


@pytest.mark.parametrize("a, b", [
    (make_gbit(), make_gbit()), (polygon(4), polygon(5))],
    ids=["gbit-gbit", "square-pentagon"])
def test_is_effect_rows_match_vertex_values(a, b):
    # e = u/2 + s r with r random: the cone LPs on the rows and the values
    # on the enumerated vertices give the same verdict outside a 1e-6 band
    comp = max_tensor(a, b)
    verts = enumerate_vertices(comp)
    rng = np.random.default_rng(5)
    verdicts = []
    while min(verdicts.count(True), verdicts.count(False)) < 60:
        r = rng.normal(size=comp.ambient_dim)
        e = comp.u / 2 + rng.uniform(0.2, 1.0) / np.abs(verts @ r).max() * r
        vals = verts @ e
        if min(abs(vals.min()), abs(vals.max() - 1.0)) < 1e-6:
            continue
        valid = vals.min() >= 0.0 and vals.max() <= 1.0
        assert is_effect(comp, e) == valid
        verdicts.append(valid)


# swaps the two gbits of max(gbit, gbit): a symmetry of the composite
SWAP = np.eye(9)[[3 * (k % 3) + k // 3 for k in range(9)]]


@pytest.mark.parametrize("question", [
    lambda comp: distinguish.capacity(comp, n_max=2) == 2,
    lambda comp: distinguish.perfectly_distinguishable(
        comp, [product_state(v, v) for v in make_gbit().vertices[[0, 2]]]),
    lambda comp: check_supermultiplicativity(make_gbit(), make_gbit(), comp),
    # a factor that the subset search covers in full (C(24, 9) subsets of
    # max(gbit, gbit) would stop it at once)
    lambda comp: check_supermultiplicativity(
        max_tensor(make_gbit(), make_classical(2)), make_classical(1)),
    lambda comp: is_reversible_transformation(comp, SWAP),
    lambda comp: min_tensor(make_classical(2), comp)],
    ids=["capacity", "distinguishable", "supermultiplicativity",
         "supermultiplicativity-factor", "reversible", "min-tensor"])
def test_one_enumeration_per_call(monkeypatch, question):
    # an ineqs space keeps the vertices it enumerates: asked again, the
    # same question, and any other, finds no space's vertices twice; the
    # rows of every enumerated space are kept, so no two share an id
    calls = []
    enumerate_rows = geometry.polytope_vertices
    monkeypatch.setattr(geometry, "polytope_vertices",
                        lambda ineqs, u: calls.append(ineqs)
                        or enumerate_rows(ineqs, u))
    comp = max_tensor(make_gbit(), make_gbit())
    written = space_to_json(comp)
    for _ in range(3):
        assert question(comp) is not None
    verts = enumerate_vertices(comp)
    assert len({id(rows) for rows in calls}) == len(calls)
    assert [rows is comp.ineqs for rows in calls].count(True) == 1
    assert comp.vertices is None and space_to_json(comp) == written
    assert enumerate_vertices(comp) is verts and not verts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        verts[0, 0] = 2.0


def test_one_state_on_nested_max_composite_needs_no_enumeration(monkeypatch):
    def refuse(ineqs, u):
        raise AssertionError("vertex enumeration called")
    monkeypatch.setattr(geometry, "polytope_vertices", refuse)
    g = make_gbit()
    comp = max_tensor(g, max_tensor(g, g))
    pure = product_state(g.vertices[2], product_state(g.vertices[2],
                                                      g.vertices[2]))
    witness = distinguish.perfectly_distinguishable(comp, [pure])
    assert witness is not None and witness.delta_error() == 0.0
