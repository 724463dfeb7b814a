import json
from dataclasses import fields, replace

import numpy as np
import pytest

from gptkit import bell, geometry, spaces
from gptkit.composites import enumerate_vertices, max_tensor, min_tensor
from gptkit.errors import (DimensionMismatch, InvalidArgument, NotAState,
                           ScaleLimit, SingularMap)
from gptkit.spaces import (Effect, LinearMap, Measurement, are_equivalent,
                           contains_state, coords_to_mat, hermitian_basis,
                           is_effect, is_pure, is_reversible_transformation,
                           is_transformation, make_ball, make_classical,
                           make_gbit, make_polytopic, make_quantum,
                           mat_to_coords, space_from_json, space_to_json)

from .conftest import random_density


def test_mat_to_coords_reads_basis_transposed():
    # conj(B_k) is B_k transposed entry for entry, so the coordinates equal
    # those from a conjugated copy of the basis bit for bit, signed zeros
    # included, on Hermitian and general matrices alike
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        basis = hermitian_basis(n)
        for k in range(40):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = [m, m + m.conj().T, np.diag(m.real.diagonal())][k % 3]
            old = np.einsum("kij,ij->k", basis.conj(), m).real
            assert mat_to_coords(m).tobytes() == old.tobytes()


def test_vertices_are_a_read_only_copy():
    # a space keeps its own rows, so its cached hull cannot go stale when
    # the caller's array changes
    verts = make_gbit().vertices.copy()
    ineqs = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
    space = make_polytopic(verts, [0.0, 0.0, 1.0])
    x = np.array([0.9, 0.0, 1.0])
    assert contains_state(space, x)
    verts *= 0.5
    assert contains_state(space, x) and is_pure(space, 2 * verts[0])
    cut = replace(space, vertices=None, ineqs=ineqs)
    ineqs[0] = -1.0
    assert contains_state(cut, x)
    for rows in (space.vertices, cut.ineqs):
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0


def test_hermitian_basis_orthonormal():
    for n in (2, 3):
        basis = hermitian_basis(n)
        assert len(basis) == n * n
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                ip = np.trace(a.conj().T @ b).real
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


def test_coords_roundtrip(rng):
    for n in (2, 3):
        rho = random_density(rng, n)
        back = coords_to_mat(mat_to_coords(rho))
        assert np.abs(back - rho).max() < 1e-12


def test_classical_states():
    c3 = make_classical(3)
    assert contains_state(c3, np.array([0.2, 0.3, 0.5]))
    assert not contains_state(c3, np.array([0.5, 0.6, -0.1]))
    assert is_pure(c3, np.eye(3)[0])
    assert not is_pure(c3, np.full(3, 1 / 3))


def test_quantum_states(rng):
    q2 = make_quantum(2)
    rho = random_density(rng, 2)
    assert contains_state(q2, mat_to_coords(rho))
    assert not contains_state(q2, mat_to_coords(np.diag([1.2, -0.2])))
    psi = np.array([1, 1]) / np.sqrt(2)
    assert is_pure(q2, mat_to_coords(np.outer(psi, psi)))
    assert not is_pure(q2, mat_to_coords(np.eye(2) / 2))


def test_ball_states():
    b3 = make_ball(3)
    assert contains_state(b3, np.array([1.0, 0.3, 0.0, 0.0]))
    assert not contains_state(b3, np.array([1.0, 1.1, 0.0, 0.0]))
    assert is_pure(b3, np.array([1.0, 0.0, 0.0, 1.0]))
    assert not is_pure(b3, np.array([1.0, 0.0, 0.0, 0.0]))


def test_gbit_membership_and_purity():
    g = make_gbit()
    for v in g.vertices:
        assert contains_state(g, v)
        assert is_pure(g, v)
    center = np.array([0.0, 0.0, 1.0])
    assert contains_state(g, center)
    assert not is_pure(g, center)
    assert not contains_state(g, np.array([1.5, 0.0, 1.0]))
    with pytest.raises(NotAState):
        is_pure(g, np.array([2.0, 2.0, 1.0]))


def test_effects():
    g = make_gbit()
    assert is_effect(g, Effect(np.array([0.5, 0.0, 0.5])))
    assert not is_effect(g, Effect(np.array([1.0, 0.0, 0.5])))
    q2 = make_quantum(2)
    assert is_effect(q2, Effect(mat_to_coords(np.diag([1.0, 0.0]))))
    assert not is_effect(q2, Effect(mat_to_coords(np.diag([1.5, 0.0]))))
    b2 = make_ball(2)
    assert is_effect(b2, Effect(np.array([0.5, 0.5, 0.0])))
    assert not is_effect(b2, Effect(np.array([0.5, 0.9, 0.0])))


def test_measurement_validate():
    g = make_gbit()
    e = Effect(np.array([0.5, 0.0, 0.5]))
    ebar = Effect(g.u - e.coeffs)
    assert Measurement((e, ebar)).validate(g)
    bad = Measurement((e, e))
    with pytest.raises(Exception):
        bad.validate(g)


def test_measurement_effect_length_checked():
    with pytest.raises(DimensionMismatch):
        Measurement((Effect([1.0, 0.0]),)).validate(make_gbit())


def test_transformations_polytopic():
    g = make_gbit()
    # rotation by 90 degrees permutes the square's vertices
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert is_transformation(g, rot)
    assert is_reversible_transformation(g, rot)
    # shrink toward the center: valid but not reversible
    half = np.diag([0.5, 0.5, 1.0])
    assert is_transformation(g, half)
    assert not is_reversible_transformation(g, half)
    # pushing outside the square
    assert not is_transformation(g, np.diag([2.0, 1.0, 1.0]))


def test_transformations_ball():
    b3 = make_ball(3)
    m = np.eye(4)
    m[1:, 1:] = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    assert is_reversible_transformation(b3, m)
    m2 = np.diag([1.0, 0.5, 0.5, 0.5])
    assert is_transformation(b3, m2)
    assert not is_reversible_transformation(b3, m2)
    assert not is_transformation(b3, np.diag([1.0, 2.0, 1.0, 1.0]))


def test_transformations_quantum(rng):
    q2 = make_quantum(2)
    u = np.linalg.qr(rng.normal(size=(2, 2))
                     + 1j * rng.normal(size=(2, 2)))[0]
    basis = hermitian_basis(2)
    m = np.array([[np.trace(a.conj().T @ u @ b @ u.conj().T).real
                   for b in basis] for a in basis])
    assert is_transformation(q2, m, n_samples=50)
    assert is_reversible_transformation(q2, m, n_samples=50)
    assert not is_transformation(q2, 2 * m, n_samples=50)


def test_equivalence():
    c2 = make_classical(2)
    seg = make_polytopic([[0.0, 1.0], [2.0, 1.0]], [0.0, 1.0])
    l = np.array([[2.0, 0.0], [1.0, 1.0]])  # maps e1,e2 -> the segment ends
    # classical bit vertices (1,0),(0,1) -> (2,1),(0,1)
    assert are_equivalent(c2, seg, l)
    assert not are_equivalent(c2, seg, np.eye(2))
    with pytest.raises(SingularMap):
        are_equivalent(c2, seg, np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        are_equivalent(make_classical(2), make_gbit(), np.eye(3))


def test_gbit_not_equivalent_to_classical():
    # both 3-dimensional, but a square is not a triangle
    c3 = make_classical(3)
    g = make_gbit()
    l = np.array([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [-0.5, -0.5, 0.0]]).T
    if LinearMap(l).is_invertible():
        assert not are_equivalent(c3, g, l)


def test_json_roundtrip():
    for s in (make_classical(3), make_quantum(2), make_gbit(), make_ball(4)):
        s2 = space_from_json(space_to_json(s))
        assert s2.kind == s.kind
        assert np.abs(s2.u - s.u).max() == 0.0
        if s.vertices is not None:
            assert np.abs(s2.vertices - s.vertices).max() == 0.0


def assert_same_space(got, want):
    """Every field equal, arrays bitwise, factors field by field."""
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "factors" and b is not None:
            assert type(a) is tuple and len(a) == len(b)
            for fa, fb in zip(a, b):
                assert_same_space(fa, fb)
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


def _max_gg_with_vertices():
    comp = max_tensor(make_gbit(), make_gbit())
    return replace(comp, vertices=enumerate_vertices(comp))


@pytest.mark.parametrize("build", [
    lambda: make_classical(3), make_gbit, lambda: make_quantum(2),
    lambda: make_ball(3), lambda: min_tensor(make_gbit(), make_gbit()),
    lambda: max_tensor(make_gbit(), make_gbit()), _max_gg_with_vertices,
    lambda: max_tensor(make_gbit(), max_tensor(
        make_gbit(), max_tensor(make_gbit(), make_gbit())))],
    ids=["c3", "gbit", "q2", "ball3", "min-gg", "max-gg", "max-gg-vertices",
         "max-g-g-g-g"])
def test_json_roundtrip_keeps_every_field(monkeypatch, build):
    space = build()  # the vertices above are found before the patch

    def refuse(ineqs, u):
        raise AssertionError("vertex enumeration called")
    monkeypatch.setattr(geometry, "polytope_vertices", refuse)
    text = space_to_json(space)
    back = space_from_json(text)
    assert_same_space(back, space)
    assert space_to_json(back) == text


def test_json_of_nested_max_composite_lists_rows_only():
    g = make_gbit()
    doc = json.loads(space_to_json(max_tensor(g, max_tensor(g, g))))
    assert list(doc) == ["kind", "factors", "u", "ineqs"]
    assert doc["kind"] == "max" and len(doc["ineqs"]) == 64
    assert [f["kind"] for f in doc["factors"]] == ["polytopic", "max"]
    assert list(doc["factors"][0]) == ["kind", "u", "vertices"]


def test_json_unknown_kind_rejected():
    with pytest.raises(InvalidArgument):
        space_from_json('{"kind": "simplex", "u": [1.0]}')


def _nested_min_with_rows():
    g = make_gbit()
    doc = json.loads(space_to_json(max_tensor(g, max_tensor(g, g))))
    doc["factors"][1]["kind"] = "min"  # but it lists ineqs
    return doc


@pytest.mark.parametrize("doc", [
    {"kind": "quantum", "u": [5.0], "N": 2},
    {"kind": "ball", "u": [0, 1], "d": 3},
    {"kind": "max", "u": [0.0, 0.0, 1.0], "vertices": make_gbit().vertices.tolist()},
    {"kind": "quantum", "N": 2, "factors": [{"kind": "quantum", "N": 2}] * 2},
    _nested_min_with_rows()],
    ids=["quantum-u", "ball-u", "max-without-factors", "quantum-with-factors",
         "nested-min-with-rows"])
def test_json_contradicting_itself_rejected(doc):
    with pytest.raises(InvalidArgument):
        space_from_json(json.dumps(doc))


def test_enumerate_vertices_leaves_space_unchanged():
    comp = max_tensor(make_gbit(), make_gbit())
    before = space_to_json(comp)
    assert enumerate_vertices(comp).shape == (24, 9)
    assert comp.vertices is None and space_to_json(comp) == before


@pytest.mark.parametrize("factors", [
    (make_gbit(),), (make_gbit(), make_gbit(), make_gbit()),
    (make_gbit(), make_quantum(2)), ("gbit", "gbit"),
    (make_gbit(), make_classical(2)), (make_gbit(), make_classical(3))],
    ids=["one", "three", "quantum", "not-spaces", "dims", "units"])
def test_factors_validated(factors):
    # max(gbit, gbit) has ambient dimension 9 and u = (0, 0, 1) (x) (0, 0, 1):
    # gbit (x) c2 has dimension 6, and c3's unit (1, 1, 1) gives another u
    comp = max_tensor(make_gbit(), make_gbit())
    with pytest.raises(InvalidArgument):
        replace(comp, factors=factors)


def test_is_pure_with_a_repeated_vertex():
    # a vertex listed twice is still extremal: every copy is set aside
    # before the hull LP, which would otherwise find the other copy
    g = make_gbit()
    dup = make_polytopic(np.vstack([g.vertices, g.vertices[:1]]), g.u)
    assert all(is_pure(dup, v) for v in dup.vertices)
    assert not is_pure(dup, dup.vertices[:2].mean(axis=0))
    comp = min_tensor(dup, dup)
    assert comp.vertices.shape == (25, 9)
    assert all(is_pure(comp, v) for v in comp.vertices)
    assert not is_pure(comp, comp.vertices[:2].mean(axis=0))


def test_vertex_normalization_checked():
    with pytest.raises(Exception):
        make_polytopic([[1.0, 2.0]], [0.0, 1.0])


def test_empty_vertex_list_rejected():
    with pytest.raises(InvalidArgument, match="need at least one vertex"):
        make_polytopic(np.zeros((0, 3)), [0.0, 0.0, 1.0])


def test_vertices_checked_against_ineqs():
    # the square's four facets; (1, 1, 1) is a vertex, (2, 0, 1) is not a state
    square = np.array([[1.0, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]])
    fields = dict(kind="polytopic", ambient_dim=3, u=[0.0, 0.0, 1.0],
                  ineqs=square)
    assert spaces.StateSpace(vertices=make_gbit().vertices, **fields)
    with pytest.raises(InvalidArgument, match="violating an inequality"):
        spaces.StateSpace(vertices=[[1.0, 1, 1], [2, 0, 1]], **fields)


def test_non_finite_space_rejected():
    verts = make_gbit().vertices.copy()
    verts[2, 0] = np.nan
    with pytest.raises(InvalidArgument):
        make_polytopic(verts, [0.0, 0.0, 1.0])
    with pytest.raises(InvalidArgument):
        make_polytopic(make_gbit().vertices, [0.0, np.inf, 1.0])


@pytest.mark.parametrize("space", [make_gbit(), make_quantum(2), make_ball(3)],
                         ids=["polytopic", "quantum", "ball"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rejected(space, bad):
    x = space.u / (space.u @ space.u)  # a normalized point
    x[-1] = bad
    with pytest.raises(InvalidArgument, match="state has a non-finite"):
        contains_state(space, x)
    with pytest.raises(InvalidArgument, match="state has a non-finite"):
        is_pure(space, x)
    with pytest.raises(InvalidArgument, match="effect has a non-finite"):
        is_effect(space, Effect(x))


@pytest.mark.parametrize("space", [make_gbit(), make_quantum(2), make_ball(3)],
                         ids=["polytopic", "quantum", "ball"])
def test_non_finite_map_rejected(space):
    m = np.eye(space.ambient_dim)
    m[1, 1] = np.nan
    with pytest.raises(InvalidArgument, match="transformation has a non-finite"):
        is_transformation(space, m)
    with pytest.raises(InvalidArgument, match="map has a non-finite"):
        is_reversible_transformation(space, m)
    with pytest.raises(InvalidArgument, match="map has a non-finite"):
        are_equivalent(space, space, m)


@pytest.mark.parametrize("fields, error", [
    (dict(kind="polytopic", ambient_dim=3, u=[0, 0, 1]), InvalidArgument),
    (dict(kind="quantum", ambient_dim=4, u=[1, 0, 0, 1], hilbert_dim=2,
          vertices=[[1, 0, 0, 0]]), InvalidArgument),
    (dict(kind="simplex", ambient_dim=2, u=[1, 1]), InvalidArgument),
    (dict(kind="ball", ambient_dim=5, u=[1, 0, 0, 0], ball_dim=3),
     DimensionMismatch),
    (dict(kind="ball", ambient_dim=5, u=[1, 0, 0, 0, 0], ball_dim=3),
     DimensionMismatch),
    (dict(kind="quantum", ambient_dim=4, u=[1, 0, 0, 1]), DimensionMismatch),
    (dict(kind="polytopic", ambient_dim=2, u=[1, 1], vertices=[[1, 0, 0]]),
     DimensionMismatch),
    (dict(kind="polytopic", ambient_dim=3, u=[0, 0, 1], vertices=[[0, 0, 1]],
          hilbert_dim=3), InvalidArgument),
    (dict(kind="quantum", ambient_dim=4, u=[1, 1, 0, 0], hilbert_dim=2,
          ball_dim=3), InvalidArgument),
    (dict(kind="ball", ambient_dim=3, u=[1, 0, 0], ball_dim=2,
          ineqs=[[1, 0, 0]]), InvalidArgument),
    # u_A (x) u_B is the trace here, so only the kind refuses the factors
    (dict(kind="quantum", ambient_dim=4, u=[1, 1, 0, 0], hilbert_dim=2,
          factors=(make_polytopic([[1, 0], [1, 1]], [1, 0]), make_classical(2))),
     InvalidArgument),
    (dict(kind="ball", ambient_dim=3, u=[0.5, 0, 0], ball_dim=2),
     InvalidArgument),
    (dict(kind="ball", ambient_dim=3, u=[1, 0, 1e-12], ball_dim=2),
     InvalidArgument),
    (dict(kind="quantum", ambient_dim=4, u=[1, 0, 0, 1], hilbert_dim=2),
     InvalidArgument),
    (dict(kind="quantum", ambient_dim=4, u=[2, 2, 0, 0], hilbert_dim=2),
     InvalidArgument),
], ids=["polytopic-no-vertices", "quantum-with-vertices", "unknown-kind",
        "short-u", "ball-dim", "no-hilbert-dim", "vertex-length",
        "polytopic-with-hilbert-dim", "quantum-with-ball-dim",
        "ball-with-ineqs", "quantum-with-factors", "ball-half-u",
        "ball-tilted-u", "quantum-u-not-trace", "quantum-twice-trace"])
def test_inconsistent_space_rejected(fields, error):
    with pytest.raises(error):
        spaces.StateSpace(**fields)


ROT90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("extra", [[[-1.0, -1.0, 1.0]], [[0.0, 1.0, 1.0]]],
                         ids=["repeated-vertex", "edge-midpoint"])
def test_reversibility_ignores_listed_points(extra):
    # the listed points still span the square, so its symmetries stay
    space = make_polytopic(np.vstack([make_gbit().vertices, extra]),
                           [0.0, 0.0, 1.0])
    assert is_reversible_transformation(space, ROT90)
    assert not is_reversible_transformation(space, np.diag([0.5, 0.5, 1.0]))


def _ball_map(d, block, shift=0.0):
    m = np.eye(d + 1)
    m[1:, 1:] = block
    m[1:, 0] = shift
    return m


def _unitary_channel(seed):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    basis = hermitian_basis(2)
    return np.array([[np.trace(a.conj().T @ u @ b @ u.conj().T).real
                      for b in basis] for a in basis])


MAP_CASES = [
    (make_gbit(), ROT90, True),
    (make_gbit(), np.diag([1.0, -1.0, 1.0]), True),
    (make_gbit(), np.diag([0.5, 0.5, 1.0]), False),
    (make_gbit(), np.diag([0.5, 2.0, 1.0]), False),
    (make_ball(3), _ball_map(3, ROT90), True),
    (make_ball(3), _ball_map(3, 0.5 * ROT90), False),
    (make_ball(3), _ball_map(3, np.diag([1.0, 1.0, 1.0001])), False),
    (make_ball(3), _ball_map(3, ROT90, [0.3, 0.0, 0.0]), False),
    (make_ball(3), _ball_map(3, 0.5 * ROT90, [0.3, 0.0, 0.0]), False),
    (make_ball(3), np.diag([0.5, 1.0, 1.0, 1.0]), False),
    (make_quantum(2), _unitary_channel(0), True),
    (make_quantum(2), _unitary_channel(1), True),
    (make_quantum(2), 0.5 * _unitary_channel(2), False),
]


@pytest.mark.parametrize("space, m, expected", MAP_CASES, ids=[
    "gbit-rot90", "gbit-flip", "gbit-shrink", "gbit-stretch", "ball-rot",
    "ball-shrink", "ball-stretch", "ball-rot-shift", "ball-shrink-shift",
    "ball-unnormalized",
    "qubit-unitary0", "qubit-unitary1", "qubit-half-unitary"])
def test_reversible_is_self_equivalence(space, m, expected):
    assert is_reversible_transformation(space, m, n_samples=50) == expected
    assert are_equivalent(space, space, m, n_samples=50) == expected


def test_self_equivalence_draws_once(monkeypatch):
    # both directions test the images of one seeded draw, bitwise the one
    # each direction drew for itself before
    draw = spaces._sampled_pure_states
    draws, images = [], []
    monkeypatch.setattr(spaces, "_sampled_pure_states",
                        lambda *args: draws.append(draw(*args)) or draws[-1])
    monkeypatch.setattr(spaces, "contains_state",
                        lambda space, x: images.append(x) or True)
    q3 = make_quantum(3)
    assert is_reversible_transformation(q3, np.eye(9), n_samples=20, seed=3)
    assert len(draws) == 1 and len(images) == 40
    assert (np.array(images[:20]) == draw(q3, 20, 3)).all()
    assert (np.array(images[20:]) == draw(q3, 20, 3)).all()
    # two spaces: each direction draws from its own
    assert are_equivalent(q3, make_quantum(3), np.eye(9), n_samples=20, seed=3)
    assert len(draws) == 3
    # a map that breaks normalization is refused before any draw
    assert not is_reversible_transformation(q3, 2 * np.eye(9))
    assert len(draws) == 3


def test_translated_ball_not_equivalent():
    # a map of a ball onto a ball fixes its centre; no sample is needed
    m = _ball_map(3, ROT90, [0.3, 0.0, 0.0])
    for seed in range(10):
        assert not are_equivalent(make_ball(3), make_ball(3), m,
                                  n_samples=1, seed=seed)
    assert not is_reversible_transformation(make_ball(3), m, n_samples=1)


def test_ball_map_keeps_normalization():
    # no translation and operator norm 1, but u(T omega) = 1/2
    assert not is_transformation(make_ball(3), np.diag([0.5, 1.0, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_effect_rejected(bad):
    with pytest.raises(InvalidArgument, match="non-finite coefficient"):
        Effect([0.5, bad, 0.5])
    # a bare coefficient array is still checked by is_effect itself
    with pytest.raises(InvalidArgument, match="effect has a non-finite"):
        is_effect(make_gbit(), np.array([0.5, bad, 0.5]))


def test_translated_ball_map_exact():
    # (1, 0, 0, 1) goes to Bloch length 0.5 + 0.5001: a small cap leaves
    # the ball, which sampled pure states used to miss
    b3 = make_ball(3)
    shift = [0.0, 0.0, 0.5]
    assert not is_transformation(
        b3, _ball_map(3, np.diag([0.5, 0.5, 0.5001]), shift))
    assert is_transformation(b3, _ball_map(3, 0.5 * np.eye(3), shift))
    assert is_transformation(b3, _ball_map(3, 0.5 * ROT90, [0.3, 0.0, 0.0]))
    assert not is_transformation(b3, _ball_map(3, ROT90, [0.3, 0.0, 0.0]))


def test_translated_ball_map_closed_form(rng):
    # max over |r| <= 1 of |t + s r| is |t| + |s|; margins reach down to 1e-6
    for _ in range(300):
        d = int(rng.integers(1, 6))
        s = rng.uniform(-0.99, 0.99)
        margin = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-6, -1)
        f = 1.0 - abs(s) + margin  # |t|; a negative f would flip t
        if f < 1e-3:
            continue
        t = rng.normal(size=d)
        t *= f / np.linalg.norm(t)
        m = np.eye(d + 1)
        m[1:, 1:] *= s
        m[1:, 0] = t
        assert is_transformation(make_ball(d), m) == (margin < 0)


def test_equality_is_identity_and_objects_hash():
    g = spaces.make_gbit()
    assert g == g and g != spaces.make_gbit()
    assert len({g, g, spaces.make_gbit(), spaces.make_quantum(2)}) == 3
    pr = bell.pr_box()
    assert pr == pr and pr != bell.pr_box()
    assert len({pr, bell.pr_box()}) == 2
    e = Effect(g.u)
    m = Measurement((e,))
    t = LinearMap(np.eye(3))
    assert len({e, m, t}) == 3 and e == e and m != Measurement((e,))


def test_quantum_scale_limit_allocates_nothing_large():
    # just above the limit every path that would build the N^4 basis
    # refuses first; the basis alone would take 16 N^4 bytes.  make_quantum
    # refuses before its np.eye(N), whose 8e18 bytes at N = 10^9 no address
    # space holds.
    import tracemalloc

    n = spaces.MAX_HILBERT_DIM + 1
    calls = (lambda: make_quantum(n), lambda: make_quantum(10 ** 9),
             lambda: hermitian_basis(n),
             lambda: coords_to_mat(np.zeros(n * n)),
             lambda: mat_to_coords(np.eye(n)),
             lambda: space_from_json(json.dumps({"kind": "quantum", "N": n})))
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ScaleLimit, match="above"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6 < 16 * n ** 4
