import itertools

import numpy as np
import pytest

from gptkit import distinguish, lp
from gptkit.distinguish import (_largest_distinguishable, capacity,
                                perfectly_distinguishable)
from gptkit.errors import (DimensionMismatch, InvalidArgument, NotAState,
                           NumericalFailure, ScaleLimit)
from gptkit.spaces import (contains_state, make_ball, make_classical, make_gbit,
                           make_polytopic, make_quantum, mat_to_coords)

from .conftest import polygon


def test_classical_basis_distinguishable():
    c3 = make_classical(3)
    wit = perfectly_distinguishable(c3, np.eye(3))
    assert wit is not None
    assert wit.delta_error() < 1e-9
    assert capacity(c3) == 3


def test_classical_overlapping_not_distinguishable():
    c2 = make_classical(2)
    states = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert perfectly_distinguishable(c2, states) is None


def test_gbit_pairs_and_triples():
    g = make_gbit()
    v = g.vertices
    # every pair of distinct vertices is perfectly distinguishable
    for i in range(4):
        for j in range(i + 1, 4):
            wit = perfectly_distinguishable(g, v[[i, j]])
            assert wit is not None, (i, j)
            assert wit.delta_error() < 1e-7
    # but no triple is
    for i in range(4):
        idx = [k for k in range(4) if k != i]
        assert perfectly_distinguishable(g, v[idx]) is None
    assert capacity(g) == 2


def test_quantum_orthogonal_and_not():
    q2 = make_quantum(2)
    s0 = mat_to_coords(np.diag([1.0, 0.0]))
    s1 = mat_to_coords(np.diag([0.0, 1.0]))
    plus = mat_to_coords(np.full((2, 2), 0.5))
    wit = perfectly_distinguishable(q2, np.array([s0, s1]))
    assert wit is not None
    assert wit.delta_error() < 1e-9
    assert perfectly_distinguishable(q2, np.array([s0, plus])) is None
    assert capacity(q2) == 2
    assert capacity(make_quantum(4)) == 4


def test_ball_antipodal():
    b3 = make_ball(3)
    up = np.array([1.0, 0.0, 0.0, 1.0])
    down = np.array([1.0, 0.0, 0.0, -1.0])
    side = np.array([1.0, 1.0, 0.0, 0.0])
    wit = perfectly_distinguishable(b3, np.array([up, down]))
    assert wit is not None
    assert wit.delta_error() < 1e-9
    assert perfectly_distinguishable(b3, np.array([up, side])) is None
    assert perfectly_distinguishable(b3, np.array([up, down, side])) is None


def test_invalid_state_rejected():
    g = make_gbit()
    with pytest.raises(NotAState):
        perfectly_distinguishable(g, np.array([[2.0, 2.0, 1.0]]))


_GBIT = make_gbit().vertices


@pytest.mark.parametrize("states, error, match", [
    (np.zeros((2, 2)), DimensionMismatch, r"got \(2,\)"),
    (_GBIT[0], DimensionMismatch, r"got \(\)"),
    (_GBIT[None, :2], DimensionMismatch, r"got \(2, 3\)"),
    (np.vstack([_GBIT[0], [np.nan, 0.0, 1.0]]), InvalidArgument, "non-finite"),
    (np.vstack([[np.inf, 0.0, 1.0], _GBIT[1]]), InvalidArgument, "non-finite"),
    ([[2.0, 2.0, 1.0], [np.nan, 0.0, 1.0]], NotAState, "valid states"),
], ids=["short rows", "one vector", "3-d", "nan after a vertex", "inf",
        "outside before nan"])
def test_bad_states_rejected(states, error, match):
    # listed vertices are marked in one comparison; every other input still
    # meets contains_state's checks, first bad one first
    for call in (perfectly_distinguishable, capacity):
        with pytest.raises(error, match=match):
            call(make_gbit(), states)


@pytest.mark.parametrize("space", [make_gbit(), make_ball(3), make_quantum(2)],
                         ids=["polytopic", "ball", "quantum"])
def test_no_states_rejected(space):
    with pytest.raises(InvalidArgument, match="need at least one state"):
        perfectly_distinguishable(space, [])
    # an empty candidate list still has capacity 0
    assert capacity(space, candidates=[]) == 0


def test_witness_is_valid_measurement():
    g = make_gbit()
    wit = perfectly_distinguishable(g, g.vertices[[0, 2]])
    wit.measurement.validate(g)


def test_polytopic_witness_is_checked(monkeypatch):
    # a null-space coordinate of 1e12 from the solver rounds c0 + N t far
    # off e_i(omega_j) = delta_ij (on the pentagon: the gbit's integer
    # vertices would cancel it exactly)
    monkeypatch.setattr(distinguish.lp, "solve", lambda prob: lp.LpResult(
        status="optimal", x=np.eye(prob.n_vars)[0] * 1e12))
    with pytest.raises(NumericalFailure):
        perfectly_distinguishable(polygon(5), polygon(5).vertices[[0, 2]])


def test_witness_lp_is_over_the_null_space(monkeypatch):
    # n states in dimension K leave (K - n) free coordinates per effect
    # e_1 .. e_{n-1}, each split in two columns; the equalities are solved
    # before the LP, so it has none
    rng = np.random.default_rng(3)
    k = 6
    space = make_polytopic(np.hstack([rng.uniform(-1, 1, (12, k - 1)),
                                      np.ones((12, 1))]), np.eye(k)[-1])
    solves = count_calls(monkeypatch, lp, "solve")
    for n in range(2, k):
        perfectly_distinguishable(space, space.vertices[:n])
        prob = solves[-1][0]
        assert prob.a_eq is None and prob.b_eq is None
        assert prob.n_vars == 2 * (n - 1) * (k - n) == prob.a_ub.shape[1]
    assert len(solves) == k - 2


def no_lp(prob):
    raise AssertionError("an LP was posed")


# the gbit's diagonal v0-v2 and its centre, then with the centre moved off
# the diagonal by less than RANK_TOL
DIAGONAL = np.vstack([make_gbit().vertices[[0, 2]],
                      make_gbit().vertices[[0, 2]].mean(axis=0)])
NEAR_DIAGONAL = DIAGONAL + [[0, 0, 0], [0, 0, 0], [1e-12, 0, 0]]


@pytest.mark.parametrize("states", [
    make_gbit().vertices, make_gbit().vertices[[0, 2, 0]], DIAGONAL,
    NEAR_DIAGONAL], ids=["n > K", "repeated", "centre", "below RANK_TOL"])
def test_dependent_states_pose_no_lp(monkeypatch, states):
    # a^T S = 0 with a != 0 contradicts e_i(omega_j) = delta_ij; the states
    # are checked first, since the centre's check is an LP of its own
    g = make_gbit()
    assert all(contains_state(g, s) for s in states)
    monkeypatch.setattr(lp, "solve", no_lp)
    assert distinguish._witness(g, states, len(states)) is None


def test_full_rank_subsets_pose_no_lp(monkeypatch):
    # n = K fixes every effect: the classical basis and the triangle's
    # vertices are distinguishable, none of the hexagon's triples is
    monkeypatch.setattr(lp, "solve", no_lp)
    wit = perfectly_distinguishable(make_classical(5), np.eye(5))
    assert wit.delta_error() <= 1e-15
    wit = perfectly_distinguishable(polygon(3), polygon(3).vertices)
    assert wit.delta_error() <= 1e-12
    wit.measurement.validate(polygon(3))
    hexagon = polygon(6)
    for idx in itertools.combinations(range(6), 3):
        assert perfectly_distinguishable(hexagon, hexagon.vertices[list(idx)]) is None


def test_single_state_needs_no_lp(monkeypatch):
    # one state is told apart by the unit effect alone; a listed vertex also
    # passes its state check without an LP
    monkeypatch.setattr(lp, "solve", no_lp)
    space = polygon(5)
    wit = perfectly_distinguishable(space, space.vertices[[2]])
    assert len(wit.measurement.effects) == 1
    assert np.array_equal(wit.measurement.effects[0].coeffs, space.u)
    assert wit.delta_error() <= 1e-12


def gbit_with_collinear_mixtures():
    """The gbit's vertices, then three mixtures on the diagonal v0-v2.
    The first mixture, the centre, lies on the diagonal v1-v3 as well."""
    v = make_gbit().vertices
    mixtures = [w * v[0] + (1 - w) * v[2] for w in (0.5, 0.75, 0.25)]
    return np.vstack([v, mixtures])


def brute_force(space, candidates, n_max=8):
    """Every subset from the largest size down, each through the public
    perfectly_distinguishable with its own state checks."""
    for n in range(min(n_max, len(candidates)), 0, -1):
        for idx in itertools.combinations(range(len(candidates)), n):
            wit = perfectly_distinguishable(space, candidates[list(idx)])
            if wit is not None:
                return wit
    return None


SEARCH_CASES = ([(f"{n}-gon", polygon(n), None) for n in range(3, 9)]
                + [(f"classical {n}", make_classical(n), None)
                   for n in range(2, 9)]
                + [("gbit", make_gbit(), None),
                   ("gbit+collinear", make_gbit(), gbit_with_collinear_mixtures())])


@pytest.mark.parametrize("label,space,candidates", SEARCH_CASES,
                         ids=[c[0] for c in SEARCH_CASES])
def test_search_matches_brute_force(label, space, candidates):
    if candidates is None:
        candidates = space.vertices
    ref = brute_force(space, candidates)
    wit = _largest_distinguishable(space, candidates, 8)
    assert wit.states.tobytes() == ref.states.tobytes()
    assert ([e.coeffs.tobytes() for e in wit.measurement.effects]
            == [e.coeffs.tobytes() for e in ref.measurement.effects])
    assert capacity(space, candidates) == len(ref.states)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_lp_counts(monkeypatch):
    # exact counts: checking each subset's states again, searching a size
    # above the candidates' rank, or posing an LP for n = K, changes them
    solves = count_calls(monkeypatch, lp, "solve")
    g = make_gbit()
    assert contains_state(g, g.vertices[1])
    assert len(solves) == 0
    assert capacity(polygon(6)) == 2
    assert len(solves) == 2  # the 20 triples need none; pairs (0, 1), (0, 2)
    solves.clear()
    assert capacity(make_classical(8)) == 8
    assert len(solves) == 0
    solves.clear()
    checks = count_calls(monkeypatch, distinguish, "contains_state")
    assert capacity(g, gbit_with_collinear_mixtures()) == 2
    # each candidate once, but for the 4 listed vertices, which are marked
    # as states in one comparison
    assert len(checks) == 3


def test_rank_bound_uses_rank_tol(monkeypatch):
    # numpy's default tolerance finds rank 3 in NEAR_DIAGONAL; RANK_TOL
    # finds 2, the rank at which the witness still takes subsets, so size 3
    # is never searched
    assert np.linalg.matrix_rank(NEAR_DIAGONAL) == 3
    calls = count_calls(monkeypatch, distinguish, "_witness")
    assert capacity(make_gbit(), NEAR_DIAGONAL) == 2
    assert [n for _, _, n in calls] == [2]
    # moved off by more than RANK_TOL, the triple is searched and refused
    calls.clear()
    assert capacity(make_gbit(), DIAGONAL + [[0, 0, 0], [0, 0, 0], [1e-6, 0, 0]]) == 2
    assert [n for _, _, n in calls] == [3, 2]


def test_invalid_candidate_rejected_up_front(monkeypatch):
    g = make_gbit()
    # the pair (v0, v2) would be found before the bad point is reached
    candidates = np.vstack([g.vertices[[0, 2]], [[2.0, 2.0, 1.0]]])
    monkeypatch.setattr(distinguish, "_witness", None)  # must not be reached
    with pytest.raises(NotAState):
        capacity(g, candidates, n_max=2)


def test_scale_limit_only_on_searched_sizes():
    # 32 candidates of rank 2: the C(32, 8) > MAX_SUBSETS subsets of size
    # 8 are never enumerated, and the first pair is distinguishable
    w = np.linspace(0.02, 0.98, 30)
    candidates = np.vstack([np.eye(2), np.stack([w, 1 - w], 1)])
    assert capacity(make_classical(2), candidates) == 2
    # with rank 8, size 8 is searched and C(38, 8) is too many
    c8 = make_classical(8)
    mixtures = np.random.default_rng(0).dirichlet(np.ones(8), size=30)
    with pytest.raises(ScaleLimit):
        capacity(c8, np.vstack([c8.vertices, mixtures]))


def _reference_witness_rows(n, w):
    """The witness's a_ub as it was built from blocks: diag(w, ..., w) over
    n - 1 effects stacked on the row of -w, then each free column c split
    into c+ (a_j) and c- (-a_j)."""
    rows, cols = w.shape
    block = (np.eye(n - 1)[:, None, :, None] * w[:, None]).reshape(
        (n - 1) * rows, (n - 1) * cols)
    a = np.vstack([block, np.tile(-w, n - 1)])
    return np.stack([a, -a], axis=2).reshape(a.shape[0], -1)


def test_witness_rows_match_block_construction(monkeypatch):
    # bit for bit, signed zeros included, on seeded polytopes and subsets
    posed = []
    monkeypatch.setattr(lp, "solve", lambda prob: posed.append(prob) or
                        lp.LpResult(status="infeasible"))
    rng = np.random.default_rng(8)
    for k in (3, 4, 5, 6):
        space = make_polytopic(np.hstack([rng.uniform(-1, 1, (2 * k + 2, k - 1)),
                                          np.ones((2 * k + 2, 1))]), np.eye(k)[-1])
        for n in range(2, k):
            states = space.vertices[rng.choice(len(space.vertices), n, replace=False)]
            assert distinguish._witness(space, states, n) is None
            null = np.linalg.svd(states)[2][n:]
            want = _reference_witness_rows(n, space.vertices @ null.T)
            got = posed[-1].a_ub
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(posed) == 1 + 2 + 3 + 4
