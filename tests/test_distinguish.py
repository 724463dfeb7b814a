import numpy as np
import pytest

from gptkit import distinguish, lp
from gptkit.distinguish import capacity, perfectly_distinguishable
from gptkit.errors import NotAState, NumericalFailure
from gptkit.spaces import (make_ball, make_classical, make_gbit, make_quantum,
                           mat_to_coords)


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


def test_witness_is_valid_measurement():
    g = make_gbit()
    wit = perfectly_distinguishable(g, g.vertices[[0, 2]])
    wit.measurement.validate(g)


def test_polytopic_witness_is_checked(monkeypatch):
    # zero effects from the solver miss e_i(omega_j) = delta_ij by 1
    wrong = lp.LpResult(status="optimal", x=np.zeros(6))
    monkeypatch.setattr(distinguish.lp, "solve", lambda prob: wrong)
    with pytest.raises(NumericalFailure):
        perfectly_distinguishable(make_gbit(), make_gbit().vertices[:2])
