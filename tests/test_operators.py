"""The one operator check (``gptkit.operators``) at every entry point that
takes a quantum operator or a size: each defect is refused with the entry
point's own error type, never a numpy error and never a wrong verdict, and
valid inputs give the same answers as before.

Rows whose id starts with "motivation" are the defects that went unnoticed
or raised numpy's errors before the checks were shared: a non-Hermitian or
NaN effect passed ``QubitBellSetup.validate``, 3 x 3 effects and a NaN
state raised numpy errors, a one-input setup passed ``validate`` and
failed later in ``quantum_table``, the Bloch maps returned NaN arrays for
NaN input, ``sampled_block_positive`` called all-NaN coordinates block
positive, and a float or bool size reached numpy.  Rows whose id starts
with "found" raised numpy's errors later: a ragged state or observable in
``bell.observable_setup``, and a slit index that is not an integer in
``interference.click_probability``.
"""

import numpy as np
import pytest

from gptkit import bell, bloch, composites, interference, operators, spaces
from gptkit.errors import (DimensionMismatch, InvalidArgument, InvalidKraus,
                           InvalidSetup, NotAState)

from .survey import answers

HALF = np.eye(2) / 2
PAIR = (HALF, HALF)
NAN = np.full((2, 2), np.nan)
INF = np.diag([1.0, np.inf])
NONHERM = np.array([[0.5, 5.0], [0.0, 0.5]])  # trace 1, eigenvalues 1/2
RAGGED = [[0.5, 0.0], [0.5]]
ANTI = np.array([[0, 1e-3], [-1e-3, 0]])  # added to a state: not Hermitian
Z = operators.PAULI[2]


def _setup(state=np.eye(4) / 4, alice=(PAIR, PAIR), bob=(PAIR, PAIR)):
    return bell.QubitBellSetup(state, alice, bob)


def _validate(**fields):
    return lambda: _setup(**fields).validate()


def _observables(state=np.eye(4) / 4, alice=(Z, Z), bob=(Z, Z)):
    return lambda: bell.observable_setup(state, alice, bob).validate()


def _slit(rho=HALF, q=np.eye(2), m=2):
    return lambda: interference.SlitExperiment(m=m, rho=rho, q=q)


def _quantum(question, coords):
    return lambda: question(spaces.make_quantum(2), coords)


def _coords(m):
    return spaces.mat_to_coords(np.asarray(m, dtype=complex))


def _space(**fields):
    return lambda: spaces.StateSpace(**fields)


ROWS = [
    # QubitBellSetup.validate, and so quantum_table: InvalidSetup
    ("motivation-bell-non-Hermitian POVM",
     _validate(alice=((NONHERM, np.eye(2) - NONHERM), PAIR)), InvalidSetup),
    ("motivation-bell-NaN effect",
     _validate(alice=((NAN, np.eye(2) - NAN), PAIR)), InvalidSetup),
    ("motivation-bell-3x3 effects",
     _validate(alice=((np.eye(3) / 2,) * 2,) * 2, bob=((np.eye(3) / 2,) * 2,) * 2),
     InvalidSetup),
    ("motivation-bell-NaN state", _validate(state=np.full((4, 4), np.nan)),
     InvalidSetup),
    ("motivation-bell-one input", _validate(alice=(PAIR,)), InvalidSetup),
    ("motivation-bell-one input in quantum_table",
     lambda: bell.quantum_table(_setup(alice=(PAIR,))), InvalidSetup),
    ("bell-inf effect", _validate(bob=(PAIR, (INF, np.eye(2) - INF))),
     InvalidSetup),
    ("bell-inf state", _validate(state=np.diag([np.inf, 0, 0, 0])), InvalidSetup),
    ("bell-non-Hermitian state",
     _validate(state=np.eye(4) / 4 + np.kron(ANTI, np.eye(2))), InvalidSetup),
    ("bell-wrong shape state", _validate(state=HALF), InvalidSetup),
    ("bell-ragged state", _validate(state=RAGGED), InvalidSetup),
    ("bell-ragged effects", _validate(alice=((HALF, RAGGED), PAIR)), InvalidSetup),
    ("bell-trace 2 state", _validate(state=np.eye(4) / 2), InvalidSetup),
    ("bell-negative eigenvalue state",
     _validate(state=np.diag([0.6, 0.5, -0.1, 0.0])), InvalidSetup),
    ("bell-negative eigenvalue effect",
     _validate(alice=((np.diag([-0.1, 0.5]), np.diag([1.1, 0.5])), PAIR)),
     InvalidSetup),
    ("bell-eigenvalue above 1 effect",
     _validate(alice=(PAIR, (np.diag([1.1, 0.5]), np.diag([-0.1, 0.5])))),
     InvalidSetup),
    ("bell-pair not summing to 1",
     _validate(bob=(PAIR, (np.eye(2), np.eye(2)))), InvalidSetup),
    # observable_setup: its state and observables reach validate as numbers
    ("found-observable_setup-ragged state",
     _observables(state=RAGGED), InvalidSetup),
    ("found-observable_setup-ragged observable",
     _observables(alice=(RAGGED, Z)), InvalidSetup),
    ("observable_setup-3x3 observable",
     _observables(bob=(Z, np.eye(3))), InvalidSetup),
    ("observable_setup-not numbers", _observables(bob=(Z, "Z")), InvalidSetup),
    # density_to_bloch: NotAState
    ("motivation-density_to_bloch-NaN", lambda: bloch.density_to_bloch(NAN),
     NotAState),
    ("density_to_bloch-inf", lambda: bloch.density_to_bloch(INF), NotAState),
    ("density_to_bloch-non-Hermitian", lambda: bloch.density_to_bloch(NONHERM),
     NotAState),
    ("density_to_bloch-wrong shape",
     lambda: bloch.density_to_bloch(np.eye(3) / 3), NotAState),
    ("density_to_bloch-ragged", lambda: bloch.density_to_bloch(RAGGED), NotAState),
    ("density_to_bloch-trace 2", lambda: bloch.density_to_bloch(np.eye(2)),
     NotAState),
    ("density_to_bloch-negative eigenvalue",
     lambda: bloch.density_to_bloch(np.diag([1.5, -0.5])), NotAState),
    # bloch_to_density: NotAState
    ("motivation-bloch_to_density-NaN",
     lambda: bloch.bloch_to_density([np.nan] * 3), NotAState),
    ("bloch_to_density-inf", lambda: bloch.bloch_to_density([np.inf, 0, 0]),
     NotAState),
    ("bloch_to_density-wrong shape", lambda: bloch.bloch_to_density([0.0, 0.0]),
     NotAState),
    ("bloch_to_density-negative eigenvalue",
     lambda: bloch.bloch_to_density([1.5, 0.0, 0.0]), NotAState),
    # unitary_to_rotation: InvalidArgument
    ("motivation-unitary_to_rotation-NaN",
     lambda: bloch.unitary_to_rotation(NAN), InvalidArgument),
    ("unitary_to_rotation-inf", lambda: bloch.unitary_to_rotation(INF),
     InvalidArgument),
    ("unitary_to_rotation-wrong shape",
     lambda: bloch.unitary_to_rotation(np.eye(3)), InvalidArgument),
    ("unitary_to_rotation-not unitary",
     lambda: bloch.unitary_to_rotation(np.ones((2, 2))), InvalidArgument),
    # SlitExperiment: InvalidArgument for rho, q and a float or bool m
    ("motivation-SlitExperiment-float m", _slit(m=2.0), InvalidArgument),
    ("SlitExperiment-bool m", _slit(m=True), InvalidArgument),
    ("SlitExperiment-NaN rho", _slit(rho=NAN), InvalidArgument),
    ("SlitExperiment-inf rho", _slit(rho=INF), InvalidArgument),
    ("SlitExperiment-non-Hermitian rho", _slit(rho=NONHERM), InvalidArgument),
    ("SlitExperiment-wrong shape rho", _slit(rho=np.eye(3) / 3), InvalidArgument),
    ("SlitExperiment-ragged rho", _slit(rho=RAGGED), InvalidArgument),
    ("SlitExperiment-trace 2 rho", _slit(rho=np.eye(2)), InvalidArgument),
    ("SlitExperiment-negative eigenvalue rho", _slit(rho=np.diag([1.5, -0.5])),
     InvalidArgument),
    ("SlitExperiment-NaN q", _slit(q=NAN), InvalidArgument),
    ("SlitExperiment-inf q", _slit(q=INF), InvalidArgument),
    ("SlitExperiment-non-Hermitian q", _slit(q=NONHERM), InvalidArgument),
    ("SlitExperiment-wrong shape q", _slit(q=np.eye(3)), InvalidArgument),
    ("SlitExperiment-ragged q", _slit(q=RAGGED), InvalidArgument),
    ("SlitExperiment-negative eigenvalue q", _slit(q=np.diag([-0.1, 0.5])),
     InvalidArgument),
    ("SlitExperiment-eigenvalue above 1 q", _slit(q=2 * np.eye(2)),
     InvalidArgument),
    # click_probability: each slit index an integer (operators.integer)
    ("found-click_probability-float slit",
     lambda: interference.click_probability(_slit()(), [1.5]), InvalidArgument),
    ("click_probability-bool slit",
     lambda: interference.click_probability(_slit()(), [True]), InvalidArgument),
    # decomposition_residual: rho checked as SlitExperiment checks it
    ("decomposition_residual-ragged",
     lambda: interference.decomposition_residual(RAGGED), InvalidArgument),
    ("decomposition_residual-NaN",
     lambda: interference.decomposition_residual(NAN), InvalidArgument),
    # BlockingMap: InvalidKraus
    ("BlockingMap-NaN", lambda: interference.BlockingMap((NAN,)), InvalidKraus),
    ("BlockingMap-inf", lambda: interference.BlockingMap((INF,)), InvalidKraus),
    ("BlockingMap-ragged", lambda: interference.BlockingMap((RAGGED,)),
     InvalidKraus),
    ("BlockingMap-not numbers", lambda: interference.BlockingMap((["a"],)),
     InvalidKraus),
    ("BlockingMap-wrong shape",
     lambda: interference.BlockingMap((np.ones((2, 3)),)), InvalidKraus),
    ("BlockingMap-sum K^dag K above 1",
     lambda: interference.BlockingMap((np.eye(2), np.eye(2))), InvalidKraus),
    # quantum spaces: coordinates are Hermitian by construction; a defect of
    # the operator is a "no", of the coordinates an error
    ("contains_state-NaN", _quantum(spaces.contains_state, [np.nan] * 4),
     InvalidArgument),
    ("contains_state-wrong shape", _quantum(spaces.contains_state, [1.0, 0.0]),
     DimensionMismatch),
    ("contains_state-trace 2", _quantum(spaces.contains_state, _coords(np.eye(2))),
     False),
    ("contains_state-negative eigenvalue",
     _quantum(spaces.contains_state, _coords(np.diag([1.5, -0.5]))), False),
    ("is_effect-inf", _quantum(spaces.is_effect, [np.inf, 0, 0, 0]),
     InvalidArgument),
    ("is_effect-wrong shape", _quantum(spaces.is_effect, [1.0] * 5),
     DimensionMismatch),
    ("is_effect-negative eigenvalue",
     _quantum(spaces.is_effect, _coords(np.diag([-0.1, 0.5]))), False),
    ("is_effect-eigenvalue above 1",
     _quantum(spaces.is_effect, _coords(np.diag([1.1, 0.5]))), False),
    # quantum composites in coordinates
    ("motivation-sampled_block_positive-NaN",
     lambda: composites.sampled_block_positive(np.full(16, np.nan), 2, 2),
     InvalidArgument),
    ("sampled_block_positive-inf",
     lambda: composites.sampled_block_positive(np.r_[np.inf, np.zeros(15)], 2, 2),
     InvalidArgument),
    ("quantum_product_reduced-NaN",
     lambda: composites.quantum_product_reduced(np.full(16, np.nan), 2, 2, "A"),
     InvalidArgument),
    ("quantum_product_reduced-float size",
     lambda: composites.quantum_product_reduced(np.zeros(16), 2.0, 2, "A"),
     InvalidArgument),
    # sizes: one integer rule
    ("motivation-make_quantum-float", lambda: spaces.make_quantum(2.0),
     InvalidArgument),
    ("motivation-make_ball-float", lambda: spaces.make_ball(2.0), InvalidArgument),
    ("motivation-make_classical-float", lambda: spaces.make_classical(2.0),
     InvalidArgument),
    ("motivation-make_classical-bool", lambda: spaces.make_classical(True),
     InvalidArgument),
    ("haar_so3-float count",
     lambda: bloch.haar_so3(np.random.default_rng(0), 2.5), InvalidArgument),
    ("haar_mean-float count",
     lambda: bloch.haar_mean(np.random.default_rng(0), 2.5), InvalidArgument),
    ("check_dimension_law-float n_max",
     lambda: bloch.check_dimension_law(2.0), InvalidArgument),
    ("StateSpace-float ambient_dim",
     _space(kind="polytopic", ambient_dim=2.0, u=[1, 1], vertices=np.eye(2)),
     InvalidArgument),
    ("StateSpace-negative hilbert_dim",
     _space(kind="quantum", ambient_dim=4, u=np.zeros(4), hilbert_dim=-2),
     InvalidArgument),
    ("space_from_json-fractional N",
     lambda: spaces.space_from_json('{"kind": "quantum", "N": 2.5}'),
     InvalidArgument),
    ("space_from_json-bool N",
     lambda: spaces.space_from_json('{"kind": "quantum", "N": true}'),
     InvalidArgument),
]


@pytest.mark.parametrize("call, expected", [pytest.param(call, expected, id=name)
                                            for name, call, expected in ROWS])
def test_operator_inputs_refused(call, expected):
    if expected is False:
        assert call() is False
    else:
        with pytest.raises(expected):
            call()


def test_valid_survey_is_answered():
    pairs = answers()
    assert len(pairs) == 745
    for kind, value in pairs:
        if kind.startswith(("contains_state", "is_effect")):
            assert value is kind.endswith("True"), kind
        elif kind == "sampled_block_positive":  # a state is block positive
            assert value is True
        else:
            assert np.isfinite(value).all(), kind


def test_bloch_maps_take_the_same_states():
    # rho = (1 + r.sigma)/2 has eigenvalues (1 -+ |r|)/2, so both maps take
    # |r| up to 1 + 2 FEASTOL, and no further
    for scale, ok in ((1 + 1.5e-9, True), (1 + 3e-9, False)):
        r = scale * np.array([0.6, 0.0, 0.8])
        rho = 0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]],
                              [r[0] + 1j * r[1], 1 - r[2]]])
        if ok:
            assert np.array_equal(bloch.bloch_to_density(r), rho)
            assert np.abs(bloch.density_to_bloch(rho) - r).max() < 1e-15
        else:
            with pytest.raises(NotAState):
                bloch.bloch_to_density(r)
            with pytest.raises(NotAState):
                bloch.density_to_bloch(rho)


def test_bell_setup_takes_one_eigvalsh_per_kind(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: calls.append(np.shape(m)) or eigvalsh(m))
    assert bell.singlet_setup().validate()
    assert calls == [(4, 4), (2, 2, 2, 2, 2)]


def test_one_pauli_array():
    assert bloch.PAULI is operators.PAULI
    assert not operators.PAULI.flags.writeable
    assert not any(hasattr(bell, f"PAULI_{axis}") for axis in "XYZ")
    assert np.array_equal(bell._direction_obs(np.pi / 2),
                          np.sin(np.pi / 2) * operators.PAULI[0]
                          + np.cos(np.pi / 2) * operators.PAULI[2])


def test_exactly_hermitian_input_keeps_its_eigenvalues(rng):
    # the check reads eigenvalues from (M + M^dag) / 2, which is M itself
    # for an exactly Hermitian M
    for n in (2, 3, 5, 8):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = (a + a.conj().T) / 2
        assert np.array_equal((m + m.conj().T) / 2, m)
        ev = np.linalg.eigvalsh(m)
        lo, hi = ev.min(), ev.max()
        e = (m - lo * np.eye(n)) / (hi - lo)  # eigenvalues in [0, 1] up to rounding
        assert operators.effect_defect(e) is None
        assert operators.effect_defect(e * (1 + 1e-6)) == "has an eigenvalue above 1"
