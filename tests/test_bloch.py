import numpy as np
import pytest

from gptkit import bloch
from gptkit.errors import InvalidArgument, NotAState, TooFewSamples


def random_bloch_vector(rng):
    r = rng.normal(size=3)
    return r * rng.uniform() ** (1 / 3) / np.linalg.norm(r)


def random_unitary(rng):
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return np.linalg.qr(h)[0]


def test_roundtrip(rng):
    for _ in range(500):
        r = random_bloch_vector(rng)
        back = bloch.density_to_bloch(bloch.bloch_to_density(r))
        assert np.abs(back - r).max() < 1e-12


def test_eigenvalues(rng):
    for _ in range(500):
        r = random_bloch_vector(rng)
        ev = np.linalg.eigvalsh(bloch.bloch_to_density(r))
        want = np.array([(1 - np.linalg.norm(r)) / 2,
                         (1 + np.linalg.norm(r)) / 2])
        assert np.abs(np.sort(ev) - want).max() < 1e-12


def test_input_validation():
    with pytest.raises(NotAState):
        bloch.bloch_to_density(np.array([1.5, 0.0, 0.0]))
    with pytest.raises(NotAState):
        bloch.density_to_bloch(np.diag([1.5, -0.5]))
    with pytest.raises(InvalidArgument):
        bloch.unitary_to_rotation(np.ones((2, 2)))


def test_rotation_is_so3(rng):
    for _ in range(50):
        r = bloch.unitary_to_rotation(random_unitary(rng))
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


def test_rotation_matches_trace_loop(rng):
    for _ in range(50):
        u = random_unitary(rng)
        want = np.array([[0.5 * np.trace(si @ u @ sj @ u.conj().T).real
                          for sj in bloch.PAULI] for si in bloch.PAULI])
        assert np.abs(bloch.unitary_to_rotation(u) - want).max() <= 1e-15


def test_rz_quarter_turn():
    u = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    r = bloch.unitary_to_rotation(u)
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(r - want).max() < 1e-12


def test_homomorphism(rng):
    for _ in range(50):
        u, v = random_unitary(rng), random_unitary(rng)
        ru_rv = bloch.unitary_to_rotation(u) @ bloch.unitary_to_rotation(v)
        ruv = bloch.unitary_to_rotation(u @ v)
        assert np.abs(ruv - ru_rv).max() < 1e-9


def test_intertwining(rng):
    # R(U) r  corresponds to  U rho U^dag
    for _ in range(50):
        u = random_unitary(rng)
        r = random_bloch_vector(rng)
        lhs = bloch.bloch_to_density(bloch.unitary_to_rotation(u) @ r)
        rhs = u @ bloch.bloch_to_density(r) @ u.conj().T
        assert np.abs(lhs - rhs).max() < 1e-9


def test_haar_so3(rng):
    samples = bloch.haar_so3(rng, 200)
    assert samples.shape == (200, 3, 3)
    eye = np.abs(np.swapaxes(samples, 1, 2) @ samples - np.eye(3)).max()
    assert eye < 1e-12
    assert np.abs(np.linalg.det(samples) - 1.0).max() < 1e-12


def test_haar_so3_is_quaternion_formula():
    # the rotation of the unit quaternion (w, x, y, z) from the same draws,
    # one sample at a time
    samples = bloch.haar_so3(np.random.default_rng(5), 500)
    q = np.random.default_rng(5).normal(size=(500, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    for r, (w, x, y, z) in zip(samples, q):
        want = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
        assert np.array_equal(r, want)
    assert bloch.haar_so3(np.random.default_rng(5), 0).shape == (0, 3, 3)


def test_group_average_converges():
    rng = np.random.default_rng(0)
    samples = bloch.haar_so3(rng, 100000)
    avg = bloch.group_average_state(samples, np.array([0.0, 0.0, 1.0]))
    assert np.linalg.norm(avg) < 0.02
    with pytest.raises(TooFewSamples):
        bloch.group_average_state(np.zeros((0, 3, 3)), np.zeros(3))


def test_invariant_inner_product():
    rng = np.random.default_rng(0)
    samples = bloch.haar_so3(rng, 50000)
    g = bloch.invariant_inner_product(samples)
    assert np.abs(g - np.eye(3)).max() < 0.05
    with pytest.raises(TooFewSamples):
        bloch.invariant_inner_product(samples[:5])


def test_strict_convexity():
    for d in (1, 2, 3):
        rep = bloch.check_strict_convexity_ball(d)
        assert rep["strictly_convex"]
    with pytest.raises(InvalidArgument):
        bloch.check_strict_convexity_ball(0)


def test_dimension_laws():
    rep = bloch.check_dimension_law(5)
    assert rep["all_hold"]
    assert rep["classical"][5] == 5
    assert rep["quantum"][5] == 25
    with pytest.raises(InvalidArgument):
        bloch.check_dimension_law(1)
