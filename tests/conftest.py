import numpy as np
import pytest

from gptkit.spaces import make_polytopic


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_effect_operator(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (a + a.conj().T) / 2
    ev, vec = np.linalg.eigh(h)
    ev = (ev - ev.min()) / (ev.max() - ev.min() + 1e-12)
    return (vec * ev) @ vec.conj().T


def polygon(n, turn=0.0):
    """The regular n-gon state space, turned by ``turn`` radians."""
    t = 2 * np.pi * np.arange(n) / n + turn
    return make_polytopic(np.stack([np.cos(t), np.sin(t), np.ones(n)], 1),
                          np.array([0.0, 0.0, 1.0]))
