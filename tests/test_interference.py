import numpy as np
import pytest

from gptkit import interference
from gptkit.errors import (EmptySubset, InvalidArgument, InvalidKraus,
                           ScaleLimit, WrongSlitCount)
from gptkit.interference import (BlockingMap, SlitExperiment,
                                 click_probability, decomposition_residual,
                                 depolarize_then_project, projector_blockers,
                                 rotated_blockers, sorkin, sorkin_i2,
                                 sorkin_i3, sorkin_i3_with_blockers)

from .conftest import random_density, random_effect_operator


def test_experiment_validation():
    with pytest.raises(WrongSlitCount):
        SlitExperiment(m=1, rho=np.eye(1), q=np.eye(1))
    with pytest.raises(InvalidArgument):
        SlitExperiment(m=2, rho=np.eye(2), q=np.eye(2))  # trace 2
    with pytest.raises(InvalidArgument):
        SlitExperiment(m=2, rho=np.eye(2) / 2, q=2 * np.eye(2))


def test_click_probability_basics():
    exp = SlitExperiment(m=2, rho=np.diag([0.7, 0.3]), q=np.eye(2))
    assert abs(click_probability(exp, (1, 2)) - 1.0) < 1e-12
    assert abs(click_probability(exp, (1,)) - 0.7) < 1e-12
    with pytest.raises(EmptySubset):
        click_probability(exp, ())
    with pytest.raises(InvalidArgument):
        click_probability(exp, (3,))


def test_i2_plus_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    exp = SlitExperiment(m=2, rho=plus, q=plus)
    assert abs(sorkin_i2(exp) - 0.5) < 1e-12


def test_i2_vanishes_for_diagonal(rng):
    for _ in range(100):
        p = rng.dirichlet(np.ones(2))
        q = random_effect_operator(rng, 2)
        exp = SlitExperiment(m=2, rho=np.diag(p).astype(complex), q=q)
        assert abs(sorkin_i2(exp)) < 1e-12


def test_i3_vanishes(rng):
    for _ in range(200):
        exp = SlitExperiment(m=3, rho=random_density(rng, 3),
                             q=random_effect_operator(rng, 3))
        assert abs(sorkin_i3(exp)) < 1e-12


def test_i3_affine_in_rho_and_q(rng):
    rho1, rho2 = random_density(rng, 3), random_density(rng, 3)
    q1, q2 = random_effect_operator(rng, 3), random_effect_operator(rng, 3)
    lam = 0.3

    def i3(rho, q):
        return sorkin_i3(SlitExperiment(m=3, rho=rho, q=q))

    mix_rho = lam * rho1 + (1 - lam) * rho2
    assert abs(i3(mix_rho, q1)
               - lam * i3(rho1, q1) - (1 - lam) * i3(rho2, q1)) < 1e-12
    mix_q = lam * q1 + (1 - lam) * q2
    assert abs(i3(rho1, mix_q)
               - lam * i3(rho1, q1) - (1 - lam) * i3(rho1, q2)) < 1e-12


def test_decomposition_residual_zero(rng):
    for _ in range(50):
        assert decomposition_residual(random_density(rng, 3)) < 1e-12


@pytest.mark.parametrize("rho,error", [
    (np.ones(3), InvalidArgument),
    (np.full((3, 3), np.nan), InvalidArgument),
    (np.ones((3, 4)) / 3, InvalidArgument),
    (np.eye(2), InvalidArgument),  # trace 2
    (np.eye(1), WrongSlitCount),
    (np.eye(12) / 12, ScaleLimit),
], ids=["1-D", "NaN", "3x4", "trace 2", "one slit", "12 slits"])
def test_decomposition_residual_validates_rho(rho, error):
    # before these checks the first two returned 0.0 and nan, the 3 x 4 ended
    # in numpy's ValueError and 12 slits ran 2^12 - 1 subsets
    with pytest.raises(error):
        decomposition_residual(rho)


def test_projector_blockers_reproduce_i3(rng):
    rho = random_density(rng, 3)
    q = random_effect_operator(rng, 3)
    val = sorkin_i3_with_blockers(rho, projector_blockers(), q)
    assert abs(val) < 1e-12


def test_rotated_blockers_break_identity():
    v = np.ones(3) / np.sqrt(3)
    rho = np.outer(v, v).astype(complex)
    val = sorkin_i3_with_blockers(rho, rotated_blockers(0.1), rho)
    assert abs(val) > 1e-6


def test_depolarizing_blockers_break_identity():
    v = np.ones(3) / np.sqrt(3)
    rho = np.outer(v, v).astype(complex)
    val = sorkin_i3_with_blockers(rho, depolarize_then_project(0.1), rho)
    assert abs(val) > 1e-6


def test_blocking_map_validation():
    with pytest.raises(InvalidKraus):
        BlockingMap(())
    with pytest.raises(InvalidKraus):
        BlockingMap((np.eye(3) * 2,))
    with pytest.raises(InvalidKraus):
        sorkin_i3_with_blockers(np.eye(3) / 3, {}, np.eye(3))


def random_experiment(rng, m):
    return SlitExperiment(m=m, rho=random_density(rng, m),
                          q=random_effect_operator(rng, m))


def test_slit_count_limit():
    with pytest.raises(ScaleLimit):
        SlitExperiment(m=10, rho=np.eye(10) / 10, q=np.eye(10))
    SlitExperiment(m=9, rho=np.eye(9) / 9, q=np.eye(9))


def test_non_finite_input_rejected():
    rho = np.eye(2) / 2
    with pytest.raises(InvalidArgument, match="finite"):
        SlitExperiment(m=2, rho=rho + np.nan, q=np.eye(2))
    with pytest.raises(InvalidArgument, match="finite"):
        SlitExperiment(m=2, rho=rho, q=np.diag([1.0, np.inf]))
    with pytest.raises(InvalidKraus, match="finite"):
        BlockingMap((np.eye(3), np.full((3, 3), np.nan)))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_higher_orders_vanish_in_quantum_theory(rng, m):
    for _ in range(20):
        assert abs(sorkin(random_experiment(rng, m))) <= 1e-12
        assert decomposition_residual(random_density(rng, m)) <= 1e-12


def test_two_slit_residual_is_the_coherence(rng):
    for _ in range(20):
        rho = random_density(rng, 2)
        assert abs(decomposition_residual(rho) - abs(rho[0, 1])) <= 1e-15


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sorkin_recursion(rng, k):
    # I_{k+1}(A1..A_{k+1}) = I_k(A1..A_{k-1}, A_k u A_{k+1})
    #                        - I_k(A1..A_k) - I_k(A1..A_{k-1}, A_{k+1})
    # for any set function on the subsets of k + 1 slits
    table = {sub: rng.normal() for sub in interference._subsets(k + 1)}

    def on_blocks(blocks):
        def value(sub):
            return table[tuple(sorted(i for b in sub for i in blocks[b - 1]))]
        return interference._inclusion_exclusion(value, len(blocks))

    singles = [(i,) for i in range(1, k + 2)]
    lhs = on_blocks(singles)
    rhs = (on_blocks(singles[:k - 1] + [(k, k + 1)])
           - on_blocks(singles[:k])
           - on_blocks(singles[:k - 1] + [(k + 1,)]))
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_projector_blockers_match_projectors(rng, m):
    exp = random_experiment(rng, m)
    assert abs(sorkin(exp, projector_blockers(m)) - sorkin(exp)) <= 1e-12


def test_i2_and_i3_keep_the_written_out_order(rng):
    for _ in range(200):
        exp = random_experiment(rng, 2)
        p = {s: click_probability(exp, s) for s in [(1,), (2,), (1, 2)]}
        assert sorkin_i2(exp) == p[(1, 2)] - p[(1,)] - p[(2,)]
        exp = random_experiment(rng, 3)
        p = {s: click_probability(exp, s)
             for s in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]}
        assert sorkin_i3(exp) == (p[(1, 2, 3)] - p[(1, 2)] - p[(1, 3)]
                                  - p[(2, 3)] + p[(1,)] + p[(2,)] + p[(3,)])


def test_blockers_must_name_every_subset_once(rng):
    exp = random_experiment(rng, 3)
    blockers = projector_blockers(3)
    with pytest.raises(InvalidKraus):
        sorkin(exp, {s: b for s, b in blockers.items() if s != (1, 3)})
    with pytest.raises(InvalidKraus):
        sorkin(exp, {**blockers, (3, 1): blockers[(1, 3)]})
    with pytest.raises(InvalidKraus):
        sorkin(random_experiment(rng, 2), blockers)


@pytest.mark.parametrize("strength", [-0.1, 0.6])
def test_depolarizing_strength_bounded(strength):
    with pytest.raises(InvalidArgument):
        depolarize_then_project(strength)


def test_depolarizing_strength_at_bound_is_valid():
    v = np.ones(3) / np.sqrt(3)
    rho = np.outer(v, v).astype(complex)
    blockers = depolarize_then_project(9 / 16)
    assert sorted(blockers) == sorted(projector_blockers(3))
    assert abs(sorkin_i3_with_blockers(rho, blockers, rho)) > 1e-6
