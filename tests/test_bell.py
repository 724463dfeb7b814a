import dataclasses
import itertools

import numpy as np
import pytest

from gptkit import bell, lp
from gptkit.errors import (InvalidArgument, InvalidSetup, InvalidTable,
                           NumericalFailure)

SQRT8 = 2 * np.sqrt(2)


def test_table_validation():
    with pytest.raises(InvalidTable):
        bell.ProbTable222(np.zeros(16))
    with pytest.raises(InvalidTable):
        bell.ProbTable222(np.full(16, -0.25))
    p = np.zeros(16)
    p[[0, 4, 8, 12]] = 1.0
    t = bell.ProbTable222(p)
    assert t.prob(-1, -1, 0, 0) == 1.0


def test_non_finite_table_rejected():
    for bad in (np.nan, np.inf):
        p = np.full(16, 0.25)
        p[5] = bad
        with pytest.raises(InvalidTable):
            bell.ProbTable222(p)
    with pytest.raises(InvalidTable):
        bell.ProbTable222(np.full(16, np.nan))


def test_deterministic_tables():
    dets = bell.deterministic_tables()
    assert len(dets) == 16
    for t in dets:
        assert bell.is_nonsignalling(t)
        assert abs(bell.chsh(t)) <= 2.0 + 1e-12
        assert bell.classical_membership(t) is not None
    # the index encodes (f(0), f(1), g(0), g(1))
    t = dets[0b1010]  # f = (+1, -1), g = (+1, -1)
    assert t.prob(1, 1, 0, 0) == 1.0
    assert t.prob(-1, -1, 1, 1) == 1.0


def test_chsh_and_expectation():
    dets = bell.deterministic_tables()
    t = dets[0b1111]  # all outputs +1
    for x in (0, 1):
        for y in (0, 1):
            assert bell.expectation(t, x, y) == 1.0
    assert bell.chsh(t) == 2.0


def test_pr_box():
    t = bell.pr_box()
    assert bell.is_nonsignalling(t)
    assert bell.chsh(t) == 4.0
    assert bell.classical_membership(t) is None
    for alpha in (0, 1):
        for beta in (0, 1):
            for gamma in (0, 1):
                v = bell.pr_box(alpha, beta, gamma)
                assert bell.is_nonsignalling(v)
                assert bell.lifted_chsh_max(v) == 4.0
                assert bell.classify_ns_vertex(v) == "pr"


def test_mixtures_stay_classical(rng):
    for _ in range(50):
        w = rng.dirichlet(np.ones(16))
        t = bell.mix_deterministic(w)
        assert abs(bell.chsh(t)) <= 2.0 + 1e-9
        model = bell.classical_membership(t)
        assert model is not None
        assert np.abs(model.table().p - t.p).max() < 1e-7


def _entrywise(f):
    """The flat table with entry 8x + 4y + 2a' + b' = f(x, y, a, b)."""
    return np.array([f(x, y, a, b) for x in (0, 1) for y in (0, 1)
                     for a in (-1, 1) for b in (-1, 1)], dtype=float)


def test_tables_match_entrywise_definitions(rng):
    # the array computations against their definitions, one entry at a time
    for k, t in enumerate(bell.deterministic_tables()):
        f = (2 * (k >> 3 & 1) - 1, 2 * (k >> 2 & 1) - 1)
        g = (2 * (k >> 1 & 1) - 1, 2 * (k & 1) - 1)
        assert np.array_equal(t.p, _entrywise(
            lambda x, y, a, b: a == f[x] and b == g[y]))
    for al, be, ga in np.ndindex(2, 2, 2):
        assert np.array_equal(bell.pr_box(al, be, ga).p, _entrywise(
            lambda x, y, a, b: 0.5 * (a * b == (-1) ** (x * y ^ al * x ^ be * y ^ ga))))
    for _ in range(20):
        t = bell.mix_deterministic(rng.dirichlet(np.ones(16)))
        for x in (0, 1):
            for y in (0, 1):
                e = sum(a * b * t.prob(a, b, x, y) for a in (-1, 1) for b in (-1, 1))
                assert abs(bell.expectation(t, x, y) - e) <= 1e-12
    from .conftest import random_density
    obs = []
    for _ in range(4):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        obs.append(bell._sign_observable(h + h.conj().T))
    setup = bell.observable_setup(random_density(rng, 4), obs[:2], obs[2:])
    want = _entrywise(lambda x, y, a, b: np.trace(setup.state @ np.kron(
        setup.alice_effects[x][(a + 1) // 2],
        setup.bob_effects[y][(b + 1) // 2])).real)
    assert np.abs(bell.quantum_table(setup).p - np.clip(want, 0.0, None)).max() <= 1e-12


def _reference_functionals(p):
    """(E[x][y], CHSH, lifted CHSH max, largest marginal difference) of a
    flat table, summed entry by entry from the definitions."""
    def entry(a, b, x, y):
        return p[8 * x + 4 * y + (a + 1) + (b + 1) // 2]

    e = [[sum(a * b * entry(a, b, x, y) for a in (-1, 1) for b in (-1, 1))
          for y in (0, 1)] for x in (0, 1)]
    patterns = [s for s in itertools.product((-1, 1), repeat=4)
                if s.count(-1) % 2]
    lifted = max(s[0] * e[0][0] + s[1] * e[0][1] + s[2] * e[1][0] + s[3] * e[1][1]
                 for s in patterns)
    alice = [abs(sum(entry(a, b, x, 0) for b in (-1, 1))
                 - sum(entry(a, b, x, 1) for b in (-1, 1)))
             for x in (0, 1) for a in (-1, 1)]
    bob = [abs(sum(entry(a, b, 0, y) for a in (-1, 1))
               - sum(entry(a, b, 1, y) for a in (-1, 1)))
           for y in (0, 1) for b in (-1, 1)]
    return e, e[0][0] + e[0][1] + e[1][0] - e[1][1], lifted, max(alice + bob)


def _evaluated(t):
    e = [[bell.expectation(t, x, y) for y in (0, 1)] for x in (0, 1)]
    return e, bell.chsh(t), bell.lifted_chsh_max(t)


def _separate_functionals():
    """One 16 x k matrix per functional, as tables were evaluated before
    they shared one product: row sums, correlators, CHSH, its 8 lifts and
    the no-signalling marginal differences."""
    x, y, a, b = (v.ravel() for v in np.indices((2, 2, 2, 2)))
    eye = np.eye(4)
    rowsum = eye[2 * x + y]
    corr = rowsum * (1 - 2 * (a ^ b))[:, None]
    odd = np.array([s for s in np.ndindex(2, 2, 2, 2) if sum(s) % 2])
    ns = np.hstack([eye[2 * x + a] * (1 - 2 * y)[:, None],
                    eye[2 * y + b] * (1 - 2 * x)[:, None]])
    return (rowsum, corr, corr @ np.array([1.0, 1.0, 1.0, -1.0]),
            corr @ (1 - 2 * odd.T), ns)


ROWSUM, CORR, CHSH, LIFT, NS = _separate_functionals()


def test_functionals_match_reference(rng):
    tables = []
    for _ in range(1500):
        tables.append(bell.mix_deterministic(rng.dirichlet(np.ones(16))))
        # one distribution per input pair: signalling in general
        tables.append(bell.ProbTable222(np.concatenate(
            [rng.dirichlet(np.ones(4)) for _ in range(4)])))
    # no-signalling tables pushed off by a marginal shift just above or
    # below the tolerance: on Alice's side (flip a') or on Bob's (flip b')
    for shift in (0.5 * lp.FEASTOL, 2 * lp.FEASTOL):
        for k, flip in itertools.product(range(16), (2, 1)):
            p = bell.mix_deterministic(rng.dirichlet(np.ones(16))).p.copy()
            lo, hi = sorted((k, k ^ flip))
            move = min(shift, p[lo])
            p[lo] -= move
            p[hi] += move
            tables.append(bell.ProbTable222(p))
    verdicts = set()
    for t in tables:
        e, value, lifted, ns_error = _reference_functionals(t.p)
        got_e, got_value, got_lifted = _evaluated(t)
        assert np.abs(np.array(got_e) - e).max() <= 1e-14
        assert abs(got_value - value) <= 1e-14
        assert abs(got_lifted - lifted) <= 1e-14
        assert bell.is_nonsignalling(t) == (ns_error <= lp.FEASTOL)
        verdicts.add(bell.is_nonsignalling(t))
        # and against one product per functional
        assert np.abs(np.array(got_e).ravel() - t.p @ CORR).max() <= 1e-14
        assert abs(got_value - t.p @ CHSH) <= 1e-14
        assert abs(got_lifted - (t.p @ LIFT).max()) <= 1e-14
        assert bell.is_nonsignalling(t) == (not (np.abs(t.p @ NS) > lp.FEASTOL).any())
        assert type(got_value) is type(got_lifted) is float
        assert type(bell.is_nonsignalling(t)) is bool
    assert verdicts == {True, False}


def test_functionals_exact_on_vertices():
    vertices = list(bell.deterministic_tables())
    vertices += [bell.pr_box(*v) for v in np.ndindex(2, 2, 2)]
    for t in vertices:
        e, value, lifted, ns_error = _reference_functionals(t.p)
        assert _evaluated(t) == (e, value, lifted)
        assert ns_error == 0.0 and bell.is_nonsignalling(t)
    assert {bell.chsh(t) for t in vertices[16:]} == {4.0, -4.0, 0.0}
    assert {bell.lifted_chsh_max(t) for t in vertices} == {2.0, 4.0}


def test_table_rejection_messages():
    with pytest.raises(InvalidTable, match="need 16 entries"):
        bell.ProbTable222(np.full(15, 0.25))
    p = np.full(16, 0.25)
    p[3] = np.nan
    with pytest.raises(InvalidTable, match="table has a non-finite entry"):
        bell.ProbTable222(p)
    p = np.full(16, 0.25)
    p[[6, 7]] = (-0.25, 0.75)
    with pytest.raises(InvalidTable, match="negative probability"):
        bell.ProbTable222(p)
    for x, y in np.ndindex(2, 2):
        p = np.full(16, 0.25)
        p[8 * x + 4 * y + 1] += 0.5
        with pytest.raises(InvalidTable,
                           match=rf"inputs \({x},{y}\) sum to 1\.5$"):
            bell.ProbTable222(p)


def _ordered_checks(p):
    """The table checks one at a time, in order, as a reference: the
    message of the first that fails, or None for a valid table."""
    p = np.asarray(p, dtype=float)
    if p.shape != (16,):
        return "need 16 entries"
    if not np.isfinite(p).all():
        return "table has a non-finite entry"
    if p.min() < -1e-12:
        return "negative probability"
    sums = p @ ROWSUM
    off = np.abs(sums - 1.0) > lp.FEASTOL
    if off.any():
        k = off.argmax()
        return f"probabilities for inputs ({k // 2},{k % 2}) sum to {sums[k]}"
    return None


def _edge_tables(rng):
    """Tables at each edge of the checks, the other rows drawn at random."""
    def table(pos=None, row=None, values=()):
        p = np.concatenate([rng.dirichlet(np.ones(4)) for _ in range(4)])
        if row is not None:
            p[4 * row:4 * row + 4] = values
        if pos is not None:
            p[pos] = values
        return p

    def around(v):
        return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]

    tol = lp.FEASTOL
    yield np.zeros(0)
    yield np.full(15, 0.25)
    for pos in range(16):
        for bad in (np.inf, -np.inf, np.nan):
            yield table(pos, values=bad)
        row, col = divmod(pos, 4)
        for v in around(-1e-12):
            # the row's mass moved so the sum stays 1
            yield table(row=row, values=np.roll([v, 1.0 - v, 0.0, 0.0], col))
        for top in (1.0 + 2 * tol, 1.0 + 2 * tol - 1e-15, 1.0 + 2 * tol + 1e-15):
            for v in around(top):
                yield table(row=row, values=np.roll([v, 1.0 - v, 0.0, 0.0], col))
                yield table(row=row, values=np.roll([v, 0.0, 0.0, 0.0], col))
    for row in range(4):
        for edge in (1.0 - tol, 1.0 + tol):
            for eps in (0.0, 1e-15, -1e-15, 1e-13, -1e-13):
                for s in around(edge + eps):
                    yield table(row=row, values=(s, 0.0, 0.0, 0.0))
                    yield table(row=row, values=np.full(4, s / 4))
                    yield table(row=row, values=(s - 0.75, 0.25, 0.25, 0.25))


def _acceptance_mismatches(rng):
    """Tables on which ProbTable222 and _ordered_checks disagree, with
    both answers; also the number of tables tried and of those accepted."""
    mismatches, tried, accepted = [], 0, 0
    for p in _edge_tables(rng):
        want = _ordered_checks(p)
        try:
            bell.ProbTable222(p)
            got = None
        except InvalidTable as exc:
            got = str(exc)
        if got != want:
            mismatches.append((p, got, want))
        tried += 1
        accepted += want is None
    return mismatches, tried, accepted


def test_acceptance_matches_ordered_checks(rng):
    mismatches, tried, accepted = _acceptance_mismatches(rng)
    assert mismatches == []
    assert 0 < accepted < tried


def test_acceptance_test_catches_a_zeroed_row_sum(rng, monkeypatch):
    broken = bell._ALL.copy()
    broken[:, 0] = 0.0
    monkeypatch.setattr(bell, "_ALL", broken)
    assert _acceptance_mismatches(rng)[0]


def test_table_is_a_read_only_copy():
    q = np.full(16, 0.25)
    t = bell.ProbTable222(q)
    assert not t.p.flags.writeable
    with pytest.raises(ValueError):
        t.p[0] = 1.0
    assert q.flags.writeable and not np.shares_memory(q, t.p)
    q[:4] = (1.0, 0.0, 0.0, 0.0)  # the caller's array changes, the table not
    assert bell.chsh(t) == 0.0 and t.prob(-1, -1, 0, 0) == 0.25


def test_replace_revalidates():
    t = bell.pr_box()
    u = dataclasses.replace(t, p=bell.pr_box(0, 0, 1).p)
    assert (bell.chsh(t), bell.chsh(u)) == (4.0, -4.0)
    assert bell.lifted_chsh_max(u) == 4.0 and bell.is_nonsignalling(u)
    with pytest.raises(InvalidTable, match="negative probability"):
        dataclasses.replace(t, p=np.full(16, -0.25))


def test_signalling_table_detected():
    p = np.zeros(16)
    v = p.reshape(2, 2, 2, 2)  # [x, y, a', b'] with v' = (v + 1) / 2
    # Alice's marginal depends on y
    v[0, 0, 1, 1] = 1.0
    v[0, 1, 0, 1] = 1.0
    v[1, 0, 1, 1] = 1.0
    v[1, 1, 1, 1] = 1.0
    assert not bell.is_nonsignalling(bell.ProbTable222(p))


def test_singlet_reaches_tsirelson():
    setup = bell.singlet_setup()
    t = bell.quantum_table(setup)
    assert bell.is_nonsignalling(t)
    assert abs(bell.chsh(t) - SQRT8) < 1e-12
    assert bell.classical_membership(t) is None


def test_quantum_table_is_valid_and_ns(rng):
    from .conftest import random_density
    rho = random_density(rng, 4)
    obs = []
    for _ in range(4):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        obs.append(bell._sign_observable(h + h.conj().T))
    setup = bell.observable_setup(rho, obs[:2], obs[2:])
    t = bell.quantum_table(setup)
    assert bell.is_nonsignalling(t)
    assert abs(bell.chsh(t)) <= SQRT8 + 1e-9


def test_setup_validation():
    bad = bell.QubitBellSetup(
        state=np.eye(4) / 4,
        alice_effects=((np.eye(2), np.eye(2)),) * 2,
        bob_effects=((np.eye(2) / 2, np.eye(2) / 2),) * 2)
    with pytest.raises(InvalidSetup):
        bad.validate()


def test_seesaw_converges():
    # 6, 7 and 13 used to start at +-1 observables and stop at CHSH = 2
    for seed in (0, 1, 2, 6, 7, 13):
        val, setup, trace = bell.maximize_chsh_quantum(
            seed=seed, iterations=50, return_trace=True)
        assert abs(val - SQRT8) < 1e-6
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        norm = np.abs(np.linalg.eigvalsh(bell.chsh_operator(setup))).max()
        assert norm <= SQRT8 + 1e-9
    with pytest.raises(InvalidSetup):
        bell.maximize_chsh_quantum(iterations=0)


def _seesaw_by_partial_traces(seed, iterations):
    """The see-saw with 4 x 4 Kronecker products and explicit partial
    traces of rho = |Phi+><Phi+|, as a reference for the closed form."""
    rng = np.random.default_rng(seed)
    ket = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(ket, ket.conj())

    def rand_obs():
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = h + h.conj().T
        return bell._sign_observable(h - np.trace(h).real / 2 * np.eye(2))

    def herm(m):
        return (m + m.conj().T) / 2

    def partial_a(bop):  # Tr_B[rho (1 (x) bop)]
        m = (rho @ np.kron(np.eye(2), bop)).reshape(2, 2, 2, 2)
        return herm(np.trace(m, axis1=1, axis2=3))

    def partial_b(aop):  # Tr_A[rho (aop (x) 1)]
        m = (rho @ np.kron(aop, np.eye(2))).reshape(2, 2, 2, 2)
        return herm(np.trace(m, axis1=0, axis2=2))

    def value():
        op = (np.kron(alice[0], bob[0]) + np.kron(alice[0], bob[1])
              + np.kron(alice[1], bob[0]) - np.kron(alice[1], bob[1]))
        return np.trace(rho @ op).real

    alice = [rand_obs(), rand_obs()]
    bob = [rand_obs(), rand_obs()]
    trace = [value()]
    for _ in range(iterations):
        alice = [bell._sign_observable(partial_a(bob[0] + bob[1])),
                 bell._sign_observable(partial_a(bob[0] - bob[1]))]
        bob = [bell._sign_observable(partial_b(alice[0] + alice[1])),
               bell._sign_observable(partial_b(alice[0] - alice[1]))]
        trace.append(value())
    return alice, bob, trace


@pytest.mark.parametrize("seeds, iterations", [(range(21), 50),
                                                (range(5), 1), (range(5), 51)])
def test_seesaw_matches_partial_traces(seeds, iterations):
    # odd counts too: a sweep that skips the transpose on one side gives
    # the same values but transposed observables after an odd count
    ket = np.array([1, 0, 0, 1]) / np.sqrt(2)
    for seed in seeds:
        alice, bob, want = _seesaw_by_partial_traces(seed, iterations)
        val, setup, trace = bell.maximize_chsh_quantum(
            seed=seed, iterations=iterations, return_trace=True)
        assert np.abs(np.array(trace) - want).max() <= 1e-12
        assert abs(val - max(want)) <= 1e-12
        for pairs, obs in ((setup.alice_effects, alice),
                           (setup.bob_effects, bob)):
            for (em, ep), o in zip(pairs, obs):
                assert np.abs(ep - em - o).max() <= 1e-12
        assert np.array_equal(setup.state, np.outer(ket, ket))


def test_seesaw_trace_length():
    for iterations in (1, 2, 17):
        _, _, trace = bell.maximize_chsh_quantum(
            seed=3, iterations=iterations, return_trace=True)
        assert len(trace) == iterations + 1


def test_sign_observable_on_stacks(rng):
    h = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
    h = h + h.conj().swapaxes(-1, -2)
    h[3] = 0.0
    stacked = bell._sign_observable(h)
    assert stacked.shape == h.shape
    assert np.array_equal(stacked,
                          np.array([bell._sign_observable(m) for m in h]))
    # eigenvalue 0 counts as +1, so the zero matrix maps to +I
    assert np.array_equal(stacked[3], np.eye(2))
    assert np.array_equal(bell._sign_observable(np.zeros((2, 2))), np.eye(2))


def test_chsh_operator_norm_bound(rng):
    # the operator norm never exceeds 2 sqrt 2 for any observables
    for _ in range(20):
        obs = []
        for _ in range(4):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            obs.append(bell._sign_observable(h + h.conj().T))
        setup = bell.observable_setup(np.eye(4) / 4, obs[:2], obs[2:])
        norm = np.abs(np.linalg.eigvalsh(bell.chsh_operator(setup))).max()
        assert norm <= SQRT8 + 1e-9


def test_table_from_composite_product_state():
    from gptkit.composites import max_tensor, product_state
    from gptkit.spaces import make_gbit
    g = make_gbit()
    comp = max_tensor(g, g)
    st = product_state(g.vertices[2], g.vertices[2])  # (1,1,1) both sides
    t = bell.table_from_composite_state(st, comp)
    assert bell.classify_ns_vertex(t) == "deterministic"
    # vertex (1,1,1): both effects fire with certainty, outcome +1
    assert t.prob(1, 1, 0, 0) == 1.0
    assert t.prob(1, 1, 1, 1) == 1.0


def test_json_roundtrip():
    t = bell.pr_box(1, 0, 1)
    t2 = bell.table_from_json(bell.table_to_json(t))
    assert np.abs(t.p - t2.p).max() == 0.0


def test_classical_model_is_checked(monkeypatch):
    # weights that do not reproduce the table are an error, not a model,
    # whether the LP gave them or the least-norm guess did.  A deterministic
    # table's least-norm weights reach -0.1875, so its LP is posed.
    table = bell.deterministic_tables()[5]
    wrong = lp.LpResult(status="optimal", x=np.eye(16)[0])
    with monkeypatch.context() as m:
        m.setattr(bell.lp, "solve", lambda prob: wrong)
        with pytest.raises(NumericalFailure):
            bell.classical_membership(table)
    # least-norm weights e_0 for every table, with their own check off
    pinv = np.zeros((16, 17))
    pinv[0, -1] = 1.0
    monkeypatch.setattr(bell._local_hull(), "_pinv", pinv)
    monkeypatch.setattr(bell.lp, "_violation", lambda *rows, **tol: None)
    with pytest.raises(NumericalFailure):
        bell.classical_membership(bell.mix_deterministic(np.ones(16)))


@pytest.mark.parametrize("call", [
    lambda t: t.prob(0, 1, 0, 0), lambda t: t.prob(1, 2, 0, 0),
    lambda t: t.prob(1, 1, -1, 0), lambda t: t.prob(1, 1, 0, 2),
    lambda t: bell.expectation(t, -1, 0), lambda t: bell.expectation(t, 0, 2)],
    ids=["outcome-0", "outcome-2", "input-minus-1", "input-2",
         "correlator-input-minus-1", "correlator-input-2"])
def test_labels_checked(call):
    # outcomes are -1/+1 and inputs 0/1; anything else used to index silently
    with pytest.raises(InvalidArgument):
        call(bell.pr_box())
