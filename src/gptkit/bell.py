"""The (2,2,2) Bell scenario: probability tables, CHSH, PR boxes,
hidden-variable decompositions, quantum tables, and see-saw maximization
of the quantum CHSH value.

Outcomes are labelled -1/+1; tables are flattened lexicographically in
(x, y, a, b) with -1 before +1, i.e. index = 8x + 4y + 2a' + b' with
v' = (v+1)/2.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lp
from .errors import InvalidSetup, InvalidTable, NotAState, NumericalFailure

TOL = 1e-9
MODEL_TOL = 1e-7

OUTCOMES = (-1, +1)


def _idx(x, y, a, b):
    return 8 * x + 4 * y + 2 * ((a + 1) // 2) + (b + 1) // 2


@dataclass(frozen=True)
class ProbTable222:
    p: np.ndarray  # 16 entries in canonical order

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (16,):
            raise InvalidTable("need 16 entries")
        if p.min() < -1e-12:
            raise InvalidTable("negative probability")
        for x in (0, 1):
            for y in (0, 1):
                s = sum(p[_idx(x, y, a, b)] for a in OUTCOMES for b in OUTCOMES)
                if abs(s - 1.0) > TOL:
                    raise InvalidTable(f"probabilities for inputs ({x},{y}) sum to {s}")
        object.__setattr__(self, "p", p)

    def prob(self, a, b, x, y):
        return float(self.p[_idx(x, y, a, b)])


@dataclass(frozen=True)
class HiddenVariableModel:
    weights: np.ndarray  # over the 16 deterministic tables

    def table(self):
        dets = deterministic_tables()
        return ProbTable222(sum(w * d.p for w, d in zip(self.weights, dets)))


@lru_cache(maxsize=1)
def deterministic_tables():
    """The 16 tables p(a,b|x,y) = delta(a, f(x)) delta(b, g(y)).

    Enumeration order: index = 8 f(0)' + 4 f(1)' + 2 g(0)' + g(1)'.
    """
    out = [None] * 16
    for f0p in (0, 1):
        for f1p in (0, 1):
            for g0p in (0, 1):
                for g1p in (0, 1):
                    f = {0: OUTCOMES[f0p], 1: OUTCOMES[f1p]}
                    g = {0: OUTCOMES[g0p], 1: OUTCOMES[g1p]}
                    p = np.zeros(16)
                    for x in (0, 1):
                        for y in (0, 1):
                            p[_idx(x, y, f[x], g[y])] = 1.0
                    out[8 * f0p + 4 * f1p + 2 * g0p + g1p] = ProbTable222(p)
    return tuple(out)


def is_nonsignalling(table):
    """Marginals independent of the remote input, within tolerance."""
    p = table.p
    for x in (0, 1):
        for a in OUTCOMES:
            m0 = sum(p[_idx(x, 0, a, b)] for b in OUTCOMES)
            m1 = sum(p[_idx(x, 1, a, b)] for b in OUTCOMES)
            if abs(m0 - m1) > TOL:
                return False
    for y in (0, 1):
        for b in OUTCOMES:
            m0 = sum(p[_idx(0, y, a, b)] for a in OUTCOMES)
            m1 = sum(p[_idx(1, y, a, b)] for a in OUTCOMES)
            if abs(m0 - m1) > TOL:
                return False
    return True


def expectation(table, x, y):
    """Correlator E_{x,y} = <a b> for the given input pair."""
    p = table.p
    return float(p[_idx(x, y, 1, 1)] + p[_idx(x, y, -1, -1)]
                 - p[_idx(x, y, 1, -1)] - p[_idx(x, y, -1, 1)])


def chsh(table):
    """E_00 + E_01 + E_10 - E_11."""
    return (expectation(table, 0, 0) + expectation(table, 0, 1)
            + expectation(table, 1, 0) - expectation(table, 1, 1))


def lifted_chsh_max(table):
    """Max over the 8 CHSH symmetries (sign patterns with odd parity)."""
    e = np.array([[expectation(table, x, y) for y in (0, 1)] for x in (0, 1)])
    best = -np.inf
    for signs in ([1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1],
                  [-1, -1, -1, 1], [-1, -1, 1, -1], [-1, 1, -1, -1],
                  [1, -1, -1, -1]):
        s = np.array(signs).reshape(2, 2)
        best = max(best, float((s * e).sum()))
    return best


def classify_ns_vertex(table, tol=1e-8):
    """'deterministic', 'pr', or 'other' for an NS-polytope vertex table."""
    for t in deterministic_tables():
        if np.abs(t.p - table.p).max() <= tol:
            return "deterministic"
    for alpha in (0, 1):
        for beta in (0, 1):
            for gamma in (0, 1):
                if np.abs(pr_box(alpha, beta, gamma).p - table.p).max() <= tol:
                    return "pr"
    return "other"


def classical_membership(table):
    """Hidden-variable decomposition over the 16 deterministic tables, or None."""
    dets = deterministic_tables()
    d = np.array([t.p for t in dets]).T  # 16 x 16
    prob = lp.LpProblem(
        n_vars=16,
        a_eq=np.vstack([d, np.ones(16)]),
        b_eq=np.concatenate([table.p, [1.0]]),
        bounds=[(0.0, None)] * 16,
    )
    res = lp.solve(prob)
    if res.status != "optimal":
        return None
    model = HiddenVariableModel(weights=res.x)
    if not np.abs(model.table().p - table.p).max() <= MODEL_TOL:
        raise NumericalFailure("hidden-variable model misses the table")
    return model


def mix_deterministic(weights):
    """Classical table from a weight vector over the deterministic strategies."""
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    dets = deterministic_tables()
    return ProbTable222(sum(w * t.p for w, t in zip(weights, dets)))


def pr_box(alpha=0, beta=0, gamma=0):
    """PR-box variant: p = 1/2 where a.b = (-1)^(xy + alpha x + beta y + gamma)."""
    p = np.zeros(16)
    for x in (0, 1):
        for y in (0, 1):
            want = (-1) ** ((x * y) ^ (alpha * x) ^ (beta * y) ^ gamma)
            for a in OUTCOMES:
                for b in OUTCOMES:
                    if a * b == want:
                        p[_idx(x, y, a, b)] = 0.5
    return ProbTable222(p)


# ---------------------------------------------------------------------------
# quantum tables

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class QubitBellSetup:
    """Two-qubit state with binary POVMs per input on each side.

    ``alice_effects[x]`` is the pair (E_x^{-1}, E_x^{+1}); likewise
    ``bob_effects[y]``.
    """

    state: np.ndarray                 # 4 x 4 density matrix
    alice_effects: tuple              # per x: (E^-1, E^+1)
    bob_effects: tuple                # per y: (F^-1, F^+1)

    def validate(self):
        rho = np.asarray(self.state, dtype=complex)
        if rho.shape != (4, 4) or np.abs(rho - rho.conj().T).max() > TOL:
            raise InvalidSetup("state must be a 4x4 Hermitian matrix")
        if abs(np.trace(rho).real - 1.0) > TOL or \
                np.linalg.eigvalsh(rho).min() < -TOL:
            raise InvalidSetup("state is not a density matrix")
        for pairs in (self.alice_effects, self.bob_effects):
            for em, ep in pairs:
                for e in (em, ep):
                    if np.linalg.eigvalsh(np.asarray(e)).min() < -TOL:
                        raise InvalidSetup("effect operator not PSD")
                if np.abs(em + ep - np.eye(2)).max() > TOL:
                    raise InvalidSetup("POVM pair does not sum to identity")
        return True


def observable_setup(state, alice_obs, bob_obs):
    """Setup from +-1-valued observables A_x, B_y via E = (1 +- A)/2."""
    def povm(a):
        return ((np.eye(2) - a) / 2, (np.eye(2) + a) / 2)

    return QubitBellSetup(state=np.asarray(state, dtype=complex),
                          alice_effects=tuple(povm(a) for a in alice_obs),
                          bob_effects=tuple(povm(b) for b in bob_obs))


def quantum_table(setup):
    """P(a,b|x,y) = tr[rho (E_x^a (x) F_y^b)]."""
    setup.validate()
    rho = np.asarray(setup.state, dtype=complex)
    p = np.zeros(16)
    for x in (0, 1):
        for y in (0, 1):
            for ia, a in enumerate(OUTCOMES):
                for ib, b in enumerate(OUTCOMES):
                    op = np.kron(setup.alice_effects[x][ia],
                                 setup.bob_effects[y][ib])
                    p[_idx(x, y, a, b)] = np.trace(rho @ op).real
    return ProbTable222(np.clip(p, 0.0, None))


def _direction_obs(theta):
    """Observable cos(theta) sigma_z + sin(theta) sigma_x (x-z plane)."""
    return np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X


def singlet_setup():
    """Singlet state with the standard CHSH-optimal measurement angles.

    Alice measures at angles {0, pi/2}, Bob at {pi/4, -pi/4} in the x-z
    plane; Bob's outcome labels are flipped so the CHSH value comes out
    at +2 sqrt 2.
    """
    ket = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(ket, ket.conj())
    alice = [_direction_obs(0.0), _direction_obs(np.pi / 2)]
    bob = [-_direction_obs(np.pi / 4), -_direction_obs(-np.pi / 4)]
    return observable_setup(rho, alice, bob)


def _sign_observable(m):
    """The +-1 observable maximizing tr(A m) for Hermitian m."""
    ev, vec = np.linalg.eigh(m)
    signs = np.where(ev >= 0, 1.0, -1.0)
    return (vec * signs) @ vec.conj().T


def chsh_operator(setup):
    """A0(x)B0 + A0(x)B1 + A1(x)B0 - A1(x)B1 from the setup's POVMs."""
    def obs(pair):
        return pair[1] - pair[0]

    a0, a1 = (obs(p) for p in setup.alice_effects)
    b0, b1 = (obs(p) for p in setup.bob_effects)
    return (np.kron(a0, b0) + np.kron(a0, b1)
            + np.kron(a1, b0) - np.kron(a1, b1))


def maximize_chsh_quantum(seed=0, iterations=200, return_trace=False):
    """See-saw ascent of the CHSH value on a fixed maximally entangled state.

    Alternates eigendecomposition updates of Alice's and Bob's +-1
    observables from a seeded random start.  The value trace is
    nondecreasing.  Returns (best value, realizing setup).
    """
    if iterations < 1:
        raise InvalidSetup("need iterations >= 1")
    rng = np.random.default_rng(seed)
    ket = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(ket, ket.conj())

    def rand_obs():
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return _sign_observable(h + h.conj().T)

    alice = [rand_obs(), rand_obs()]
    bob = [rand_obs(), rand_obs()]

    def value():
        op = (np.kron(alice[0], bob[0]) + np.kron(alice[0], bob[1])
              + np.kron(alice[1], bob[0]) - np.kron(alice[1], bob[1]))
        return np.trace(rho @ op).real

    def partial_a(bop):
        # Tr_B[rho (1 (x) bop)] as Alice's conditional operator
        m = (rho @ np.kron(np.eye(2), bop)).reshape(2, 2, 2, 2)
        return np.trace(m, axis1=1, axis2=3)

    def partial_b(aop):
        m = (rho @ np.kron(aop, np.eye(2))).reshape(2, 2, 2, 2)
        return np.trace(m, axis1=0, axis2=2)

    trace = [value()]
    for _ in range(iterations):
        alice[0] = _sign_observable(_herm(partial_a(bob[0] + bob[1])))
        alice[1] = _sign_observable(_herm(partial_a(bob[0] - bob[1])))
        bob[0] = _sign_observable(_herm(partial_b(alice[0] + alice[1])))
        bob[1] = _sign_observable(_herm(partial_b(alice[0] - alice[1])))
        trace.append(value())
    best = float(max(trace))
    setup = observable_setup(rho, alice, bob)
    if return_trace:
        return best, setup, trace
    return best, setup


def _herm(m):
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------------------
# gbit composite -> probability table

_GBIT_EFFECTS = {
    0: (np.array([0.5, 0.0, 0.5]), np.array([-0.5, 0.0, 0.5])),   # (e^x, ebar^x)
    1: (np.array([0.0, 0.5, 0.5]), np.array([0.0, -0.5, 0.5])),   # (e^y, ebar^y)
}


def table_from_composite_state(omega, composite=None):
    """Bell table of a gbit(x)gbit max-tensor state.

    Input x=0 selects the (e^x, ebar^x) measurement, x=1 the (e^y,
    ebar^y) one, on each side; outcome +1 corresponds to the unbarred
    effect.  This is the linear bijection between the maximal composite
    of two gbits and the no-signalling polytope.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (9,):
        raise NotAState("expected a gbit(x)gbit vector of length 9")
    if composite is not None:
        from .composites import contains_composite_state
        if not contains_composite_state(composite, omega):
            raise NotAState("not a state of the composite")
    p = np.zeros(16)
    for x in (0, 1):
        for y in (0, 1):
            for a in OUTCOMES:
                for b in OUTCOMES:
                    ea = _GBIT_EFFECTS[x][0 if a == 1 else 1]
                    fb = _GBIT_EFFECTS[y][0 if b == 1 else 1]
                    p[_idx(x, y, a, b)] = np.kron(ea, fb) @ omega
    return ProbTable222(np.clip(p, 0.0, None))


def table_to_json(table):
    import json
    return json.dumps({"p": table.p.tolist()})


def table_from_json(text):
    import json
    return ProbTable222(np.asarray(json.loads(text)["p"], dtype=float))
