"""The (2,2,2) Bell scenario: probability tables, CHSH, PR boxes,
hidden-variable decompositions, quantum tables, and see-saw maximization
of the quantum CHSH value.

Outcomes are labelled -1/+1; tables are flattened lexicographically in
(x, y, a, b) with -1 before +1, i.e. index = 8x + 4y + 2a' + b' with
v' = (v+1)/2, so ``p.reshape(2, 2, 2, 2)`` is the table indexed
[x, y, a', b'].  The table functionals (row sums, correlators, CHSH and
its 8 symmetries, no-signalling marginal differences) are the columns of
one fixed 16 x 24 matrix M; a table computes ``p @ M`` once, when built.
A quantum setup's state and effects are checked by ``operators``, the
eight effects as one stack.
"""

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import lp
from .errors import (InvalidArgument, InvalidSetup, InvalidTable, NotAState,
                     NumericalFailure)
from .lp import DEDUP_TOL, FEASTOL, MODEL_TOL, PROB_TOL
from .operators import PAULI, effect_defect, numbers, require, state_defect

OUTCOMES = (-1, +1)
INPUTS = (0, 1)


def _labels(values, allowed, what):
    """The values as ints, each checked to be one of ``allowed``."""
    if any(v not in allowed for v in values):
        raise InvalidArgument(f"{what} must be in {allowed}, got {values}")
    return [int(v) for v in values]


def _strategy_tables():
    """Row 8 f(0)' + 4 f(1)' + 2 g(0)' + g(1)': p(a,b|x,y) = [a = f(x)] [b = g(y)]."""
    f0, f1, g0, g1, x, y, a, b = np.indices((2,) * 8)
    hit = (a == np.where(x, f1, f0)) & (b == np.where(y, g1, g0))
    return hit.reshape(16, 16).astype(float)


def _functionals():
    """Columns over table entries: 2x + y sums inputs (x, y), 4 + 2x + y
    weighs them by a b, 8-15 sign those correlators by the 8 patterns with
    an odd number of -1 (8 is CHSH), and 16 + 2x + a', 20 + 2y + b' are
    Alice's and Bob's marginals at remote input 0 minus 1."""
    x, y, a, b = (v.ravel() for v in np.indices((2, 2, 2, 2)))
    eye = np.eye(4)
    rowsum = eye[2 * x + y]
    corr = rowsum * (1 - 2 * (a ^ b))[:, None]  # a b = +1 iff a' = b'
    odd = np.array([s for s in np.ndindex(2, 2, 2, 2) if sum(s) % 2])
    ns = np.hstack([eye[2 * x + a] * (1 - 2 * y)[:, None],
                    eye[2 * y + b] * (1 - 2 * x)[:, None]])
    return np.hstack([rowsum, corr, corr @ (1 - 2 * odd.T), ns])


_DET = _strategy_tables()
_ALL = _functionals()
for _m in (_DET, _ALL):
    _m.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ProbTable222:
    p: np.ndarray  # 16 entries in canonical order, a read-only copy
    _values: tuple = field(init=False, repr=False)  # p @ _ALL

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.shape != (16,):
            raise InvalidTable("need 16 entries")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        entries = p.tolist()
        if not all(map(math.isfinite, entries)):
            raise InvalidTable("table has a non-finite entry")
        if min(entries) < -PROB_TOL:
            raise InvalidTable("negative probability")
        values = tuple((p @ _ALL).tolist())
        for k, s in enumerate(values[:4]):
            if abs(s - 1.0) > FEASTOL:
                raise InvalidTable(
                    f"probabilities for inputs ({k // 2},{k % 2}) sum to {s}")
        object.__setattr__(self, "_values", values)

    def prob(self, a, b, x, y):
        a, b = _labels((a, b), OUTCOMES, "outcomes")
        x, y = _labels((x, y), INPUTS, "inputs")
        return float(self.p.reshape(2, 2, 2, 2)[x, y, (a + 1) // 2, (b + 1) // 2])


@dataclass(frozen=True, eq=False)
class HiddenVariableModel:
    weights: np.ndarray  # over the 16 deterministic tables

    def table(self):
        return ProbTable222(np.asarray(self.weights) @ _DET)


@lru_cache(maxsize=1)
def deterministic_tables():
    """The 16 tables p(a,b|x,y) = delta(a, f(x)) delta(b, g(y)).

    Enumeration order: index = 8 f(0)' + 4 f(1)' + 2 g(0)' + g(1)'.
    """
    return tuple(ProbTable222(row) for row in _DET)


def is_nonsignalling(table):
    """Marginals independent of the remote input, within tolerance."""
    return max(map(abs, table._values[16:])) <= FEASTOL


def expectation(table, x, y):
    """Correlator E_{x,y} = <a b> for the given input pair."""
    x, y = _labels((x, y), INPUTS, "inputs")
    return table._values[4 + 2 * x + y]


def chsh(table):
    """E_00 + E_01 + E_10 - E_11."""
    return table._values[8]


def lifted_chsh_max(table):
    """Max over the 8 CHSH symmetries (sign patterns with odd parity)."""
    return max(table._values[8:16])


def classify_ns_vertex(table):
    """'deterministic', 'pr', or 'other' for an NS-polytope vertex table,
    matching entries within DEDUP_TOL."""
    if (np.abs(_DET - table.p).max(axis=1) <= DEDUP_TOL).any():
        return "deterministic"
    if (np.abs(_PR - table.p).max(axis=1) <= DEDUP_TOL).any():
        return "pr"
    return "other"


@lru_cache(maxsize=1)
def _local_hull():
    """The 16 deterministic tables as one ``lp.Hull``, built on first use."""
    return lp.Hull(_DET)


def classical_membership(table):
    """Hidden-variable decomposition over the 16 deterministic tables, or
    None, certified by a Farkas vector (a Bell inequality the table
    violates).  ``lp.Hull.weights`` tries its centroid-ray Farkas vector
    first, which refutes the 8 PR boxes, and many other nonlocal tables,
    without an LP; then the least-norm weights, which decompose most
    tables well inside the local polytope without an LP.  The weights are
    then that dense least-norm decomposition, not a vertex of the LP's
    feasible set; either way the model is checked to rebuild the table."""
    weights = _local_hull().weights(table.p)
    if weights is None:
        return None
    model = HiddenVariableModel(weights=weights)
    if not np.abs(model.table().p - table.p).max() <= MODEL_TOL:
        raise NumericalFailure("hidden-variable model misses the table")
    return model


def mix_deterministic(weights):
    """Classical table from a weight vector over the deterministic strategies."""
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    return ProbTable222(weights @ _DET)


def pr_box(alpha=0, beta=0, gamma=0):
    """PR-box variant: p = 1/2 where a.b = (-1)^(xy + alpha x + beta y + gamma)."""
    x, y, a, b = np.indices((2, 2, 2, 2))
    # a.b = +1 exactly when a' = b'
    odd = (x * y ^ alpha * x ^ beta * y ^ gamma) % 2
    return ProbTable222(np.where((a ^ b) == odd, 0.5, 0.0).ravel())


_PR = np.array([pr_box(*v).p for v in np.ndindex(2, 2, 2)])


# ---------------------------------------------------------------------------
# quantum tables


@dataclass(frozen=True, eq=False)
class QubitBellSetup:
    """Two-qubit state with binary POVMs per input on each side.

    ``alice_effects[x]`` is the pair (E_x^{-1}, E_x^{+1}); likewise
    ``bob_effects[y]``.
    """

    state: np.ndarray                 # 4 x 4 density matrix
    alice_effects: tuple              # per x: (E^-1, E^+1)
    bob_effects: tuple                # per y: (F^-1, F^+1)

    def validate(self):
        """True for a 4 x 4 density operator and, per side, two pairs of
        2 x 2 effects (the (2, 2, 2, 2, 2) stack [side, input, outcome])
        that each sum to the identity; else ``InvalidSetup``."""
        require(state_defect, self.state, (4, 4), InvalidSetup, "state")
        effects = require(effect_defect, [self.alice_effects, self.bob_effects],
                          (2,) * 5, InvalidSetup, "effects")
        if not np.abs(effects.sum(axis=2) - np.eye(2)).max() <= FEASTOL:
            raise InvalidSetup("POVM pair does not sum to identity")
        return True


def observable_setup(state, alice_obs, bob_obs):
    """Setup from +-1-valued observables A_x, B_y via E = (1 +- A)/2.  The
    state and each observable are read by ``operators.numbers``, so that
    ``QubitBellSetup.validate`` refuses a ragged or non-numeric one, or an
    observable that is not 2 x 2, with ``InvalidSetup``."""
    def povm(a):
        a = numbers(a)
        if a.shape != (2, 2):
            return a, a
        return ((np.eye(2) - a) / 2, (np.eye(2) + a) / 2)

    return QubitBellSetup(state=numbers(state),
                          alice_effects=tuple(povm(a) for a in alice_obs),
                          bob_effects=tuple(povm(b) for b in bob_obs))


def quantum_table(setup):
    """P(a,b|x,y) = tr[rho (E_x^a (x) F_y^b)]."""
    setup.validate()
    # rho[(i j), (k l)] with i, k on Alice's side; effects indexed [x, a', k, i]
    rho = np.asarray(setup.state, dtype=complex).reshape(2, 2, 2, 2)
    p = np.einsum("ijkl,xaki,yblj->xyab", rho,
                  np.asarray(setup.alice_effects), np.asarray(setup.bob_effects))
    return ProbTable222(np.clip(p.real.ravel(), 0.0, None))


def _direction_obs(theta):
    """Observable cos(theta) sigma_z + sin(theta) sigma_x (x-z plane)."""
    return np.cos(theta) * PAULI[2] + np.sin(theta) * PAULI[0]


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
    """The +-1 observable maximizing tr(A m) for Hermitian m, or for each
    matrix of a stack m[..., :, :]."""
    ev, vec = np.linalg.eigh(m)
    signs = np.where(ev >= 0, 1.0, -1.0)
    return (vec * signs[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def chsh_operator(setup):
    """A0(x)B0 + A0(x)B1 + A1(x)B0 - A1(x)B1 from the setup's POVMs."""
    a0, a1 = (plus - minus for minus, plus in setup.alice_effects)
    b0, b1 = (plus - minus for minus, plus in setup.bob_effects)
    return (np.kron(a0, b0) + np.kron(a0, b1)
            + np.kron(a1, b0) - np.kron(a1, b1))


def maximize_chsh_quantum(seed=0, iterations=200, return_trace=False):
    """See-saw ascent of the CHSH value on the fixed state rho = |Phi+><Phi+|.

    Alternates eigendecomposition updates of Alice's and Bob's +-1
    observables from a seeded random start.  On |Phi+> the see-saw needs
    no 4 x 4 operator: Tr_B[rho (1 (x) B)] = B^T / 2, Tr_A[rho (A (x) 1)]
    = A^T / 2 and Tr[rho (A (x) B)] = (1/2) sum_ij A_ij B_ij.  The factor
    1/2 does not change a sign observable, so each half-sweep is one
    batched eigh of the transposed pair (X0 + X1, X0 - X1) of the other
    side.  The value trace is nondecreasing.  Returns (best value,
    realizing setup), and the trace of iterations + 1 values on request.
    """
    if iterations < 1:
        raise InvalidSetup("need iterations >= 1")
    rng = np.random.default_rng(seed)

    def rand_obs():
        # traceless, so the start is never +-1: from there the see-saw
        # stays at a fixed point with value 2
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = h + h.conj().T
        return _sign_observable(h - np.trace(h).real / 2 * np.eye(2))

    alice = np.array([rand_obs(), rand_obs()])
    bob = np.array([rand_obs(), rand_obs()])

    def sum_diff(obs):
        return np.array([obs[0] + obs[1], obs[0] - obs[1]])

    def value():
        return (alice * sum_diff(bob)).sum().real / 2

    trace = [value()]
    for _ in range(iterations):
        alice = _sign_observable(sum_diff(bob).swapaxes(-1, -2))
        bob = _sign_observable(sum_diff(alice).swapaxes(-1, -2))
        trace.append(value())
    best = float(max(trace))
    ket = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    setup = observable_setup(np.outer(ket, ket.conj()), alice, bob)
    if return_trace:
        return best, setup, trace
    return best, setup


# ---------------------------------------------------------------------------
# gbit composite -> probability table

# [x, a', :]: (ebar^x, e^x) for x = 0 and (ebar^y, e^y) for x = 1
_GBIT_EFFECTS = np.array([[[-0.5, 0.0, 0.5], [0.5, 0.0, 0.5]],
                          [[0.0, -0.5, 0.5], [0.0, 0.5, 0.5]]])


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
        from .spaces import contains_state

        if not contains_state(composite, omega):
            raise NotAState("not a state of the composite")
    p = np.einsum("xam,ybn,mn->xyab", _GBIT_EFFECTS, _GBIT_EFFECTS,
                  omega.reshape(3, 3))
    return ProbTable222(np.clip(p.ravel(), 0.0, None))


def table_to_json(table):
    return json.dumps({"p": table.p.tolist()})


def table_from_json(text):
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise InvalidTable('a table is a JSON object {"p": [16 numbers]}')
    try:
        p = np.asarray(doc["p"], dtype=float)
    except TypeError:  # a JSON object where numbers belong
        raise InvalidTable("'p' must hold numbers only") from None
    return ProbTable222(p)
