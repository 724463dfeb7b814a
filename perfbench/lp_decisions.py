"""lp_decisions: LP-backed verdicts, on sizes that grow along the three
scaling axes (vertex count, inequality count, ambient dimension).

``lp.solve`` does almost all the work here and ``geometry`` is never
called, so a change to the LP core shows here and a change to vertex
enumeration should not.
"""

import types

import numpy as np
from gptkit import bell, distinguish, spaces

import oracles
from common import Op, Workload, require

# (ambient dimension, vertex count) of the random polytopes
MEMBERSHIP_SIZES = ((3, 6), (4, 12), (5, 24), (6, 48), (7, 64), (8, 96))
# is_pure stops at 48 vertices: above it the LP over the other vertices
# fails on some seeds (see CHANGES.md)
PURITY_SIZES = ((3, 6), (4, 12), (5, 24), (6, 48))
POLYTOPES_PER_SIZE = 1
NGONS = (3, 4, 5, 6, 7, 8)
CAPACITY_NGONS = (3, 4, 5, 6)
CAPACITY_CLASSICAL = (4, 5, 6, 7, 8)
LOCAL_MIXTURES = 6
# noisy singlets: CHSH = 2 sqrt2 v, so v <= 0.6 is local (<= 1.70) and
# v >= 0.85 is not (>= 2.40); 1/sqrt2 lies well between
LOCAL_VISIBILITY = (0.3, 0.6)
NONLOCAL_VISIBILITY = (0.85, 1.0)
SINGLETS_PER_RANGE = 3
# Seeds of the distinguishability generator in tests/test_oracles.py on
# which lp.solve raises NumericalFailure every time; kept as inputs that
# do not depend on --seed, counted as failed operations.
FAILING_ORACLE_SEEDS = (584, 2376, 2752)


def build(rng):
    ops = []
    for dim, nv in MEMBERSHIP_SIZES:
        for k in range(POLYTOPES_PER_SIZE):
            space = random_polytope(rng, dim, nv)
            ops += membership_ops(rng, space, f"{nv}v{dim}d#{k}",
                                  (dim, nv) in PURITY_SIZES)
    ops += distinguish_ops(rng)
    ops += bell_ops(rng)
    ops += capacity_ops()
    return Workload(ops=ops, headline=("contains_state", "is_pure"),
                    details=details)


def random_polytope(rng, dim, nv):
    """nv uniform points of the box [-1, 1]^(dim-1) on the slice x_dim = 1."""
    pts = rng.uniform(-1.0, 1.0, size=(nv, dim - 1))
    u = np.zeros(dim)
    u[-1] = 1.0
    return spaces.make_polytopic(np.hstack([pts, np.ones((nv, 1))]), u)


def polygon_space(n):
    return spaces.make_polytopic(oracles.regular_polygon(n), [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# membership and purity

def membership_ops(rng, space, tag, with_purity):
    verts = space.vertices
    centre = verts.mean(axis=0)
    points = [rng.dirichlet(np.ones(len(verts))) @ verts for _ in range(2)]
    for _ in range(2):
        v = verts[rng.integers(len(verts))]
        points.append(centre + (1.0 + rng.uniform(0.05, 0.5)) * (v - centre))
    ops = [Op("contains_state", f"contains {tag} p{i}",
              lambda x=x: spaces.contains_state(space, x),
              membership_check(verts, x), flip)
           for i, x in enumerate(points)]
    if with_purity:
        for i in rng.choice(len(verts), 2, replace=False):
            ops.append(Op("is_pure", f"is_pure {tag} v{i}",
                          lambda i=i: spaces.is_pure(space, verts[i]),
                          purity_check(verts, i), flip))
    return ops


def flip(verdict):
    return [not verdict]


def membership_check(verts, x):
    ref = {}

    def check(verdict):
        require(isinstance(verdict, (bool, np.bool_)), f"verdict {verdict!r}")
        if not ref:
            ref["margin"] = oracles.facet_margin(verts, x)
            ref["highs"] = oracles.highs_convex_feasible(verts, x)
        hull = ref["margin"] <= oracles.CERT_TOL
        if verdict != hull or verdict != ref["highs"]:
            require(abs(ref["margin"]) < oracles.BOUNDARY_BAND,
                    f"contains_state says {verdict}, qhull {hull}, "
                    f"HiGHS {ref['highs']}, facet margin {ref['margin']:.3g}")
    return check


def purity_check(verts, i):
    ref = {}

    def check(verdict):
        require(isinstance(verdict, (bool, np.bool_)), f"verdict {verdict!r}")
        if not ref:
            ref["hull"] = i in oracles.hull_vertex_indices(verts)
        if verdict != ref["hull"]:
            others = np.delete(verts, i, axis=0)
            margin = oracles.facet_margin(others, verts[i])
            require(abs(margin) < oracles.BOUNDARY_BAND,
                    f"is_pure says {verdict}, qhull hull vertex "
                    f"{ref['hull']}, margin {margin:.3g}")
    return check


# ---------------------------------------------------------------------------
# perfect distinguishability

def distinguish_ops(rng):
    cases = []
    gbit = spaces.make_gbit()
    for k, n in enumerate((2, 2, 3)):
        idx = rng.choice(4, n, replace=False)
        cases.append((f"gbit {n} states #{k}", gbit, gbit.vertices[idx]))
    for n in NGONS:
        size = int(rng.integers(2, 4))
        idx = rng.choice(n, size, replace=False)
        cases.append((f"{n}-gon {size} states", polygon_space(n),
                      oracles.regular_polygon(n)[idx]))
    # random polygons, two states: one pair of vertices, one vertex and a
    # mixture.  Three states, or four dimensions, fail on some seeds.
    for mixed in (False, True):
        space = random_polytope(rng, 3, int(rng.integers(3, 9)))
        nv = len(space.vertices)
        states = space.vertices[rng.choice(nv, 2, replace=False)]
        if mixed:
            states[1] = rng.dirichlet(np.ones(nv)) @ space.vertices
        cases.append((f"random polygon {'mixed' if mixed else 'pure'} pair",
                      space, states))
    for seed in FAILING_ORACLE_SEEDS:
        space, states = oracle_test_input(seed)
        cases.append((f"tests/test_oracles.py seed {seed}", space, states))
    return [Op("distinguish", label,
               lambda space=space, states=states:
                   distinguish.perfectly_distinguishable(space, states),
               distinguish_check(space, states),
               distinguish_mutants(space, len(states)))
            for label, space, states in cases]


def oracle_test_input(seed):
    """The input that test_distinguishability_matches_highs draws for seed."""
    rng = np.random.default_rng(seed)
    fixed = [spaces.make_classical(2), spaces.make_classical(3),
             spaces.make_classical(4), spaces.make_gbit()]
    if rng.uniform() < 0.4:
        space = fixed[rng.integers(len(fixed))]
    else:
        dim = int(rng.integers(2, 5))
        nv = rng.integers(dim, 2 * dim + 3)
        pts = rng.uniform(-1.0, 1.0, size=(nv, dim - 1))
        u = np.zeros(dim)
        u[-1] = 1.0
        space = spaces.make_polytopic(np.hstack([pts, np.ones((nv, 1))]), u)
    n = int(rng.integers(2, 4))
    states = []
    for _ in range(n):
        if rng.uniform() < 0.6:
            states.append(space.vertices[rng.integers(space.vertices.shape[0])])
        else:
            w = rng.dirichlet(np.ones(space.vertices.shape[0]))
            states.append(w @ space.vertices)
    return space, np.array(states)


def witness_effects(witness):
    return np.array([e.coeffs for e in witness.measurement.effects])


def fake_witness(effects):
    return types.SimpleNamespace(measurement=types.SimpleNamespace(
        effects=[types.SimpleNamespace(coeffs=e) for e in effects]))


def distinguish_check(space, states):
    ref = {}

    def check(witness):
        if witness is None:
            if not ref:
                ref["highs"] = oracles.highs_distinguishable(
                    space.vertices, space.u, states)
            require(not ref["highs"],
                    "perfectly_distinguishable says no, HiGHS finds a measurement")
            return
        err = oracles.check_measurement(space.vertices, space.u, states,
                                        witness_effects(witness))
        require(err <= oracles.CERT_TOL, f"witness off by {err:.3g}")
    return check


def distinguish_mutants(space, n):
    def mutants(witness):
        if witness is None:
            return [fake_witness([space.u / n] * n)]
        effects = witness_effects(witness)
        bent = effects.copy()
        bent[0] = bent[0] + 0.01
        return [None, fake_witness(bent)]
    return mutants


# ---------------------------------------------------------------------------
# local hidden-variable models

def bell_ops(rng):
    dets = oracles.deterministic_tables()
    tables = [(f"PR box {a}{b}{c}", oracles.pr_table(a, b, c))
              for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    for k in range(LOCAL_MIXTURES):
        tables.append((f"local mixture {k}", rng.dirichlet(np.ones(16)) @ dets))
    for lo, hi in (LOCAL_VISIBILITY, NONLOCAL_VISIBILITY):
        for _ in range(SINGLETS_PER_RANGE):
            v = rng.uniform(lo, hi)
            tables.append((f"noisy singlet v={v:.3f}",
                           noisy_singlet(v, rng.uniform(0, 2 * np.pi))))
    ops = []
    for label, p in tables:
        table = bell.ProbTable222(p)
        ops.append(Op("bell_local", label,
                      lambda table=table: bell.classical_membership(table),
                      local_model_check(p, dets), local_model_mutants))
    return ops


def noisy_singlet(v, theta):
    """quantum_table of v |singlet><singlet| + (1 - v) 1/4 with the CHSH
    angles turned by theta in the x-z plane (CHSH stays 2 sqrt2 v)."""
    def obs(angle):
        return np.cos(angle) * oracles.PAULI[2] + np.sin(angle) * oracles.PAULI[0]

    ket = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = v * np.outer(ket, ket.conj()) + (1 - v) * np.eye(4) / 4
    alice = [obs(theta), obs(theta + np.pi / 2)]
    bob = [-obs(theta + np.pi / 4), -obs(theta - np.pi / 4)]
    setup = bell.observable_setup(rho, alice, bob)
    return bell.quantum_table(setup).p


def local_model_check(p, dets):
    value = oracles.max_chsh_form(p)

    def check(model):
        if model is None:
            require(value > 2.0, f"no local model, yet every CHSH form is "
                                 f"<= 2 (max {value:.6f})")
            return
        w = np.asarray(model.weights, dtype=float)
        require(w.shape == (16,) and w.min() >= -oracles.CERT_TOL,
                f"weights {w}")
        require(abs(w.sum() - 1.0) <= oracles.CERT_TOL, "weights do not sum to 1")
        require(np.abs(w @ dets - p).max() <= oracles.CERT_TOL,
                "weights do not reproduce the table")
        require(value <= 2.0 + oracles.CERT_TOL,
                f"local model for a table with CHSH form {value:.6f}")
    return check


def local_model_mutants(model):
    if model is None:
        return [types.SimpleNamespace(weights=np.full(16, 1 / 16))]
    w = np.asarray(model.weights, dtype=float).copy()
    k = int(np.argmax(w))
    w[k] -= 0.05
    w[(k + 1) % 16] += 0.05
    return [None, types.SimpleNamespace(weights=w)]


# ---------------------------------------------------------------------------
# capacity

def capacity_ops():
    cases = [(f"{n}-gon", polygon_space(n), 3 if n == 3 else 2)
             for n in CAPACITY_NGONS]
    cases += [(f"classical {n}", spaces.make_classical(n), n)
              for n in CAPACITY_CLASSICAL]
    return [Op("capacity", f"capacity {label}",
               lambda space=space: distinguish.capacity(space),
               capacity_check(expected), lambda c: [c + 1])
            for label, space, expected in cases]


def capacity_check(expected):
    def check(value):
        require(value == expected, f"capacity {value}, expected {expected}")
    return check


def details(times):
    return {
        "membership_p50_ms": 1e3 * float(np.median(times["contains_state"]
                                                   + times["is_pure"])),
        "distinguish_p50_ms": 1e3 * float(np.median(times["distinguish"])),
        "bell_local_p50_ms": 1e3 * float(np.median(times["bell_local"])),
        "capacity_s": float(sum(times["capacity"])),
    }
