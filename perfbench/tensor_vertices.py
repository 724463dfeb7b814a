"""tensor_vertices: ``max_tensor`` then ``enumerate_vertices`` on fresh
composites, 6 to 60 vertices and 6 to 20 inequalities in dimensions 6 to 9.

``geometry.cone_extreme_rays`` runs here, and so does the per-vertex
``is_pure`` LP inside ``enumerate_vertices``.  Pentagon x pentagon (35 s)
and hexagon x hexagon (fails, see CHANGES.md) are left out.

Not listed in BENCHMARK.json, because its times did not stay steady
enough on the reference machine (see README.md); it runs by hand.

The composites are fixed; the seed only orders the calls within a round.
Turning a polygon or reordering its vertices changes the pivots of every
``is_pure`` LP: the time of square x pentagon then moves by a quarter from
seed to seed, and some turned squares x pentagons fail (see CHANGES.md).
"""

import numpy as np
from gptkit import composites, spaces

import oracles
from common import Op, Workload, require

UNIT_SLICE = np.array([0.0, 0.0, 1.0])
# calls per round: the short composites repeat so that their fastest call
# is taken over as many calls as square x pentagon's
REPEATS = {"classical2_classical3": 8, "classical3_classical3": 8,
           "triangle_square": 8, "gbit_gbit": 2, "square_pentagon": 1}


def factors():
    gbit = np.array([[-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0],
                     [1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])
    return {
        "classical2_classical3": ((np.eye(2), np.ones(2)), (np.eye(3), np.ones(3))),
        "classical3_classical3": ((np.eye(3), np.ones(3)), (np.eye(3), np.ones(3))),
        "triangle_square": ((oracles.regular_polygon(3), UNIT_SLICE),
                            (oracles.regular_polygon(4), UNIT_SLICE)),
        "gbit_gbit": ((gbit, UNIT_SLICE), (gbit, UNIT_SLICE)),
        "square_pentagon": ((oracles.regular_polygon(4), UNIT_SLICE),
                            (oracles.regular_polygon(5), UNIT_SLICE)),
    }


def build(rng):
    counts = {}
    ops = []
    for label, ((va, ua), (vb, ub)) in factors().items():
        a = spaces.make_polytopic(va, ua)
        b = spaces.make_polytopic(vb, ub)
        op = Op(label, label,
                lambda a=a, b=b: composites.enumerate_vertices(
                    composites.max_tensor(a, b)),
                vertex_check(label, va, ua, vb, ub, counts), vertex_mutants)
        ops += [op] * REPEATS[label]
    ops = [ops[k] for k in rng.permutation(len(ops))]
    return Workload(ops=ops, headline=("square_pentagon",),
                    details=lambda times: details(times, counts))


def vertex_check(label, va, ua, vb, ub, counts):
    ref = {}

    def check(verts):
        if not ref:
            rows, u = oracles.max_tensor_hrep(va, ua, vb, ub)
            interior = np.kron(va.mean(axis=0), vb.mean(axis=0))
            ref.update(rows=rows, u=u,
                       expected=oracles.halfspace_vertices(rows, u, interior))
        rows, u = ref["rows"], ref["u"]
        verts = np.asarray(verts, dtype=float)
        require(verts.ndim == 2 and verts.shape[1] == len(u), "vertex array shape")
        for v in verts:
            require((rows @ v).min() >= -oracles.CERT_TOL
                    and abs(u @ v - 1.0) <= oracles.CERT_TOL,
                    f"{label}: vertex outside the maximal tensor product")
            require(oracles.tight_rank(rows, u, v) == len(u),
                    f"{label}: point with too few tight constraints")
        require(oracles.same_vertex_set(verts, ref["expected"]),
                f"{label}: {len(verts)} vertices, qhull finds "
                f"{len(ref['expected'])}")
        counts[label] = len(verts)
        if label == "gbit_gbit":
            require(sorted(gbit_vertex_kinds(verts)) == ["det"] * 16 + ["pr"] * 8,
                    "gbit x gbit is not 16 deterministic boxes and 8 PR boxes")
    return check


def gbit_vertex_kinds(verts):
    """'det' or 'pr' (or 'other') for each gbit x gbit state, read as a Bell
    table: input 0 measures the first coordinate, input 1 the second."""
    effects = []
    for axis in (0, 1):
        plus = np.zeros(3)
        plus[axis], plus[2] = 0.5, 0.5
        minus = np.zeros(3)
        minus[axis], minus[2] = -0.5, 0.5
        effects.append((minus, plus))  # outcome -1, +1
    kinds = []
    pr = [oracles.pr_table(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    for v in verts:
        p = np.array([np.kron(effects[x][ap], effects[y][bp]) @ v
                      for x in (0, 1) for y in (0, 1)
                      for ap in (0, 1) for bp in (0, 1)])
        if np.all(np.abs(p * (1 - p)) <= 1e-7):
            kinds.append("det")
        elif any(np.abs(p - q).max() <= 1e-7 for q in pr):
            kinds.append("pr")
        else:
            kinds.append("other")
    return kinds


def vertex_mutants(verts):
    verts = np.asarray(verts, dtype=float)
    return [verts[1:], np.vstack([verts, verts.mean(axis=0)])]


def details(times, counts):
    return {
        "vertices_per_s": (sum(counts[k] * len(ts) for k, ts in times.items())
                           / sum(t for ts in times.values() for t in ts)),
        "nspolytope_ms": 1e3 * times["gbit_gbit"][0],
        "square_pentagon_s": times["square_pentagon"][0],
    }
