"""Minimal and maximal tensor products of polytopic state spaces.

The minimal composite is the convex hull of product states (stored as a
vertex list).  The maximal composite is stored as an H-representation:
the product inequalities e_i (x) f_j >= 0 over the effect-cone
generators of the two factors, plus the normalization u_A (x) u_B = 1.
Nonnegativity on the generator products implies nonnegativity for all
product effects, so the finite list is exact.  Vertices of the maximal
composite are only enumerated on demand (double description) and cached.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import geometry
from .distinguish import (DistinguishabilityWitness, _largest_distinguishable,
                          perfectly_distinguishable)
from .errors import NotAState, NumericalFailure, ScaleLimit, UnsupportedKind
from .lp import FEASTOL, WITNESS_TOL
from .spaces import (Effect, Measurement, StateSpace, contains_state,
                     coords_to_mat, make_polytopic, mat_to_coords,
                     space_to_json)


def effect_cone_generators(space):
    """Extreme rays of the dual cone of the state cone, as a tuple of Effects.

    Rays are normalized so the maximum value over the vertices is 1,
    which makes each generator a valid (in fact maximal) effect.
    """
    if space.kind != "polytopic":
        raise UnsupportedKind("effect cone generation needs a polytopic space")
    if space.ambient_dim > 10:
        raise ScaleLimit("ambient dimension above 10")
    rays = geometry.cone_extreme_rays(space.vertices)
    gens = []
    for r in rays:
        top = (space.vertices @ r).max()
        gens.append(Effect(r / top))
    # deterministic order: lexicographic on rounded coefficients
    gens.sort(key=lambda e: tuple(np.round(e.coeffs, 9)))
    return tuple(gens)


@dataclass
class CompositeSpace:
    factor_a: StateSpace
    factor_b: StateSpace
    kind: str                      # "min" | "max"
    u: np.ndarray
    vertices: np.ndarray = None    # min: always; max: cached on demand
    ineqs: np.ndarray = None       # max only: rows e_i (x) f_j

    @property
    def ambient_dim(self):
        return self.factor_a.ambient_dim * self.factor_b.ambient_dim


def min_tensor(a, b):
    """Convex hull of the product states: vertex list v_A (x) v_B."""
    if a.kind != "polytopic" or b.kind != "polytopic":
        raise UnsupportedKind("tensor products implemented for polytopic factors")
    verts = [np.kron(va, vb) for va in a.vertices for vb in b.vertices]
    return CompositeSpace(factor_a=a, factor_b=b, kind="min",
                          u=np.kron(a.u, b.u), vertices=geometry.dedup_rows(verts))


def max_tensor(a, b):
    """All normalized vectors nonnegative on every product effect."""
    if a.kind != "polytopic" or b.kind != "polytopic":
        raise UnsupportedKind("tensor products implemented for polytopic factors")
    gens_a = effect_cone_generators(a)
    gens_b = effect_cone_generators(b)
    ineqs = np.array([np.kron(e.coeffs, f.coeffs)
                      for e in gens_a for f in gens_b])
    return CompositeSpace(factor_a=a, factor_b=b, kind="max",
                          u=np.kron(a.u, b.u), ineqs=ineqs)


def contains_composite_state(comp, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (comp.ambient_dim,):
        raise NotAState("wrong length")
    if abs(comp.u @ x - 1.0) > FEASTOL:
        return False
    if comp.kind == "max":
        return (comp.ineqs @ x).min() >= -FEASTOL
    return contains_state(as_state_space(comp), x)


def as_state_space(comp):
    """View a composite with known vertices as an ordinary polytopic space."""
    if comp.vertices is None:
        enumerate_vertices(comp)
    return make_polytopic(comp.vertices, comp.u)


def enumerate_vertices(comp):
    """Full vertex list of a max composite, each certified extremal.

    The certificate uses the H-representation alone: each vertex v is
    feasible (``ineqs @ v >= 0`` and u.v = 1), and the rows of ``ineqs``
    tight at v, stacked with u, have full rank, so v is the only point
    of the polytope on the face those rows cut out.
    """
    if comp.kind != "max":
        raise UnsupportedKind("vertex enumeration applies to max composites")
    if comp.vertices is not None:
        return comp.vertices
    verts = geometry.polytope_vertices(comp.ineqs, comp.u)
    for v, vals in zip(verts, verts @ comp.ineqs.T):
        if vals.min() < -FEASTOL or abs(comp.u @ v - 1.0) > FEASTOL:
            raise NumericalFailure(
                "double description produced an infeasible point")
        face = np.vstack([comp.ineqs[np.abs(vals) <= FEASTOL], comp.u])
        if np.linalg.matrix_rank(face, tol=1e-10) < comp.ambient_dim:
            raise NumericalFailure(
                "double description produced a non-extremal point")
    comp.vertices = verts
    return verts


def product_state(omega_a, omega_b):
    return np.kron(np.asarray(omega_a, dtype=float),
                   np.asarray(omega_b, dtype=float))


def reduced_state(comp, omega_ab, side):
    """Local reduced state: contraction with the remote unit functional."""
    omega_ab = np.asarray(omega_ab, dtype=float)
    ka = comp.factor_a.ambient_dim
    kb = comp.factor_b.ambient_dim
    if omega_ab.shape != (ka * kb,):
        raise NotAState("wrong length")
    if not contains_composite_state(comp, omega_ab):
        raise NotAState("not a state of the composite")
    grid = omega_ab.reshape(ka, kb)
    if side == "A":
        return grid @ comp.factor_b.u
    if side == "B":
        return comp.factor_a.u @ grid
    raise NotAState("side must be 'A' or 'B'")


def quantum_product_reduced(rho_ab_coords, dim_a, dim_b, side):
    """Partial trace for quantum (x) quantum states given in coordinates.

    Quantum composites are outside the polytope machinery; this helper
    covers the reduced-state checks for them.
    """
    rho = coords_to_mat(rho_ab_coords)
    t = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    if side == "A":
        return mat_to_coords(np.trace(t, axis1=1, axis2=3))
    if side == "B":
        return mat_to_coords(np.trace(t, axis1=0, axis2=2))
    raise NotAState("side must be 'A' or 'B'")


def sampled_block_positive(rho_ab_coords, dim_a, dim_b, n_samples=500, seed=0):
    """Seeded sampled membership check for the quantum max tensor product.

    One-sided: a negative product-effect value refutes membership;
    passing all samples confirms it only probabilistically.
    """
    rho = coords_to_mat(rho_ab_coords)
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        psi = rng.normal(size=dim_a) + 1j * rng.normal(size=dim_a)
        phi = rng.normal(size=dim_b) + 1j * rng.normal(size=dim_b)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        vec = np.kron(psi, phi)
        if (vec.conj() @ rho @ vec).real < -FEASTOL:
            return False
    return True


def check_supermultiplicativity(a, b, comp=None):
    """Verified capacity lower bound N_A * N_B for a composite.

    Builds product states from maximal distinguishable sets of the
    factors, together with the product witness measurement, and verifies
    the joint delta condition.  A polytopic factor's set comes from the
    subset search of ``distinguish.capacity`` over all its vertices.  That
    search tries no size above the rank of the vertices, and raises
    ``ScaleLimit`` only when a size it tries has more than
    ``distinguish.MAX_SUBSETS`` subsets.  A factor of any other kind raises
    ``UnsupportedKind``.
    """
    if not {a.kind, b.kind} <= {"quantum", "polytopic"}:
        raise UnsupportedKind("supermultiplicativity check needs quantum or "
                              "polytopic factors")
    sets = []
    for space in (a, b):
        if space.kind == "quantum":
            n = space.hilbert_dim
            states = [mat_to_coords(np.outer(e_i, e_i))
                      for e_i in np.eye(n)]
            wit = perfectly_distinguishable(space, states)
        else:
            wit = _largest_distinguishable(space, space.vertices,
                                           space.vertices.shape[0])
        sets.append(wit)
    wa, wb = sets
    na, nb = len(wa.states), len(wb.states)
    prod_states = [product_state(sa, sb) for sa in wa.states for sb in wb.states]
    prod_effects = [Effect(np.kron(ea.coeffs, eb.coeffs))
                    for ea in wa.measurement.effects
                    for eb in wb.measurement.effects]
    delta_err = DistinguishabilityWitness(
        Measurement(tuple(prod_effects)), np.array(prod_states)).delta_error()
    if comp is not None:
        for s in prod_states:
            if not contains_composite_state(comp, s):
                raise NotAState("product state outside the composite")
    return {
        "lower_bound": na * nb,
        "factor_capacities": (na, nb),
        "delta_error": delta_err,
        "verified": delta_err <= WITNESS_TOL,
    }


def composite_to_json(comp):
    doc = {
        "kind": comp.kind,
        "factors": [json.loads(space_to_json(comp.factor_a)),
                    json.loads(space_to_json(comp.factor_b))],
        "u": comp.u.tolist(),
    }
    if comp.vertices is not None:
        doc["vertices"] = comp.vertices.tolist()
    if comp.ineqs is not None:
        doc["ineqs"] = comp.ineqs.tolist()
    return json.dumps(doc)
