"""Minimal and maximal tensor products of polytopic state spaces.

A composite is a polytopic ``StateSpace`` with its two factor spaces in
``factors``, and composites nest.  The minimal one is given by the product
vertices.  The maximal one is given by ``ineqs``: the rows e_i (x) f_j over
effect-cone generators of the factors (a factor's own ``ineqs``, else its
``effect_cone_generators``), plus u_A (x) u_B = 1; nonnegativity on these
products implies it for all product effects, so the list is exact.
``contains_state`` and ``is_pure`` on it need no LP and no enumeration.
Composites go to and from JSON, factors included, as every space does.
A ball or quantum factor is refused where its vertices are asked for
(``enumerate_vertices``, ``UnsupportedKind``); the constructor refuses
factors that are not polytopic.
"""

import numpy as np

from . import geometry
from .errors import DimensionMismatch, NotAState, ScaleLimit, UnsupportedKind
from .lp import FEASTOL, WITNESS_TOL
from .spaces import (Effect, Measurement, StateSpace, contains_state,
                     coords_to_mat, enumerate_vertices, mat_to_coords)


def effect_cone_generators(space):
    """Extreme rays of the dual cone of the state cone, as a tuple of Effects.

    Rays are normalized so the maximum value over the vertices is 1,
    which makes each generator a valid (in fact maximal) effect.
    """
    verts = enumerate_vertices(space)  # UnsupportedKind before ScaleLimit
    if space.ambient_dim > 10:
        raise ScaleLimit("ambient dimension above 10")
    gens = [Effect(r / (verts @ r).max())
            for r in geometry.cone_extreme_rays(verts)]
    # deterministic order: lexicographic on rounded coefficients
    gens.sort(key=lambda e: tuple(np.round(e.coeffs, 9)))
    return tuple(gens)


def min_tensor(a, b):
    """Convex hull of the product states: vertex list v_A (x) v_B."""
    verts_b = enumerate_vertices(b)
    verts = [np.kron(va, vb) for va in enumerate_vertices(a) for vb in verts_b]
    return StateSpace(kind="polytopic", ambient_dim=a.ambient_dim * b.ambient_dim,
                      u=np.kron(a.u, b.u), vertices=verts, factors=(a, b))


def _cone_rows(space):
    """Generators of the effect cone of a polytopic space, as rows."""
    if space.ineqs is not None:
        return space.ineqs
    return [e.coeffs for e in effect_cone_generators(space)]


def max_tensor(a, b):
    """All normalized vectors nonnegative on every product effect."""
    rows_a, rows_b = _cone_rows(a), _cone_rows(b)
    ineqs = np.array([np.kron(e, f) for e in rows_a for f in rows_b])
    return StateSpace(kind="polytopic", ambient_dim=a.ambient_dim * b.ambient_dim,
                      u=np.kron(a.u, b.u), ineqs=ineqs, factors=(a, b))


def product_state(omega_a, omega_b):
    return np.kron(np.asarray(omega_a, dtype=float),
                   np.asarray(omega_b, dtype=float))


def reduced_state(comp, omega_ab, side):
    """Local reduced state: contraction with the remote unit functional."""
    if comp.factors is None:
        raise UnsupportedKind("reduced states need a composite")
    omega_ab = np.asarray(omega_ab, dtype=float)
    fa, fb = comp.factors
    if omega_ab.shape != (fa.ambient_dim * fb.ambient_dim,):
        raise NotAState("wrong length")
    if not contains_state(comp, omega_ab):
        raise NotAState("not a state of the composite")
    grid = omega_ab.reshape(fa.ambient_dim, fb.ambient_dim)
    if side == "A":
        return grid @ fb.u
    if side == "B":
        return fa.u @ grid
    raise NotAState("side must be 'A' or 'B'")


def _product_operator(coords, dim_a, dim_b):
    if np.shape(coords) != ((dim_a * dim_b) ** 2,):
        raise DimensionMismatch("need (dim_a * dim_b)^2 coordinates")
    return coords_to_mat(coords)


def quantum_product_reduced(rho_ab_coords, dim_a, dim_b, side):
    """Partial trace for quantum (x) quantum states given in coordinates.

    Quantum composites are outside the polytope machinery; this helper
    covers the reduced-state checks for them.
    """
    rho = _product_operator(rho_ab_coords, dim_a, dim_b)
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
    rho = _product_operator(rho_ab_coords, dim_a, dim_b)
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
    the joint delta condition.  Each factor's set comes from the subset
    search of ``distinguish.capacity`` over its default candidates: all
    the vertices of a polytopic factor, the computational basis of a
    quantum one.  That search tries no size above the rank of the
    candidates, and raises ``ScaleLimit`` only when a size it tries has
    more than ``distinguish.MAX_SUBSETS`` subsets.  A factor with no
    default candidates (a ball) raises ``UnsupportedKind``.
    """
    factors = [space._cone.with_vertices(space) for space in (a, b)]
    candidates = [f._cone.candidates(f, f.ambient_dim) for f in factors]
    if any(c is None for c in candidates):
        raise UnsupportedKind("supermultiplicativity check needs quantum or "
                              "polytopic factors")
    # imported here, its one use, so that building a composite does not
    # load the distinguishability module
    from .distinguish import DistinguishabilityWitness, _largest_distinguishable

    wa, wb = (_largest_distinguishable(f, c, f.ambient_dim)
              for f, c in zip(factors, candidates))
    na, nb = len(wa.states), len(wb.states)
    prod_states = [product_state(sa, sb) for sa in wa.states for sb in wb.states]
    prod_effects = [Effect(np.kron(ea.coeffs, eb.coeffs))
                    for ea in wa.measurement.effects
                    for eb in wb.measurement.effects]
    delta_err = DistinguishabilityWitness(
        Measurement(tuple(prod_effects)), np.array(prod_states)).delta_error()
    if comp is not None:
        for s in prod_states:
            if not contains_state(comp, s):
                raise NotAState("product state outside the composite")
    return {
        "lower_bound": na * nb,
        "factor_capacities": (na, nb),
        "delta_error": delta_err,
        "verified": delta_err <= WITNESS_TOL,
    }

