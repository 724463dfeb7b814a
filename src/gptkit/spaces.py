"""State spaces, effects, measurements, transformations.

Three kinds of state space are supported:

* polytopic -- a polytope in R^K given by its vertices, by rows r with
  r.x >= 0 (``ineqs``), or both; ``enumerate_vertices`` computes the
  vertices of an ``ineqs`` space and leaves the space as it was,
* quantum   -- density matrices of size N, coordinatized in a fixed
  orthonormal Hermitian basis so states are plain real vectors of
  length N^2, with u the trace (1, ..., 1, 0, ..., 0),
* ball      -- vectors (1, r) with |r| <= 1 (the Bloch-ball form), with
  u = e_0.

Each kind of cone answers its own questions in one class: a polytope
given by vertices (``_VertexPolytope``), one given by ``ineqs``
(``_IneqsPolytope``, which wins when a space has both), the ball
(``_Ball``, a Lorentz cone) and quantum theory (``_Quantum``, the PSD
cone).  A space picks its class once, when it is built, and the class
checks the fields: a field of another kind, or a u other than the kind's,
is refused.  The public functions below ask the space's class.

A tensor product (``composites``) is a polytopic space with its two
factor spaces in ``factors``, and composites nest.  On an ``ineqs`` space
membership and purity are one product and one rank, and an effect is
checked by two cone LPs, with no enumeration; other polytopic questions
are LP feasibility, and quantum and ball ones are analytic
(eigenvalues).  The effect set is always the full dual interval [0, u]
(no-restriction hypothesis).

The three map questions ask the class of the map's domain whether the map
sends it into the codomain.  The answers are exact for polytopic spaces
and ball -> ball maps, with or without a translation; a quantum map is
tested on seeded sampled pure states ("no" is certain, "yes" sampled).  A
space never changes once built.
"""

import json
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import geometry, lp
from .errors import (DimensionMismatch, InvalidArgument, NotAState,
                     NumericalFailure, ScaleLimit, SingularMap, UnsupportedKind)
from .lp import BISECT_TOL, FEASTOL, RANK_TOL
from .operators import effect_defect, integer, state_defect, whole

# Desk-scale limit on N: the basis holds N^4 complex entries.  make_quantum(N),
# mat_to_coords and contains_state in a fresh process (29 MB after numpy's
# import; 2-vCPU VM, numpy 2.4.6) peaked at 46 MB in 0.013 s for N = 32,
# 69 MB / 0.03 s at 40, 111 MB / 0.06 s at 48 (the cap lifted to measure).
MAX_HILBERT_DIM = 32


# ---------------------------------------------------------------------------
# fixed Hermitian coordinate basis for quantum spaces

@lru_cache(maxsize=16)
def hermitian_basis(n):
    """Orthonormal basis of Hermitian n x n matrices (Hilbert-Schmidt),
    as a read-only (n^2, n, n) array.

    Order: the n diagonal units, then for each i<j (lexicographic) the
    pair (|i><j| + |j><i|)/sqrt2 and i(|i><j| - |j><i|)/sqrt2.
    """
    if n > MAX_HILBERT_DIM:
        raise ScaleLimit(f"Hilbert space dimension {n} above {MAX_HILBERT_DIM}")
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[range(n), range(n), range(n)] = 1.0
    s = 1.0 / np.sqrt(2.0)
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        basis[n + 2 * k, [i, j], [j, i]] = s
        basis[n + 2 * k + 1, [i, j], [j, i]] = 1j * s, -1j * s
    basis.flags.writeable = False
    return basis


def mat_to_coords(m):
    """Coordinates tr(B_k^dagger m) = sum_ij conj(B_k)_ij m_ij.  Each B_k is
    Hermitian, so conj(B_k)_ij is (B_k)_ji exactly and the sum reads the
    basis transposed, with no conjugated copy of it."""
    m = np.asarray(m, dtype=complex)
    return np.einsum("kji,ij->k", hermitian_basis(m.shape[0]), m).real


def coords_to_mat(c):
    c = np.asarray(c, dtype=float)
    n = int(round(np.sqrt(c.size)))
    if n * n != c.size:
        raise DimensionMismatch("coordinate length is not a perfect square")
    return np.tensordot(c, hermitian_basis(n), axes=1)


# ---------------------------------------------------------------------------
# domain types; each holds ndarrays, so eq=False makes it compare and hash
# by identity (a generated __eq__ would raise on the array fields)

@dataclass(frozen=True, eq=False)
class StateSpace:
    kind: str                      # "polytopic" | "quantum" | "ball"
    ambient_dim: int
    u: np.ndarray                  # normalization functional, dual coords
    vertices: np.ndarray = None    # polytopic: vertices, ineqs or both
    hilbert_dim: int = None        # quantum only
    ball_dim: int = None           # ball only
    ineqs: np.ndarray = None       # polytopic: rows r with r.x >= 0
    factors: tuple = None          # tensor products: the two factors

    def __post_init__(self):
        # ineqs win over vertices: membership and purity then need no LP
        cone = {"polytopic": _VERTICES if self.ineqs is None else _INEQS,
                "quantum": _QUANTUM, "ball": _BALL}.get(self.kind)
        if cone is None:
            raise InvalidArgument(f"unknown state-space kind {self.kind!r}")
        for name in ("vertices", "ineqs", "factors", "hilbert_dim", "ball_dim"):
            if getattr(self, name) is not None and name not in cone.fields:
                raise InvalidArgument(f"{name} given for a {self.kind} space")
        for name in ("ambient_dim", "hilbert_dim", "ball_dim"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, integer(getattr(self, name), name, 1))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.u.shape != (self.ambient_dim,):
            raise DimensionMismatch(f"u has shape {self.u.shape}, "
                                    f"expected ({self.ambient_dim},)")
        if not np.isfinite(self.u).all():
            raise InvalidArgument("non-finite entry in u")
        cone.check(self)
        object.__setattr__(self, "_cone", cone)

    @cached_property
    def _hull(self):
        """The vertices as an ``lp.Hull``, built by the first membership
        query that needs it and kept with this space only (a space made by
        ``dataclasses.replace`` builds its own)."""
        return lp.Hull(self.vertices)

    @cached_property
    def _listed(self):
        """The vertices as a set of tuples, kept as ``_hull`` is."""
        return frozenset(map(tuple, self.vertices.tolist()))


@dataclass(frozen=True, eq=False)
class Effect:
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if not np.isfinite(self.coeffs).all():
            raise InvalidArgument("effect has a non-finite coefficient")

    def __call__(self, omega):
        return float(self.coeffs @ np.asarray(omega, dtype=float))


@dataclass(frozen=True, eq=False)
class Measurement:
    effects: tuple

    def __post_init__(self):
        if len(self.effects) == 0:
            raise InvalidArgument("measurement needs at least one effect")
        object.__setattr__(self, "effects", tuple(self.effects))

    def validate(self, space):
        for e in self.effects:
            _check_dim(space, e.coeffs, "effect")
        total = sum(e.coeffs for e in self.effects)
        if np.abs(total - space.u).max() > FEASTOL:
            raise InvalidArgument("effects do not sum to the unit functional")
        for e in self.effects:
            if not is_effect(space, e):
                raise InvalidArgument("component is not a valid effect")
        return True


@dataclass(frozen=True, eq=False)
class LinearMap:
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        if not np.isfinite(self.matrix).all():
            raise InvalidArgument("map has a non-finite entry")

    def __call__(self, x):
        return self.matrix @ np.asarray(x, dtype=float)

    def is_invertible(self):
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        return self.matrix.shape[0] == self.matrix.shape[1] and \
            sv[-1] > 0 and sv[-1] >= RANK_TOL * sv[0]

    def inverse(self):
        if not self.is_invertible():
            raise SingularMap("map is singular within tolerance")
        return LinearMap(np.linalg.inv(self.matrix))


# ---------------------------------------------------------------------------
# constructors

def make_classical(n):
    """Classical N-outcome space: the probability simplex."""
    integer(n, "n", 1)
    return StateSpace(kind="polytopic", ambient_dim=n,
                      u=np.ones(n), vertices=np.eye(n))


def make_quantum(n):
    """Quantum N-level space in the fixed Hermitian coordinate basis."""
    integer(n, "n", 1)
    hermitian_basis(n)  # ScaleLimit above MAX_HILBERT_DIM, before np.eye(n)
    u = mat_to_coords(np.eye(n))
    return StateSpace(kind="quantum", ambient_dim=n * n, u=u, hilbert_dim=n)


def make_gbit():
    """The square state space with four pure states."""
    verts = np.array([[-1.0, -1.0, 1.0],
                      [-1.0, 1.0, 1.0],
                      [1.0, 1.0, 1.0],
                      [1.0, -1.0, 1.0]])
    return StateSpace(kind="polytopic", ambient_dim=3,
                      u=np.array([0.0, 0.0, 1.0]), vertices=verts)


def make_ball(d):
    """Ball space of dimension d: states (1, r) with |r| <= 1."""
    integer(d, "d", 1)
    u = np.zeros(d + 1)
    u[0] = 1.0
    return StateSpace(kind="ball", ambient_dim=d + 1, u=u, ball_dim=d)


def make_polytopic(vertices, u):
    return StateSpace(kind="polytopic", ambient_dim=len(u), u=u,
                      vertices=vertices)


# ---------------------------------------------------------------------------
# one class per kind of state space: each answers the questions of its cone

def _rank(sv):
    """Rank from singular values: those above RANK_TOL * max(1, largest).
    The capacity search's size bound and the polytopic witness's dependence
    test both use it, so no size the bound allows is refused as dependent."""
    return int((sv > RANK_TOL * max(1.0, sv[0])).sum())


def _is_listed_vertex(space, x):
    """Whether x, or each row of a 2-D x, equals a listed vertex of the
    space entry for entry (a state with no test), by one hash lookup per
    point: -0.0 matches 0.0, and NaN, unequal to itself, matches none."""
    if x.ndim == 1:
        return tuple(x.tolist()) in space._listed
    return np.array([row in space._listed for row in map(tuple, x.tolist())],
                    dtype=bool)


class _Cone:
    """One kind of state space.  Each kind names the optional fields it
    takes (``fields``), checks a space as it is built (``check``), and
    answers ``contains``, ``is_effect``, ``is_pure``, ``pure_states``, the
    vertices, the effect coefficients of a distinguishability witness
    (``witness``, or None) and the default capacity candidates.  The
    defaults here are those of a kind whose states span its space and
    which has no vertices: the ball and quantum kinds."""

    def vertices(self, space):
        raise UnsupportedKind("needs the vertices of a polytopic space")

    def with_vertices(self, space):
        """The space, or a copy holding the vertices of an ``ineqs`` space."""
        return space

    def candidates(self, space, n):
        """States for a capacity search of sizes up to n, or None when the
        caller must give them."""
        return None

    def pure_states(self, space, n_samples, seed):
        """n_samples seeded pure states, drawn one after another."""
        rng = np.random.default_rng(seed)
        return np.array([self.pure_state(space, rng) for _ in range(n_samples)])

    def maps_into(self, a, b, m, pure_states):
        """Does m send every state of a (this kind) to a state of b?  The
        states of a span its space, so u is kept exactly; the rest is
        tested on ``pure_states(a)``, sampled pure states."""
        if np.abs(b.u @ m - a.u).max() > FEASTOL:
            return False
        return all(contains_state(b, m @ s) for s in pure_states(a))


class _Polytope(_Cone):
    """A polytope: its vertices, listed or enumerated, are its pure states,
    and a tensor product keeps its two factors."""
    fields = ("vertices", "ineqs", "factors")

    def check(self, space):
        if space.vertices is None and space.ineqs is None:
            raise InvalidArgument("a polytopic space needs vertices or ineqs")
        for name, noun in (("vertices", "vertex"), ("ineqs", "inequality")):
            if getattr(space, name) is None:
                continue
            # a read-only copy: the space, and the hull it caches, cannot
            # change through the caller's array
            rows = np.array(getattr(space, name), dtype=float)
            rows.flags.writeable = False
            object.__setattr__(space, name, rows)
            if rows.ndim != 2 or rows.shape[1] != space.ambient_dim:
                raise DimensionMismatch(f"{name} must be rows of length "
                                        "ambient_dim")
            if not np.isfinite(rows).all():
                raise InvalidArgument(f"non-finite entry in {name}")
            if rows.shape[0] == 0:
                raise InvalidArgument(f"need at least one {noun}")
        if space.vertices is not None:
            if np.abs(space.vertices @ space.u - 1.0).max() > FEASTOL:
                raise InvalidArgument("vertex with u(v) != 1")
            if (space.ineqs is not None
                    and (space.vertices @ space.ineqs.T).min() < -FEASTOL):
                raise InvalidArgument("vertex violating an inequality")
        fs = space.factors
        if fs is not None and (
                len(fs) != 2 or not all(isinstance(f, StateSpace)
                                        and isinstance(f._cone, _Polytope)
                                        for f in fs)
                or fs[0].ambient_dim * fs[1].ambient_dim != space.ambient_dim
                or np.abs(np.kron(fs[0].u, fs[1].u) - space.u).max() > FEASTOL):
            raise InvalidArgument("factors must be two polytopic spaces with u = u_A (x) u_B")

    def candidates(self, space, n):
        """The vertices: distinguishable states of a polytope can be
        replaced by extremal ones, so a search over them is exact."""
        return self.vertices(space)

    def pure_states(self, space, n_samples, seed):
        return enumerate_vertices(space)

    def maps_into(self, a, b, m, pure_states):
        """Exact: the vertex images decide, and u need only be kept on them."""
        return all(contains_state(b, m @ s) for s in pure_states(a))

    def witness(self, space, states, n):
        """Effect coefficients e_i with e_i(omega_j) = delta_ij, or None.

        The unit effect alone tells one state apart.  Otherwise: effects
        e_1 .. e_{n-1} with coefficients c_i, and e_n = u - sum_i e_i.
        e_i(omega_j) = delta_ij for i < n is S c_i = delta_i for the n x K
        state matrix S; e_n(omega_j) = delta_nj then follows from
        u(omega_j) = 1.  If a^T S = 0, applying each e_i gives a_i = 0, so
        dependent states (n > K among them) have no witness.  Otherwise
        c_i = c0_i + N t_i, with c0 = S^+ delta and N a basis of null(S), and
        what is left is that every effect, e_n included, is nonnegative on
        the vertices V: V N t_i >= -V c0_i, and
        -V N sum_i t_i >= -V (u - sum_i c0_i).  For n = K there is no t and
        the rows are checked at t = 0; otherwise the t are free and each is
        posed as t+ - t- in two adjacent columns, the last axis of the rows'
        (n, V, n - 1, K - n, 2) array.
        """
        if n == 1:
            return [space.u]
        k, verts = space.ambient_dim, enumerate_vertices(space)
        left, sv, right = np.linalg.svd(states)
        if _rank(sv) < n:
            return None
        c0 = (left[:n - 1] / sv) @ right[:n]
        b_ub = -np.concatenate([(c0 @ verts.T).ravel(),
                                verts @ (space.u - c0.sum(axis=0))])
        if n == k:
            if b_ub.max() > FEASTOL:
                return None
            coeffs = c0
        else:
            null = right[n:]  # rows: a basis of null(S)
            w = verts @ null.T
            a_ub = np.empty((n, len(verts), n - 1, k - n, 2))
            np.multiply(np.eye(n - 1)[:, None, :, None], w[:, None],
                        out=a_ub[:-1, ..., 0])
            a_ub[-1, ..., 0] = -w[:, None]
            np.negative(a_ub[..., 0], out=a_ub[..., 1])
            a_ub = a_ub.reshape(len(b_ub), -1)
            res = lp.solve(lp.LpProblem(n_vars=a_ub.shape[1], a_ub=a_ub, b_ub=b_ub))
            if res.status != "optimal":
                return None
            t = (res.x[0::2] - res.x[1::2]).reshape(n - 1, k - n)
            coeffs = c0 + t @ null
        return [*coeffs, space.u - coeffs.sum(axis=0)]


class _VertexPolytope(_Polytope):
    """A polytope given by its vertices; its ``lp.Hull`` decides membership."""

    def vertices(self, space):
        return space.vertices

    def contains(self, space, x):
        return _is_listed_vertex(space, x) or space._hull.weights(x) is not None

    def is_effect(self, space, c):
        vals = space.vertices @ c
        return vals.min() >= -FEASTOL and vals.max() <= 1.0 + FEASTOL

    def is_pure(self, space, omega):
        copies = np.abs(space.vertices - omega).max(axis=1) <= FEASTOL
        if not copies.any():
            return False
        if copies.all():
            return True
        return space._hull.without(copies).weights(omega) is None


class _IneqsPolytope(_Polytope):
    """A polytope given by rows r with r.x >= 0 (and perhaps its vertices
    too): membership is one product, purity one rank, an effect two LPs."""

    def vertices(self, space):
        """Listed vertices, else double description on each call, each
        vertex certified from the rows alone: feasible, with full-rank
        tight rows."""
        if space.vertices is not None:
            return space.vertices
        verts = geometry.polytope_vertices(space.ineqs, space.u)
        for v in verts:
            if not self.contains(space, v):
                raise NumericalFailure(
                    "double description produced an infeasible point")
            if not self.is_pure(space, v):
                raise NumericalFailure(
                    "double description produced a non-extremal point")
        return verts

    def with_vertices(self, space):
        return (space if space.vertices is not None
                else replace(space, vertices=enumerate_vertices(space)))

    def contains(self, space, x):
        return (abs(space.u @ x - 1.0) <= FEASTOL
                and (space.ineqs @ x).min() >= -FEASTOL)

    def is_effect(self, space, c):
        return (self._nonnegative_on_states(space, c)
                and self._nonnegative_on_states(space, space.u - c))

    def is_pure(self, space, omega):
        """Do the rows tight at omega, stacked with u, have full rank?  For
        a point of the polytope this makes omega the only point on the face
        those rows cut out: a vertex."""
        face = np.vstack([space.ineqs[np.abs(space.ineqs @ omega) <= FEASTOL],
                          space.u])
        return np.linalg.matrix_rank(face, tol=RANK_TOL) == space.ambient_dim

    def _nonnegative_on_states(self, space, f):
        """Is f >= 0 on every state?  By the affine Farkas lemma exactly
        when f = ineqs^T lam + mu u for some lam, mu >= 0: one LP, with no
        vertex enumeration."""
        a = np.vstack([space.ineqs, space.u]).T
        res = lp.solve(lp.LpProblem(n_vars=a.shape[1], a_eq=a, b_eq=f))
        return res.status == "optimal"


class _Quantum(_Cone):
    """Density matrices of size N in the Hermitian basis: the PSD cone."""
    fields = ("hilbert_dim",)

    def check(self, space):
        n = space.hilbert_dim
        if not n or n * n != space.ambient_dim:
            raise DimensionMismatch("ambient_dim must be hilbert_dim^2")
        if (space.u != (np.arange(space.ambient_dim) < n)).any():
            raise InvalidArgument("u of a quantum space must be the trace")

    def candidates(self, space, n):
        """The first n computational basis states: tr B_k |i><i| is 1 at
        k = i and 0 elsewhere."""
        return np.eye(min(n, space.hilbert_dim), space.ambient_dim)

    def contains(self, space, x):
        return state_defect(coords_to_mat(x)) is None

    def is_effect(self, space, c):
        return effect_defect(coords_to_mat(c)) is None

    def is_pure(self, space, omega):
        return np.linalg.eigvalsh(coords_to_mat(omega)).max() >= 1.0 - FEASTOL

    def pure_state(self, space, rng):
        n = space.hilbert_dim
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        return mat_to_coords(np.outer(psi, psi.conj()))

    def witness(self, space, states, n):
        """The support projectors, when pairwise orthogonal (for quantum
        states joint perfect distinguishability is exactly that), and the
        projector onto the rest when it is not zero."""
        projs = []
        for s in states:
            ev, vec = np.linalg.eigh(coords_to_mat(s))
            cols = vec[:, ev > FEASTOL]
            projs.append(cols @ cols.conj().T)
        if any(np.abs(p @ q).max() > lp.ORTHO_TOL
               for p, q in combinations(projs, 2)):
            return None
        rest = np.eye(space.hilbert_dim) - sum(projs)
        if np.abs(rest).max() > lp.COMPLETE_TOL:
            projs.append(rest)
        return [mat_to_coords(p) for p in projs]


class _Ball(_Cone):
    """Vectors (1, r) with |r| <= 1: the Lorentz cone."""
    fields = ("ball_dim",)

    def check(self, space):
        d = space.ball_dim
        if not d or d + 1 != space.ambient_dim:
            raise DimensionMismatch("ambient_dim must be ball_dim + 1")
        if space.u[0] != 1.0 or space.u[1:].any():
            raise InvalidArgument("u of a ball space must be e_0")

    def contains(self, space, x):
        return abs(x[0] - 1.0) <= FEASTOL and np.linalg.norm(x[1:]) <= 1.0 + FEASTOL

    def is_effect(self, space, c):
        return np.linalg.norm(c[1:]) <= min(c[0], 1.0 - c[0]) + FEASTOL

    def is_pure(self, space, omega):
        return np.linalg.norm(omega[1:]) >= 1.0 - FEASTOL

    def pure_state(self, space, rng):
        r = rng.normal(size=space.ball_dim)
        return np.concatenate([[1.0], r / np.linalg.norm(r)])

    def maps_into(self, a, b, m, pure_states):
        """Exact onto a ball (``_ball_image_fits``), else sampled."""
        if (not isinstance(b._cone, _Ball)
                or np.abs(b.u @ m - a.u).max() > FEASTOL):
            return super().maps_into(a, b, m, pure_states)
        return _ball_image_fits(m[1:, 0], m[1:, 1:])

    def witness(self, space, states, n):
        """The unit effect for one state; for two antipodal pure states,
        the effect (1 + r_1 . r)/2 and its complement; else None (the
        capacity of a ball is 2)."""
        if n == 1:
            return [space.u]
        if n > 2:
            return None
        r1, r2 = states[0][1:], states[1][1:]
        if (abs(np.linalg.norm(r1) - 1.0) > FEASTOL
                or np.linalg.norm(r1 + r2) > FEASTOL):
            return None
        e = np.concatenate([[0.5], 0.5 * r1])
        return [e, space.u - e]


_VERTICES, _INEQS, _QUANTUM, _BALL = (_VertexPolytope(), _IneqsPolytope(),
                                      _Quantum(), _Ball())


# ---------------------------------------------------------------------------
# decision procedures

def _check_dim(space, x, what):
    x = np.asarray(x, dtype=float)
    if x.shape != (space.ambient_dim,):
        raise DimensionMismatch(f"expected length {space.ambient_dim}, got {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidArgument(f"{what} has a non-finite coordinate")
    return x


def enumerate_vertices(space):
    """The vertices of a polytopic space (``UnsupportedKind`` for a ball or
    quantum space).  An ``ineqs`` space gets them by double description on
    each call, each certified from the rows alone: feasible, with full-rank
    tight rows.  The space is not changed."""
    return space._cone.vertices(space)


def contains_state(space, x):
    """Is x a valid normalized state of the space?  x is checked here.

    On an ``ineqs`` space this is one product with the rows.  On a vertex
    space a point equal to a listed vertex, found by one hash lookup in a
    set of the vertices kept with the space, is a state with no test, and
    the space's ``lp.Hull`` decides the rest: its centroid ray refutes most
    outside points and its least-norm weights certify most inside ones,
    each without an LP (``lp.Hull.weights``).  Quantum and ball states are
    decided by eigenvalues and a norm.
    """
    return space._cone.contains(space, _check_dim(space, x, "state"))


def is_effect(space, e):
    """Is e a linear functional with range [0,1] on all states?

    On an ``ineqs`` space, e and u - e must each lie in the cone of the
    rows and u (two LPs); otherwise e is evaluated on the vertices.
    """
    c = _check_dim(space, e.coeffs if isinstance(e, Effect) else e, "effect")
    return space._cone.is_effect(space, c)


def is_pure(space, omega):
    """Is omega an extremal point of the state space?  omega is checked
    once, then the space's kind answers whether it is a state and pure.

    On an ``ineqs`` space, the rank of the rows tight at omega decides.  On
    a vertex space, omega must be a listed vertex outside the hull of the
    vertices away from it (every copy of omega dropped): the space's
    ``lp.Hull`` without those copies (``lp.Hull.without``), whose centroid
    ray or least-norm weights, from the space's kept pseudo-inverse, often
    settle it with no LP and no new SVD.
    """
    omega = _check_dim(space, omega, "state")
    if not space._cone.contains(space, omega):
        raise NotAState("argument is not a valid state")
    return space._cone.is_pure(space, omega)


def _sampled_pure_states(space, n_samples, seed):
    """The vertices of a polytopic space, else n_samples seeded pure states."""
    return space._cone.pure_states(space, n_samples, seed)


def _ball_image_fits(t, mm):
    """Is |t + M r| <= 1 for every |r| <= 1?

    By the S-lemma it holds exactly when some lam in [0, 1 - |t|^2] makes
    P(lam) = [[lam I - M^T M, -M^T t], [-t^T M, 1 - lam - |t|^2]] PSD.  The
    least eigenvalue of P is concave and 1-Lipschitz in lam, with slope
    v^T dP/dlam v at its eigenvector v, so bisection on that slope finds
    its maximum and decides the question at FEASTOL.
    """
    mt = np.column_stack([mm, t])
    p = -mt.T @ mt  # P(0)
    p[-1, -1] += 1.0
    step = np.append(np.ones(len(t)), -1.0)  # dP/dlam, a diagonal
    lo, hi = 0.0, max(1.0 - t @ t, 0.0)
    while True:
        lam = (lo + hi) / 2
        ev, vec = np.linalg.eigh(p + lam * np.diag(step))
        if ev[0] >= -FEASTOL or hi - lo <= BISECT_TOL:
            return ev[0] >= -FEASTOL
        if step @ vec[:, 0] ** 2 > 0:
            lo = lam
        else:
            hi = lam


def is_transformation(space, t, n_samples=1000, seed=0):
    """Does t map every normalized state to a normalized state?

    Exact for polytopic and ball spaces; for quantum maps a "yes" is
    sampled.
    """
    m = t.matrix if isinstance(t, LinearMap) else np.asarray(t, dtype=float)
    if m.shape != (space.ambient_dim, space.ambient_dim):
        raise DimensionMismatch("transformation must be square of ambient size")
    if not np.isfinite(m).all():
        raise InvalidArgument("transformation has a non-finite entry")
    return space._cone.maps_into(
        space, space, m, lambda a: _sampled_pure_states(a, n_samples, seed))


def is_reversible_transformation(space, t, n_samples=1000, seed=0):
    """Is t invertible with are_equivalent(space, space, t)?  Exact for
    polytopic and ball spaces; for quantum spaces a "yes" is sampled."""
    tmap = t if isinstance(t, LinearMap) else LinearMap(t)
    if tmap.matrix.shape != (space.ambient_dim, space.ambient_dim):
        raise DimensionMismatch("transformation must be square of ambient size")
    if not tmap.is_invertible():
        return False
    return are_equivalent(space, space, tmap, n_samples, seed)


def are_equivalent(space_a, space_b, l, n_samples=1000, seed=0):
    """Do l and its inverse map Omega_A into Omega_B and back?

    Exact for polytopic pairs and ball pairs; for other pairs a "yes" is
    sampled.
    """
    lmap = l if isinstance(l, LinearMap) else LinearMap(l)
    m = lmap.matrix
    if m.shape != (space_b.ambient_dim, space_a.ambient_dim):
        raise DimensionMismatch("map shape does not match the two spaces")
    if space_a.ambient_dim != space_b.ambient_dim:
        return False
    if not lmap.is_invertible():
        raise SingularMap("equivalence requires an invertible map")
    a = space_a._cone.with_vertices(space_a)
    b = a if space_b is space_a else space_b._cone.with_vertices(space_b)
    # one draw per space: a map of a space onto itself tests the images of
    # the same seeded pure states in both directions
    pure_states = cache(
        lambda space: _sampled_pure_states(space, n_samples, seed))
    return (a._cone.maps_into(a, b, m, pure_states) and
            b._cone.maps_into(b, a, np.linalg.inv(m), pure_states))


# ---------------------------------------------------------------------------
# JSON round trip

def _space_doc(space):
    doc = {"kind": space.kind if space.factors is None else
           "min" if space.ineqs is None else "max",
           "factors": space.factors and [_space_doc(f) for f in space.factors],
           "u": space.u, "N": space.hilbert_dim, "d": space.ball_dim,
           "vertices": space.vertices, "ineqs": space.ineqs}
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in doc.items() if value is not None}


def space_to_json(space):
    """The one JSON format of spaces: ``kind`` ("min" / "max" for a tensor
    product), ``factors`` (written alike), ``u``, ``N``, ``d``, ``vertices``
    and ``ineqs``, each only when the space has it.  Nothing is enumerated."""
    return json.dumps(_space_doc(space))


def _space_from_doc(doc):
    if not isinstance(doc, dict):
        raise InvalidArgument("a space is a JSON object")
    kind = doc["kind"]
    if kind in ("quantum", "ball"):
        return (make_quantum if kind == "quantum" else make_ball)(
            whole(doc["N" if kind == "quantum" else "d"]))
    if kind not in ("polytopic", "min", "max"):
        raise InvalidArgument(f"unknown state-space kind {kind!r}")
    factors = doc.get("factors")
    if factors is not None and not isinstance(factors, list):
        raise InvalidArgument("'factors' must be a list of spaces")
    u = _floats(doc["u"], "u")
    return StateSpace(kind="polytopic", ambient_dim=np.size(u), u=u,
                      vertices=_floats(doc.get("vertices"), "vertices"),
                      ineqs=_floats(doc.get("ineqs"), "ineqs"),
                      factors=factors and tuple(map(_space_from_doc, factors)))


def _floats(value, name):
    """A JSON value as a float array, None as None."""
    try:
        return None if value is None else np.asarray(value, dtype=float)
    except TypeError:  # a JSON object where numbers belong
        raise InvalidArgument(f"{name!r} must hold numbers only") from None


def space_from_json(text):
    """The space of a document written by ``space_to_json``.  A field that
    this space would write differently is refused."""
    doc = json.loads(text)
    space = _space_from_doc(doc)
    written = _space_doc(space)
    for key in ("kind", "factors", "u", "N", "d", "vertices", "ineqs"):
        if key in doc and doc[key] != written.get(key):
            raise InvalidArgument(f"{key!r} contradicts the document's space")
    return space
