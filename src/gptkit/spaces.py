"""State spaces, effects, measurements, transformations.

Three kinds of state space are supported:

* polytopic -- a polytope in R^K given by its vertices, by rows r with
  r.x >= 0 (``ineqs``), or both; ``enumerate_vertices`` computes the
  vertices of an ``ineqs`` space and leaves the space as it was,
* quantum   -- density matrices of size N, coordinatized in a fixed
  orthonormal Hermitian basis so states are plain real vectors of
  length N^2,
* ball      -- vectors (1, r) with |r| <= 1 (the Bloch-ball form).

A tensor product (``composites``) is a polytopic space with its two
factor spaces in ``factors``, and composites nest.  On an ``ineqs`` space
membership and purity are one product and one rank, and an effect is
checked by two cone LPs, with no enumeration; other polytopic questions
are LP feasibility, and quantum and ball ones are analytic (eigenvalues).  The effect set is always the
full dual interval [0, u] (no-restriction hypothesis).

The three map questions share one inclusion test, _maps_into.  Their
answers are exact for polytopic spaces and ball -> ball maps, with or
without a translation; a quantum map is tested on seeded sampled pure
states ("no" is certain, "yes" sampled).  A space never changes once built.
"""

import json
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from itertools import combinations

import numpy as np

from . import geometry, lp
from .errors import (DimensionMismatch, InvalidArgument, NotAState,
                     NumericalFailure, ScaleLimit, SingularMap, UnsupportedKind)
from .lp import BISECT_TOL, FEASTOL, RANK_TOL

# Desk-scale limit on N: the basis holds N^4 complex entries, mat_to_coords
# a conjugated copy.  make_quantum(N), mat_to_coords and contains_state in a
# fresh process (29 MB after numpy's import; 2-vCPU VM, numpy 2.4.6) peaked
# at 62 MB in 0.03 s for N = 32, 107 MB / 0.07 s at 40, 190 MB / 0.14 s at 48.
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
    m = np.asarray(m, dtype=complex)
    return np.einsum("kij,ij->k", hermitian_basis(m.shape[0]).conj(), m).real


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
        if self.kind not in ("polytopic", "quantum", "ball"):
            raise InvalidArgument(f"unknown state-space kind {self.kind!r}")
        if ((self.vertices is None and self.ineqs is None)
                == (self.kind == "polytopic")):
            raise InvalidArgument("vertices or ineqs are given for polytopic "
                                  "spaces only")
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.u.shape != (self.ambient_dim,):
            raise DimensionMismatch(f"u has shape {self.u.shape}, "
                                    f"expected ({self.ambient_dim},)")
        if not np.isfinite(self.u).all():
            raise InvalidArgument("non-finite entry in u")
        expected = {"polytopic": self.ambient_dim,
                    "quantum": self.hilbert_dim and self.hilbert_dim ** 2,
                    "ball": self.ball_dim and self.ball_dim + 1}[self.kind]
        if expected != self.ambient_dim:
            raise DimensionMismatch("ambient_dim must be hilbert_dim^2 "
                                    "(quantum) or ball_dim + 1 (ball)")
        for name, noun in (("vertices", "vertex"), ("ineqs", "inequality")):
            if getattr(self, name) is None:
                continue
            rows = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, rows)
            if rows.ndim != 2 or rows.shape[1] != self.ambient_dim:
                raise DimensionMismatch(f"{name} must be rows of length "
                                        "ambient_dim")
            if not np.isfinite(rows).all():
                raise InvalidArgument(f"non-finite entry in {name}")
            if rows.shape[0] == 0:
                raise InvalidArgument(f"need at least one {noun}")
        if self.vertices is not None:
            if np.abs(self.vertices @ self.u - 1.0).max() > FEASTOL:
                raise InvalidArgument("vertex with u(v) != 1")
            if (self.ineqs is not None
                    and (self.vertices @ self.ineqs.T).min() < -FEASTOL):
                raise InvalidArgument("vertex violating an inequality")
        fs = self.factors
        if fs is not None and (
                len(fs) != 2 or not all(isinstance(f, StateSpace)
                                        and f.kind == "polytopic" for f in fs)
                or fs[0].ambient_dim * fs[1].ambient_dim != self.ambient_dim
                or np.abs(np.kron(fs[0].u, fs[1].u) - self.u).max() > FEASTOL):
            raise InvalidArgument("factors must be two polytopic spaces with u = u_A (x) u_B")


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
    if n < 1:
        raise InvalidArgument("need n >= 1")
    return StateSpace(kind="polytopic", ambient_dim=n,
                      u=np.ones(n), vertices=np.eye(n))


def make_quantum(n):
    """Quantum N-level space in the fixed Hermitian coordinate basis."""
    if n < 1:
        raise InvalidArgument("need n >= 1")
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
    if d < 1:
        raise InvalidArgument("need d >= 1")
    u = np.zeros(d + 1)
    u[0] = 1.0
    return StateSpace(kind="ball", ambient_dim=d + 1, u=u, ball_dim=d)


def make_polytopic(vertices, u):
    return StateSpace(kind="polytopic", ambient_dim=len(u), u=u,
                      vertices=vertices)


# ---------------------------------------------------------------------------
# decision procedures

def _check_dim(space, x, what):
    x = np.asarray(x, dtype=float)
    if x.shape != (space.ambient_dim,):
        raise DimensionMismatch(f"expected length {space.ambient_dim}, got {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidArgument(f"{what} has a non-finite coordinate")
    return x


def _satisfies_ineqs(space, x):
    return (abs(space.u @ x - 1.0) <= FEASTOL
            and (space.ineqs @ x).min() >= -FEASTOL)


def _tight_rows_full_rank(space, x):
    """Do the rows of ineqs tight at x, stacked with u, have full rank?

    For a point of the polytope this makes x the only point on the face
    those rows cut out: a vertex.
    """
    face = np.vstack([space.ineqs[np.abs(space.ineqs @ x) <= FEASTOL], space.u])
    return np.linalg.matrix_rank(face, tol=RANK_TOL) == space.ambient_dim


def _nonnegative_on_states(space, f):
    """Is f >= 0 on every state of an ``ineqs`` space?  By the affine Farkas
    lemma exactly when f = ineqs^T lam + mu u for some lam, mu >= 0: one
    LP, with no vertex enumeration."""
    a = np.vstack([space.ineqs, space.u]).T
    res = lp.solve(lp.LpProblem(n_vars=a.shape[1], a_eq=a, b_eq=f))
    return res.status == "optimal"


def enumerate_vertices(space):
    """The vertices of a polytopic space.  An ``ineqs`` space gets them by
    double description on each call, each certified from the rows alone:
    feasible, with full-rank tight rows.  The space is not changed."""
    if space.kind != "polytopic":
        raise UnsupportedKind("vertex enumeration needs a polytopic space")
    if space.vertices is not None:
        return space.vertices
    verts = geometry.polytope_vertices(space.ineqs, space.u)
    for v in verts:
        if not _satisfies_ineqs(space, v):
            raise NumericalFailure(
                "double description produced an infeasible point")
        if not _tight_rows_full_rank(space, v):
            raise NumericalFailure(
                "double description produced a non-extremal point")
    return verts


def _with_vertices(space):
    """The space, or a copy holding the vertices of an ``ineqs`` space."""
    if space.kind != "polytopic" or space.vertices is not None:
        return space
    return replace(space, vertices=enumerate_vertices(space))


def contains_state(space, x):
    """Is x a valid normalized state of the space?

    On an ``ineqs`` space this is one product with the rows; otherwise a
    polytopic point equal to a listed vertex is a state without an LP, and
    ``lp.hull_weights`` refutes most outside points by its centroid-ray
    Farkas vector before it would pose the LP.
    """
    x = _check_dim(space, x, "state")
    if space.kind == "polytopic":
        if space.ineqs is not None:
            return _satisfies_ineqs(space, x)
        verts = space.vertices
        if (verts == x).all(axis=1).any():
            return True
        return lp.hull_weights(verts, x) is not None
    if space.kind == "quantum":
        rho = coords_to_mat(x)
        if abs(np.trace(rho).real - 1.0) > FEASTOL:
            return False
        return np.linalg.eigvalsh(rho).min() >= -FEASTOL
    if space.kind == "ball":
        return abs(x[0] - 1.0) <= FEASTOL and np.linalg.norm(x[1:]) <= 1.0 + FEASTOL
    raise UnsupportedKind(space.kind)


def is_effect(space, e):
    """Is e a linear functional with range [0,1] on all states?

    On an ``ineqs`` space, e and u - e must each lie in the cone of the
    rows and u (two LPs); otherwise e is evaluated on the vertices.
    """
    c = _check_dim(space, e.coeffs if isinstance(e, Effect) else e, "effect")
    if space.kind == "polytopic":
        if space.ineqs is not None:
            return (_nonnegative_on_states(space, c)
                    and _nonnegative_on_states(space, space.u - c))
        vals = space.vertices @ c
        return vals.min() >= -FEASTOL and vals.max() <= 1.0 + FEASTOL
    if space.kind == "quantum":
        em = coords_to_mat(c)
        ev = np.linalg.eigvalsh(em)
        return ev.min() >= -FEASTOL and ev.max() <= 1.0 + FEASTOL
    if space.kind == "ball":
        const, w = c[0], c[1:]
        return np.linalg.norm(w) <= min(const, 1.0 - const) + FEASTOL
    raise UnsupportedKind(space.kind)


def is_pure(space, omega):
    """Is omega an extremal point of the state space?

    On an ``ineqs`` space, the rank of the rows tight at omega decides.  On
    a vertex space, omega must be a listed vertex outside the hull of the
    vertices away from it (every copy of omega is dropped);
    ``lp.hull_weights`` certifies that, often by its centroid-ray Farkas
    vector with no LP, else by the LP.
    """
    omega = _check_dim(space, omega, "state")
    if not contains_state(space, omega):
        raise NotAState("argument is not a valid state")
    if space.kind == "polytopic":
        if space.ineqs is not None:
            return _tight_rows_full_rank(space, omega)
        verts = space.vertices
        others = verts[np.abs(verts - omega).max(axis=1) > FEASTOL]
        if others.shape[0] == verts.shape[0]:
            return False
        if others.shape[0] == 0:
            return True
        return lp.hull_weights(others, omega) is None
    if space.kind == "quantum":
        rho = coords_to_mat(omega)
        return np.linalg.eigvalsh(rho).max() >= 1.0 - FEASTOL
    if space.kind == "ball":
        return np.linalg.norm(omega[1:]) >= 1.0 - FEASTOL
    raise UnsupportedKind(space.kind)


def _sampled_pure_states(space, n_samples, seed):
    """The vertices of a polytopic space, else n_samples seeded pure states."""
    if space.kind == "polytopic":
        return enumerate_vertices(space)
    rng = np.random.default_rng(seed)
    out = []
    if space.kind == "quantum":
        n = space.hilbert_dim
        for _ in range(n_samples):
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            out.append(mat_to_coords(np.outer(psi, psi.conj())))
    else:
        d = space.ball_dim
        for _ in range(n_samples):
            r = rng.normal(size=d)
            r /= np.linalg.norm(r)
            out.append(np.concatenate([[1.0], r]))
    return np.array(out)


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


def _maps_into(a, b, m, pure_states):
    """Does the matrix m send every state of a to a state of b?

    Normalization is exact; the rest is vertex images, an exact ball
    image test (ball -> ball) or sampled pure states, which
    ``pure_states(a)`` gives only when they are needed.
    """
    if a.kind != "polytopic" and np.abs(b.u @ m - a.u).max() > FEASTOL:
        return False
    if a.kind == b.kind == "ball":
        return _ball_image_fits(m[1:, 0], m[1:, 1:])
    return all(contains_state(b, m @ s) for s in pure_states(a))


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
    return _maps_into(space, space, m,
                      lambda a: _sampled_pure_states(a, n_samples, seed))


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
    a = _with_vertices(space_a)
    b = a if space_b is space_a else _with_vertices(space_b)
    # one draw per space: a map of a space onto itself tests the images of
    # the same seeded pure states in both directions
    pure_states = cache(
        lambda space: _sampled_pure_states(space, n_samples, seed))
    return (_maps_into(a, b, m, pure_states) and
            _maps_into(b, a, np.linalg.inv(m), pure_states))


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
        key = "N" if kind == "quantum" else "d"
        n = doc[key]
        if not (isinstance(n, int) or isinstance(n, float) and n.is_integer()):
            raise InvalidArgument(f"{key!r} must be a whole number")
        return (make_quantum if kind == "quantum" else make_ball)(int(n))
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
