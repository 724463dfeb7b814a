"""Perfect distinguishability and capacity.

A set of states is jointly perfectly distinguishable when a single
measurement identifies each of them with certainty.  On a polytopic space
the conditions e_i(omega_j) = delta_ij are solved by linear algebra, and
only n < K states leave the effects free for an LP, which asks that every
effect be nonnegative on the vertices.  Quantum spaces are decided
analytically via orthogonality of supports (pairwise orthogonality is
equivalent to joint distinguishability there); the ball via antipodality.
"""

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import lp
from .errors import (DimensionMismatch, InvalidArgument, NotAState,
                     NumericalFailure, ScaleLimit, UnsupportedKind)
from .spaces import (Effect, Measurement, _with_vertices, coords_to_mat,
                     contains_state, enumerate_vertices, mat_to_coords)

MAX_SUBSETS = 10 ** 6


@dataclass(frozen=True, eq=False)
class DistinguishabilityWitness:
    measurement: Measurement
    states: np.ndarray

    def delta_error(self):
        """Max deviation from e_i(omega_j) = delta_ij."""
        n = len(self.states)
        effects = np.array([e.coeffs for e in self.measurement.effects[:n]])
        return float(np.abs(effects @ self.states.T - np.eye(n)).max())


def _checked(witness):
    if not witness.delta_error() <= lp.WITNESS_TOL:
        raise NumericalFailure("witness delta-error above tolerance")
    return witness


def perfectly_distinguishable(space, states):
    """Witness measurement for joint perfect distinguishability, or None."""
    if np.ndim(states) == 0:
        raise DimensionMismatch("states must be a list of state vectors")
    if len(states) == 0:
        raise InvalidArgument("need at least one state")
    states = _valid_states(space, states)
    return _witness(space, states, states.shape[0])


def _valid_states(space, states):
    states = np.asarray(states, dtype=float)
    for s in states:
        if not contains_state(space, s):
            raise NotAState("all inputs must be valid states")
    return states


def _witness(space, states, n):
    if n == 1 and space.kind in ("polytopic", "ball"):
        # the unit effect alone tells a single state apart
        return DistinguishabilityWitness(Measurement((Effect(space.u),)), states)
    if space.kind == "polytopic":
        return _polytopic_witness(space, states, n)
    if space.kind == "quantum":
        return _quantum_witness(space, states, n)
    if space.kind == "ball":
        return _ball_witness(space, states, n)
    raise UnsupportedKind(space.kind)


def _rank(sv):
    """Rank from singular values: those above RANK_TOL * max(1, largest).
    The capacity search's size bound and the witness's dependence test
    both use it, so no size the bound allows is refused as dependent."""
    return int((sv > lp.RANK_TOL * max(1.0, sv[0])).sum())


def _polytopic_witness(space, states, n):
    # effects e_1 .. e_{n-1} with coefficients c_i, and e_n = u - sum_i e_i.
    # e_i(omega_j) = delta_ij for i < n is S c_i = delta_i for the n x K
    # state matrix S; e_n(omega_j) = delta_nj then follows from
    # u(omega_j) = 1.  If a^T S = 0, applying each e_i gives a_i = 0, so
    # dependent states (n > K among them) have no witness.  Otherwise
    # c_i = c0_i + N t_i, with c0 = S^+ delta and N a basis of null(S), and
    # what is left is that every effect, e_n included, is nonnegative on the
    # vertices V: V N t_i >= -V c0_i, and -V N sum_i t_i >= -V (u - sum_i c0_i).
    # For n = K there is no t and the rows are checked at t = 0; otherwise
    # the t are free and each is posed as t+ - t- in two adjacent columns,
    # the last axis of the rows' (n, V, n - 1, K - n, 2) array.
    k, verts = space.ambient_dim, enumerate_vertices(space)
    left, sv, right = np.linalg.svd(states)
    if _rank(sv) < n:
        return None
    c0 = (left[:n - 1] / sv) @ right[:n]
    b_ub = -np.concatenate([(c0 @ verts.T).ravel(),
                            verts @ (space.u - c0.sum(axis=0))])
    if n == k:
        if b_ub.max() > lp.FEASTOL:
            return None
        coeffs = c0
    else:
        null = right[n:]  # rows: a basis of null(S)
        w = verts @ null.T
        a_ub = np.empty((n, len(verts), n - 1, k - n, 2))
        np.multiply(np.eye(n - 1)[:, None, :, None], w[:, None], out=a_ub[:-1, ..., 0])
        a_ub[-1, ..., 0] = -w[:, None]
        np.negative(a_ub[..., 0], out=a_ub[..., 1])
        res = lp.solve(lp.LpProblem(n_vars=2 * (n - 1) * (k - n),
                                    a_ub=a_ub.reshape(len(b_ub), -1), b_ub=b_ub))
        if res.status != "optimal":
            return None
        t = (res.x[0::2] - res.x[1::2]).reshape(n - 1, k - n)
        coeffs = c0 + t @ null
    effects = [Effect(c) for c in coeffs] + [Effect(space.u - coeffs.sum(axis=0))]
    return _checked(DistinguishabilityWitness(Measurement(tuple(effects)), states))


def _support_projector(rho):
    ev, vec = np.linalg.eigh(rho)
    cols = vec[:, ev > lp.FEASTOL]
    return cols @ cols.conj().T


def _quantum_witness(space, states, n):
    rhos = [coords_to_mat(s) for s in states]
    projs = [_support_projector(r) for r in rhos]
    for i in range(n):
        for j in range(i + 1, n):
            if np.abs(projs[i] @ projs[j]).max() > lp.ORTHO_TOL:
                return None
    dim = space.hilbert_dim
    rest = np.eye(dim) - sum(projs)
    effects = [Effect(mat_to_coords(p)) for p in projs]
    if np.abs(rest).max() > lp.COMPLETE_TOL:
        effects.append(Effect(mat_to_coords(rest)))
    return _checked(DistinguishabilityWitness(Measurement(tuple(effects)),
                                              np.asarray(states, dtype=float)))


def _ball_witness(space, states, n):
    if n > 2:
        return None  # ball capacity is 2
    r1, r2 = states[0][1:], states[1][1:]
    if (abs(np.linalg.norm(r1) - 1.0) > lp.FEASTOL
            or np.linalg.norm(r1 + r2) > lp.FEASTOL):
        return None
    e = Effect(np.concatenate([[0.5], 0.5 * r1]))
    ebar = Effect(space.u - e.coeffs)
    return _checked(DistinguishabilityWitness(Measurement((e, ebar)), states))


def capacity(space, candidates=None, n_max=8):
    """Largest n <= n_max with a perfectly distinguishable n-subset.

    For polytopic spaces with no candidates given, the vertices are used
    (for polytopes, distinguishable states can be replaced by extremal
    ones, so this is exact).  For other kinds an explicit candidate list
    gives a lower bound; quantum spaces are answered analytically.

    Every candidate is checked to be a state before the search starts
    (``NotAState`` otherwise).  Distinguishable states are linearly
    independent, so no size above the rank of the candidates (under the
    ``RANK_TOL`` rule the witness applies to each subset) is tried;
    ``ScaleLimit`` is raised when a size that is tried has more than
    ``MAX_SUBSETS`` subsets.  On the vertices of a full-dimensional
    polytope the first size tried, unless n_max is smaller, is n = K, whose
    subsets need no LP.
    """
    if n_max < 1:
        raise InvalidArgument("need n_max >= 1")
    if space.kind == "quantum" and candidates is None:
        return min(space.hilbert_dim, n_max)
    space = _with_vertices(space)
    if candidates is None:
        if space.kind != "polytopic":
            raise InvalidArgument("candidate states required for this kind")
        candidates = space.vertices
    wit = _largest_distinguishable(space, candidates, n_max)
    return 0 if wit is None else len(wit.states)


def _largest_distinguishable(space, candidates, n_max):
    """Witness for a largest perfectly distinguishable subset of at most
    n_max candidates, or None, by the search ``capacity`` describes: sizes
    from the largest down, subsets in lexicographic order, the first
    witness found returned."""
    candidates = _valid_states(space, candidates)
    m = candidates.shape[0]
    rank = _rank(np.linalg.svd(candidates, compute_uv=False)) if m else 0
    for n in range(min(n_max, m, rank), 0, -1):
        if comb(m, n) > MAX_SUBSETS:
            raise ScaleLimit("subset search too large")
        for idx in itertools.combinations(range(m), n):
            wit = _witness(space, candidates[list(idx)], n)
            if wit is not None:
                return wit
    return None
