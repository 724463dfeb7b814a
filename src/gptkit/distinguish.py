"""Perfect distinguishability and capacity.

A set of states is jointly perfectly distinguishable when a single
measurement identifies each of them with certainty.  Each kind of state
space finds the effects of a witness itself (``spaces``): on a polytopic
space the conditions e_i(omega_j) = delta_ij are solved by linear algebra,
and only n < K states leave the effects free for an LP, which asks that
every effect be nonnegative on the vertices; quantum spaces are decided
analytically via orthogonality of supports (pairwise orthogonality is
equivalent to joint distinguishability there); the ball via antipodality.
This module checks each witness, and searches subsets for the capacity.
"""

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import lp
from .errors import (DimensionMismatch, InvalidArgument, NotAState,
                     NumericalFailure, ScaleLimit)
from .spaces import (Effect, Measurement, _is_listed_vertex, _rank,
                     contains_state)

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


def perfectly_distinguishable(space, states):
    """Witness measurement for joint perfect distinguishability, or None."""
    if np.ndim(states) == 0:
        raise DimensionMismatch("states must be a list of state vectors")
    if len(states) == 0:
        raise InvalidArgument("need at least one state")
    states = _valid_states(space, states)
    return _witness(space, states, states.shape[0])


def _valid_states(space, states):
    """The states as a float array, each checked to be a state: those equal
    to a listed vertex are found by hash (a row of another length by none),
    the rest go through ``contains_state`` (which raises on a bad shape or
    a non-finite entry)."""
    states = np.asarray(states, dtype=float)
    rest = states
    if space.vertices is not None and states.ndim == 2:
        rest = states[~_is_listed_vertex(space, states)]
    for s in rest:
        if not contains_state(space, s):
            raise NotAState("all inputs must be valid states")
    return states


def _witness(space, states, n):
    """A witness that the n states are jointly perfectly distinguishable,
    from the effect coefficients their space's kind finds, or None.  Every
    witness is checked: ``NumericalFailure`` when its delta-error is above
    WITNESS_TOL."""
    rows = space._cone.witness(space, states, n)
    if rows is None:
        return None
    witness = DistinguishabilityWitness(Measurement(tuple(map(Effect, rows))),
                                        np.asarray(states, dtype=float))
    if not witness.delta_error() <= lp.WITNESS_TOL:
        raise NumericalFailure("witness delta-error above tolerance")
    return witness


def capacity(space, candidates=None, n_max=8):
    """Largest n <= n_max with a perfectly distinguishable n-subset.

    With no candidates given, a polytopic space uses its vertices (for
    polytopes, distinguishable states can be replaced by extremal ones, so
    this is exact) and a quantum space its first n_max computational basis
    states (exact: N orthogonal states, and no more); a ball space needs
    candidates (``InvalidArgument``), which give a lower bound.

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
    if candidates is None:
        candidates = space._cone.candidates(space, n_max)
        if candidates is None:
            raise InvalidArgument("candidate states required for this kind")
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
