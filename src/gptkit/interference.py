"""Sorkin interference quantities for m-slit arrangements.

Click probabilities are P_I = tr(P_I rho P_I Q) with P_I the projector
onto the open-slit subspace, and I_m = sum_I (-1)^(m - |I|) P_I over the
open-slit subsets I.  I2 = P12 - P1 - P2 is generically nonzero in
quantum mechanics; I3 = P123 - P12 - P13 - P23 + P1 + P2 + P3, and with
it every higher I_m (Sorkin 1994), vanishes identically.  Replacing the
orthogonal projectors by general trace-nonincreasing blocking maps
breaks the identity.  The state rho, the effect Q and a blocker's sum
K^dag K are checked by ``operators``.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (EmptySubset, InvalidArgument, InvalidKraus, ScaleLimit,
                     WrongSlitCount)
from .operators import effect_defect, integer, numbers, require, state_defect

# Desk-scale limit: I_m sums 2^m - 1 traces, doubling its cost with each
# slit, and a blocker file names a subset by one digit per open slit.
MAX_SLITS = 9


def _subsets(m):
    """The open-slit subsets of m slits, largest first and lexicographic
    within each size, the order of the written-out sums."""
    return [sub for k in range(m, 0, -1)
            for sub in combinations(range(1, m + 1), k)]


def _inclusion_exclusion(value, m):
    """sum_I (-1)^(m - |I|) value(I), a number or an array, added in
    ``_subsets`` order from -0.0, which adds nothing even to -0.0."""
    return sum((-value(sub) if (m - len(sub)) % 2 else value(sub)
                for sub in _subsets(m)), -0.0)


@dataclass(frozen=True, eq=False)
class SlitExperiment:
    """Which-slit state rho, detector effect q, for 2 <= m <= MAX_SLITS.

    The slit basis is the standard basis; the slit projectors are the
    rank-1 diagonal projectors in that basis.
    """

    m: int
    rho: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if integer(self.m, "slit count") < 2:
            raise WrongSlitCount("slit count must be at least 2")
        if self.m > MAX_SLITS:
            raise ScaleLimit(f"slit count above {MAX_SLITS}")
        for name, defect in (("rho", state_defect), ("q", effect_defect)):
            op = require(defect, getattr(self, name), (self.m, self.m),
                         InvalidArgument, name)
            object.__setattr__(self, name, op)


def _slit_projector(m, open_slits):
    """Diagonal projector onto the open slits (1-based) of m slits."""
    p = np.zeros((m, m), dtype=complex)
    for i in open_slits:
        p[i - 1, i - 1] = 1.0
    return p


def click_probability(exp, open_slits):
    """tr(P_I rho P_I Q) for the given open-slit subset (1-based); each
    slit index must be an integer (``operators.integer``)."""
    open_slits = tuple(sorted({integer(i, "slit index") for i in open_slits}))
    if not open_slits:
        raise EmptySubset("at least one slit must be open")
    if any(i < 1 or i > exp.m for i in open_slits):
        raise InvalidArgument("slit index out of range")
    proj = _slit_projector(exp.m, open_slits)
    return float(np.trace(proj @ exp.rho @ proj @ exp.q).real)


def sorkin(exp, blockers=None):
    """I_m over all m slits of ``exp``: the inclusion-exclusion of
    tr(P_I rho P_I Q), or of tr(B_I(rho) Q) when ``blockers`` maps each
    open-slit subset I (a sorted tuple of 1-based slits) to a BlockingMap."""
    if blockers is None:
        return _inclusion_exclusion(lambda sub: click_probability(exp, sub),
                                    exp.m)
    if set(blockers) != set(_subsets(exp.m)) or any(
            len(b.kraus[0]) != exp.m for b in blockers.values()):
        raise InvalidKraus("need one m x m blocker per open-slit subset, no other")
    return _inclusion_exclusion(
        lambda sub: float(np.trace(blockers[sub](exp.rho) @ exp.q).real), exp.m)


def sorkin_i2(exp):
    """P12 - P1 - P2 (second-order interference)."""
    if exp.m != 2:
        raise WrongSlitCount("I2 needs a 2-slit experiment")
    return sorkin(exp)


def sorkin_i3(exp):
    """P123 - P12 - P13 - P23 + P1 + P2 + P3; zero in quantum mechanics."""
    if exp.m != 3:
        raise WrongSlitCount("I3 needs a 3-slit experiment")
    return sorkin(exp)


@dataclass(frozen=True, eq=False)
class BlockingMap:
    """Completely positive trace-nonincreasing map via Kraus operators."""

    kraus: tuple

    def __post_init__(self):
        ops = tuple(numbers(k) for k in self.kraus)
        if not ops or not all(np.isfinite(k).all() for k in ops):
            raise InvalidKraus("need one or more finite Kraus operators")
        if ops[0].ndim != 2 or any(k.shape != (len(ops[0]),) * 2 for k in ops):
            raise InvalidKraus("Kraus operators must be square matrices of one size")
        require(effect_defect, sum(k.conj().T @ k for k in ops), None,
                InvalidKraus, "sum K^dag K")
        object.__setattr__(self, "kraus", ops)

    def __call__(self, rho):
        return sum(k @ rho @ k.conj().T for k in self.kraus)


def projector_blockers(m=3):
    """The canonical orthogonal-projector blockings, one per subset."""
    return {s: BlockingMap((_slit_projector(m, s),)) for s in _subsets(m)}


def rotated_blockers(angle=0.1):
    """Blockings from a *non-orthogonal* family of slit vectors.

    The slit-1 vector is rotated by ``angle`` in the slits-1-2 plane;
    each blocker is the orthogonal projector onto the span of its open
    slit vectors.  Because the vectors are no longer orthogonal, the
    projectors do not add up subset-wise and the third-order residual is
    generically nonzero (the documented counterexample).
    """
    vecs = np.eye(3, dtype=complex)
    vecs[:, 0] = np.array([np.cos(angle), np.sin(angle), 0.0])
    out = {}
    for sub in _subsets(3):
        cols = vecs[:, [i - 1 for i in sub]]
        q, _ = np.linalg.qr(cols)
        out[sub] = BlockingMap((q @ q.conj().T,))
    return out


def depolarize_then_project(strength=0.1):
    """Blockings that depolarize with subset-dependent strength, then
    apply the orthogonal projector.  The state fed into the projector
    differs per subset, so the residual is generically nonzero.  A single
    open slit keeps weight 1 - 16 strength / 9, so 0 <= strength <= 9/16."""
    if not 0 <= strength <= 9 / 16:
        raise InvalidArgument("strength must lie in [0, 9/16]")
    out = {}
    for sub in _subsets(3):
        proj = _slit_projector(3, sub)
        s = strength * (3 - len(sub))  # stronger noise with more blockage
        keep = np.sqrt(1 - s + s / 9) * proj
        noise = [np.sqrt(s / 9) * proj @ w for w in _weyl_unitaries()]
        out[sub] = BlockingMap((keep, *noise))
    return out


def _weyl_unitaries():
    # the 8 non-identity shift-and-phase unitaries on C^3
    w = np.exp(2j * np.pi / 3)
    shift = np.roll(np.eye(3, dtype=complex), 1, axis=0)
    phase = np.diag([1, w, w ** 2])
    return [np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(phase, k)
            for j in range(3) for k in range(3) if (j, k) != (0, 0)]


def sorkin_i3_with_blockers(rho, blockers, q):
    """I3 with the projector blockings replaced by ``blockers``, which maps
    each of the 7 open-slit subsets to a BlockingMap."""
    return sorkin(SlitExperiment(3, rho, q), blockers)


def decomposition_residual(rho):
    """Entrywise max of the inclusion-exclusion of the cut states
    P_I rho P_I over the m = rho.shape[0] slits; zero for m >= 3.

    rho is checked as ``SlitExperiment`` checks it: a square matrix with
    m < 2 raises ``WrongSlitCount``, m > MAX_SLITS ``ScaleLimit``, and
    anything but a finite density matrix ``InvalidArgument``."""
    rho = numbers(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidArgument("rho must be a square matrix")
    m = rho.shape[0]
    rho = SlitExperiment(m, rho, np.eye(m)).rho
    cut = projector_blockers(m)
    return float(np.abs(_inclusion_exclusion(lambda sub: cut[sub](rho), m)).max())
