"""Sorkin interference quantities for 2- and 3-slit arrangements.

Click probabilities are P_I = tr(P_I rho P_I Q) with P_I the projector
onto the open-slit subspace.  The second-order quantity
I2 = P12 - P1 - P2 is generically nonzero in quantum mechanics; the
third-order residual I3 = P123 - P12 - P13 - P23 + P1 + P2 + P3
vanishes identically, which is exposed here as a directly assertable
residual.  Replacing the orthogonal projectors by general
trace-nonincreasing blocking maps breaks the identity.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (EmptySubset, InvalidArgument, InvalidKraus,
                     WrongSlitCount)
from .lp import FEASTOL

SUBSETS_3 = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


@dataclass(frozen=True, eq=False)
class SlitExperiment:
    """Which-slit state rho, detector effect q, for m = 2 or 3 slits.

    The slit basis is the standard basis; the slit projectors are the
    rank-1 diagonal projectors in that basis.
    """

    m: int
    rho: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if self.m not in (2, 3):
            raise WrongSlitCount("slit count must be 2 or 3")
        rho = np.asarray(self.rho, dtype=complex)
        q = np.asarray(self.q, dtype=complex)
        if rho.shape != (self.m, self.m) or q.shape != (self.m, self.m):
            raise InvalidArgument("rho and q must be m x m matrices")
        if np.abs(rho - rho.conj().T).max() > FEASTOL or \
                abs(np.trace(rho).real - 1.0) > FEASTOL or \
                np.linalg.eigvalsh(rho).min() < -FEASTOL:
            raise InvalidArgument("rho is not a density matrix")
        ev = np.linalg.eigvalsh((q + q.conj().T) / 2)
        if np.abs(q - q.conj().T).max() > FEASTOL or ev.min() < -FEASTOL or \
                ev.max() > 1 + FEASTOL:
            raise InvalidArgument("q is not an effect (0 <= Q <= 1)")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "q", q)

    def projector(self, open_slits):
        return _slit_projector(self.m, open_slits)


def _slit_projector(m, open_slits):
    """Diagonal projector onto the open slits (1-based) of m slits."""
    p = np.zeros((m, m), dtype=complex)
    for i in open_slits:
        p[i - 1, i - 1] = 1.0
    return p


def click_probability(exp, open_slits):
    """tr(P_I rho P_I Q) for the given open-slit subset (1-based)."""
    open_slits = tuple(sorted(set(open_slits)))
    if not open_slits:
        raise EmptySubset("at least one slit must be open")
    if any(i < 1 or i > exp.m for i in open_slits):
        raise InvalidArgument("slit index out of range")
    proj = exp.projector(open_slits)
    return float(np.trace(proj @ exp.rho @ proj @ exp.q).real)


def sorkin_i2(exp):
    """P12 - P1 - P2 (second-order interference)."""
    if exp.m != 2:
        raise WrongSlitCount("I2 needs a 2-slit experiment")
    return (click_probability(exp, (1, 2))
            - click_probability(exp, (1,))
            - click_probability(exp, (2,)))


def sorkin_i3(exp):
    """P123 - P12 - P13 - P23 + P1 + P2 + P3; zero in quantum mechanics."""
    if exp.m != 3:
        raise WrongSlitCount("I3 needs a 3-slit experiment")
    p = {s: click_probability(exp, s) for s in SUBSETS_3}
    return (p[(1, 2, 3)] - p[(1, 2)] - p[(1, 3)] - p[(2, 3)]
            + p[(1,)] + p[(2,)] + p[(3,)])


@dataclass(frozen=True, eq=False)
class BlockingMap:
    """Completely positive trace-nonincreasing map via Kraus operators."""

    kraus: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise InvalidKraus("need at least one Kraus operator")
        total = sum(k.conj().T @ k for k in ops)
        if np.linalg.eigvalsh(total).max() > 1.0 + FEASTOL:
            raise InvalidKraus("sum K^dag K exceeds the identity")
        object.__setattr__(self, "kraus", ops)

    def __call__(self, rho):
        return sum(k @ rho @ k.conj().T for k in self.kraus)


def projector_blockers(m=3):
    """The canonical orthogonal-projector blockings, one per subset."""
    return {s: BlockingMap((_slit_projector(m, s),)) for s in SUBSETS_3}


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
    for sub in SUBSETS_3:
        cols = vecs[:, [i - 1 for i in sub]]
        q, _ = np.linalg.qr(cols)
        out[sub] = BlockingMap((q @ q.conj().T,))
    return out


def depolarize_then_project(strength=0.1):
    """Blockings that depolarize with subset-dependent strength, then
    apply the orthogonal projector.  The state fed into the projector
    differs per subset, so the residual is generically nonzero."""
    base = projector_blockers()
    out = {}
    for sub, b in base.items():
        proj = b.kraus[0]
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
    """Third-order residual with the projector blockings replaced by maps.

    ``blockers`` maps each of the 7 open-slit subsets to a BlockingMap.
    """
    for s in SUBSETS_3:
        if s not in blockers:
            raise InvalidKraus(f"missing blocker for subset {s}")
    rho = np.asarray(rho, dtype=complex)
    q = np.asarray(q, dtype=complex)

    def p(sub):
        return float(np.trace(blockers[sub](rho) @ q).real)

    return (p((1, 2, 3)) - p((1, 2)) - p((1, 3)) - p((2, 3))
            + p((1,)) + p((2,)) + p((3,)))


def decomposition_residual(rho):
    """Entrywise residual of rho_123 - sum_ij rho_ij + sum_i rho_i."""
    rho = np.asarray(rho, dtype=complex)

    def cut(sub):
        proj = _slit_projector(3, sub)
        return proj @ rho @ proj

    total = (cut((1, 2, 3)) - cut((1, 2)) - cut((1, 3)) - cut((2, 3))
             + cut((1,)) + cut((2,)) + cut((3,)))
    return float(np.abs(total).max())
