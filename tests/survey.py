"""A seeded survey of valid quantum inputs through every entry point that
checks an operator, with quantum membership and effect questions posed as
perfbench's analytic workload poses them (about half answered "no"), and
a digest of the exact bytes of every answer.

    PYTHONPATH=<checkout>/src python tests/survey.py

prints the count of answers of each kind and the SHA-256 of their bytes;
two checkouts whose digests agree gave bitwise the same answers.  Only
public functions that every version of the package has are called, so
the digest of one checkout can be compared with another's.
"""

import hashlib
import sys
from collections import Counter

import numpy as np

from gptkit import bell, bloch, composites, interference, spaces

SEED = 2030
MARGIN = 0.02  # eigenvalues of the state and effect spectra stay this far from 0 and 1


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _with_spectrum(rng, ev):
    u = _unitary(rng, len(ev))
    return (u * ev) @ u.conj().T


def _density(rng, n):
    return _with_spectrum(rng, MARGIN + (1 - n * MARGIN) * rng.dirichlet(np.ones(n)))


def _effect(rng, n):
    return _with_spectrum(rng, rng.uniform(MARGIN, 1 - MARGIN, size=n))


def _coords(m):
    """Coordinates of a Hermitian matrix in ``spaces.hermitian_basis``."""
    return spaces.mat_to_coords((m + m.conj().T) / 2)


def answers(seed=SEED):
    """(kind, answer) pairs: each answer an array, float or bool.  A
    membership or effect question's kind ends with the answer its spectrum
    gives."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(40):  # Bell tables of random states and binary POVMs
        povms = [(e, np.eye(2) - e) for e in (_effect(rng, 2) for _ in range(4))]
        setup = bell.QubitBellSetup(_density(rng, 4), tuple(povms[:2]),
                                    tuple(povms[2:]))
        out.append(("quantum_table", bell.quantum_table(setup).p))
    out.append(("quantum_table", bell.quantum_table(bell.singlet_setup()).p))
    for _ in range(200):  # Bloch round trips, |r| <= 1
        r = rng.normal(size=3)
        r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
        rho = bloch.bloch_to_density(r)
        out += [("bloch_to_density", rho),
                ("density_to_bloch", bloch.density_to_bloch(rho))]
    for _ in range(50):
        out.append(("unitary_to_rotation",
                    bloch.unitary_to_rotation(_unitary(rng, 2))))
    for m in (2, 3, 4, 5):  # Sorkin residuals, without and with blockers
        for _ in range(10):
            exp = interference.SlitExperiment(m, _density(rng, m), _effect(rng, m))
            out.append(("sorkin", interference.sorkin(exp)))
            out.append(("sorkin blocked", interference.sorkin(
                exp, interference.projector_blockers(m))))
    for _ in range(10):
        exp = interference.SlitExperiment(3, _density(rng, 3), _effect(rng, 3))
        for blockers in (interference.rotated_blockers(rng.uniform(0.05, 0.8)),
                         interference.depolarize_then_project(rng.uniform(0, 0.5))):
            out.append(("sorkin blocked", interference.sorkin(exp, blockers)))
    for n in (2, 3, 4):  # quantum membership and effects, as analytic poses them
        space = spaces.make_quantum(n)
        for valid in (True, False):
            for _ in range(10):
                ev = MARGIN + (1 - n * MARGIN) * rng.dirichlet(np.ones(n))
                if not valid:
                    ev[np.argmin(ev)] -= 0.1
                    ev[np.argmax(ev)] += 0.1
                out.append((f"contains_state {ev.min() >= 0}", spaces.contains_state(
                    space, _coords(_with_spectrum(rng, ev)))))
                ev = rng.uniform(MARGIN, 1 - MARGIN, size=n)
                if not valid:
                    ev[rng.integers(n)] = rng.choice([-0.05, 1.05])
                out.append((f"is_effect {0 <= ev.min() and ev.max() <= 1}", spaces.is_effect(
                    space, _coords(_with_spectrum(rng, ev)))))
    for m in (2, 3, 4, 5):  # cut-state residuals
        out.append(("decomposition_residual",
                    interference.decomposition_residual(_density(rng, m))))
    for _ in range(10):  # quantum (x) quantum states in coordinates
        coords = _coords(_density(rng, 4))
        out += [("quantum_product_reduced",
                 composites.quantum_product_reduced(coords, 2, 2, side))
                for side in "AB"]
        out.append(("sampled_block_positive", composites.sampled_block_positive(
            coords, 2, 2, n_samples=50, seed=int(rng.integers(1000)))))
    return out


def digest(pairs):
    """SHA-256 of the kinds and the exact bytes of the answers, in order."""
    h = hashlib.sha256()
    for kind, value in pairs:
        h.update(kind.encode())
        h.update(np.asarray(value).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    pairs = answers(int(sys.argv[1]) if len(sys.argv) > 1 else SEED)
    for kind, count in sorted(Counter(kind for kind, _ in pairs).items()):
        print(f"{count:5d} {kind}")
    print(digest(pairs))
