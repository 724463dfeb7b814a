"""Bloch-ball machinery for the qubit and the verifiable consequences of
the reconstruction: the density-matrix correspondence, the unitary to
SO(3) rotation map, group averaging, and the dimension laws K = N^r.

Haar averages come in two forms: ``haar_so3`` returns the n rotations
(for checks that need the samples), and ``haar_mean`` returns only their
mean, summed block by block, so its memory does not grow with n.
"""

import numpy as np

from .errors import InvalidArgument, NotAState, TooFewSamples
from .lp import FEASTOL

PAULI = np.array([[[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]],
                  [[1, 0], [0, -1]]], dtype=complex)


def bloch_to_density(r):
    """rho = (1 + r.sigma)/2 for a Bloch vector with |r| <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise NotAState("Bloch vector must have 3 components")
    if np.linalg.norm(r) > 1.0 + FEASTOL:
        raise NotAState("|r| > 1")
    return 0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]],
                           [r[0] + 1j * r[1], 1 - r[2]]])


def density_to_bloch(rho):
    """Inverse map: r_i = tr(rho sigma_i)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2) or np.abs(rho - rho.conj().T).max() > FEASTOL:
        raise NotAState("need a 2x2 Hermitian matrix")
    if abs(np.trace(rho).real - 1.0) > FEASTOL or \
            np.linalg.eigvalsh(rho).min() < -FEASTOL:
        raise NotAState("not a density matrix")
    return np.array([np.trace(rho @ s).real for s in PAULI])


def unitary_to_rotation(u):
    """R_ij = tr(sigma_i U sigma_j U^dag) / 2; lands in SO(3)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.abs(u.conj().T @ u - np.eye(2)).max() > FEASTOL:
        raise InvalidArgument("input is not unitary")
    m = PAULI[:, None] @ u @ PAULI @ u.conj().T  # [i, j] = sigma_i U sigma_j U^dag
    return 0.5 * np.trace(m, axis1=2, axis2=3).real


# Samples per block of haar_mean: about 0.6 MB of rotations, and a traced
# peak (tracemalloc) of about 1.1 MB whatever n is.
HAAR_BLOCK = 2 ** 13


def haar_so3(rng, n):
    """n Haar-uniform SO(3) matrices via normalized Gaussian quaternions."""
    if n < 0:
        raise InvalidArgument(f"sample count must be >= 0, got {n}")
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    r = np.empty((n, 3, 3))
    r[:, 0, 0] = 1 - 2 * (y ** 2 + z ** 2)
    r[:, 0, 1] = 2 * (x * y - w * z)
    r[:, 0, 2] = 2 * (x * z + w * y)
    r[:, 1, 0] = 2 * (x * y + w * z)
    r[:, 1, 1] = 1 - 2 * (x ** 2 + z ** 2)
    r[:, 1, 2] = 2 * (y * z - w * x)
    r[:, 2, 0] = 2 * (x * z - w * y)
    r[:, 2, 1] = 2 * (y * z + w * x)
    r[:, 2, 2] = 1 - 2 * (x ** 2 + y ** 2)
    return r


def haar_mean(rng, n):
    """Mean of the n rotations haar_so3(rng, n) would return, from the same
    normal draws, summed over blocks of HAAR_BLOCK samples."""
    if n < 1:
        raise TooFewSamples("need at least one sample")
    total = np.zeros((3, 3))
    for start in range(0, n, HAAR_BLOCK):
        total += haar_so3(rng, min(HAAR_BLOCK, n - start)).sum(axis=0)
    return total / n


def group_average_state(samples, omega):
    """Monte-Carlo average of T omega over rotation samples.

    Converges to the invariant (maximally mixed) state, i.e. the origin,
    as the sample count grows.  By linearity the samples are averaged
    first and the mean applied to omega once.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 2:
        samples = samples[None]
    if samples.shape[0] < 1:
        raise TooFewSamples("need at least one sample")
    omega = np.asarray(omega, dtype=float)
    return samples.mean(axis=0) @ omega


def invariant_inner_product(samples, seed=0):
    """Group-averaged Gram matrix of a random seed inner product.

    By Schur's lemma the average is proportional to the identity; the
    result is normalized so pure states (unit vectors) have norm 1.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 10:
        raise TooFewSamples("need at least 10 samples")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    g0 = a @ a.T + 3 * np.eye(3)  # positive definite seed metric
    # g_jl = mean_n R_ij g0_ik R_kl from one (9 x n)(n x 9) moment product
    moments = np.tensordot(samples, samples, axes=(0, 0))
    g = np.einsum("ijkl,ik->jl", moments, g0) / samples.shape[0]
    # normalize so that the average norm over the coordinate axes is 1
    alpha = 3.0 / np.trace(g)
    return alpha * g


def check_dimension_law(n_max=5):
    """K = N for classical and K = N^2 for quantum, N = 1..n_max, plus
    multiplicativity of K and supermultiplicativity of capacity on
    composites of classical and of quantum factors."""
    if n_max < 2:
        raise InvalidArgument("need n_max >= 2")
    from .composites import check_supermultiplicativity, min_tensor
    from .spaces import make_classical, make_quantum

    report = {"classical": {}, "quantum": {}, "composites": []}
    for n in range(1, n_max + 1):
        report["classical"][n] = make_classical(n).ambient_dim
        report["quantum"][n] = make_quantum(n).ambient_dim
    ok = all(report["classical"][n] == n for n in report["classical"]) and \
        all(report["quantum"][n] == n * n for n in report["quantum"])

    for kind, ma, mb in [("classical", 2, 2), ("classical", 2, 3),
                         ("classical", 3, 2), ("quantum", 2, 2),
                         ("quantum", 2, 3)]:
        make = make_classical if kind == "classical" else make_quantum
        sa, sb = make(ma), make(mb)
        # the classical composite is built; the quantum one is K = (N_A N_B)^2
        comp = min_tensor(sa, sb) if kind == "classical" else None
        k_ab = (ma * mb) ** 2 if comp is None else comp.ambient_dim
        sup = check_supermultiplicativity(sa, sb, comp)
        entry = {
            "factors": (kind, ma, mb),
            "k_law": k_ab == sa.ambient_dim * sb.ambient_dim,
            "capacity_bound": sup["lower_bound"],
            "capacity_verified": sup["verified"],
        }
        ok = ok and entry["k_law"] and sup["verified"] and sup["lower_bound"] == ma * mb
        report["composites"].append(entry)

    report["all_hold"] = ok
    return report
