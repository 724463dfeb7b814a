"""Double-description machinery for pointed polyhedral cones.

``cone_extreme_rays`` enumerates the extreme rays of {x : A x >= 0} for a
pointed cone (rank(A) = dim).  It is the workhorse behind dual-cone
(effect cone) generation and vertex enumeration of maximal tensor
products.  Sizes around here are tiny (tens of inequalities, dimension
<= 16), so the incremental algorithm with an algebraic adjacency test is
entirely adequate.
"""

import numpy as np

from .errors import ScaleLimit
from .lp import DEDUP_TOL, FEASTOL


def _normalize(r):
    return r / np.linalg.norm(r)


def _initial_basis_rows(a):
    """Indices of rows forming an invertible submatrix, chosen greedily."""
    n = a.shape[1]
    chosen = []
    rank = 0
    for i in range(a.shape[0]):
        trial = chosen + [i]
        if np.linalg.matrix_rank(a[trial], tol=1e-10) > rank:
            chosen = trial
            rank += 1
        if rank == n:
            return chosen
    raise ScaleLimit("cone is not pointed: constraint matrix is rank-deficient")


def cone_extreme_rays(a):
    """Extreme rays of the pointed cone {x : a x >= 0}, unit-normalized.

    Returns an (n_rays, dim) array.  Deterministic: row processing order
    and the initial basis choice are fixed by the input ordering.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    base = _initial_basis_rows(a)
    binv = np.linalg.inv(a[base])
    rays = [_normalize(binv[:, j]) for j in range(n)]
    processed = list(base)
    for i in range(m):
        if i in base:
            continue
        row = a[i]
        s = np.array([row @ r for r in rays])
        pos = [r for r, v in zip(rays, s) if v > FEASTOL]
        zero = [r for r, v in zip(rays, s) if abs(v) <= FEASTOL]
        neg = [r for r, v in zip(rays, s) if v < -FEASTOL]
        new = pos + zero
        if neg:
            a_proc = a[processed]
            for rp, sp in zip(rays, s):
                if sp <= FEASTOL:
                    continue
                for rn, sn in zip(rays, s):
                    if sn >= -FEASTOL:
                        continue
                    if _adjacent(a_proc, rp, rn, n):
                        comb = sp * rn - sn * rp
                        new.append(_normalize(comb))
        rays = dedup_rows(new)
        processed.append(i)
    return np.array(rays)


def _adjacent(a_proc, r1, r2, n):
    """True iff r1, r2 are adjacent: shared tight constraints have rank n-2."""
    t1 = np.abs(a_proc @ r1) <= FEASTOL
    t2 = np.abs(a_proc @ r2) <= FEASTOL
    shared = a_proc[t1 & t2]
    if shared.shape[0] < n - 2:
        return False
    return np.linalg.matrix_rank(shared, tol=1e-10) >= n - 2


def dedup_rows(rows, tol=DEDUP_TOL):
    """The rows with near-duplicates dropped, in first-occurrence order.

    A row is dropped when it lies within ``tol`` (sup-norm) of a row
    already kept.
    """
    rows = np.asarray(rows, dtype=float)
    out = np.empty_like(rows)
    k = 0
    for r in rows:
        if not (np.abs(out[:k] - r).max(axis=1) <= tol).any():
            out[k] = r
            k += 1
    return out[:k]


def polytope_vertices(ineqs, u, max_ineqs=64, max_dim=16):
    """Vertices of {x : ineqs @ x >= 0, u.x = 1} via double description.

    The inequality system must define a pointed cone whose every extreme
    ray r has u.r > 0 (i.e. the polytope is bounded).
    """
    ineqs = np.asarray(ineqs, dtype=float)
    u = np.asarray(u, dtype=float)
    if ineqs.shape[0] > max_ineqs:
        raise ScaleLimit(f"too many inequalities ({ineqs.shape[0]} > {max_ineqs})")
    if ineqs.shape[1] > max_dim:
        raise ScaleLimit(f"dimension too large ({ineqs.shape[1]} > {max_dim})")
    rays = cone_extreme_rays(ineqs)
    verts = []
    for r in rays:
        h = u @ r
        if h <= FEASTOL:
            raise ScaleLimit("unbounded polytope: ray with u.r <= 0")
        verts.append(r / h)
    return dedup_rows(verts)


def dual_cone_rays(generators):
    """Extreme rays of {e : e.g >= 0 for every generator g}."""
    return cone_extreme_rays(np.asarray(generators, dtype=float))
