"""Double-description machinery for pointed polyhedral cones.

``cone_extreme_rays`` enumerates the extreme rays of {x : A x >= 0} for a
pointed cone (rank(A) = dim).  It is the workhorse behind dual-cone
(effect cone) generation and vertex enumeration of maximal tensor
products.  Each step keeps the rays' tight rows as a boolean incidence
matrix and decides adjacency combinatorially (Fukuda & Prodon, "Double
description method revisited", 1996): two rays are adjacent when they
share at least dim - 2 tight rows and no third ray is tight on all of
them.
"""

import numpy as np

from .errors import ScaleLimit
from .lp import FEASTOL, RANK_TOL

# Desk-scale limits of ``polytope_vertices``.
MAX_INEQS = 64
MAX_DIM = 16


def _normalize(r):
    return r / np.linalg.norm(r)


def _initial_basis_rows(a):
    """Indices of rows forming an invertible submatrix, chosen greedily."""
    n = a.shape[1]
    chosen = []
    rank = 0
    for i in range(a.shape[0]):
        trial = chosen + [i]
        if np.linalg.matrix_rank(a[trial], tol=RANK_TOL) > rank:
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
    rays = np.array([_normalize(binv[:, j]) for j in range(n)])
    processed = list(base)
    for i in range(m):
        if i in base:
            continue
        s = np.array([a[i] @ r for r in rays])
        pos = np.flatnonzero(s > FEASTOL)
        neg = np.flatnonzero(s < -FEASTOL)
        new = list(rays[pos]) + list(rays[np.abs(s) <= FEASTOL])
        if neg.size:
            tight = np.abs(rays @ a[processed].T) <= FEASTOL
            loose = (~tight).astype(float)
            for p in pos:
                shared = tight[neg] & tight[p]
                cand = shared.sum(axis=1) >= n - 2
                # adjacent: no ray but p and the negative one is tight on
                # every shared row
                misses = shared[cand].astype(float) @ loose.T
                adj = neg[cand][(misses == 0).sum(axis=1) == 2]
                new += [_normalize(s[p] * rays[j] - s[j] * rays[p]) for j in adj]
        # each new ray lies inside a different 2-face: no duplicates arise
        rays = np.array(new)
        processed.append(i)
    return rays


def polytope_vertices(ineqs, u):
    """Vertices of {x : ineqs @ x >= 0, u.x = 1} via double description.

    The inequality system must define a pointed cone whose every extreme
    ray r has u.r > 0 (i.e. the polytope is bounded).
    """
    ineqs = np.asarray(ineqs, dtype=float)
    u = np.asarray(u, dtype=float)
    if ineqs.shape[0] > MAX_INEQS:
        raise ScaleLimit(f"too many inequalities ({ineqs.shape[0]} > {MAX_INEQS})")
    if ineqs.shape[1] > MAX_DIM:
        raise ScaleLimit(f"dimension too large ({ineqs.shape[1]} > {MAX_DIM})")
    rays = cone_extreme_rays(ineqs)
    verts = []
    for r in rays:
        h = u @ r
        if h <= FEASTOL:
            raise ScaleLimit("unbounded polytope: ray with u.r <= 0")
        verts.append(r / h)
    return np.array(verts)
