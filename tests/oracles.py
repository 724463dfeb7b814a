"""Independent oracles used to cross-check the LP-backed procedures.

Membership: facet enumeration via qhull (scipy.spatial.ConvexHull) on the
affine slice of the polytope, entirely separate from the simplex path.
Vertices of an H-representation: qhull's halfspace intersection
(scipy.spatial.HalfspaceIntersection), not double description.
Distinguishability / feasibility: the same constraint systems handed to
scipy.optimize.linprog (HiGHS), an unrelated LP implementation.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

ORACLE_TOL = 1e-7


def affine_frame(vertices):
    """(origin, basis) of the affine hull of the vertex set."""
    v0 = vertices[0]
    diffs = vertices[1:] - v0
    if len(diffs) == 0:
        return v0, np.zeros((vertices.shape[1], 0))
    _, s, vt = np.linalg.svd(diffs, full_matrices=False)
    rank = int((s > 1e-9 * max(1.0, s[0] if len(s) else 1.0)).sum())
    return v0, vt[:rank].T


def facet_membership(vertices, x, tol=ORACLE_TOL):
    """Membership in conv(vertices) by explicit facet enumeration."""
    vertices = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    v0, basis = affine_frame(vertices)
    k = basis.shape[1]
    t = basis.T @ (x - v0)
    # point must lie in the affine hull at all
    if np.abs(x - (v0 + basis @ t)).max() > tol:
        return False
    pts = (vertices - v0) @ basis
    if k == 0:
        return True
    if k == 1:
        lo, hi = pts[:, 0].min(), pts[:, 0].max()
        return lo - tol <= t[0] <= hi + tol
    hull = ConvexHull(pts)
    return bool(np.all(hull.equations[:, :-1] @ t + hull.equations[:, -1] <= tol))


def facet_margin(vertices, x):
    """Signed distance proxy: max facet violation (negative means inside).

    Returns +inf when x is off the affine hull of the vertices.
    """
    vertices = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    v0, basis = affine_frame(vertices)
    t = basis.T @ (x - v0)
    off = np.abs(x - (v0 + basis @ t)).max()
    if off > ORACLE_TOL:
        return np.inf
    k = basis.shape[1]
    pts = (vertices - v0) @ basis
    if k == 0:
        return 0.0
    if k == 1:
        return max(pts[:, 0].min() - t[0], t[0] - pts[:, 0].max())
    hull = ConvexHull(pts)
    return float((hull.equations[:, :-1] @ t + hull.equations[:, -1]).max())


def halfspace_vertices(rows, u, interior, tol=ORACLE_TOL):
    """Vertices of {x : rows x >= 0, u.x = 1} by halfspace intersection.

    ``interior`` must satisfy u.interior = 1 and lie strictly inside every
    halfspace.  Vertices met by several facet combinations are kept once.
    """
    basis = np.linalg.svd(u[None, :])[2][1:].T
    # qhull wants A t + b <= 0 for x = interior + basis t
    halfspaces = np.hstack([-(rows @ basis), -(rows @ interior)[:, None]])
    hs = HalfspaceIntersection(halfspaces, np.zeros(basis.shape[1]))
    out = []
    for v in interior + hs.intersections @ basis.T:
        if not any(np.abs(v - q).max() <= tol for q in out):
            out.append(v)
    return np.array(out)


def scipy_convex_combination_feasible(vertices, x):
    """Can x be written as a convex combination of the vertices (HiGHS)?"""
    vertices = np.asarray(vertices, dtype=float)
    k = vertices.shape[0]
    a_eq = np.vstack([vertices.T, np.ones(k)])
    b_eq = np.concatenate([np.asarray(x, dtype=float), [1.0]])
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * k, method="highs")
    return res.status == 0


def scipy_distinguishable(space, states):
    """Independent joint-distinguishability feasibility check (HiGHS)."""
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    k = space.ambient_dim
    verts = space.vertices
    nv = verts.shape[0]
    a_ub = np.zeros((n * nv, n * k))
    for i in range(n):
        a_ub[i * nv:(i + 1) * nv, i * k:(i + 1) * k] = -verts
    b_ub = np.zeros(n * nv)
    eqs = []
    rhs = []
    for c in range(k):
        row = np.zeros(n * k)
        for i in range(n):
            row[i * k + c] = 1.0
        eqs.append(row)
        rhs.append(space.u[c])
    for i in range(n):
        for j in range(n):
            row = np.zeros(n * k)
            row[i * k:(i + 1) * k] = states[j]
            eqs.append(row)
            rhs.append(1.0 if i == j else 0.0)
    res = linprog(np.zeros(n * k), A_ub=a_ub, b_ub=b_ub,
                  A_eq=np.array(eqs), b_eq=np.array(rhs),
                  bounds=[(None, None)] * (n * k), method="highs")
    return res.status == 0
