"""Reference computations that share no code with gptkit.

Polytope questions go to scipy: qhull (``ConvexHull``,
``HalfspaceIntersection``) for facets and vertices, HiGHS (``linprog``) for
feasibility.  Bell tables, the Hermitian coordinate basis and the Pauli
algebra are written out here from their definitions.  scipy is imported
inside the functions that need it, so the timed phase of a run never pays
for it.
"""

import numpy as np

# A verdict may differ from qhull/HiGHS only for a point this close to a facet.
BOUNDARY_BAND = 1e-6
# Feasibility and equality tolerance for answers that carry a certificate.
CERT_TOL = 1e-7
SQRT8 = 2.0 * np.sqrt(2.0)


# ---------------------------------------------------------------------------
# polytopes

def affine_frame(vertices):
    """(origin, orthonormal basis as columns) of the affine hull of the rows."""
    v0 = vertices[0]
    diffs = vertices[1:] - v0
    _, s, vt = np.linalg.svd(diffs, full_matrices=False)
    rank = int((s > 1e-9 * max(1.0, s[0])).sum())
    return v0, vt[:rank].T


def facet_margin(vertices, x):
    """Largest facet violation of x for conv(vertices); +inf off the affine hull.

    Negative inside, positive outside, near zero on the boundary.
    """
    from scipy.spatial import ConvexHull

    v0, basis = affine_frame(vertices)
    t = basis.T @ (x - v0)
    if np.abs(x - (v0 + basis @ t)).max() > CERT_TOL:
        return np.inf
    pts = (vertices - v0) @ basis
    if basis.shape[1] == 1:
        return float(max(pts[:, 0].min() - t[0], t[0] - pts[:, 0].max()))
    hull = ConvexHull(pts)
    return float((hull.equations[:, :-1] @ t + hull.equations[:, -1]).max())


def hull_vertex_indices(vertices):
    """Indices of the rows that are vertices of their convex hull (qhull)."""
    from scipy.spatial import ConvexHull

    v0, basis = affine_frame(vertices)
    pts = (vertices - v0) @ basis
    if basis.shape[1] == 1:
        return {int(pts[:, 0].argmin()), int(pts[:, 0].argmax())}
    return {int(i) for i in ConvexHull(pts).vertices}


def highs_convex_feasible(vertices, x):
    """Is x a convex combination of the rows of ``vertices`` (HiGHS)?"""
    from scipy.optimize import linprog

    k = vertices.shape[0]
    res = linprog(np.zeros(k), A_eq=np.vstack([vertices.T, np.ones(k)]),
                  b_eq=np.append(x, 1.0), bounds=[(0, None)] * k,
                  method="highs")
    return res.status == 0


def highs_distinguishable(vertices, u, states):
    """Is there a measurement e_1..e_n, e_i in [0, 1] on every vertex,
    sum e_i = u, with e_i(states[j]) = delta_ij (HiGHS)?"""
    from scipy.optimize import linprog

    n, k = states.shape
    nv = vertices.shape[0]
    a_ub = np.zeros((2 * n * nv, n * k))
    for i in range(n):
        a_ub[i * nv:(i + 1) * nv, i * k:(i + 1) * k] = -vertices
        a_ub[(n + i) * nv:(n + i + 1) * nv, i * k:(i + 1) * k] = vertices
    b_ub = np.concatenate([np.zeros(n * nv), np.ones(n * nv)])
    a_eq = [np.tile(np.eye(k), n)]
    b_eq = [u]
    for i in range(n):
        block = np.zeros((n, n * k))
        block[:, i * k:(i + 1) * k] = states
        a_eq.append(block)
        b_eq.append(np.eye(n)[i])
    res = linprog(np.zeros(n * k), A_ub=a_ub, b_ub=b_ub,
                  A_eq=np.vstack(a_eq), b_eq=np.concatenate(b_eq),
                  bounds=[(None, None)] * (n * k), method="highs")
    return res.status == 0


def check_measurement(vertices, u, states, effects):
    """Largest violation of: e_i in [0, 1] on every vertex, sum e_i = u,
    e_i(states[j]) = delta_ij for j < n.  Zero for a perfect witness."""
    effects = np.asarray(effects, dtype=float)
    n = states.shape[0]
    vals = vertices @ effects.T
    range_err = max(-vals.min(), vals.max() - 1.0, 0.0)
    sum_err = np.abs(effects.sum(axis=0) - u).max()
    delta_err = np.abs((effects @ states.T)[:n, :n] - np.eye(n)).max()
    return float(max(range_err, sum_err, delta_err))


def facet_functionals(vertices, u):
    """Extreme rays of the dual cone of cone(vertices), the polytope spanning
    the slice u.x = 1: one functional per facet, nonnegative on the polytope."""
    from scipy.spatial import ConvexHull

    k = vertices.shape[0]
    if k == len(u) and abs(np.linalg.det(vertices)) > 1e-9:
        return np.linalg.inv(vertices).T  # a simplex: the dual basis
    v0, basis = affine_frame(vertices)
    hull = ConvexHull((vertices - v0) @ basis)
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    # on the slice, -(n.B^T(x - v0) + c) >= 0; write the constant as c' u.x
    lin = -(basis @ normals.T).T
    const = normals @ (basis.T @ v0) - offsets
    return lin + const[:, None] * (u / (u @ u))[None, :]


def max_tensor_hrep(va, ua, vb, ub):
    """(inequality rows, unit) of the maximal tensor product of two polytopes."""
    fa = facet_functionals(va, ua)
    fb = facet_functionals(vb, ub)
    rows = np.array([np.kron(f, g) for f in fa for g in fb])
    return rows, np.kron(ua, ub)


def halfspace_vertices(rows, u, interior):
    """Vertices of {x : rows @ x >= 0, u.x = 1} by qhull, deduplicated."""
    from scipy.spatial import HalfspaceIntersection

    _, _, vt = np.linalg.svd(u[None, :])
    basis = vt[1:].T
    # qhull wants A t + b <= 0 for x = interior + basis t
    halfspaces = np.hstack([-(rows @ basis), -(rows @ interior)[:, None]])
    hs = HalfspaceIntersection(halfspaces, np.zeros(basis.shape[1]))
    return dedup_rows(interior + hs.intersections @ basis.T, 1e-7)


def dedup_rows(rows, tol):
    out = []
    for r in rows:
        if not any(np.abs(r - q).max() <= tol for q in out):
            out.append(r)
    return np.array(out)


def tight_rank(rows, u, v, tol=1e-7):
    """Rank of the inequality rows tight at v, stacked with u."""
    scale = np.abs(rows).max(axis=1) * max(1.0, np.abs(v).max())
    tight = rows[np.abs(rows @ v) <= tol * scale]
    return int(np.linalg.matrix_rank(np.vstack([tight, u]), tol=1e-9))


def same_vertex_set(found, expected, tol=1e-7):
    """True iff the two row sets match one to one within tol."""
    if found.shape != expected.shape:
        return False
    left = list(range(len(expected)))
    for v in found:
        hit = next((j for j in left if np.abs(v - expected[j]).max() <= tol), None)
        if hit is None:
            return False
        left.remove(hit)
    return True


def regular_polygon(n):
    """Vertices (cos, sin, 1) of the regular n-gon, first vertex at angle 0."""
    a = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(a), np.sin(a), np.ones(n)], axis=1)


# ---------------------------------------------------------------------------
# the (2,2,2) Bell scenario; entry index 8x + 4y + 2a' + b', v' = (v + 1)/2

def deterministic_tables():
    """16 x 16: row 8 f0' + 4 f1' + 2 g0' + g1' is the table a = f(x), b = g(y)."""
    out = np.zeros((16, 16))
    for k in range(16):
        f = ((k >> 3) & 1, (k >> 2) & 1)
        g = ((k >> 1) & 1, k & 1)
        for x in (0, 1):
            for y in (0, 1):
                out[k, 8 * x + 4 * y + 2 * f[x] + g[y]] = 1.0
    return out


def pr_table(alpha, beta, gamma):
    """p = 1/2 where a b = (-1)^(xy + alpha x + beta y + gamma)."""
    p = np.zeros(16)
    for x in (0, 1):
        for y in (0, 1):
            same = ((x * y) ^ (alpha * x) ^ (beta * y) ^ gamma) == 0
            for ap in (0, 1):
                for bp in (0, 1):
                    if (ap == bp) == same:
                        p[8 * x + 4 * y + 2 * ap + bp] = 0.5
    return p


def correlators(p):
    """E[x, y] = <a b> of a 16-entry table."""
    q = np.asarray(p, dtype=float).reshape(2, 2, 2, 2)
    return q[:, :, 0, 0] + q[:, :, 1, 1] - q[:, :, 0, 1] - q[:, :, 1, 0]


# The eight CHSH forms: sign patterns on (E00, E01, E10, E11) with an odd
# number of minus signs.
CHSH_SIGNS = np.array([s for s in np.ndindex(2, 2, 2, 2) if sum(s) % 2 == 1],
                      dtype=float).reshape(-1, 2, 2) * -2 + 1


def chsh_value(p):
    e = correlators(p)
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def max_chsh_form(p):
    """Largest of the eight CHSH expressions.  By Fine's theorem a
    no-signalling (2,2,2) table has a local model iff this is <= 2."""
    return float((CHSH_SIGNS * correlators(p)).sum(axis=(1, 2)).max())


def nonsignalling_error(p):
    q = np.asarray(p, dtype=float).reshape(2, 2, 2, 2)
    alice = q.sum(axis=3)  # [x, y, a']
    bob = q.sum(axis=2)    # [x, y, b']
    return float(max(np.abs(alice[:, 0] - alice[:, 1]).max(),
                     np.abs(bob[0] - bob[1]).max()))


# ---------------------------------------------------------------------------
# qubits and Hermitian coordinates

PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))


def herm_coords(m):
    """Coordinates in gptkit's documented basis: the diagonal, then for each
    i < j the real and imaginary parts of m_ij, each times sqrt 2."""
    n = m.shape[0]
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = [m[i, i].real for i in range(n)]
    for i, j in upper:
        out += [np.sqrt(2.0) * m[i, j].real, np.sqrt(2.0) * m[i, j].imag]
    return np.array(out)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bloch_vector(rho):
    return np.array([np.trace(rho @ s).real for s in PAULI])


def density(r):
    return 0.5 * (np.eye(2) + sum(ri * s for ri, s in zip(r, PAULI)))


def chsh_operator_from_povms(alice, bob):
    """A0 B0 + A0 B1 + A1 B0 - A1 B1 with A_x = E_x^+ - E_x^-."""
    a = [np.asarray(ep) - np.asarray(em) for em, ep in alice]
    b = [np.asarray(ep) - np.asarray(em) for em, ep in bob]
    return (np.kron(a[0], b[0]) + np.kron(a[0], b[1])
            + np.kron(a[1], b[0]) - np.kron(a[1], b[1]))


def click(rho, q, proj):
    return float(np.trace(proj @ rho @ proj @ q).real)


def slit_projector(m, subset):
    p = np.zeros((m, m), dtype=complex)
    for i in subset:
        p[i - 1, i - 1] = 1.0
    return p


def span_projector(vectors):
    """Orthogonal projector onto the span of the columns."""
    return vectors @ np.linalg.pinv(vectors)
