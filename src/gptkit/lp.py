"""Phase-1 simplex feasibility with Farkas certificates.

Every LP in the package is a feasibility question over x >= 0: is there an
x >= 0 with A_eq x = b_eq and A_ub x >= b_ub?  ``solve`` answers it with a
dense tableau and Bland's rule (lowest index) for both the entering and the
leaving variable, so every answer is fully deterministic and cycling is
impossible.  There is no objective and no phase 2.  Problem sizes around
here never exceed a few hundred variables.

The one standard form is A z = b, z >= 0: the rows of ``a_eq``, then the
rows of ``a_ub`` with one surplus column each, all flipped so that b >= 0.
A membership LP over k vertices in dimension K is thus a (K + 1) x k
tableau.  Below [A | b] sits the phase-1 reduced-cost row, and every pivot
is one rank-1 update of the whole tableau, that row included.  Phase 1
starts from one artificial per row in the basis.  Artificial columns are
not stored: an artificial that leaves the basis never re-enters, and phase
1 still ends at zero exactly when the system is feasible.

Infeasible verdicts are certified: phase 1 ends with a Farkas vector
y = c_B B^{-1} with y^T A <= 0 and y^T b > 0 for the standard-form system.
y is solved for from the basis columns of the original [A | I], not read
off the tableau, and re-checked before the verdict is returned.

``hull_weights`` (is x a convex combination of given points?) has two
kinds of certificate for "no".  Before it poses the LP it tries one Farkas
vector of its own, from the ray between the points' centroid and x.  That
guess must pass the check the simplex's certificate passes (``_refutes``);
when it fails, the LP is posed exactly as it would be without the guess.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NumericalFailure

# Single feasibility tolerance for the whole package.
FEASTOL = 1e-9
# Farkas certificates are validated at a looser tolerance.
CERT_TOL = 1e-7
# A hidden-variable model rebuilt from LP weights must reproduce its Bell
# table to this; each entry sums 16 weights, each feasible only to FEASTOL.
MODEL_TOL = 1e-7
# A distinguishability witness from the LP must reach e_i(omega_j) = delta_ij
# to this; each value sums effect coefficients solved only to FEASTOL.
WITNESS_TOL = 1e-7
# ``bell.classify_ns_vertex`` names a table after a deterministic or PR box
# within this sup-norm distance: a vertex from the double description carries
# rounding from normalising and recombining rays, above FEASTOL, while distinct
# no-signalling vertices lie at least 1/2 apart.
DEDUP_TOL = 1e-8
# Pivot threshold: entries smaller than this are treated as zero.
_PIVTOL = 1e-10

MAX_PIVOTS = 10 ** 6


@dataclass(eq=False)
class LpProblem:
    """Find x >= 0 with A_eq x = b_eq and A_ub x >= b_ub.

    Every variable is nonnegative; there are no other bounds.  A free
    variable, which ``bounds=None`` used to mean, is posed as the
    difference of two columns.
    """

    n_vars: int
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None

    def __post_init__(self):
        n = self.n_vars
        if n < 1:
            raise DimensionMismatch("need at least one variable")
        for name in ("eq", "ub"):
            a = getattr(self, "a_" + name)
            b = getattr(self, "b_" + name)
            if (a is None) != (b is None):
                raise DimensionMismatch(f"a_{name}/b_{name} must be given together")
            if a is not None:
                a = np.atleast_2d(np.asarray(a, dtype=float))
                b = np.atleast_1d(np.asarray(b, dtype=float))
                if a.shape[1] != n or a.shape[0] != b.shape[0]:
                    raise DimensionMismatch(f"a_{name} shape {a.shape} inconsistent")
                if not (np.isfinite(a).all() and np.isfinite(b).all()):
                    raise InvalidArgument(f"a_{name}/b_{name} has a non-finite entry")
                setattr(self, "a_" + name, a)
                setattr(self, "b_" + name, b)


@dataclass(eq=False)
class LpResult:
    status: str  # "optimal" (feasible, x given) | "infeasible"
    x: np.ndarray | None = None
    # Farkas vector y (y.A <= 0, y.b > 0) for the standard-form rows, present
    # iff infeasible.  Rows: the equalities, then the rows of a_ub.
    certificate: np.ndarray | None = field(default=None, repr=False)


def _pivot(tab, basis, r, j):
    """Gauss-Jordan pivot on (r, j) as one in-place rank-1 update."""
    tab[r] /= tab[r, j]
    col = tab[:, j].copy()
    col[r] = 0.0
    tab -= col[:, None] * tab[r]
    basis[r] = j


def _phase1(tab, basis):
    """Minimize the sum of artificials, whose reduced costs are the last row
    of ``tab``, by Bland's rule; ``tab`` and ``basis`` are updated in place.

    Stops when no reduced cost is negative or an entering column has no
    pivot row; the artificial sum then decides feasibility.
    """
    m = tab.shape[0] - 1
    reduced = tab[m, :-1]
    for _ in range(MAX_PIVOTS):
        j = (reduced < -_PIVTOL).argmax()  # Bland: lowest index enters
        if reduced[j] >= -_PIVTOL:
            return
        col = tab[:m, j]
        rows = (col > _PIVTOL).nonzero()[0]
        if rows.size == 0:
            return
        ratios = tab[rows, -1] / col[rows]
        tied = rows[ratios <= ratios.min() + _PIVTOL]
        r = tied[basis[tied].argmin()]  # Bland: lowest basis index leaves
        _pivot(tab, basis, r, j)
    raise NumericalFailure("simplex iteration cap exceeded")


def _standard_form(prob):
    """Phase-1 tableau of A z = b, z >= 0.

    The rows are those of ``a_eq``, then those of ``a_ub`` with one surplus
    column each; rows with b < 0 are negated (``flip``).  Returns
    (tab, flip), where ``tab`` is [A | b] with the phase-1 reduced-cost row
    of the all-artificial basis below it.
    """
    n = prob.n_vars
    m_eq = 0 if prob.a_eq is None else prob.a_eq.shape[0]
    m_ub = 0 if prob.a_ub is None else prob.a_ub.shape[0]
    m = m_eq + m_ub
    tab = np.zeros((m + 1, n + m_ub + 1))
    if m_eq:
        tab[:m_eq, :n] = prob.a_eq
        tab[:m_eq, -1] = prob.b_eq
    if m_ub:
        tab[m_eq:m, :n] = prob.a_ub
        tab[m_eq:m, -1] = prob.b_ub
        tab[m_eq + np.arange(m_ub), n + np.arange(m_ub)] = -1.0

    flip = tab[:m, -1] < 0
    tab[:m][flip] *= -1.0
    tab[m] = -tab[:m].sum(axis=0)  # phase 1: minimise the sum of artificials
    return tab, flip


def _refutes(y, a, b):
    """Is y a Farkas vector for A z = b, z >= 0: y.A <= 0 and y.b > 0, each
    at CERT_TOL, the second scaled by max(1, |b|_inf)?"""
    return bool((y @ a).max() <= CERT_TOL
                and y @ b > CERT_TOL * max(1.0, np.abs(b).max()))


def solve(prob: LpProblem) -> LpResult:
    """A feasible x meeting every row and x >= 0 within FEASTOL, or a
    validated Farkas certificate of infeasibility."""
    tab, flip = _standard_form(prob)
    m, ncols = tab.shape[0] - 1, tab.shape[1] - 1
    basis = np.arange(ncols, ncols + m)  # artificial i has index ncols + i

    a, b = tab[:m, :-1].copy(), tab[:m, -1].copy()  # for the Farkas vector
    _phase1(tab, basis)
    art = basis >= ncols
    if tab[:m, -1][art].sum() > FEASTOL:
        # Farkas certificate from the simplex multipliers y = c1_B B^{-1},
        # with B taken from the original columns of [A | I], not the tableau.
        full = np.zeros((m, m))
        full[:, ~art] = a[:, basis[~art]]
        full[basis[art] - ncols, art] = 1.0
        try:
            y = np.linalg.solve(full.T, art.astype(float))
        except np.linalg.LinAlgError:
            raise NumericalFailure("singular basis at the end of phase 1") from None
        if not _refutes(y, a, b):
            raise NumericalFailure("infeasibility certificate failed validation")
        y[flip] *= -1.0
        return LpResult(status="infeasible", certificate=y)

    z = np.zeros(ncols)
    z[basis[~art]] = tab[:m, -1][~art]
    x = z[:prob.n_vars]
    _check_feasible(prob, x)
    return LpResult(status="optimal", x=x)


def _check_feasible(prob, x):
    tol = FEASTOL * max(1.0, float(np.abs(x).max()))
    if prob.a_eq is not None:
        if np.abs(prob.a_eq @ x - prob.b_eq).max() > tol:
            raise NumericalFailure("equality residual above tolerance")
    if prob.a_ub is not None:
        if (prob.a_ub @ x - prob.b_ub).min() < -tol:
            raise NumericalFailure("inequality violated above tolerance")
    if not x.min() >= -tol:
        raise NumericalFailure("x >= 0 violated above tolerance")


def hull_weights(points, x):
    """Weights w >= 0 with sum(w) = 1 and w @ points = x, or None when x is
    outside the convex hull of the rows of ``points``.

    Every None is certified by a Farkas vector y for [points^T; 1^T] w =
    [x; 1].  The first tried, before any LP, is the centroid ray: with
    d = x - mean(points) and top = max(points @ d), y = (d, -top) scaled
    to unit 1-norm has y.A <= 0 by construction, and y.b is the margin by
    which the plane d.z = top separates x from the points.  If that margin
    is not above CERT_TOL (x inside, or only another plane separates), the
    LP decides, and its own certificate backs a None.  The guess never
    contradicts the LP: LP weights leave residuals within FEASTOL, so they
    would bound y.b by FEASTOL < CERT_TOL.
    """
    k = points.shape[0]
    prob = LpProblem(n_vars=k, a_eq=np.vstack([points.T, np.ones(k)]),
                     b_eq=np.concatenate([x, [1.0]]))
    d = prob.b_eq[:-1] - prob.a_eq[:-1].mean(axis=1)
    y = np.append(d, -(d @ prob.a_eq[:-1]).max())
    norm = np.abs(y).sum()
    if norm > 0 and _refutes(y / norm, prob.a_eq, prob.b_eq):
        return None
    res = solve(prob)
    return res.x if res.status == "optimal" else None
