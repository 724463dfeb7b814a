"""Phase-1 simplex feasibility with Farkas certificates.

Every LP in the package is a feasibility question over x >= 0: is there an
x >= 0 with A_eq x = b_eq and A_ub x >= b_ub?  ``solve`` answers it with a
dense tableau.  The entering column is the one with the most negative
reduced cost (Dantzig's rule); after a run of ``DEGENERATE_RUN`` degenerate
pivots Bland's lowest index takes over until the next nondegenerate pivot.
The leaving row is always Bland's, the lowest basis index among the tied
rows.  Every answer is fully deterministic and cycling is impossible.
There is no objective and no phase 2.  Problem sizes around here never
exceed a few hundred variables.

The one standard form is A z = b, z >= 0: the rows of ``a_eq``, then the
rows of ``a_ub`` with one surplus column each, all flipped so that b >= 0.
A flipped ``a_ub`` row (b <= 0) starts from its surplus, which then has
+1 (the slack start); every other row starts from an artificial.  A
membership LP over k vertices in dimension K is thus a (K + 1) x k
tableau.  Below [A | b] sits the phase-1 reduced-cost row, the negated sum
of the rows that carry an artificial; the tableau is one array filled
through views and masks, and every pivot is one rank-1 update of all of
it.  Artificial columns are not stored: an artificial that leaves the
basis never re-enters, and phase 1 still ends at zero exactly when the
system is feasible.  The distinguishability witness LP has no equalities:
``distinguish`` solves e_i(omega_j) = delta_ij itself and poses only the
inequalities on what that leaves free.

Infeasible verdicts are certified: phase 1 ends with a Farkas vector
y = c_B B^{-1} with y^T A <= 0 and y^T b > 0 for the standard-form system.
y is solved for from the basis columns of the original [A | I], not read
off the tableau (a basic surplus is a column of A), and re-checked before
the verdict is returned.

Hull membership (``Hull.weights``, ``hull_weights``: is x a convex
combination of given points?) tries one certificate per verdict before it
poses the LP: a centroid-ray Farkas vector for "outside", least-norm
weights for "inside" (``Hull.weights`` gives each and the check it must
pass).  When neither holds, the LP is posed as it would be without them.
A ``Hull`` checks [P^T; 1^T] and forms the centroid when it is built, and
the pseudo-inverse on the first query that reaches the least-norm guess;
a vertex ``StateSpace`` and ``bell.classical_membership`` each keep one
and check each query x themselves, as ``hull_weights`` does for its own.
"""

from dataclasses import dataclass, field
from functools import cached_property

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
# A Bell-table entry may lie this far below 0.  A probability should fall
# under 0 only by rounding, so the bound sits near rounding, far inside
# FEASTOL.
PROB_TOL = 1e-12
# Least-norm hull weights (``Hull.weights``) must meet [P^T; 1] w = [x; 1]
# to this, scaled as FEASTOL is, before they stand in for the LP.  Inside a
# hull that residual is rounding: at most 4.4e-15 on the 1313 guessed
# "inside" cases of tests/test_lp.py's hull survey.  At FEASTOL, a point
# 7.7e-10 off its points' affine hull would be taken as inside there,
# where the LP alone fails its certificate check.
LEAST_NORM_TOL = 1e-12
# ``distinguish`` treats the support projectors P_i, P_j of two density
# matrices as orthogonal when no entry of P_i P_j exceeds this.  Orthogonal
# supports from ``eigh`` meet only to rounding (about 1e-15); the witness
# built from them is still checked against WITNESS_TOL.
ORTHO_TOL = 1e-8
# Singular values below this count as zero in rank tests (geometry's initial
# basis, the vertex certificate of an ``ineqs`` space) and, relative to the
# largest, in ``LinearMap.is_invertible`` and ``Hull``'s pseudo-inverse.
# The rows tested are functionals of order 1, whose rounding leaves singular
# values near 1e-15.
RANK_TOL = 1e-10
# The support projectors of distinguishable quantum states complete to the
# identity when no entry of 1 - sum(P_i) exceeds this; otherwise that
# remainder becomes one more effect.  A nonzero projector on C^N has a
# diagonal entry of at least 1/N, so a real remainder is far above it.
COMPLETE_TOL = 1e-10
# Width at which the S-lemma bisection over lam (``spaces._ball_image_fits``)
# stops.  Its objective is concave and 1-Lipschitz in lam, so the midpoint is
# then within 1e-12 of the maximum, far inside FEASTOL.
BISECT_TOL = 1e-12
# Pivot threshold: entries smaller than this are treated as zero.
_PIVTOL = 1e-10

MAX_PIVOTS = 10 ** 6
# Degenerate pivots in a row after which Bland's lowest index enters instead
# of the most negative reduced cost.  Pivot totals at runs of 1 / 8 / 16 /
# 32 / 50: 416 at every run on all perfbench lp_decisions operations of
# seeds 1-5 (114 LPs; the hull guesses settle the rest), 1146 / 1042 /
# 1031 / 1031 / 1031 on
# capacity(max_tensor(gbit, gbit), n_max=4), and 4761 / 4611 / 4611 / 4611 /
# 4611 (13,695 with Bland's rule alone from all artificials) on
# degenerate_problem seeds 0-2999 in tests/test_oracles.py.
DEGENERATE_RUN = 32


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
        if self.n_vars < 1:
            raise DimensionMismatch("need at least one variable")
        self.a_eq, self.b_eq = _rows(self.a_eq, self.b_eq, self.n_vars, "eq")
        self.a_ub, self.b_ub = _rows(self.a_ub, self.b_ub, self.n_vars, "ub")


def _rows(a, b, n, name):
    """(a, b) as finite float rows of length n and one entry each, or None."""
    if (a is None) != (b is None):
        raise DimensionMismatch(f"a_{name}/b_{name} must be given together")
    if a is None:
        return None, None
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a, b = a if a.ndim > 1 else a.reshape(1, -1), b if b.ndim else b.reshape(1)
    if a.shape[1] != n or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"a_{name} shape {a.shape} inconsistent")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidArgument(f"a_{name}/b_{name} has a non-finite entry")
    return a, b


@dataclass(eq=False)
class LpResult:
    status: str  # "optimal" (feasible, x given) | "infeasible"
    x: np.ndarray | None = None
    # Farkas vector y (y.A <= 0, y.b > 0) for the standard-form rows, present
    # iff infeasible.  Rows: the equalities, then the rows of a_ub.
    certificate: np.ndarray | None = field(default=None, repr=False)
    # simplex pivots phase 1 took to reach the verdict
    pivots: int = 0


def _pivot(tab, basis, r, j):
    """Gauss-Jordan pivot on (r, j) as one in-place rank-1 update."""
    tab[r] /= tab[r, j]
    col = tab[:, j].copy()
    col[r] = 0.0
    tab -= col[:, None] * tab[r]
    basis[r] = j


def _phase1(tab, basis):
    """Minimize the sum of artificials, whose reduced costs are the last row
    of ``tab``; ``tab`` and ``basis`` are updated in place.  Returns the
    number of pivots.

    The most negative reduced cost enters, the lowest index on ties; after
    ``DEGENERATE_RUN`` degenerate pivots in a row (leaving rhs <= _PIVTOL)
    the lowest index with a negative reduced cost enters instead, until the
    next nondegenerate pivot.  The lowest basis index among the tied rows
    leaves.  This is finite: the artificial sum never rises and falls on
    every nondegenerate pivot, so no basis recurs across one, and a
    degenerate stretch ends after at most ``DEGENERATE_RUN`` pivots plus
    a run under Bland's rule, which cannot cycle.

    Stops when no reduced cost is negative or an entering column has no
    pivot row; the artificial sum then decides feasibility.
    """
    m = tab.shape[0] - 1
    reduced, rhs = tab[m, :-1], tab[:m, -1]
    degenerate = 0
    for pivots in range(MAX_PIVOTS):
        if degenerate < DEGENERATE_RUN:
            j = reduced.argmin()  # Dantzig: most negative enters
        else:
            j = (reduced < -_PIVTOL).argmax()  # Bland: lowest index enters
        if reduced[j] >= -_PIVTOL:
            return pivots
        col = tab[:m, j]
        rows = (col > _PIVTOL).nonzero()[0]
        if rows.size == 0:
            return pivots
        ratios = rhs[rows] / col[rows]
        tied = rows[ratios <= ratios.min() + _PIVTOL]
        r = tied[0] if tied.size == 1 else tied[basis[tied].argmin()]  # Bland
        degenerate = degenerate + 1 if rhs[r] <= _PIVTOL else 0
        _pivot(tab, basis, r, j)
    raise NumericalFailure("simplex iteration cap exceeded")


def _standard_form(prob):
    """(tab, basis, flip) for A z = b, z >= 0 as the module docstring lays
    out: [A | b] over its phase-1 cost row, the starting basis, the flips."""
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
        np.fill_diagonal(tab[m_eq:m, n:-1], -1.0)

    # the a_ub rows with b <= 0 start from their surplus, column
    # n + row - m_eq; every other row from an artificial, n + m_ub + row
    slack = m_eq + np.flatnonzero(tab[m_eq:m, -1] <= 0)
    basis = np.arange(n + m_ub, n + m_ub + m)
    basis[slack] = n - m_eq + slack
    flip = tab[:m, -1] < 0
    flip[slack] = True
    np.negative(tab[:m], out=tab[:m], where=flip[:, None])
    # phase 1: minimise the sum of the artificials in the basis; the masked
    # sum adds their rows in order from 0.0, as a sum of the rows taken out would
    art = basis >= n + m_ub
    np.negative(np.add.reduce(tab[:m], axis=0, where=art[:, None]), out=tab[m])
    return tab, basis, flip


def _refutes(y, a, b):
    """Is y a Farkas vector for A z = b, z >= 0: y.A <= 0 and y.b > 0, each
    at CERT_TOL, the second scaled by max(1, |b|_inf)?"""
    return bool((y @ a).max() <= CERT_TOL
                and y @ b > CERT_TOL * max(1.0, np.abs(b).max()))


def solve(prob: LpProblem) -> LpResult:
    """A feasible x meeting every row and x >= 0 within FEASTOL, or a
    validated Farkas certificate of infeasibility."""
    tab, basis, flip = _standard_form(prob)
    m, ncols = tab.shape[0] - 1, tab.shape[1] - 1

    a, b = tab[:m, :-1].copy(), tab[:m, -1].copy()  # for the Farkas vector
    pivots = _phase1(tab, basis)
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
        return LpResult(status="infeasible", certificate=y, pivots=pivots)

    z = np.zeros(ncols)
    z[basis[~art]] = tab[:m, -1][~art]
    x = z[:prob.n_vars]
    _check_feasible(prob, x)
    return LpResult(status="optimal", x=x, pivots=pivots)


def _violation(x, a_eq=None, b_eq=None, a_ub=None, b_ub=None, tol=FEASTOL):
    """Why x misses A_eq x = b_eq, A_ub x >= b_ub or x >= 0 by more than
    tol * max(1, |x|_inf), or None when it meets all three."""
    lo = x.min()
    tol = tol * max(1.0, float(x.max()), float(-lo))
    if a_eq is not None and np.abs(a_eq @ x - b_eq).max() > tol:
        return "equality residual above tolerance"
    if a_ub is not None and (a_ub @ x - b_ub).min() < -tol:
        return "inequality violated above tolerance"
    if not lo >= -tol:
        return "x >= 0 violated above tolerance"
    return None


def _check_feasible(prob, x):
    why = _violation(x, prob.a_eq, prob.b_eq, prob.a_ub, prob.b_ub)
    if why is not None:
        raise NumericalFailure(why)


class Hull:
    """The rows of ``points`` as a point set for repeated ``weights``
    queries, each query point checked by the caller.

    [points^T; 1^T] is formed, in the memory order of points, and checked
    (2-D, at least one point, finite) and the centroid taken when the hull
    is built; its pseudo-inverse (singular values below RANK_TOL times the
    largest dropped) on the first query that reaches the least-norm guess.
    A hull made by ``without`` takes its least-norm weights from its
    parent's.
    """

    def __init__(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise DimensionMismatch("need points as rows")
        k, dim = points.shape
        if k < 1:
            raise DimensionMismatch("need at least one point")
        # [points^T; 1^T] keeps the memory order of points, and with it the
        # order in which the centroid's sum and each product with it add up
        a = np.ones_like(points, shape=(dim + 1, k))
        a[:-1] = points.T
        if not np.isfinite(a).all():
            raise InvalidArgument("points have a non-finite entry")
        a.flags.writeable = False
        self.a = a
        self.centroid = a[:-1].sum(axis=1) / k
        self._parent = None  # (parent hull, dropped mask) after ``without``

    @cached_property
    def _pinv(self):
        return np.linalg.pinv(self.a, rcond=RANK_TOL)

    def without(self, drop):
        """The hull of the points not marked in the boolean mask ``drop``.
        When one point is dropped, its least-norm weights come from this
        hull's pseudo-inverse, with no SVD of its own.  Its matrix is
        column-major, as numpy lays out the column selection a[:, ~drop],
        so its centroid and products keep that selection's last bits."""
        hull = Hull(np.asfortranarray(self.a[:-1, ~drop].T))
        hull._parent = (self, drop)
        return hull

    def _least_norm(self, b):
        """A^+ b, the least-norm w with A w = b when b is in A's range.

        On a hull made by ``without`` from a parent with matrix A and
        pseudo-inverse P, dropping column j: with w = P b and Pi = P A, the
        least-norm solution of A w' = b with w'_j = 0 is w minus
        w_j / (1 - Pi_jj) times the null-space vector (I - Pi) e_j of A,
        whose other entries are those of w + (Pi e_j) w_j / (1 - Pi_jj).
        That holds while 1 - Pi_jj > 0, that is, while the other columns
        span what A's do; otherwise this hull's own SVD gives A^+ b.
        """
        if self._parent is not None and self._parent[1].sum() == 1:
            parent, drop = self._parent
            j = drop.argmax()
            w = parent._pinv @ b
            pi_j = parent._pinv @ parent.a[:, j]
            rest = 1.0 - pi_j[j]
            if rest > RANK_TOL:
                w += pi_j * (w[j] / rest)
                return w[~drop]
        return self._pinv @ b

    def weights(self, x):
        """Weights w >= 0 with sum(w) = 1 and w @ points = x, or None when
        x is outside the convex hull of the points.

        x is a float vector of length points.shape[1] with finite entries,
        as its caller has checked.  Every None is certified by a Farkas
        vector y for A w = b, A = [points^T; 1^T], b = [x; 1].  The first
        tried, before any LP, is the centroid ray: with d = x - centroid,
        pd = points @ d and top = max(pd), y = (d, -top) / |(d, -top)|_1
        has y.A = (pd - top) / |y|_1 <= 0 exactly, and y.b = (d.x - top) /
        |y|_1, the margin by which the plane d.z = top separates x from the
        points, is held to ``_refutes``'s bound with no y formed.  If it
        falls short (x inside, or only another plane separates), the
        least-norm w = A^+ b is tried: it is returned when its entries are
        all >= 0 and it meets A w = b within LEAST_NORM_TOL by
        ``_violation``, the rule ``solve`` checks its own x against at
        FEASTOL.  Otherwise the LP decides, and its own certificate backs a
        None.  Neither guess contradicts the LP: LP weights leave residuals
        within FEASTOL, so they would bound y.b by FEASTOL < CERT_TOL, and
        the accepted w is feasible to rounding, a thousandth of the LP's
        tolerance, so it is not taken where x is off the points' affine
        hull by more than rounding and the LP fails.
        """
        d = x - self.centroid
        pd = d @ self.a[:-1]
        top = pd.max()
        norm = np.abs(d).sum() + abs(top)
        if d @ x - top > CERT_TOL * max(1.0, np.abs(x).max()) * norm:
            return None
        b = np.ones(self.a.shape[0])
        b[:-1] = x
        w = self._least_norm(b)
        # >= 0 exactly, not to FEASTOL: a Bell table rebuilt from the
        # weights may fall below 0 only by rounding (PROB_TOL)
        if (w.min() >= 0.0
                and _violation(w, self.a, b, tol=LEAST_NORM_TOL) is None):
            return w
        res = solve(LpProblem(n_vars=self.a.shape[1], a_eq=self.a, b_eq=b))
        return res.x if res.status == "optimal" else None


def hull_weights(points, x):
    """``Hull(points).weights(x)``: weights w >= 0 with sum(w) = 1 and
    w @ points = x, or None when x is outside the convex hull of the rows
    of ``points``.  ``points`` must be 2-D with at least one row and finite
    entries, and x (checked here, not by ``Hull.weights``) a vector as long
    as a row (``DimensionMismatch``) with finite entries (``InvalidArgument``).
    One guess per verdict comes before the LP (``Hull.weights``): the
    centroid ray for "outside", and the least-norm weights for "inside".
    This one-off hull builds its pseudo-inverse only when the centroid ray
    does not refute x.
    """
    hull = Hull(points)
    if np.ndim(x) != 1 or len(x) != hull.a.shape[0] - 1:
        raise DimensionMismatch("need x as a vector as long as a point")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise InvalidArgument("x has a non-finite entry")
    return hull.weights(x)
