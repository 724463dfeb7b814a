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
A row of ``a_ub`` with b <= 0 is negated so that its surplus column has
+1, and that surplus starts in the basis (the slack start); every other
row starts from an artificial.  A membership LP over k vertices in
dimension K is thus a (K + 1) x k tableau.  Below [A | b] sits the phase-1
reduced-cost row, the negated sum of the rows that carry an artificial,
and every pivot is one rank-1 update of the whole tableau, that row
included.  Artificial columns are not stored: an artificial that leaves
the basis never re-enters, and phase 1 still ends at zero exactly when the
system is feasible.  The distinguishability witness LP has no equalities:
``distinguish`` solves e_i(omega_j) = delta_ij itself and poses only the
inequalities on what that leaves free.

Infeasible verdicts are certified: phase 1 ends with a Farkas vector
y = c_B B^{-1} with y^T A <= 0 and y^T b > 0 for the standard-form system.
y is solved for from the basis columns of the original [A | I], not read
off the tableau (a basic surplus is a column of A), and re-checked before
the verdict is returned.

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
# A Bell-table entry may lie this far below 0.  A probability should fall
# under 0 only by rounding, so the bound sits near rounding, far inside
# FEASTOL.
PROB_TOL = 1e-12
# ``distinguish`` treats the support projectors P_i, P_j of two density
# matrices as orthogonal when no entry of P_i P_j exceeds this.  Orthogonal
# supports from ``eigh`` meet only to rounding (about 1e-15); the witness
# built from them is still checked against WITNESS_TOL.
ORTHO_TOL = 1e-8
# Singular values below this count as zero in rank tests (geometry's initial
# basis, the vertex certificate of an ``ineqs`` space) and, relative to the
# largest, in ``LinearMap.is_invertible``.  The rows tested are functionals of
# order 1, whose rounding leaves singular values near 1e-15.
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
# 32 / 50: 1211 at every run on all perfbench lp_decisions operations of
# seeds 1-5, 1146 / 1042 / 1031 / 1031 / 1031 on
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
    reduced = tab[m, :-1]
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
        ratios = tab[rows, -1] / col[rows]
        tied = rows[ratios <= ratios.min() + _PIVTOL]
        r = tied[basis[tied].argmin()]  # Bland: lowest basis index leaves
        degenerate = degenerate + 1 if tab[r, -1] <= _PIVTOL else 0
        _pivot(tab, basis, r, j)
    raise NumericalFailure("simplex iteration cap exceeded")


def _standard_form(prob):
    """Phase-1 tableau of A z = b, z >= 0, and its starting basis.

    The rows are those of ``a_eq``, then those of ``a_ub`` with one surplus
    column each.  Rows of ``a_eq`` with b < 0 and rows of ``a_ub`` with
    b <= 0 are negated (``flip``); the surplus of such an ``a_ub`` row then
    has +1 and starts in the basis, and every other row starts from an
    artificial.  Returns (tab, basis, flip), where ``tab`` is [A | b] with
    the phase-1 reduced-cost row of that basis below it.
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

    # the a_ub rows with b <= 0 start from their surplus, column
    # n + row - m_eq; every other row from an artificial, n + m_ub + row
    slack = m_eq + np.flatnonzero(tab[m_eq:m, -1] <= 0)
    basis = np.arange(n + m_ub, n + m_ub + m)
    basis[slack] = n - m_eq + slack
    flip = tab[:m, -1] < 0
    flip[slack] = True
    tab[:m][flip] *= -1.0
    # phase 1: minimise the sum of the artificials in the basis
    tab[m] = -tab[:m][basis >= n + m_ub].sum(axis=0)
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
