"""Dense linear programming via two-phase simplex.

All convex decision procedures in the package go through ``solve``.  The
solver is deliberately simple: dense tableau, Bland's rule (lowest index)
for both the entering and the leaving variable, so every answer is fully
deterministic and cycling is impossible.  Problem sizes around here never
exceed a few hundred variables.

The standard form writes x = x0 + T z with z >= 0, where T has one entry
+-1 per column and is kept as (variable, sign) index arrays.  A variable
with a finite lower bound is shifted onto it, one with only an upper bound
is shifted and negated, and only free variables are split into z+ - z-.
Rows of ``a_ub`` and the upper bounds of boxed variables get one surplus
column each; lower bounds make no rows.  A membership LP over k vertices in
dimension K is thus a (K + 1) x k tableau.

The tableau is [A | b] with rows flipped so that b >= 0, plus two rows
below it holding the phase-1 and phase-2 reduced costs (and minus each
objective value in the last column).  Every pivot, in both phases, is one
rank-1 update of the whole tableau, cost rows included.  Phase 1 starts
from one artificial per row in the basis.  Artificial columns are not
stored: an artificial that leaves the basis never re-enters, and phase 1
still ends at zero exactly when the system is feasible.  A feasibility
problem (``objective=None``) returns after phase 1.

Infeasible verdicts are certified: phase 1 ends with a Farkas vector
y = c_B B^{-1} with y^T A <= 0 and y^T b > 0 for the standard-form system.
y is solved for from the basis columns of the original [A | I], not read
off the tableau, and re-checked before the verdict is returned.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalFailure

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
# Double-description rays and vertices within this sup-norm distance are one
# point: normalising and recombining rays moves a vertex reached along two
# paths by more than FEASTOL, while distinct vertices lie much further apart.
DEDUP_TOL = 1e-8
# Pivot threshold: entries smaller than this are treated as zero.
_PIVTOL = 1e-10

MAX_PIVOTS = 10 ** 6


@dataclass
class LpProblem:
    """max c.x  s.t.  A_eq x = b_eq,  A_ub x >= b_ub,  bounds on x.

    ``bounds`` is a list of (lo, hi) pairs, one per variable; ``None``
    entries mean unbounded on that side.  ``objective=None`` means a pure
    feasibility problem.
    """

    n_vars: int
    objective: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    bounds: list | None = None

    def __post_init__(self):
        n = self.n_vars
        if n < 1:
            raise DimensionMismatch("need at least one variable")
        if self.objective is not None:
            self.objective = np.asarray(self.objective, dtype=float)
            if self.objective.shape != (n,):
                raise DimensionMismatch("objective length != n_vars")
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
                setattr(self, "a_" + name, a)
                setattr(self, "b_" + name, b)
        if self.bounds is not None and len(self.bounds) != n:
            raise DimensionMismatch("bounds length != n_vars")


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective_value: float = np.nan
    # Farkas vector y (y.A <= 0, y.b > 0) for the standard-form rows, present
    # iff infeasible.  Rows: equalities, then a_ub, then the upper bounds of
    # boxed variables; lower bounds are shifted out and have no rows.
    certificate: np.ndarray | None = field(default=None, repr=False)


def _pivot(tab, basis, r, j):
    """Gauss-Jordan pivot on (r, j) as one in-place rank-1 update."""
    tab[r] /= tab[r, j]
    col = tab[:, j].copy()
    col[r] = 0.0
    tab -= col[:, None] * tab[r]
    basis[r] = j


def _bland_simplex(tab, basis, cost_row, maxiter):
    """Minimize the cost whose reduced costs are row ``cost_row`` of the
    canonical tableau ``tab``: m constraint rows [A | b], then two cost rows.

    Returns "optimal" or "unbounded"; ``tab`` and ``basis`` are updated in
    place.
    """
    m = tab.shape[0] - 2
    reduced = tab[cost_row, :-1]
    for _ in range(maxiter):
        j = (reduced < -_PIVTOL).argmax()  # Bland: lowest index enters
        if reduced[j] >= -_PIVTOL:
            return "optimal"
        col = tab[:m, j]
        rows = (col > _PIVTOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = tab[rows, -1] / col[rows]
        tied = rows[ratios <= ratios.min() + _PIVTOL]
        r = tied[basis[tied].argmin()]  # Bland: lowest basis index leaves
        _pivot(tab, basis, r, j)
    raise NumericalFailure("simplex iteration cap exceeded")


def _standard_form(prob):
    """Phase-1 tableau of min c.z, A z = b, z >= 0 with x = x0 + T z.

    A finite lower bound is shifted onto (x = lo + z), an upper bound alone
    is shifted and negated (x = hi - z), and only free variables are split
    (x = z+ - z-); column k of T is ``sign[k]`` at row ``var[k]``.  Rows of
    ``a_ub`` and the upper bounds of boxed variables become ``>=`` rows with
    one surplus column each; lower bounds make no rows.  Rows with b < 0
    are negated (``flip``).  Returns (tab, x0, var, sign, flip), where
    ``tab`` is [A | b] with the phase-1 and phase-2 reduced-cost rows of the
    all-artificial basis below it.
    """
    n = prob.n_vars
    if prob.bounds is None:
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    else:
        lo = np.array([-np.inf if b[0] is None else b[0] for b in prob.bounds], float)
        hi = np.array([np.inf if b[1] is None else b[1] for b in prob.bounds], float)
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    var = np.repeat(np.arange(n), 1 + ~(has_lo | has_hi))
    sign = np.where(has_lo, 1.0, -1.0)[var]
    sign[:-1][var[1:] == var[:-1]] = 1.0  # z+ of a split free variable
    x0 = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    boxed = np.flatnonzero((has_lo & has_hi)[var])

    m_eq = 0 if prob.a_eq is None else prob.a_eq.shape[0]
    m_ub = 0 if prob.a_ub is None else prob.a_ub.shape[0]
    n_sur = m_ub + boxed.size
    m, nz = m_eq + n_sur, var.size
    tab = np.zeros((m + 2, nz + n_sur + 1))
    if m_eq:
        tab[:m_eq, :nz] = prob.a_eq[:, var] * sign
        tab[:m_eq, -1] = prob.b_eq - prob.a_eq @ x0
    if m_ub:
        tab[m_eq:m_eq + m_ub, :nz] = prob.a_ub[:, var] * sign
        tab[m_eq:m_eq + m_ub, -1] = prob.b_ub - prob.a_ub @ x0
    if n_sur:
        tab[m_eq + m_ub + np.arange(boxed.size), boxed] = -1.0
        tab[m_eq + m_ub:m, -1] = (lo - hi)[var[boxed]]
        tab[m_eq + np.arange(n_sur), nz + np.arange(n_sur)] = -1.0

    flip = tab[:m, -1] < 0
    tab[:m][flip] *= -1.0
    tab[m] = -tab[:m].sum(axis=0)  # phase 1: minimise the sum of artificials
    if prob.objective is not None:
        tab[m + 1, :nz] = -prob.objective[var] * sign  # maximize -> minimize
    return tab, x0, var, sign, flip


def solve(prob: LpProblem, maxiter: int = MAX_PIVOTS) -> LpResult:
    """Solve an LP; optimal solutions satisfy all constraints within FEASTOL."""
    tab, x0, var, sign, flip = _standard_form(prob)
    m, ncols = tab.shape[0] - 2, tab.shape[1] - 1
    basis = np.arange(ncols, ncols + m)  # artificial i has index ncols + i

    a, b = tab[:m, :-1].copy(), tab[:m, -1].copy()  # for the Farkas vector
    _bland_simplex(tab, basis, m, maxiter)
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
        if np.any(y @ a > CERT_TOL) or y @ b <= CERT_TOL * max(1.0, np.abs(b).max()):
            raise NumericalFailure("infeasibility certificate failed validation")
        y[flip] *= -1.0
        return LpResult(status="infeasible", certificate=y)

    if prob.objective is not None:
        # drive any artificials still in the basis out of it
        for r in np.flatnonzero(art):
            nz = np.flatnonzero(np.abs(tab[r, :ncols]) > _PIVTOL)
            if nz.size:  # else the row is redundant, harmless
                _pivot(tab, basis, r, nz[0])
        if _bland_simplex(tab, basis, m + 1, maxiter) == "unbounded":
            return LpResult(status="unbounded")

    z = np.zeros(ncols)
    struct = basis < ncols
    z[basis[struct]] = tab[:m, -1][struct]
    x = x0 + np.bincount(var, weights=sign * z[:var.size], minlength=prob.n_vars)
    _check_feasible(prob, x)
    obj = float(prob.objective @ x) if prob.objective is not None else 0.0
    return LpResult(status="optimal", x=x, objective_value=obj)


def _check_feasible(prob, x):
    scale = max(1.0, float(np.abs(x).max()))
    tol = FEASTOL * scale
    if prob.a_eq is not None:
        if np.abs(prob.a_eq @ x - prob.b_eq).max() > tol:
            raise NumericalFailure("equality residual above tolerance")
    if prob.a_ub is not None:
        if (prob.a_ub @ x - prob.b_ub).min() < -tol:
            raise NumericalFailure("inequality violated above tolerance")
    if prob.bounds is not None:
        for i, (lo, hi) in enumerate(prob.bounds):
            if lo is not None and x[i] < lo - tol:
                raise NumericalFailure("lower bound violated")
            if hi is not None and x[i] > hi + tol:
                raise NumericalFailure("upper bound violated")
