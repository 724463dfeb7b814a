"""Dense linear programming via two-phase simplex.

All convex decision procedures in the package go through ``solve``.  The
solver is deliberately simple: dense tableau, Bland's rule (lowest index)
for both the entering and the leaving variable, so every answer is fully
deterministic and cycling is impossible.  Problem sizes around here never
exceed a few hundred variables.

The standard form writes x = x0 + T z with z >= 0.  A variable with a
finite lower bound is shifted onto it, one with only an upper bound is
shifted and negated, and only free variables are split into z+ - z-.  Rows
of ``a_ub`` and the upper bounds of boxed variables get one surplus column
each; lower bounds make no rows.  A membership LP over k vertices in
dimension K is thus a (K + 1) x k tableau.  Every pivot, in both phases, is
one rank-1 update.

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
    tab -= np.outer(col, tab[r])
    basis[r] = j


def _bland_simplex(tab, basis, cost, allowed, maxiter):
    """Minimize cost over the canonical tableau ``tab`` = [A | b].

    ``allowed`` marks columns that may enter the basis.  Returns "optimal"
    or "unbounded"; ``tab`` and ``basis`` are updated in place.
    """
    ncols = tab.shape[1] - 1
    for _ in range(maxiter):
        reduced = cost - cost[basis] @ tab[:, :ncols]
        candidates = np.where(allowed & (reduced < -_PIVTOL))[0]
        if candidates.size == 0:
            return "optimal"
        j = candidates[0]  # Bland: lowest index enters
        col = tab[:, j]
        rows = np.where(col > _PIVTOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = tab[rows, -1] / col[rows]
        tied = rows[ratios <= ratios.min() + _PIVTOL]
        r = tied[np.argmin(basis[tied])]  # Bland: lowest basis index leaves
        _pivot(tab, basis, r, j)
    raise NumericalFailure("simplex iteration cap exceeded")


def _standard_form(prob):
    """Rewrite as min c.z, A z = b, z >= 0 with x = x0 + T z.

    A finite lower bound is shifted onto (x = lo + z), an upper bound alone
    is shifted and negated (x = hi - z), and only free variables are split
    (x = z+ - z-).  Rows of ``a_ub`` and the upper bounds of boxed variables
    become ``>=`` rows with one surplus column each; lower bounds make no
    rows.  Returns (a, b, c, x0, t).
    """
    n = prob.n_vars
    x0 = np.zeros(n)
    cols = []  # (variable, sign) of each column of T
    boxed, widths = [], []  # column and hi - lo of each boxed variable
    bounds = prob.bounds if prob.bounds is not None else [(None, None)] * n
    for i, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            cols += [(i, 1.0), (i, -1.0)]
            continue
        if lo is not None and hi is not None:
            boxed.append(len(cols))
            widths.append(hi - lo)
        x0[i] = hi if lo is None else lo
        cols.append((i, -1.0 if lo is None else 1.0))
    t = np.zeros((n, len(cols)))
    for k, (i, sign) in enumerate(cols):
        t[i, k] = sign

    def rows(a, b):
        return (np.zeros((0, n)), np.zeros(0)) if a is None else (a, b)

    a_eq, b_eq = rows(prob.a_eq, prob.b_eq)
    a_ub, b_ub = rows(prob.a_ub, prob.b_ub)
    g = np.vstack([a_ub @ t, -np.eye(len(cols))[boxed]])
    a = np.block([[a_eq @ t, np.zeros((len(b_eq), len(g)))], [g, -np.eye(len(g))]])
    b = np.concatenate([b_eq - a_eq @ x0, b_ub - a_ub @ x0, -np.array(widths)])
    c = np.zeros(a.shape[1])
    if prob.objective is not None:
        c[:len(cols)] = -prob.objective @ t  # maximize -> minimize
    return a, b, c, x0, t


def solve(prob: LpProblem, maxiter: int = MAX_PIVOTS) -> LpResult:
    """Solve an LP; optimal solutions satisfy all constraints within FEASTOL."""
    a, b, c, x0, t = _standard_form(prob)
    m, ncols = a.shape

    # flip rows so the rhs is nonnegative
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: artificial basis
    tab = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(ncols, ncols + m)
    cost1 = np.concatenate([np.zeros(ncols), np.ones(m)])
    allowed = np.ones(ncols + m, dtype=bool)
    _bland_simplex(tab, basis, cost1, allowed, maxiter)
    if cost1[basis] @ tab[:, -1] > FEASTOL:
        # Farkas certificate from the simplex multipliers y = c1_B B^{-1},
        # with B taken from the original columns of [A | I], not the tableau.
        full = np.hstack([a, np.eye(m)])
        try:
            y = np.linalg.solve(full[:, basis].T, cost1[basis])
        except np.linalg.LinAlgError:
            raise NumericalFailure("singular basis at the end of phase 1") from None
        if np.any(y @ a > CERT_TOL) or y @ b <= CERT_TOL * max(1.0, np.abs(b).max()):
            raise NumericalFailure("infeasibility certificate failed validation")
        y[flip] *= -1.0
        return LpResult(status="infeasible", certificate=y)

    # drive any artificials still in the basis out of it
    for r in np.where(basis >= ncols)[0]:
        nz = np.where(np.abs(tab[r, :ncols]) > _PIVTOL)[0]
        if nz.size:  # else the row is redundant, harmless
            _pivot(tab, basis, r, nz[0])

    # phase 2
    cost2 = np.concatenate([c, np.zeros(m)])
    allowed = np.arange(ncols + m) < ncols
    if _bland_simplex(tab, basis, cost2, allowed, maxiter) == "unbounded":
        return LpResult(status="unbounded")

    z = np.zeros(ncols + m)
    z[basis] = tab[:, -1]
    x = x0 + t @ z[:t.shape[1]]
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
