"""Quantum operators: the one check of density operators and effects, the
Pauli matrices, and the rule for sizes.

A state (density operator) is a finite n x n matrix, Hermitian within
FEASTOL, with trace 1 within FEASTOL and no eigenvalue below -FEASTOL.
An effect is the same without the trace condition and with every
eigenvalue in [-FEASTOL, 1 + FEASTOL].  Eigenvalues are those of the
Hermitian part (M + M^dag) / 2, so an exactly Hermitian M gets the
eigenvalues ``np.linalg.eigvalsh(M)`` gives, bit for bit, and a stack of
matrices takes one ``eigvalsh``.  Every comparison fails on NaN, and no
arithmetic touches a matrix before it is known to be finite.

``state_defect`` and ``effect_defect`` return the reason their argument
fails, or None; ``require`` raises the error its caller names with that
reason, or returns the operator as a complex array.  ``numbers`` turns a
ragged or non-numeric input into an empty array, which every shape check
refuses, in place of numpy's error.  ``integer``, the rule for sizes,
raises ``InvalidArgument``, the error every caller of it raises, and
``whole`` lets a JSON reader take a size written as a whole float.
This module loads no gptkit module but ``lp`` and ``errors``, so ``bell``,
``bloch`` and ``interference`` use it without loading ``spaces``.
"""

import numpy as np

from .errors import InvalidArgument
from .lp import FEASTOL

# sigma_x, sigma_y, sigma_z
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                 dtype=complex)
PAULI.flags.writeable = False


def integer(n, name, least=None):
    """n as an int when it is a Python or numpy integer other than a bool,
    and not below ``least`` when that is given; else ``InvalidArgument``:
    the one rule for sizes and dimensions."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidArgument(f"{name} must be an integer, got {n!r}")
    if least is not None and n < least:
        raise InvalidArgument(f"need {name} >= {least}")
    return int(n)


def whole(n):
    """n as an int when it is a float with no fractional part, as a JSON
    writer may write a size; any other n as it is, for ``integer`` to
    judge."""
    return int(n) if isinstance(n, float) and n.is_integer() else n


def numbers(m):
    """m as a complex array, or an empty one when m is ragged or holds
    something other than numbers, for the caller's shape check to refuse."""
    try:
        return np.asarray(m, dtype=complex)
    except (TypeError, ValueError):
        return np.empty(0)


def _defect(m, shape, state):
    """Why m is not a state (``state``) or an effect, or a stack of them, of
    the given shape (of any nonempty square one when shape is None); None
    when it is one."""
    m = numbers(m)
    if m.ndim < 2 or m.size == 0 or m.shape[-1] != m.shape[-2] or \
            shape not in (None, m.shape):
        return f"must be numbers of shape {shape or '(..., n, n)'}"
    if not np.isfinite(m).all():
        return "has a non-finite entry"
    dagger = m.conj().swapaxes(-1, -2)
    if not np.abs(m - dagger).max() <= FEASTOL:
        return "is not Hermitian"
    h = (m + dagger) / 2
    if state and not np.abs(h.trace(0, -2, -1).real - 1.0).max() <= FEASTOL:
        return "does not have trace 1"
    ev = np.linalg.eigvalsh(h)
    if not ev.min() >= -FEASTOL:
        return "has a negative eigenvalue"
    return (None if state or ev.max() <= 1.0 + FEASTOL
            else "has an eigenvalue above 1")


def state_defect(rho, shape=None):
    """Why rho is not a density operator, or a stack of them, of the given
    shape; None when it is one."""
    return _defect(rho, shape, True)


def effect_defect(e, shape=None):
    """Why e is not an effect 0 <= E <= 1, or a stack of them, of the given
    shape; None when it is one."""
    return _defect(e, shape, False)


def require(defect, m, shape, error, name):
    """m as a complex array when ``defect(m, shape)`` gives no reason, else
    ``error(f"{name} {reason}")``."""
    reason = defect(m, shape)
    if reason is not None:
        raise error(f"{name} {reason}")
    return np.asarray(m, dtype=complex)
