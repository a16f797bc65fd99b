"""Small dense real-matrix kernel backing every other module.

Matrices are plain 2-D ``float64`` numpy arrays validated through
:func:`as_matrix`; vectors are 1-D arrays.  The norm used throughout the
library is the max-row-sum norm, i.e. the operator norm induced by the
max norm on vectors.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import ExpOverflowError, InvalidMatrixError, SingularMatrixError

__all__ = [
    "as_matrix",
    "as_vector",
    "frozen_matrix",
    "inf_norm",
    "mat_exp",
    "mat_pow",
    "gelfand_radius",
    "schur_certified",
    "rank_with_tol",
    "solve_linear",
]

# e^{A t} is refused past this magnitude; doubles overflow near 709 and a
# plant/time pair anywhere close to that is pathological input, not data.
EXP_MAGNITUDE_CAP = 200.0

PIVOT_TOL = 1e-12  # solve_linear's relative singular-pivot threshold
RANK_TOL = 1e-9  # rank_with_tol's relative zero-pivot threshold

# Powers a Gelfand bound scans by default: every certificate of a run uses it.
DECAY_SCAN_CAP = 512

# Diagonal Pade order-13 numerator/denominator coefficients.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)


def as_matrix(m, square: bool = False) -> np.ndarray:
    """Validate and return ``m`` as a finite float64 2-D array."""
    try:
        a = np.array(m, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows, or not numbers
        raise InvalidMatrixError(f"expected a 2-D matrix: {exc}") from exc
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidMatrixError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrixError("matrix entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a finite float64 1-D array."""
    try:
        a = np.array(v, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged entries, or not numbers
        raise InvalidMatrixError(f"expected a vector: {exc}") from exc
    if a.ndim != 1:
        raise InvalidMatrixError(f"expected a vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrixError("vector entries must be finite")
    return a


def frozen_matrix(m) -> np.ndarray:
    """A read-only, C-contiguous float64 copy of the matrix ``m``."""
    a = np.array(m, dtype=float, order="C")
    a.flags.writeable = False
    return a


def is_finite_number(value) -> bool:
    """Whether ``value`` is a number, not a bool, in the finite float range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def inf_norm(m) -> float:
    """Max-row-sum norm of a matrix, or max-abs entry of a vector."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        return float(abs(a).max()) if a.size else 0.0
    return float(abs(a).sum(axis=1).max())


def mat_exp(m, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``e^{m t}`` by scaling-and-squaring with Pade 13.

    The argument is scaled so its norm is at most 0.5 before the Pade
    approximant is evaluated, then squared back up.  Raises
    :class:`ExpOverflowError` when ``inf_norm(m)*t`` exceeds
    :data:`EXP_MAGNITUDE_CAP`.
    """
    a = as_matrix(m, square=True)
    if t < 0:
        raise ValueError("mat_exp is defined here for nonnegative t only")
    with np.errstate(over="ignore"):  # an overflow fails the cap check
        a = a * t
    norm = inf_norm(a)
    if norm > EXP_MAGNITUDE_CAP:
        raise ExpOverflowError(
            f"inf_norm(m)*t = {norm:.3g} exceeds the cap {EXP_MAGNITUDE_CAP}"
        )
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    a = a / (2.0 ** squarings)

    n = a.shape[0]
    ident = np.eye(n)
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = solve_linear(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def mat_pow(m, k: int) -> np.ndarray:
    """``m**k`` for integer ``k >= 0`` by repeated squaring; ``m**0`` is I."""
    a = as_matrix(m, square=True)
    if k < 0:
        raise ValueError("mat_pow requires k >= 0")
    result = np.eye(a.shape[0])
    base = a
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def stack_norms(stack: np.ndarray) -> np.ndarray:
    """:func:`inf_norm` of each matrix in a ``(k, rows, cols)`` stack."""
    return abs(stack).sum(axis=2).max(axis=1)


def power_chunks(a: np.ndarray, cap: int):
    """Yield ``(powers, norms)`` for ``a^1 .. a^cap`` in stacked chunks.

    The first chunk holds 8 powers and each later one as many as all before
    it, the last cut at ``cap``; ``norms`` are their :func:`stack_norms`.
    Each power is ``previous @ a`` from the identity, so a caller that stops
    early stops the chain at the end of the current chunk.  Overflow is not
    reported: callers read a non-finite norm as the end of their scan, and a
    chunk may run past that power.
    """
    p = np.eye(a.shape[0])
    done = 0
    while done < cap:
        powers = np.empty((min(max(done, 8), cap - done),) + a.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for power in powers:
                p = np.dot(p, a, out=power)
            norms = stack_norms(powers)
        yield powers, norms
        done += len(powers)


def _power_roots(m, max_power: int):
    """Yield ``inf_norm(m^k)^(1/k)`` for ``k = 1..max_power``, stopping
    after a zero norm (yielded as 0.0), before a non-finite one and after
    one below 1e-300."""
    a = as_matrix(m, square=True)
    if max_power < 8:
        raise ValueError("max_power must be at least 8")
    k = 0
    for _, norms in power_chunks(a, max_power):
        for norm in norms.tolist():
            k += 1
            if norm == 0.0:
                yield 0.0
                return
            if not math.isfinite(norm):
                return
            yield norm ** (1.0 / k)
            if norm < 1e-300:
                return


def gelfand_radius(m, max_power: int = DECAY_SCAN_CAP) -> float:
    """Upper bound on the spectral radius from norms of powers.

    Returns ``min_k inf_norm(m^k)^(1/k)`` over ``k = 1..max_power``.  The
    bound never increases with ``max_power`` and converges to the spectral
    radius, so a return value below one certifies Schur stability.  A value
    of one or more at ``max_power`` is inconclusive; the caller decides.
    """
    return min(_power_roots(m, max_power), default=math.inf)


def schur_certified(m, max_power: int = DECAY_SCAN_CAP) -> bool:
    """``gelfand_radius(m, max_power) < 1.0``, decided at the first power
    whose root is below one, so a certified matrix costs no further powers
    than the chunk holding that one."""
    return any(root < 1.0 for root in _power_roots(m, max_power))


def rank_with_tol(m) -> int:
    """Numerical rank via row-echelon reduction with partial pivoting.

    Pivots below ``RANK_TOL`` times the largest-magnitude entry of the input
    count as zero.
    """
    a = as_matrix(m).copy()
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return 0
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot_row = rank + int(np.argmax(np.abs(a[rank:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= RANK_TOL * scale:
            continue
        if pivot_row != rank:
            a[[rank, pivot_row]] = a[[pivot_row, rank]]
        a[rank + 1:, col:] -= np.outer(a[rank + 1:, col] / a[rank, col], a[rank, col:])
        rank += 1
    return rank


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a x = b`` by Gaussian elimination with partial pivoting.

    ``b`` may be a vector or a matrix of right-hand sides.  Raises
    :class:`SingularMatrixError` when a pivot falls below ``PIVOT_TOL``
    relative to the largest-magnitude entry of ``a``.
    """
    a = as_matrix(a, square=True)  # a fresh array, reduced in place
    rhs = np.array(b, dtype=float)
    vector_rhs = rhs.ndim == 1
    if vector_rhs:
        rhs = rhs[:, None]
    n = a.shape[0]
    if rhs.shape[0] != n:
        raise InvalidMatrixError(
            f"right-hand side has {rhs.shape[0]} rows, expected {n}"
        )
    scale = float(abs(a).max())
    if scale == 0.0:
        raise SingularMatrixError("coefficient matrix is zero")
    for col in range(n):
        pivot_row = col + int(abs(a[col:, col]).argmax())
        if abs(a[pivot_row, col]) <= PIVOT_TOL * scale:
            raise SingularMatrixError(f"pivot {col} below tolerance")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
        factors = (a[col + 1:, col] / a[col, col])[:, None]
        a[col + 1:, col:] -= factors * a[col, col:]
        rhs[col + 1:] -= factors * rhs[col]
    x = np.empty_like(rhs)
    for row in range(n - 1, -1, -1):
        x[row] = (rhs[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x[:, 0] if vector_rhs else x
