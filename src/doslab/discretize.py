"""Sampled-data plant construction.

Builds the zero-order-hold discretization of a continuous plant and the
controllability/observability indices that fix the transmission protocol:
the input channel runs ``eta`` times faster than the output channel, so the
input period is ``delta = big_delta / eta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidMatrixError,
    UncontrollablePairError,
    UnobservablePairError,
)
from .matrixcore import (
    as_matrix,
    frozen_matrix,
    mat_exp,
    mat_pow,
    rank_with_tol,
)

__all__ = [
    "ContinuousPlant",
    "DiscretePlant",
    "discretize",
    "controllability_index",
    "observability_index",
    "sample_plant",
    "sample_plant_single_rate",
]


@dataclass(frozen=True)
class ContinuousPlant:
    """Continuous LTI triple: x' = a x + b u, y = c x."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a, b, c = as_matrix(self.a), as_matrix(self.b), as_matrix(self.c)
        if a.shape[1] != a.shape[0]:
            raise InvalidMatrixError("a must be square")
        if b.shape[0] != a.shape[0]:
            raise InvalidMatrixError("b must have as many rows as a")
        if c.shape[1] != a.shape[0]:
            raise InvalidMatrixError("c must have as many columns as a")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n_x(self) -> int:
        return self.a.shape[0]

    @property
    def n_u(self) -> int:
        return self.b.shape[1]

    @property
    def n_y(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class DiscretePlant:
    """Sampled plant with the protocol indices.

    ``a_d, b_d`` are the ZOH discretization over the input period ``delta``;
    ``a_lift = a_d**eta`` is the output-period transition.  ``eta`` is the
    controllability index of ``(a_d, b_d)`` and ``mu`` the observability
    index of ``(c, a_lift)``, except for single-rate models (see
    :func:`sample_plant_single_rate`) where ``eta`` is fixed to one.
    Each matrix is kept as a read-only, C-contiguous float64 copy, so a
    sampled plant cannot change.
    """

    a_d: np.ndarray
    b_d: np.ndarray
    c: np.ndarray
    delta: float
    big_delta: float
    eta: int
    mu: int
    a_lift: np.ndarray

    def __post_init__(self):
        for name in ("a_d", "b_d", "c", "a_lift"):
            object.__setattr__(self, name, frozen_matrix(getattr(self, name)))

    @property
    def n_x(self) -> int:
        return self.a_d.shape[0]

    @property
    def n_u(self) -> int:
        return self.b_d.shape[1]

    @property
    def n_y(self) -> int:
        return self.c.shape[0]


def discretize(a, b, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """ZOH discretization of (a, b) over one period ``delta``.

    Both blocks come from a single exponential of the augmented matrix
    ``[[a, b], [0, 0]] * delta``: the top-left block is ``a_d = e^{a delta}``
    and the top-right block is the input integral ``b_d``.
    """
    a = as_matrix(a, square=True)
    b = as_matrix(b)
    if delta <= 0:
        raise ValueError("delta must be positive")
    n, m = a.shape[0], b.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    phi = mat_exp(aug, delta)
    return phi[:n, :n], phi[:n, n:]


def controllability_index(a_d, b_d) -> int:
    """Smallest eta with ``[b_d, a_d b_d, ..., a_d^(eta-1) b_d]`` full rank."""
    a_d = as_matrix(a_d, square=True)
    b_d = as_matrix(b_d)
    n = a_d.shape[0]
    blocks = [b_d]
    for eta in range(1, n + 1):
        if rank_with_tol(np.hstack(blocks)) == n:
            return eta
        # an overflowing block is rejected by the next rank test
        with np.errstate(over="ignore", invalid="ignore"):
            blocks.append(a_d @ blocks[-1])
    raise UncontrollablePairError(
        f"rank of the controllability matrix never reached {n}"
    )


def observability_index(c, a_lift) -> int:
    """Smallest mu with ``[c; c a_lift; ...; c a_lift^(mu-1)]`` full rank."""
    c = as_matrix(c)
    a_lift = as_matrix(a_lift, square=True)
    n = a_lift.shape[0]
    blocks = [c]
    for mu in range(1, n + 1):
        if rank_with_tol(np.vstack(blocks)) == n:
            return mu
        with np.errstate(over="ignore", invalid="ignore"):
            blocks.append(blocks[-1] @ a_lift)
    raise UnobservablePairError(
        f"rank of the observability matrix never reached {n}"
    )


def sample_plant(plant: ContinuousPlant, big_delta: float) -> DiscretePlant:
    """Build the protocol-form sampled plant for output period ``big_delta``.

    The controllability index of the continuous pair fixes the candidate
    input period ``delta = big_delta / eta``; the discretized pair must
    reproduce the same index (this is the Kalman-rank consequence of a
    non-pathological ``delta``) or an error is raised.
    """
    if big_delta <= 0:
        raise ValueError("big_delta must be positive")
    eta = controllability_index(plant.a, plant.b)
    delta = big_delta / eta
    a_d, b_d = discretize(plant.a, plant.b, delta)
    eta_d = controllability_index(a_d, b_d)
    if eta_d != eta:
        raise UncontrollablePairError(
            f"sampling changed the controllability index ({eta} -> {eta_d}); "
            f"delta = {delta} appears pathological"
        )
    a_lift = mat_pow(a_d, eta)
    mu = observability_index(plant.c, a_lift)
    return DiscretePlant(
        a_d=a_d, b_d=b_d, c=plant.c, delta=delta, big_delta=big_delta,
        eta=eta, mu=mu, a_lift=a_lift,
    )


def sample_plant_single_rate(plant: ContinuousPlant, big_delta: float) -> DiscretePlant:
    """Sampled plant with equal input and output periods (eta fixed to 1).

    Used by the output-channel-only schemes where the controller runs at
    the output rate; ``a_lift`` coincides with ``a_d``.
    """
    if big_delta <= 0:
        raise ValueError("big_delta must be positive")
    a_d, b_d = discretize(plant.a, plant.b, big_delta)
    mu = observability_index(plant.c, a_d)
    return DiscretePlant(
        a_d=a_d, b_d=b_d, c=plant.c, delta=big_delta, big_delta=big_delta,
        eta=1, mu=mu, a_lift=a_d,
    )
