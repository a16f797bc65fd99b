"""Controller and observer gain synthesis plus decay-constant extraction.

Four synthesis routines live here:

* :func:`design_deadbeat_gain` builds a feedback gain making the closed
  loop nilpotent with index equal to the controllability index, via a
  staircase basis of the controllability matrix and block-companion
  coefficient zeroing.
* :func:`design_stabilizing_gain` builds a Schur-stabilizing feedback gain
  from the control Riccati dual.
* :func:`design_observer_gain` iterates the filtering Riccati recursion to
  the steady-state gain and certifies the closed error transition.
* :func:`design_deadbeat_observer` is the dual deadbeat construction.

:func:`build_gain_set` resolves a scenario file's ``gains`` entry to a
:class:`GainSet` with them, for library callers and
:func:`doslab.controlloop.compile_plan` alike.

:func:`derive_decay_constants` scans powers of the closed matrices and
extracts the geometric-decay constants the encoding schemes and stability
conditions consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .discretize import DiscretePlant
from .errors import (
    DoslabError,
    IllConditionedBasisError,
    RiccatiConvergenceError,
    ScenarioError,
    StabilityCertificationError,
    UncontrollablePairError,
)
from .matrixcore import (
    DECAY_SCAN_CAP,
    as_matrix,
    gelfand_radius,
    inf_norm,
    is_finite_number,
    mat_pow,
    power_chunks,
    schur_certified,
    solve_linear,
    stack_norms,
)

__all__ = [
    "GainSet",
    "DecayConstants",
    "design_deadbeat_gain",
    "verify_nilpotent",
    "design_observer_gain",
    "design_deadbeat_observer",
    "design_stabilizing_gain",
    "build_gain_set",
    "derive_decay_constants",
]

# A synthesized deadbeat gain must reach this residual, relative to
# inf_norm(a_d)**eta.  Printed gains truncated to a few decimals cannot and
# are verified by callers against their own looser threshold.
NILPOTENCY_RTOL = 1e-8

# Decay-constant scans stop below this power norm, at DECAY_SCAN_CAP powers.
DECAY_SCAN_FLOOR = 1e-14

# Staircase column independence; the Riccati stall thresholds, absolute and
# relative to the iterate, and step cap.
CHAIN_TOL = 1e-9
RICCATI_TOL = 1e-12
RICCATI_RTOL = 1e-13
RICCATI_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class GainSet:
    """Synthesized or injected closed-loop gains, and no plant.

    ``controller_gain`` k and ``observer_gain`` m are read-only float64
    copies, so a gain set cannot change; the plant a plan samples gives its
    closed matrices.  ``compiled`` holds the last plan
    :func:`doslab.controlloop.compile_plan` compiled with this gain set,
    given or resolved, with the other inputs it was compiled from; it is
    not an argument.
    """

    controller_gain: np.ndarray
    observer_gain: np.ndarray
    deadbeat_observer: bool = False
    compiled: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("controller_gain", "observer_gain"):
            # in the layout given: a C-order copy of a Fortran-order gain
            # rounds the engine's products differently on some BLAS kernels
            matrix = as_matrix(getattr(self, name))
            matrix.flags.writeable = False
            object.__setattr__(self, name, matrix)


@dataclass(frozen=True)
class DecayConstants:
    """Geometric envelopes on powers of the closed matrices.

    On the sampled plant they are derived for, with ``r = a_lift (I - m c)``
    the error transition and ``rbar = a_d + b_d k`` the closed loop, for
    every scanned power ``l``::

        inf_norm(r^l)                                   <= a0 * rho^l
        inf_norm(r^l a_lift m)                          <= a1 * rho^l
        sum_i inf_norm(r^l a_d^(eta-i-1) b_d) * s_i     <= a2 * rho^l

    where ``s_i = inf_norm(k rbar^i m)`` is the input gain of sub-step
    ``i``, kept in ``input_gains``.  ``h0, h1`` are the analogous
    constants for a predictor matrix ``a_d - l_obs c`` when one is supplied.
    The ACK-free output scheme bounds the same two quantities as ``a0, a1``.
    """

    rho: float
    a0: float
    a1: float
    a2: float
    h0: float | None
    h1: float | None
    max_power_used: int
    input_gains: tuple[float, ...] = ()


def _select_chains(a: np.ndarray, b: np.ndarray):
    """Degree-first independent-column selection from [b, ab, a^2 b, ...].

    Returns per-input chain lengths and the selected columns grouped by
    input chain.  Once a power of an input column goes dependent, higher
    powers of that input are dependent too, so the input is retired.
    """
    n = a.shape[0]
    m = b.shape[1]
    col_scale = max(1.0, float(np.max(np.abs(b))))
    ortho: list[np.ndarray] = []
    chains: list[list[np.ndarray]] = [[] for _ in range(m)]
    current = [b[:, j].copy() for j in range(m)]
    active = list(range(m))
    selected = 0
    while active and selected < n:
        surviving = []
        for j in active:
            v = current[j]
            w = v.copy()
            for u in ortho:
                w -= (u @ w) * u
            # re-orthogonalize once; classical GS alone loses accuracy
            for u in ortho:
                w -= (u @ w) * u
            norm_w = float(np.linalg.norm(w))
            if norm_w > CHAIN_TOL * max(float(np.linalg.norm(v)), col_scale):
                ortho.append(w / norm_w)
                chains[j].append(v.copy())
                surviving.append(j)
                selected += 1
                if selected == n:
                    break
        active = surviving
        for j in active:
            current[j] = a @ current[j]
    return [len(ch) for ch in chains], chains


def _deadbeat_feedback(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Feedback k with (a + b k)^eta = 0, eta the controllability index."""
    a = as_matrix(a, square=True)
    b = as_matrix(b)
    n = a.shape[0]
    m = b.shape[1]
    lengths, chains = _select_chains(a, b)
    if sum(lengths) != n:
        raise UncontrollablePairError(
            f"selected only {sum(lengths)} independent columns of {n}"
        )
    basis = np.column_stack([col for ch in chains for col in ch])
    basis_inv = solve_linear(basis, np.eye(n))
    rcond = 1.0 / (inf_norm(basis) * inf_norm(basis_inv))
    if rcond < 1e-10:
        raise IllConditionedBasisError(
            f"staircase basis reciprocal condition {rcond:.2e} below 1e-10"
        )
    live = [j for j in range(m) if lengths[j] > 0]
    ends = np.cumsum([lengths[j] for j in live])
    # q_i: the basis-inverse row dual to the last column of chain i.  It
    # annihilates every selected column except that one, which makes the
    # transformed system block-companion: the only rows of a + b k that are
    # not pure shifts are q_i a^(mu_i), and q_i a^(mu_i - 1) b is the i-th
    # row of an invertible coupling matrix.
    gamma = np.zeros((len(live), len(live)))
    high = np.zeros((len(live), n))
    for i, j in enumerate(live):
        q = basis_inv[ends[i] - 1]
        q_am = q @ mat_pow(a, lengths[j] - 1)
        gamma[i] = (q_am @ b)[live]
        high[i] = q_am @ a
    k_live = -solve_linear(gamma, high)
    k = np.zeros((m, n))
    for i, j in enumerate(live):
        k[j] = k_live[i]
    return k


def design_deadbeat_gain(dp: DiscretePlant) -> np.ndarray:
    """Controller gain k with ``(a_d + b_d k)^eta = 0``.

    The residual is checked against ``NILPOTENCY_RTOL`` relative to
    ``inf_norm(a_d)**eta``; the construction is exact in real arithmetic so
    anything larger signals a conditioning problem.
    """
    k = _deadbeat_feedback(dp.a_d, dp.b_d)
    residual = verify_nilpotent(dp.a_d, dp.b_d, k, dp.eta)
    bound = NILPOTENCY_RTOL * inf_norm(dp.a_d) ** dp.eta
    if residual > bound:
        raise IllConditionedBasisError(
            f"deadbeat residual {residual:.3e} exceeds {bound:.3e}"
        )
    return k


def verify_nilpotent(a_d, b_d, k, eta: int) -> float:
    """Residual ``inf_norm((a_d + b_d k)^eta)`` for caller-side thresholds."""
    closed = as_matrix(a_d, square=True) + as_matrix(b_d) @ as_matrix(k)
    return inf_norm(mat_pow(closed, eta))


def design_observer_gain(a_lift, c, rtol: float = RICCATI_RTOL) -> np.ndarray:
    """Steady-state filter gain m for the pair (c, a_lift).

    Iterates ``p <- a (p - p c' (c p c' + I)^-1 c p) a' + I`` from ``p = I``
    until the update stalls below ``RICCATI_TOL`` plus ``rtol`` relative to
    the iterate, in inf-norm, then returns
    ``m = p c' (c p c' + I)^-1`` and certifies that
    ``a_lift (I - m c)`` has Gelfand bound below one.
    """
    a = as_matrix(a_lift, square=True)
    c = as_matrix(c)
    n = a.shape[0]
    at, ct, eye_x, eye_y = a.T, c.T, np.eye(n), np.eye(c.shape[0])
    p = eye_x
    for _ in range(RICCATI_MAX_ITER):
        cp = c.dot(p)
        gain = solve_linear(cp.dot(ct) + eye_y, cp)  # s^-1 c p
        p_next = a.dot(p - p.dot(ct).dot(gain)).dot(at) + eye_x
        p_next = 0.5 * (p_next + p_next.T)
        if inf_norm(p_next - p) < RICCATI_TOL + rtol * inf_norm(p_next):
            p = p_next
            break
        p = p_next
    else:
        raise RiccatiConvergenceError(
            f"Riccati iteration did not stall within {RICCATI_MAX_ITER} steps"
        )
    s = c @ p @ ct + eye_y
    m = solve_linear(s.T, (p @ ct).T).T
    closed = a @ (eye_x - m @ c)
    if not schur_certified(closed):
        bound = gelfand_radius(closed)
        raise StabilityCertificationError(
            f"error transition not certified Schur (Gelfand bound {bound:.4f})"
        )
    return m


def design_deadbeat_observer(a_lift, c, mu: int) -> np.ndarray:
    """Observer gain m with ``(a_lift (I - m c))^mu = 0``.

    Dual of the deadbeat feedback applied to ``(a_lift', c')``; since
    ``a_lift`` is a matrix exponential it is invertible, which converts the
    dual gain into the reset form used here.
    """
    a = as_matrix(a_lift, square=True)
    c = as_matrix(c)
    k_dual = _deadbeat_feedback(a.T, c.T)
    m = solve_linear(a, -k_dual.T)
    closed = a @ (np.eye(a.shape[0]) - m @ c)
    residual = inf_norm(mat_pow(closed, mu))
    bound = NILPOTENCY_RTOL * inf_norm(a) ** mu
    if residual > bound:
        raise IllConditionedBasisError(
            f"deadbeat observer residual {residual:.3e} exceeds {bound:.3e}"
        )
    return m


# a weight far from 1 can overflow: the next matrix check names that
@np.errstate(over="ignore", invalid="ignore")
def design_stabilizing_gain(a_d, b_d, control_weight: float = 1.0) -> np.ndarray:
    """Schur-stabilizing (non-deadbeat) feedback via the control Riccati dual.

    Used by the output-channel schemes, which only require a stable closed
    loop and whose mismatch analysis degenerates under a nilpotent one.
    Raising ``control_weight`` penalizes input effort and slows the closed
    loop toward the reflected open-loop spectrum.
    """
    a = as_matrix(a_d, square=True)
    b = as_matrix(b_d)
    scaled = b / np.sqrt(control_weight)
    m_dual = design_observer_gain(a.T, scaled.T, rtol=1e-12)
    k = -(m_dual.T @ a) / np.sqrt(control_weight)
    if not schur_certified(a + b @ k):
        bound = gelfand_radius(a + b @ k)
        raise StabilityCertificationError(
            f"closed loop not certified Schur (Gelfand bound {bound:.4f})"
        )
    return k


def build_gain_set(dp: DiscretePlant, observer: str = "kalman", entry=None,
                   deadbeat: bool = True,
                   control_weight: float = 1.0) -> GainSet:
    """Gain set for ``dp`` from a scenario file's ``gains`` entry.

    ``entry`` is ``None`` or ``"synthesize"``, or a dict giving ``k``
    and/or ``m`` and the injected feedback's ``nilpotency_tol`` (default
    0.05).  Gains the entry does not give are synthesized: deadbeat
    feedback if ``deadbeat`` (the dual and ACK-free schemes), else
    Schur-stabilizing feedback weighted by ``control_weight`` (the ACK
    scheme and the demo), and a filter (``observer="kalman"``) or deadbeat
    observer gain.  An
    injected gain must fit the plant, and an injected feedback gain is
    verified first: nilpotent within ``nilpotency_tol`` times
    ``inf_norm(a_d)**eta`` if ``deadbeat``, else certified Schur.
    """
    if observer not in ("kalman", "deadbeat"):
        raise ValueError(f"unknown observer mode {observer!r}")
    if entry is None or isinstance(entry, str) and entry == "synthesize":
        entry = {}
    if (not isinstance(entry, dict)
            or set(entry) - {"k", "m", "nilpotency_tol"}):
        raise ScenarioError(
            "gains must be None, 'synthesize', a GainSet or a dict of k, m "
            f"and nilpotency_tol, got {entry!r:.60}")
    tol = entry.get("nilpotency_tol", 5e-2)
    if not (is_finite_number(tol) and tol > 0):
        raise ScenarioError(f"gains.nilpotency_tol must be finite and "
                            f"positive, got {tol!r:.60}")
    k, m = (as_matrix(entry[name]) if name in entry else None
            for name in ("k", "m"))
    check_fit(dp, k, m)
    if k is not None:
        if deadbeat:
            residual = verify_nilpotent(dp.a_d, dp.b_d, k, dp.eta)
            bound = tol * inf_norm(dp.a_d) ** dp.eta
            if residual > bound:
                raise DoslabError(
                    f"injected feedback gain is not deadbeat: residual "
                    f"{residual:.3e} > {bound:.3e}"
                )
        elif not schur_certified(dp.a_d + dp.b_d @ k):
            raise DoslabError("injected feedback gain not certified stable")
    elif deadbeat:
        k = design_deadbeat_gain(dp)
    else:
        k = design_stabilizing_gain(dp.a_d, dp.b_d, control_weight)

    deadbeat_observer = m is None and observer == "deadbeat"
    if deadbeat_observer:
        m = design_deadbeat_observer(dp.a_lift, dp.c, dp.mu)
    elif m is None:
        m = design_observer_gain(dp.a_lift, dp.c)
    # an injected m whose error transition is not certified Schur is
    # rejected by derive_decay_constants
    return make_gain_set(dp, k, m, deadbeat_observer)


def make_gain_set(dp: DiscretePlant, k, m, deadbeat_observer: bool = False) -> GainSet:
    """A GainSet of explicit (possibly injected) gains that fit ``dp``."""
    gs = GainSet(k, m, deadbeat_observer)
    check_fit(dp, gs.controller_gain, gs.observer_gain)
    return gs


def check_fit(dp: DiscretePlant, k=None, m=None) -> None:
    """Refuse a gain ``k`` or ``m`` (``None``: not given) unfit for ``dp``."""
    for name, gain, shape in (("k", k, (dp.n_u, dp.n_x)),
                              ("m", m, (dp.n_x, dp.n_y))):
        if gain is not None and gain.shape != shape:
            raise ScenarioError(f"gains.{name} must have shape {shape}, "
                                f"got {gain.shape}")


def _scan_constants(r: np.ndarray, rho: float, quantities) -> tuple[list[float], int]:
    """Max of quantity(l)/rho^l over l = 1..L, L the first power of r below
    the floor.  Each quantity maps the stack ``r^1 .. r^L`` to its values
    per power.  Returns the per-quantity maxima and L.

    The sup over all l is attained in the scanned range: submultiplying any
    tail power through r^L multiplies its ratio by inf_norm(r^L)/rho^L <= 1,
    which is asserted on exit.
    """
    chunks = []
    for powers, norms in power_chunks(r, DECAY_SCAN_CAP):
        chunks.append(powers)
        below = np.flatnonzero(norms < DECAY_SCAN_FLOOR)
        if below.size:
            break
    else:
        raise StabilityCertificationError(
            f"no power of the closed matrix dropped below {DECAY_SCAN_FLOOR} "
            f"within {DECAY_SCAN_CAP} steps"
        )
    used = sum(map(len, chunks[:-1])) + int(below[0]) + 1
    rho_l = np.fromiter(accumulate(repeat(rho, used), mul), float, used)
    if norms[below[0]] > rho_l[-1]:
        raise StabilityCertificationError(
            "tail justification failed: inf_norm(r^L) exceeds rho^L"
        )
    stack = np.concatenate(chunks)[:used]
    best = [max(0.0, float((quantity(stack) / rho_l).max()))
            for quantity in quantities]
    return best, used


def derive_decay_constants(
    gs: GainSet, dp: DiscretePlant, l_obs=None
) -> DecayConstants:
    """Extract the geometric decay constants for a gain set on ``dp``.

    ``r`` and ``rbar`` are formed from ``dp``, the plant the gains run on,
    as :class:`DecayConstants` defines them.  ``rho`` is the midpoint
    between their certified Gelfand bound and one -- deterministic and
    reproducible.  Every constant is the max of its quantity over the
    scanned powers divided by ``rho^l``, so the defining inequalities hold
    exhaustively there and the geometric tail is covered by the floor
    assertion in the scan.
    """
    k, m = gs.controller_gain, gs.observer_gain
    r = dp.a_lift @ (np.eye(dp.n_x) - m @ dp.c)
    rbar = dp.a_d + dp.b_d @ k
    radii = [gelfand_radius(r)]
    pi_l = None
    if l_obs is not None:
        l_obs = as_matrix(l_obs)
        pi_l = dp.a_lift - l_obs @ dp.c
        radii.append(gelfand_radius(pi_l))
    worst = max(radii)
    if worst >= 1.0:
        raise StabilityCertificationError(
            f"Gelfand bound {worst:.4f} is not below one; cannot pick rho"
        )
    rho = (worst + 1.0) / 2.0

    lifted_m = dp.a_lift @ m
    input_cols = [
        mat_pow(dp.a_d, dp.eta - i - 1) @ dp.b_d for i in range(dp.eta)
    ]
    input_gains = tuple(inf_norm(k @ mat_pow(rbar, i) @ m)
                        for i in range(dp.eta))
    (a0, a1, a2), used = _scan_constants(
        r,
        rho,
        (
            stack_norms,
            lambda p: stack_norms(p @ lifted_m),
            lambda p: sum(
                stack_norms(p @ col) * w for col, w in zip(input_cols, input_gains)
            ),
        ),
    )
    h0 = h1 = None
    if pi_l is not None:
        (h0, h1), used_l = _scan_constants(
            pi_l, rho, (stack_norms, lambda p: stack_norms(p @ l_obs))
        )
        used = max(used, used_l)
    return DecayConstants(
        rho=rho, a0=a0, a1=a1, a2=a2, h0=h0, h1=h1,
        max_power_used=used, input_gains=input_gains,
    )
