"""Independent reference computations used by the tests.

Each oracle deliberately avoids the code path it checks: the exponential
oracle is a plain truncated series, the input-matrix oracle is composite
Simpson quadrature, and the index oracles are direct Kalman rank tests on
explicitly stacked blocks.  The codec, range-law, power-scan,
trace-writer, chart-point and DoS-budget oracles keep the plain loops
(the array expression, for decoding) the library replaced, as bit-exact
references; so do the elimination and Riccati oracles, with the
products and wrappers the library hoisted or replaced, and the
center-based encoder and round trip the offset codec replaced.  The
deadbeat-loop oracle steps every sub-step's estimate and checks each
slot's ``|C xhat|`` as it ends, through a decode of each encode; the
DoS-generator oracle draws its splitmix64 stream one Python integer at a
time.  The sharpest single-level threshold is a reference value for the
published level bound, and the mismatch bound the one computation of the
demonstration's derived error bound; no library code computes either.
"""

import math
import operator
from itertools import repeat

import numpy as np

from doslab import InvalidMatrixError, SaturationError, gelfand_radius, inf_norm
from doslab.controlloop import (
    DEADBEAT_NULL_TOL,
    _matvecs,
    _norms,
    _placed,
)
from doslab.dos import DoSPattern, _within_budget
from doslab.errors import (
    DeadbeatContractError,
    InferenceMismatchError,
    RiccatiConvergenceError,
    SingularMatrixError,
    StabilityCertificationError,
)
from doslab.gains import (
    DECAY_SCAN_CAP,
    DECAY_SCAN_FLOOR,
    RICCATI_MAX_ITER,
    RICCATI_TOL,
    _scan_constants,
)
from doslab.matrixcore import (
    PIVOT_TOL,
    as_matrix,
    as_vector,
    mat_exp,
    mat_pow,
    rank_with_tol,
    stack_norms,
)
from doslab.quantizer import decode, encode


def taylor_expm(a, t=1.0, max_terms=300):
    """Truncated-series matrix exponential, summed to machine convergence."""
    a = np.asarray(a, dtype=float) * t
    n = a.shape[0]
    term = np.eye(n)
    total = np.eye(n)
    for k in range(1, max_terms):
        term = term @ a / k
        total = total + term
        if np.abs(term).max() < 1e-30 * max(1.0, np.abs(total).max()):
            return total
    raise AssertionError("series did not converge")


def simpson_input_matrix(a, b, delta, panels=10_000):
    """Composite-Simpson quadrature of the ZOH input integral."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if panels % 2:
        panels += 1
    h = delta / panels
    total = np.zeros_like(b)
    for i in range(panels + 1):
        weight = 1 if i in (0, panels) else (4 if i % 2 else 2)
        total = total + weight * (mat_exp(a, i * h) @ b)
    return total * h / 3.0


def kalman_controllability_index(a, b):
    """Smallest block count reaching full rank, by explicit stacking."""
    n = a.shape[0]
    blocks = b
    for eta in range(1, n + 1):
        if rank_with_tol(blocks) == n:
            return eta
        blocks = np.hstack([blocks, np.linalg.matrix_power(a, eta) @ b])
    return None


def random_controllable_pair(generator, n, m):
    """Random (a, b) that passes the Kalman rank test."""
    while True:
        a = generator.uniform(-2, 2, size=(n, n))
        b = generator.uniform(-2, 2, size=(n, m))
        if kalman_controllability_index(a, b) is not None:
            return a, b


def encode_loop(v, center, rng, codec, clip=False):
    """Uniform-codec cell indices, validated and computed one component at
    a time."""
    v, center = as_vector(v), as_vector(center)
    if v.shape != (codec.dim,) or center.shape != (codec.dim,):
        raise InvalidMatrixError(f"expected vectors of dimension {codec.dim}")
    if rng < 0.0:
        raise ValueError("range must be nonnegative")
    offset = v - center
    worst = float(np.max(np.abs(offset)))
    if worst > rng and not clip:
        raise SaturationError("value leaves its quantization range")
    if rng == 0.0:
        return ((codec.levels - 1) // 2,) * codec.dim
    n = codec.levels
    cells = []
    for u in (offset + rng) * n / (2.0 * rng):
        cell = int(math.ceil(u)) - 1
        cells.append(min(max(cell, 0), n - 1))
    return tuple(cells)


def encode_centered(v, center, rng, codec, clip=False):
    """The center-based encoder the offset codec replaced: cells of the box
    containing ``v`` in the hypercube around ``center``, with the offset
    ``v - center`` formed here on Python floats, and the same checks,
    errors and messages."""
    shape = (codec.dim,)
    v = np.asarray(v, dtype=float)
    center = np.asarray(center, dtype=float)
    if v.shape != shape or center.shape != shape:
        raise InvalidMatrixError(
            f"expected vectors of shape {shape}, got {v.shape} and "
            f"{center.shape}"
        )
    offset = list(map(operator.sub, v.tolist(), center.tolist()))
    worst = max(map(abs, offset))
    if not all(map(math.isfinite, offset)):
        raise InvalidMatrixError("vector entries must be finite")
    if not 0.0 <= rng < math.inf:
        raise InvalidMatrixError("range must be nonnegative and finite")
    if worst > rng and not clip:
        raise SaturationError(
            f"value leaves its quantization range: |v - center| = {worst:.6g} "
            f"> {rng:.6g}"
        )
    n = codec.levels
    if rng == 0.0:
        return ((n - 1) // 2,) * codec.dim
    top, width = n - 1, 2.0 * rng
    if not math.isfinite(width * n):
        raise InvalidMatrixError("range times levels overflows the float range")
    if worst > rng:
        offset = [min(max(o, -rng), rng) for o in offset]
    cells = []
    for o in offset:
        k = math.ceil((o + rng) * n / width) - 1
        cells.append(0 if k < 0 else top if k > top else k)
    return tuple(cells)


def quantize_centered(v, center, rng, codec):
    """The center-based round trip the offset codec replaced: the box center
    of ``v`` around ``center``, raising as :func:`encode_centered` does."""
    center = np.asarray(center, dtype=float)
    cells = encode_centered(v, center, rng, codec)
    step = rng / codec.levels
    return np.array([c + (2.0 * k + 1.0 - codec.levels) * step
                     for c, k in zip(center.tolist(), cells)])


def decode_array(cells, center, rng, codec):
    """Uniform-codec box centers, validated and computed as one array
    expression."""
    center = np.asarray(center, dtype=float)
    if center.shape != (codec.dim,):
        raise InvalidMatrixError(
            f"expected a center of shape ({codec.dim},), got {center.shape}"
        )
    if not np.isfinite(center).all():
        raise InvalidMatrixError("vector entries must be finite")
    n = codec.levels
    if len(cells) != codec.dim:
        raise ValueError("index dimension does not match codec")
    if min(cells) < 0 or max(cells) >= n:
        raise ValueError("index cells out of range for codec")
    return center + (2.0 * np.array(cells, dtype=float) + 1.0 - n) * (rng / n)


def range_law_loop(e0, thetas, attacked):
    """Three-branch range law stepped one slot at a time: the branch name
    of every slot, and the range at every slot start plus the one after
    the last slot."""
    value, prev_attacked = e0, False
    branches, ranges = [], [e0]
    for slot, hit in enumerate(attacked):
        if hit:
            branch, factor = "attacked", thetas.theta_attack
        elif slot == 0 or prev_attacked:
            branch, factor = "first_success", thetas.theta_first
        else:
            branch, factor = "consecutive_success", thetas.theta_steady
        value = value * factor
        prev_attacked = bool(hit)
        branches.append(branch)
        ranges.append(value)
    return branches, np.array(ranges)


def validate_loop(p, params):
    """Both DoS prefix budgets, counted and checked one slot at a time."""
    switches = 0
    attacks = 0
    prev = False
    for q0, slot in enumerate(p.slots):
        if slot and not prev:
            switches += 1
        if slot:
            attacks += 1
        prev = slot
        q = q0 + 1
        if switches > params.kappa_f + q / params.nu_f:
            return q
        if attacks > params.kappa_d + q / params.nu_d:
            return q
    return None


def closed_matrices(gs, dp):
    """The error transition ``a_lift (I - m c)`` and the closed loop
    ``a_d + b_d k`` of gain set ``gs`` on the sampled plant ``dp``."""
    r = dp.a_lift @ (np.eye(dp.n_x) - gs.observer_gain @ dp.c)
    return r, dp.a_d + dp.b_d @ gs.controller_gain


def mismatch_bound_loop(trace, cfg, plan):
    """Derived upper-bound sequence on the encoder-side error of a
    mismatch-demonstration trace, one value per slot it stepped.

    Before the attack the bound is the encoder range itself.  After it, the
    recorded quantization offsets feed the kick terms of the predictor
    mismatch recursion: the phantom correction injected at the attacked
    slot, the range-law divergence one slot later, and the per-slot
    mis-scaled corrections after that.  Every ``bk closed^i`` and kick is
    formed inside the double loop.
    """
    e_enc = trace.slots["e_enc"]
    offs = trace.slots["offs"]
    q_a = cfg.attack_slot
    thetas, gs, l_obs = plan.report.thetas, plan.gains, plan.l_obs
    th_a, th_0, th_na = (thetas.theta_attack, thetas.theta_first,
                         thetas.theta_steady)
    n = plan.levels
    norm_c = inf_norm(cfg.plant.c)
    bk = plan.dp.b_d @ gs.controller_gain
    _, closed = closed_matrices(gs, plan.dp)
    slots = len(e_enc)
    bound = np.array(e_enc, dtype=float)
    if q_a >= slots:
        return bound
    base = e_enc[q_a]
    kick0 = l_obs @ offs[q_a]
    for ell in range(1, slots - q_a):
        q = q_a + ell
        total = e_enc[q]
        if ell >= 2:
            total += (
                inf_norm(bk @ mat_pow(closed, ell - 1) @ kick0)
                * norm_c * base / (n * th_na ** ell)
            )
            kick1 = l_obs @ offs[q_a + 1]
            total += (
                inf_norm(bk @ mat_pow(closed, ell - 2) @ kick1)
                * norm_c * (th_a - th_na) * base / (n * th_na ** ell)
            )
        for i in range(ell - 2):
            kick = l_obs @ offs[q_a + ell - i - 1]
            total += (
                inf_norm(bk @ mat_pow(closed, i) @ kick)
                * norm_c * (th_0 * th_a - th_na ** 2) * base
                / (n * th_na ** (i + 3))
            )
        bound[q] = total
    return bound


def gelfand_radius_loop(m, max_power=64):
    """Gelfand bound with one power, one ``inf_norm`` and one finiteness
    test per step."""
    a = as_matrix(m, square=True)
    if max_power < 8:
        raise ValueError("max_power must be at least 8")
    best = np.inf
    p = np.eye(a.shape[0])
    for k in range(1, max_power + 1):
        p = p @ a
        norm = inf_norm(p)
        if norm == 0.0:
            return 0.0
        if not np.isfinite(norm):
            break
        best = min(best, norm ** (1.0 / k))
        if norm < 1e-300:
            break
    return float(best)


def solve_linear_outer(a, b):
    """Gaussian elimination with partial pivoting through ``np.outer``,
    ``np.argmax`` and ``np.max``, on a copy of ``a``."""
    a = as_matrix(a, square=True).copy()
    rhs = np.array(b, dtype=float)
    vector_rhs = rhs.ndim == 1
    if vector_rhs:
        rhs = rhs[:, None]
    n = a.shape[0]
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        raise SingularMatrixError("coefficient matrix is zero")
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) <= PIVOT_TOL * scale:
            raise SingularMatrixError(f"pivot {col} below tolerance")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
        factors = a[col + 1:, col] / a[col, col]
        a[col + 1:, col:] -= np.outer(factors, a[col, col:])
        rhs[col + 1:] -= np.outer(factors, rhs[col])
    x = np.empty_like(rhs)
    for row in range(n - 1, -1, -1):
        x[row] = (rhs[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x[:, 0] if vector_rhs else x


def observer_gain_loop(a_lift, c, rtol=0.0):
    """Steady-state filter gain with every product, identity and transpose
    of the Riccati step formed inside the loop, solved by
    :func:`solve_linear_outer` and certified by the full Gelfand bound."""
    a = as_matrix(a_lift, square=True)
    c = as_matrix(c)
    n = a.shape[0]
    p = np.eye(n)
    for _ in range(RICCATI_MAX_ITER):
        s = c @ p @ c.T + np.eye(c.shape[0])
        gain = solve_linear_outer(s, c @ p)
        p_next = a @ (p - p @ c.T @ gain) @ a.T + np.eye(n)
        p_next = 0.5 * (p_next + p_next.T)
        if inf_norm(p_next - p) < RICCATI_TOL + rtol * inf_norm(p_next):
            p = p_next
            break
        p = p_next
    else:
        raise RiccatiConvergenceError("Riccati iteration did not stall")
    s = c @ p @ c.T + np.eye(c.shape[0])
    m = solve_linear_outer(s.T, (p @ c.T).T).T
    closed = a @ (np.eye(n) - m @ c)
    if gelfand_radius_loop(closed, DECAY_SCAN_CAP) >= 1.0:
        raise StabilityCertificationError("error transition not certified")
    return m


def stabilizing_gain_loop(a_d, b_d, control_weight=1.0):
    """Schur-stabilizing feedback from :func:`observer_gain_loop` on the
    control dual, certified by the full Gelfand bound."""
    a = as_matrix(a_d, square=True)
    b = as_matrix(b_d)
    scaled = b / np.sqrt(control_weight)
    m_dual = observer_gain_loop(a.T, scaled.T, rtol=1e-12)
    k = -(m_dual.T @ a) / np.sqrt(control_weight)
    if gelfand_radius_loop(a + b @ k, DECAY_SCAN_CAP) >= 1.0:
        raise StabilityCertificationError("closed loop not certified")
    return k


def scan_constants_loop(r, rho, quantities):
    """Decay-constant scan over one power at a time; each quantity maps a
    single power to a number."""
    best = [0.0] * len(quantities)
    power = np.eye(r.shape[0])
    rho_l = 1.0
    for ell in range(1, DECAY_SCAN_CAP + 1):
        power = power @ r
        rho_l *= rho
        for i, quantity in enumerate(quantities):
            best[i] = max(best[i], quantity(power) / rho_l)
        norm = inf_norm(power)
        if norm < DECAY_SCAN_FLOOR:
            if norm > rho_l:
                raise StabilityCertificationError(
                    "tail justification failed: inf_norm(r^L) exceeds rho^L"
                )
            return best, ell
    raise StabilityCertificationError(
        f"no power of the closed matrix dropped below {DECAY_SCAN_FLOOR} "
        f"within {DECAY_SCAN_CAP} steps"
    )


def sharpest_single_level_threshold(gs, dp):
    """Least conservative single-channel level threshold over admissible rho.

    The midpoint rho rule is deterministic but not the sharpest certificate;
    this scans 400 rho between the certified spectral bound and one, takes
    each one's envelope constant from the decay-constant scan (skipping a
    rho whose tail it cannot certify), and minimizes
    ``g1 * ||C|| / (1 - rho)``.  Returns ``(threshold, rho)``.
    """
    r, _ = closed_matrices(gs, dp)
    lifted_m = dp.a_lift @ gs.observer_gain
    norm_c = inf_norm(dp.c)
    radius = gelfand_radius(r, DECAY_SCAN_CAP)
    best = (math.inf, math.nan)
    for rho in np.linspace(radius + 1e-3, 0.995, 400).tolist():
        try:
            (g1,), _ = _scan_constants(
                r, rho, (lambda p: stack_norms(p @ lifted_m),))
        except StabilityCertificationError:
            continue
        threshold = g1 * norm_c / (1.0 - rho)
        if threshold < best[0]:
            best = (threshold, rho)
    return best


def trace_to_csv_loop(trace, path):
    """Trace CSV written one formatted field at a time."""
    header = ["t", "q", "k"]
    header += [f"x_{i}" for i in range(trace.x.shape[1])]
    header += [f"xhat_{i}" for i in range(trace.x_hat.shape[1])]
    header += [f"u_sent_{i}" for i in range(trace.u_sent.shape[1])]
    header += [f"u_applied_{i}" for i in range(trace.u_applied.shape[1])]
    header += [f"y_{i}" for i in range(trace.y.shape[1])]
    header += list(trace.ranges.keys())
    header += ["outcome", "saturated", "inferred_attack"]
    fmt = "{:.17g}".format
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(trace.t)):
            row = [fmt(trace.t[i]), str(int(trace.q[i])), str(int(trace.k[i]))]
            row += [fmt(v) for v in trace.x[i]]
            row += [fmt(v) for v in trace.x_hat[i]]
            row += [fmt(v) for v in trace.u_sent[i]]
            row += [fmt(v) for v in trace.u_applied[i]]
            row += [fmt(v) for v in trace.y[i]]
            row += [fmt(col[i]) for col in trace.ranges.values()]
            row += [
                trace.outcome[i],
                str(int(trace.saturated[i])),
                str(int(trace.inferred_attack[i])),
            ]
            fh.write(",".join(row) + "\n")


def polyline_points_loop(xs, ys, px, py):
    """Chart polyline points, mapped and formatted one point at a time."""
    return " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))


def _quantize_roundtrip(v, center, rng, codec, channel, q, k=None):
    """``decode(encode(...))``, naming the slot, sub-step and channel of a
    codec failure as the engine does."""
    try:
        return decode(encode(v - center, rng, codec), center, rng, codec)
    except (SaturationError, InvalidMatrixError) as exc:
        raise _placed(exc, channel, q, k) from exc


@np.errstate(over="ignore", invalid="ignore")
def deadbeat_loop(cfg, plan, tb, output, inputs=None):
    """The deadbeat slot loop stepping every sub-step's estimate and
    checking each slot as it ends: the slot's codecs, then, without an
    input codec, the attack the encoder infers from an all-zero input run
    against the pattern, then ``|C xhat|``; a drop-in for
    ``controlloop._step_deadbeat``, returning the final state."""
    dp, gs, plant = plan.dp, plan.gains, cfg.plant
    codec_y, y_ranges = output
    codec_u, u_ranges = inputs or (None, repeat(None))
    x = cfg.x0.copy()
    zero_x, zero_y, zero_u = map(np.zeros, (plant.n_x, plant.n_y, plant.n_u))
    c, m, kc, a, b = (w.dot for w in (plant.c, gs.observer_gain,
                                      gs.controller_gain, dp.a_d, dp.b_d))
    infer = codec_u is None
    residuals, inferred, degenerate = [], [], []
    add_x, add_xh, add_u, add_ua = tb.add

    for q, (hit, y_rng, u_rngs) in enumerate(zip(tb.attacked.tolist(),
                                                 y_ranges, u_ranges)):
        if hit:
            xh = zero_x
        else:
            yq = _quantize_roundtrip(c(x), zero_y, y_rng, codec_y, "output",
                                     q)
            xh = zero_x + m(yq)
        all_zero = True
        for k in range(dp.eta):
            if hit:
                u = ua = zero_u
            elif infer:
                u = ua = kc(xh)
                all_zero = all_zero and not any(u.tolist())
            else:
                u = kc(xh)
                ua = _quantize_roundtrip(u, zero_u, u_rngs[k], codec_u,
                                         "input", q, k)
            add_x(x)
            add_xh(xh)
            add_u(u)
            add_ua(ua)
            x = a(x) + b(ua)
            xh = a(xh) + b(u)

        if infer:
            degenerate.append(y_rng == 0.0 and all_zero and not hit)
            inferred.append(all_zero and not degenerate[-1])
            if inferred[-1] != hit:
                raise InferenceMismatchError(
                    f"zero-input inference disagreed with the pattern at "
                    f"slot {q}", slot=q, channel="output")
        residual = max(map(abs, c(xh).tolist()), key=lambda v: (v != v, v))
        if not residual <= DEADBEAT_NULL_TOL * max(1.0, y_rng):
            raise DeadbeatContractError(
                f"|C xhat| = {residual:.3e} at the end of slot {q}; "
                "the feedback gain is not deadbeat for this plant",
                slot=q, channel="output")
        residuals.append(residual)

    tb.stack()
    tb.slots.update(y_err=_norms(_matvecs(plant.c, tb.starts(tb.x))),
                    deadbeat_residual=residuals)
    if infer:
        tb.slots["degenerate_inference"] = degenerate
    return x


def generate_loop(params, horizon, seed, intensity):
    """DoS pattern generation with the splitmix64 stream and both budgets
    stepped one slot at a time on Python integers."""
    mask = (1 << 64) - 1
    state = seed & mask
    slots = []
    switches = 0
    attacks = 0
    prev = False
    for q0 in range(horizon):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        draw = z ^ (z >> 31)
        attack = False
        if (draw >> 11) / float(1 << 53) < intensity:
            new_switches = switches + (0 if prev else 1)
            if _within_budget(params, q0 + 1, new_switches, attacks + 1):
                attack = True
                switches = new_switches
                attacks += 1
        slots.append(attack)
        prev = attack
    return DoSPattern(slots=tuple(slots))
