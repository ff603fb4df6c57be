"""Independent oracles the tests check the package against.

Everything here is deliberately written from first principles (plain-loop
network transcription, quadrature, grid search, closed-form geometry) so
that it shares no code path with the implementation under test.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate


def naive_forward(weights, biases, x):
    """Direct transcription of the layer recurrence for one state."""
    a = np.asarray(x, dtype=float)
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = w @ a + b
        a = np.log1p(np.exp(z)) if l < last else z
    return float(a[0])


def reference_stacked_forward(weights, biases, xs):
    """The per-state forward as a loop of its own: a stack of states
    (..., n) goes through one one-row product per state and layer,
    a[..., None, :] @ w.T, whose bits do not depend on the stack. The
    values (...) the recurrence must give on the (R, 1, n) stack."""
    a = np.asarray(xs, dtype=float)[..., None, :]
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        a = _softplus(z) if l < last else z
    return a[..., 0, 0]


def reference_batch_forward(weights, biases, xs):
    """The BLAS-batched forward as a loop of its own: one (B, width)
    product per layer for the whole (B, n) batch. The values (B,) the
    recurrence must give on a (B, n) batch."""
    a = np.asarray(xs, dtype=float)
    for w, b in zip(weights[:-1], biases[:-1]):
        z = a @ w.T
        z += b
        a = _softplus(z)
    return (a @ weights[-1].T + biases[-1])[:, 0]


def _sigmoid_softplus(z):
    """(sigmoid(z), softplus(z)) sharing one exp evaluation."""
    e = np.exp(-np.abs(z))
    sig = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    sp = np.maximum(z, 0.0) + np.log1p(e)
    return sig, sp


def _sigmoid(z):
    return _sigmoid_softplus(z)[0]


def _softplus(z):
    return _sigmoid_softplus(z)[1]


def _hinge_loss(h, d, sizes, params):
    """Composite three-bucket hinge loss from h (..., B) and the domain
    directional derivatives d (..., Bd)."""
    lam1, lam2, delta, psi, gamma = params
    ns, nu, nd = sizes
    l1 = np.maximum(0.0, -h[..., :ns] - psi).mean(axis=-1)
    l2 = np.maximum(0.0, h[..., ns:ns + nu] + delta - psi).mean(axis=-1)
    l3 = np.maximum(0.0, -d - gamma * h[..., ns + nu:] - psi).mean(axis=-1)
    return l1 + lam1 * l2 + lam2 * l3


def composite_loss_values(weights, biases, batch, frozen_dirs, params):
    """Plain transcription of the composite loss for one parameter set.

    batch = (safe, unsafe, domain) state arrays; frozen_dirs are the
    closed-loop directions f + g u at the domain points, held fixed.
    params = (lambda1, lambda2, delta, psi, gamma).
    """
    xs_s, xs_u, xs_d = batch
    sizes = (len(xs_s), len(xs_u), len(xs_d))
    a = np.concatenate([xs_s, xs_u, xs_d], axis=0)
    t = np.asarray(frozen_dirs, dtype=float)
    d_rows = slice(sizes[0] + sizes[1], None)
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        tz = t @ w.T
        if l < last:
            a = _softplus(z)
            t = tz * _sigmoid(z)[d_rows]
        else:
            a, t = z, tz
    return float(_hinge_loss(a[:, 0], t[:, 0], sizes, params))


def composite_loss_fd_gradient(cert, batch, frozen_dirs, params, step=1e-5,
                               chunk=512):
    """Central finite differences of the composite loss over every
    parameter, via an independent transcription of the layer recurrence.

    Only one layer is perturbed at a time, so the evaluation reuses the
    unperturbed prefix, applies the perturbed layer as one flat matrix
    product over all parameter settings, and pushes the stacked
    activations through the shared suffix layers.
    """
    xs_s, xs_u, xs_d = [np.asarray(v, dtype=float) for v in batch]
    sizes = (len(xs_s), len(xs_u), len(xs_d))
    ns, nu, nd = sizes
    xs = np.concatenate([xs_s, xs_u, xs_d], axis=0)
    n_all = xs.shape[0]
    dirs = np.asarray(frozen_dirs, dtype=float)
    d_rows = slice(ns + nu, None)
    n_layers = cert.n_layers
    last = n_layers - 1

    # unperturbed inputs to every layer (primal and tangent streams)
    a_in, t_in = [], []
    a, t = xs, dirs
    for l, (w, b) in enumerate(zip(cert.weights, cert.biases)):
        a_in.append(a)
        t_in.append(t)
        z = a @ w.T + b
        tz = t @ w.T
        if l < last:
            a = _softplus(z)
            t = tz * _sigmoid(z)[d_rows]
        else:
            a, t = z, tz

    def losses_from_layer(l, z_stack, tz_stack):
        # z_stack: (P, B, out), tz_stack: (P, Bd, out) pre-activations of
        # layer l under P parameter settings; suffix uses base weights
        if l < last:
            a_s = _softplus(z_stack)
            t_s = tz_stack * _sigmoid(z_stack)[:, d_rows, :]
        else:
            a_s, t_s = z_stack, tz_stack
        for nxt in range(l + 1, n_layers):
            w, b = cert.weights[nxt], cert.biases[nxt]
            p = a_s.shape[0]
            z = (a_s.reshape(p * n_all, -1) @ w.T).reshape(p, n_all, -1) + b
            tz = (t_s.reshape(p * nd, -1) @ w.T).reshape(p, nd, -1)
            if nxt < last:
                a_s = _softplus(z)
                t_s = tz * _sigmoid(z)[:, d_rows, :]
            else:
                a_s, t_s = z, tz
        return _hinge_loss(a_s[..., 0], t_s[..., 0], sizes, params)

    def last_hidden_losses(o, z_cols, tz_cols):
        # A perturbed entry of the last hidden layer changes only column o
        # of the hidden activations; the scalar output shifts linearly.
        # z_cols (K, B), tz_cols (K, Bd): perturbed pre-activation columns.
        w_out = cert.weights[last][0]
        h_base = a_in[last] @ w_out + cert.biases[last][0]
        d_base = t_in[last] @ w_out
        sig, sp = _sigmoid_softplus(z_cols)
        t_new = tz_cols * sig[:, d_rows]
        h = h_base[None, :] + w_out[o][:, None] * (sp - a_in[last][:, o].T)
        d = d_base[None, :] + w_out[o][:, None] * (t_new - t_in[last][:, o].T)
        return _hinge_loss(h, d, sizes, params)

    grads_w = [np.zeros_like(w) for w in cert.weights]
    grads_b = [np.zeros_like(b) for b in cert.biases]
    for l in range(n_layers):
        w, b = cert.weights[l], cert.biases[l]
        out, n_in = w.shape
        z_base = a_in[l] @ w.T + b
        tz_base = t_in[l] @ w.T
        fast_column_path = l == last - 1
        flat = w.reshape(-1)
        for start in range(0, flat.size, chunk):
            idx = np.arange(start, min(start + chunk, flat.size))
            k = idx.size
            steps = step * np.maximum(1.0, np.abs(flat[idx]))
            signed = np.concatenate([steps, -steps])
            idx2 = np.concatenate([idx, idx])
            if fast_column_path:
                o = idx2 // n_in
                i = idx2 % n_in
                z_cols = z_base[:, o].T + signed[:, None] * a_in[l][:, i].T
                tz_cols = tz_base[:, o].T + signed[:, None] * t_in[l][:, i].T
                vals = last_hidden_losses(o, z_cols, tz_cols)
            else:
                stack = np.repeat(flat[None, :], 2 * k, axis=0)
                stack[np.arange(2 * k), idx2] += signed
                big = stack.reshape(2 * k * out, n_in)
                z = np.swapaxes((big @ a_in[l].T).reshape(2 * k, out, n_all), 1, 2) + b
                tz = np.swapaxes((big @ t_in[l].T).reshape(2 * k, out, nd), 1, 2)
                vals = losses_from_layer(l, z, tz)
            grads_w[l].reshape(-1)[idx] = (vals[:k] - vals[k:]) / (2.0 * steps)
        for start in range(0, b.size, chunk):
            idx = np.arange(start, min(start + chunk, b.size))
            k = idx.size
            steps = step * np.maximum(1.0, np.abs(b[idx]))
            signed = np.concatenate([steps, -steps])
            idx2 = np.concatenate([idx, idx])
            if fast_column_path:
                z_cols = z_base[:, idx2].T + signed[:, None]
                tz_cols = tz_base[:, idx2].T.copy()
                vals = last_hidden_losses(idx2, z_cols, tz_cols)
            else:
                shift = np.zeros((2 * k, out))
                shift[np.arange(2 * k), idx2] = signed
                z = z_base[None, :, :] + shift[:, None, :]
                tz = np.broadcast_to(tz_base, (2 * k,) + tz_base.shape)
                vals = losses_from_layer(l, z, tz)
            grads_b[l].reshape(-1)[idx] = (vals[:k] - vals[k:]) / (2.0 * steps)
    return grads_w, grads_b


def betainc_quadrature(x: float, a: float, b: float) -> float:
    """Adaptive quadrature of the Beta density; independent of the
    continued-fraction implementation."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        return math.exp(log_norm + (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t))

    # integrate the smaller tail for accuracy
    mode_side = x < a / (a + b)
    if mode_side:
        val, _ = integrate.quad(density, 0.0, x, limit=400)
        return val
    val, _ = integrate.quad(density, x, 1.0, limit=400)
    return 1.0 - val


def reference_epsilon_for(n_samples: int, l: int, beta: float) -> float:
    """The Beta tail inversion by plain bisection: 40 halvings of [0, 1]
    on the monotone condition I_{1-eps}(N-l+1, l) <= beta."""
    from cbfcert.special import regularized_incomplete_beta

    a, b = n_samples - l + 1, l
    lo, hi = 0.0, 1.0   # I_{1-0} = 1 > beta; I_{1-1} = 0 <= beta
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(1.0 - mid, a, b) <= beta:
            hi = mid
        else:
            lo = mid
    return hi


def grid_qp_best(u_ref, a, b, lo, hi, resolution=201):
    """Dense grid search for min ||u - u_ref|| s.t. a.u >= b over the box.

    Returns (best_distance, best_point) or (None, None) if no grid point
    is feasible.
    """
    g0 = np.linspace(lo[0], hi[0], resolution)
    g1 = np.linspace(lo[1], hi[1], resolution)
    uu0, uu1 = np.meshgrid(g0, g1, indexing="ij")
    feas = a[0] * uu0 + a[1] * uu1 >= b
    if not np.any(feas):
        return None, None
    d2 = (uu0 - u_ref[0]) ** 2 + (uu1 - u_ref[1]) ** 2
    d2 = np.where(feas, d2, np.inf)
    k = np.unravel_index(np.argmin(d2), d2.shape)
    return float(np.sqrt(d2[k])), np.array([uu0[k], uu1[k]])


def exact_box_qp(u_ref, a, b, lo, hi):
    """(u, feasible) of min |u - u_ref|^2 s.t. a.u >= b, lo <= u <= hi in
    exact rational arithmetic, for any m; u is a list of Fractions, None
    when infeasible. phi(lam) = a.clip(u_ref + lam a) is nondecreasing and
    piecewise linear: it is evaluated at every breakpoint and interpolated
    on the first piece where it reaches b."""
    r, a, lo, hi = ([Fraction(float(v)) for v in arr] for arr in (u_ref, a, lo, hi))
    b = Fraction(float(b))

    def point(lam):
        return [min(max(rj + lam * aj, lj), hj) for rj, aj, lj, hj in zip(r, a, lo, hi)]

    def phi(lam):
        return sum(aj * uj for aj, uj in zip(a, point(lam)))

    breaks = sorted({Fraction(0)} | {(bound - rj) / aj
                                     for rj, aj, lj, hj in zip(r, a, lo, hi) if aj != 0
                                     for bound in (lj, hj) if (bound - rj) / aj > 0})
    if phi(breaks[0]) >= b:
        return point(breaks[0]), True
    for t0, t1 in zip(breaks, breaks[1:]):
        if phi(t1) >= b:
            lam = t0 + (b - phi(t0)) * (t1 - t0) / (phi(t1) - phi(t0))
            return point(lam), True
    return None, False


def min_distance_constant_velocity(p, v_rel):
    """Closed-form minimum of |p + t v| over t >= 0."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v_rel, dtype=float)
    vv = float(v @ v)
    if vv == 0.0:
        return float(np.linalg.norm(p))
    t_star = -float(p @ v) / vv
    if t_star <= 0.0:
        return float(np.linalg.norm(p))
    return float(np.linalg.norm(p + t_star * v))


def reference_softplus(z):
    """The closed-form softplus the kernel must reproduce bit for bit: the
    loss transcriptions' own, max(z, 0) + log1p(exp(-|z|))."""
    return _softplus(np.asarray(z, dtype=float))


def decimal_softplus(z: float) -> decimal.Decimal:
    """ln(1 + exp(z)) to 50 significant digits in decimal arithmetic. The
    working precision grows with -z, so that 1 + exp(z) keeps 50 digits of
    exp(z) however small it is."""
    with decimal.localcontext() as ctx:
        ctx.prec = 55 + max(0, math.ceil(-z / math.log(10.0)))
        return (decimal.Decimal(z).exp() + 1).ln()


def reference_sigmoid(z):
    """The mask-indexed sigmoid the one-pass kernel must reproduce bit for
    bit: each branch evaluated on its own gathered elements."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_adam_update(m, v, g, p, t, learning_rate, b1, b2, eps):
    """One parameter's bias-corrected Adam update at step t as whole-array
    expressions, (m', v', p'): the arithmetic adam_step must reproduce bit
    for bit."""
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    return m, v, p - learning_rate * (m / c1) / (np.sqrt(v / c2) + eps)


def reference_score_states(cert, sys, controller, xs, weights):
    """Conformal scores with every pass over the whole batch at once: the
    one-shot scoring the row-block version must reproduce. controller is
    the SafetyFilter built on cert and sys."""
    from cbfcert.dynamics import Label

    xs = np.asarray(xs, dtype=float)
    labels = sys.label_batch(xs)
    batch = controller.batch_decide(xs)
    h = batch.h
    scores = -np.asarray(batch.slack, dtype=float)
    safe = labels == Label.SAFE
    unsafe = labels == Label.UNSAFE
    scores[safe] = np.maximum(scores[safe], -h[safe])
    scores[unsafe] = np.maximum(scores[unsafe], h[unsafe] + weights.delta)
    return scores


def reference_loss_rows(cert, datasets, controller):
    """The monitoring loss's per-row values with each bucket in one pass:
    h on the safe and unsafe buckets and q3 = -slack on the domain bucket,
    the whole-bucket values the row-block loss must reproduce. controller
    is the SafetyFilter built on cert."""
    from cbfcert.controller import filter_batch
    from cbfcert.mlp import forward_batch

    return (forward_batch(cert, datasets.safe), forward_batch(cert, datasets.unsafe),
            -filter_batch(controller, datasets.domain).slack)


def reference_rollout_to_csv(ro, path):
    """The trajectory writer that converts one numpy scalar at a time; the
    list-based writer must produce the same bytes."""
    import csv

    n = ro.states.shape[1]
    m = ro.inputs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i}" for i in range(n)]
                        + [f"u{i}" for i in range(m)]
                        + ["h", "constraint_active", "constraint_slack"])
        for k, (x, h) in enumerate(zip(ro.states, ro.h_values)):
            stepped = k < ro.inputs.shape[0]
            u = ro.inputs[k] if stepped else [""] * m
            tail = ([str(int(ro.filter_active[k])), repr(float(ro.filter_slack[k]))]
                    if stepped and k < ro.filter_active.size else ["", ""])
            writer.writerow([repr(k * ro.dt)] + [repr(float(v)) for v in x]
                            + [v if v == "" else repr(float(v)) for v in u]
                            + [repr(float(h))] + tail)


def reference_rollout(sys, filt, starts, horizon_steps, dt):
    """Lock-step rollouts from starts (B, n) that evaluate everything
    afresh at each step: filt.batch_decide in a new workspace, then an
    rk4_step that evaluates all four stages itself. rollout, which takes
    RK4's first stage from the filter's f and g and keeps one workspace,
    must give the same bits. Returns a list of Rollouts."""
    from cbfcert.dynamics import Label
    from cbfcert.mlp import forward_batch
    from cbfcert.simulator import Rollout, RolloutStatus, rk4_step

    x = np.array(starts, dtype=float)
    count, horizon = x.shape[0], horizon_steps
    states = np.empty((count, horizon + 1, sys.n))
    inputs = np.empty((count, horizon, sys.m))
    h_vals = np.empty((count, horizon + 1))
    active = np.empty((count, horizon), dtype=bool)
    slack = np.empty((count, horizon))
    states[:, 0] = x
    status = [RolloutStatus.COMPLETED] * count
    steps = np.full(count, horizon)
    live = np.arange(count)
    angles = list(sys.angle_dims)

    def retire(stop, why, k):
        nonlocal live, x
        for i in live[stop]:
            status[i], steps[i] = why, k
        live, x = live[~stop], x[~stop]

    for k in range(horizon + 1):
        retire(sys.label_batch(x) == Label.UNSAFE, RolloutStatus.ENTERED_UNSAFE, k)
        retire(~sys.contains(x), RolloutStatus.EXITED_DOMAIN, k)
        if k == horizon or not live.size:
            break
        decision = filt.batch_decide(x)
        ok = decision.feasible
        retire(~ok, RolloutStatus.FILTER_INFEASIBLE, k)
        if not live.size:
            break
        u = decision.inputs[ok]
        inputs[live, k], active[live, k] = u, decision.active[ok]
        slack[live, k], h_vals[live, k] = decision.slack[ok], decision.h[ok]
        x = rk4_step(sys, x, u, dt)
        x[:, angles] = np.mod(x[:, angles] + np.pi, 2.0 * np.pi) - np.pi
        states[live, k + 1] = x
    # the final states in one batch, as rollout evaluates them: a barrier
    # row's bits may depend on the batch it is evaluated in
    rows = np.arange(count)
    h_vals[rows, steps] = forward_batch(filt.certificate, states[rows, steps])
    return [Rollout(states=states[i, :s + 1], inputs=inputs[i, :s],
                    h_values=h_vals[i, :s + 1], filter_active=active[i, :s],
                    filter_slack=slack[i, :s], dt=dt, status=status[i])
            for i, s in enumerate(steps)]


# Scalar references of the package's batch paths: one state at a time,
# with 1-D products on row 0 of the system's one-state f and g. The
# package keeps only the batch forms (controller.filter_batch, certificate
# score_states); these pin what a single-state decision means.

_DEGENERATE_SQ = 1e-28   # controller's degenerate-gradient threshold


def reference_levelset_to_csv(vals0, vals1, grid, path, sidecar):
    """The level-set writer that converts one numpy scalar at a time; the
    list-based writer must produce the same bytes."""
    import csv
    import json
    from pathlib import Path

    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis0\\axis1"] + [repr(float(v)) for v in vals1])
        for v0, row in zip(vals0, grid):
            writer.writerow([repr(float(v0))] + [repr(float(v)) for v in row])
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2))


def constraint_coefficients(filt, x):
    """Coefficients (a, b) of the pointwise constraint a.u >= b."""
    from cbfcert.mlp import values_and_input_gradients

    x = np.asarray(x, dtype=float)
    h, grad = values_and_input_gradients(filt.certificate, x[None, :])
    a = grad[0] @ filt.system.g(x[None, :])[0]
    b = -float(grad[0] @ filt.system.f(x[None, :])[0]) - filt.kappa_gain * float(h[0])
    return a, b


def _solve_unbounded(u_ref, a, b, cap):
    """(u, slack, active, feasible) of min |u - u_ref|^2 s.t. a.u >= b,
    with the correction capped at norm cap when cap is not None."""
    r = float(a @ u_ref)
    if r >= b:
        return u_ref, r - b, False, True
    norm_sq = float(a @ a)
    if norm_sq < _DEGENERATE_SQ:
        return u_ref, r - b, True, False
    corr = ((b - r) / norm_sq) * a
    if cap is not None:
        size = float(np.linalg.norm(corr))
        if size > cap:
            scale = cap / size
            # capped correction leaves a true residual violation
            return u_ref + scale * corr, (scale - 1.0) * (b - r), True, True
    return u_ref + corr, 0.0, True, True


def _solve_box(u_ref, a, b, lo, hi):
    """(u, slack, active, feasible) of min |u - u_ref|^2 s.t. a.u >= b in
    the box [lo, hi], m <= 2: the m = 1 point and the m = 2 segment of the
    hyperplane, derived by hand (the package's former per-state solve)."""
    clipped = np.clip(u_ref, lo, hi)
    r = float(a @ clipped)
    if r >= b:
        return clipped, r - b, False, True
    norm_sq = float(a @ a)
    if norm_sq < _DEGENERATE_SQ:
        return clipped, r - b, True, False
    m = u_ref.shape[0]
    if m == 1:
        point = b / a[0]
        if lo[0] <= point <= hi[0]:
            return np.array([point]), 0.0, True, True
        return clipped, r - b, True, False
    # m == 2: the optimum lies on the segment {a.u = b} within the box
    norm = np.sqrt(norm_sq)
    anchor = (b / norm_sq) * a
    tangent = np.array([-a[1], a[0]]) / norm
    t_lo, t_hi = -np.inf, np.inf
    for j in range(2):
        if abs(tangent[j]) < 1e-300:
            if not (lo[j] - 1e-12 <= anchor[j] <= hi[j] + 1e-12):
                return clipped, r - b, True, False
            continue
        t_a = (lo[j] - anchor[j]) / tangent[j]
        t_b = (hi[j] - anchor[j]) / tangent[j]
        t_lo = max(t_lo, min(t_a, t_b))
        t_hi = min(t_hi, max(t_a, t_b))
    if t_lo > t_hi:
        return clipped, r - b, True, False
    t_star = float(np.clip(tangent @ (u_ref - anchor), t_lo, t_hi))
    u = anchor + t_star * tangent
    # clamp roundoff so box feasibility is exact
    return np.clip(u, lo, hi), 0.0, True, True


@dataclass(frozen=True)
class ViolationTerms:
    """Pointwise condition violations; inactive terms are None and the
    score is the max over the active ones (the decrease term is always
    active)."""

    q1: float | None
    q2: float | None
    q3: float
    score: float


def violation_terms(cert, sys, u, x, weights, kappa_gain) -> ViolationTerms:
    """The three condition terms at one state x under input u, with the
    decrease term's gain kappa_gain and the margin weights.delta."""
    from cbfcert.dynamics import Label
    from cbfcert.mlp import values_and_input_gradients

    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    h_arr, grad = values_and_input_gradients(cert, x[None, :])
    h = float(h_arr[0])
    if not math.isfinite(h):
        raise FloatingPointError(f"non-finite barrier value at {x}")
    label = sys.label(x)
    xdot = sys.f(x[None, :])[0] + sys.g(x[None, :])[0] @ u
    q3 = float(-grad[0] @ xdot - kappa_gain * h)
    q1 = -h if label == Label.SAFE else None
    q2 = h + weights.delta if label == Label.UNSAFE else None
    score = max(v for v in (q1, q2, q3) if v is not None)
    return ViolationTerms(q1=q1, q2=q2, q3=q3, score=score)


# The two-pass training step that the one-pass
# certificate.total_loss_and_gradient replaced, kept as its regression
# reference (it shares the filter and the activation kernels with the
# package): the filter forwards the domain rows on their own, then safe,
# unsafe and domain rows go through the network again, every row carrying a
# tangent (zero on the safe and unsafe rows).

def _forward_with_tangents(cert, xs, tangents):
    from cbfcert.mlp import sigmoid, softplus

    a = xs
    t = tangents
    last = cert.n_layers - 1
    caches = []
    for l, (w, b) in enumerate(zip(cert.weights, cert.biases)):
        z = a @ w.T + b
        tz = t @ w.T
        if l < last:
            sig = sigmoid(z)
            caches.append((a, t, sig, tz))
            a = softplus(z)
            t = tz * sig
        else:
            caches.append((a, t, None, None))
            a = z
            t = tz
    return a[:, 0], t[:, 0], caches


def _reverse_combined(cert, caches, d_h, d_dir):
    weights, biases = [], []
    a_bar = d_h[:, None]
    t_bar = d_dir[:, None]
    last = cert.n_layers - 1
    for l in range(last, -1, -1):
        a_in, t_in, sig, tz = caches[l]
        if l == last:
            z_bar = a_bar
            tz_bar = t_bar
        else:
            curv = sig * (1.0 - sig)
            z_bar = sig * a_bar + curv * (tz * t_bar)
            tz_bar = sig * t_bar
        w = cert.weights[l]
        weights.append(z_bar.T @ a_in + tz_bar.T @ t_in)
        biases.append(z_bar.sum(axis=0))
        a_bar = z_bar @ w
        t_bar = tz_bar @ w
    return tuple(weights[::-1] + biases[::-1])


def reference_total_loss_and_gradient(cert, datasets, controller, weights):
    """The composite hinge loss and its parameter gradient by the two-pass
    step: (value, gradient tuple in the order cert.weights + cert.biases)."""
    from cbfcert.dynamics import closed_loop_field

    batch = controller.batch_decide(datasets.domain)
    ns, nu, nd = datasets.sizes()
    xs = np.concatenate([datasets.safe, datasets.unsafe, datasets.domain], axis=0)
    seeds = np.zeros_like(xs)
    seeds[ns + nu:] = closed_loop_field(controller.system, datasets.domain, batch.inputs)
    h, dirs, caches = _forward_with_tangents(cert, xs, seeds)
    psi = weights.psi
    args = (-h[:ns] - psi, h[ns:ns + nu] + weights.delta - psi, -batch.slack - psi)
    l1, l2, l3 = (float(np.mean(np.maximum(0.0, a))) for a in args)
    value = l1 + weights.lambda1 * l2 + weights.lambda2 * l3
    act1, act2, act3 = (a > 0 for a in args)
    d_h = np.zeros_like(h)
    d_h[:ns][act1] = -1.0 / ns
    d_h[ns:ns + nu][act2] = weights.lambda1 / nu
    d_h[ns + nu:][act3] = -weights.lambda2 * controller.kappa_gain / nd
    d_dirs = np.zeros_like(dirs)
    d_dirs[ns + nu:][act3] = -weights.lambda2 / nd
    return value, _reverse_combined(cert, caches, d_h, d_dirs)
