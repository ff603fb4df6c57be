"""Independent oracles the tests check the package against.

Everything here is deliberately written from first principles (plain-loop
network transcription, quadrature, grid search, closed-form geometry) so
that it shares no code path with the implementation under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


_REFERENCE_SOFTPLUS_CUTOFF = 30.0


def reference_softplus(z):
    """The two-pass softplus the in-place kernel must reproduce bit for bit."""
    z = np.asarray(z, dtype=float)
    out = np.log1p(np.exp(np.clip(z, -_REFERENCE_SOFTPLUS_CUTOFF,
                                  _REFERENCE_SOFTPLUS_CUTOFF)))
    out = np.where(z > _REFERENCE_SOFTPLUS_CUTOFF, z, out)
    return np.where(z < -_REFERENCE_SOFTPLUS_CUTOFF, np.exp(np.minimum(z, 0.0)), out)


def reference_sigmoid(z):
    """The mask-indexed sigmoid the one-pass kernel must reproduce bit for
    bit: each branch evaluated on its own gathered elements."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_score_states(cert, sys, controller, xs, weights):
    """Conformal scores with every pass over the whole batch at once: the
    one-shot scoring the row-block version must reproduce."""
    from cbfcert.dynamics import Label, closed_loop_field
    from cbfcert.mlp import values_and_input_gradients

    xs = np.asarray(xs, dtype=float)
    labels = sys.label_batch(xs)
    if hasattr(controller, "batch_decide"):
        batch = controller.batch_decide(xs)
        q3, h = -np.asarray(batch.slack, dtype=float), batch.h
    else:
        inputs = np.asarray(controller(xs), dtype=float)
        h, grads = values_and_input_gradients(cert, xs)
        dirs = closed_loop_field(sys, xs, inputs)
        q3 = -np.einsum("bn,bn->b", grads, dirs) - weights.kappa_gain * h
    scores = np.array(q3, copy=True)
    safe = labels == Label.SAFE
    unsafe = labels == Label.UNSAFE
    scores[safe] = np.maximum(scores[safe], -h[safe])
    scores[unsafe] = np.maximum(scores[unsafe], h[unsafe] + weights.delta)
    return scores


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


# Scalar references of the package's batch paths: one state at a time,
# with the system's f and g evaluated on the single state. The package
# keeps only the batch forms (controller.filter_batch, certificate
# score_states); these pin what a single-state decision means.

_DEGENERATE_SQ = 1e-28   # controller's degenerate-gradient threshold


def constraint_coefficients(filt, x):
    """Coefficients (a, b) of the pointwise constraint a.u >= b."""
    from cbfcert.mlp import values_and_input_gradients

    x = np.asarray(x, dtype=float)
    h, grad = values_and_input_gradients(filt.certificate, x[None, :])
    a = grad[0] @ filt.system.g(x)
    b = -float(grad[0] @ filt.system.f(x)) - filt.kappa_gain * float(h[0])
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


@dataclass(frozen=True)
class ViolationTerms:
    """Pointwise condition violations; inactive terms are None and the
    score is the max over the active ones (the decrease term is always
    active)."""

    q1: float | None
    q2: float | None
    q3: float
    score: float


def violation_terms(cert, sys, u, x, weights) -> ViolationTerms:
    from cbfcert.dynamics import Label, closed_loop_field
    from cbfcert.mlp import values_and_input_gradients

    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    h_arr, grad = values_and_input_gradients(cert, x[None, :])
    h = float(h_arr[0])
    if not math.isfinite(h):
        raise FloatingPointError(f"non-finite barrier value at {x}")
    label = sys.label(x)
    q3 = float(-grad[0] @ closed_loop_field(sys, x, u) - weights.kappa_gain * h)
    q1 = -h if label == Label.SAFE else None
    q2 = h + weights.delta if label == Label.UNSAFE else None
    score = max(v for v in (q1, q2, q3) if v is not None)
    return ViolationTerms(q1=q1, q2=q2, q3=q3, score=score)
