"""Softplus MLP barrier networks with exact nested derivatives.

The barrier value h(x) is a scalar; training losses also contain the input
gradient dh/dx, so parameter gradients need second-order (forward-over-
reverse) differentiation. Networks are tiny (at most two hidden layers of
128 units), so everything is explicit numpy and stays auditable:

  * tangent streams are propagated forward through the layer recurrence,
    one stream per requested input direction;
  * parameter gradients come from a reverse sweep over the combined
    primal + tangent graph.

All arithmetic is float64 and every operation is a pure function.

Batch semantics. `forward` is per-state exact: a state's value does not
depend on how many states it is evaluated with, so any stack of states
gives, bit for bit, what one state at a time gives. `forward_batch` and
`values_and_input_gradients` are BLAS-batched: one matrix product per
layer for the whole batch, which is much faster for large batches, but
BLAS picks its kernel and summation order by batch size, so a row's value
may differ from `forward`'s in the last ulp. `certificate.score_states`
(verify, and the certify step of every refinement round) calls them in
row blocks of R = `certificate._BLOCK_ROWS` rows, the remainder joining
the last block, so no call sees more than 2R-1 rows whatever the sample
size. Its row values equal the one-shot batch's wherever the one-shot
batch does not switch BLAS kernel by size; the dubins (B, 64) @ (64, 3)
input-gradient product does above 5208 rows, and moves in the last ulp
there. The monitoring loss, mini-batch training steps, rollouts and the
B=1 filter pass their batches through whole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SOFTPLUS_CUTOFF = 30.0


class ShapeError(ValueError):
    """Input or gradient dimensions do not match the network."""


class NumericError(FloatingPointError):
    """A non-finite value appeared while evaluating the network."""


def softplus(z: np.ndarray) -> np.ndarray:
    # ln(1+e^z) with linear/exponential tails to avoid overflow; the
    # switch at |z|=30 is below the 64-bit rounding error of the exact
    # form. Non-finite inputs must propagate, not collapse to a tail.
    # Computed in place into an explicit buffer, so that 0-d input stays a
    # 0-d array; the tails are written only when some element needs one.
    z = np.asarray(z, dtype=float)
    out = np.clip(z, -_SOFTPLUS_CUTOFF, _SOFTPLUS_CUTOFF, out=np.empty_like(z))
    np.exp(out, out=out)
    np.log1p(out, out=out)
    upper = z > _SOFTPLUS_CUTOFF
    if upper.any():
        np.copyto(out, z, where=upper)
    lower = z < -_SOFTPLUS_CUTOFF
    if lower.any():
        np.copyto(out, np.exp(np.minimum(z, 0.0)), where=lower)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, from one e = exp(-|z|):
    # the same operands, hence the same bits, as evaluating the two
    # branches separately. -|z| is minimum(z, -z), which returns a NaN z
    # itself and so keeps its sign bit, as exp(z) would. The numerator is
    # max(z >= 0, e), exact since e <= 1, and branch-free where a
    # mask-driven select is not.
    z = np.asarray(z, dtype=float)
    e = np.negative(z, out=np.empty_like(z))
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    out = np.greater_equal(z, 0.0, out=np.empty_like(z))
    np.maximum(out, e, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


@dataclass(frozen=True)
class MlpCertificate:
    """Barrier network parameters: dense layers, softplus hidden units,
    identity scalar output."""

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        sizes = self.layer_sizes
        if len(sizes) < 2:
            raise ShapeError("layer_sizes needs at least input and output entries")
        if any(s <= 0 for s in sizes):
            raise ShapeError(f"layer sizes must be positive, got {sizes}")
        if sizes[-1] != 1:
            raise ShapeError("barrier output must be scalar (last layer size 1)")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ShapeError("one weight matrix and bias vector per layer expected")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (sizes[l + 1], sizes[l])
            if w.shape != expect:
                raise ShapeError(f"layer {l} weight shape {w.shape}, expected {expect}")
            if b.shape != (sizes[l + 1],):
                raise ShapeError(f"layer {l} bias shape {b.shape}, expected ({sizes[l + 1]},)")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError(f"layer {l} has non-finite parameters")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_certificate(layer_sizes, seed: int = 0) -> MlpCertificate:
    """Glorot-uniform weights, zero biases, reproducible for a fixed seed."""
    sizes = tuple(int(s) for s in layer_sizes)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpCertificate(sizes, tuple(weights), tuple(biases))


def _check_batch(cert: MlpCertificate, x) -> np.ndarray:
    """x as a (B, n) float batch; one state (n,) becomes a batch of one."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != cert.n_inputs:
        raise ShapeError(
            f"state batch shape {np.shape(x)} does not match input size {cert.n_inputs}"
        )
    return arr


def forward_batch(cert: MlpCertificate, xs) -> np.ndarray:
    """Barrier values for a batch of states, shape (B,)."""
    a = _check_batch(cert, xs)
    last = cert.n_layers - 1
    for l, (w, b) in enumerate(zip(cert.weights, cert.biases)):
        z = a @ w.T + b
        a = softplus(z) if l < last else z
    return a[:, 0]


def forward(cert: MlpCertificate, x) -> float | np.ndarray:
    """Barrier value h(x): a float for one state (n,), an array of shape
    (...) for a stack of states (..., n).

    Each state goes through its own one-row product, a[..., None, :] @ w.T,
    which numpy's stacked matmul issues identically for every state; a
    state's value is therefore the same bits whatever it is stacked with.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim == 0 or a.shape[-1] != cert.n_inputs:
        raise ShapeError(
            f"state shape {np.shape(x)} does not match input size {cert.n_inputs}"
        )
    a = a[..., None, :]
    last = cert.n_layers - 1
    for l, (w, b) in enumerate(zip(cert.weights, cert.biases)):
        z = a @ w.T + b
        a = softplus(z) if l < last else z
    h = a[..., 0, 0]
    return float(h) if h.ndim == 0 else h


def input_gradient(cert: MlpCertificate, x) -> np.ndarray:
    """dh/dx at one state (n,): the one-state view of
    values_and_input_gradients."""
    return values_and_input_gradients(cert, np.asarray(x, dtype=float)[None])[1][0]


def values_and_input_gradients(cert: MlpCertificate, xs) -> tuple[np.ndarray, np.ndarray]:
    """(h, dh/dx) for a batch in one pass; shapes (B,) and (B, n)."""
    a = _check_batch(cert, xs)
    last = cert.n_layers - 1
    sigs = []
    for l, (w, b) in enumerate(zip(cert.weights, cert.biases)):
        z = a @ w.T + b
        if l < last:
            sigs.append(sigmoid(z))
            a = softplus(z)
        else:
            a = z
    h = a[:, 0]
    d = np.ones((a.shape[0], 1))
    for l in range(last, -1, -1):
        dz = d if l == last else d * sigs[l]
        d = dz @ cert.weights[l]
    return h, d


@dataclass
class ParamGrads:
    """Per-layer gradients matching an MlpCertificate's parameter shapes."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def zeros_like(cls, cert: MlpCertificate) -> "ParamGrads":
        return cls(
            [np.zeros_like(w) for w in cert.weights],
            [np.zeros_like(b) for b in cert.biases],
        )

    def max_abs(self) -> float:
        parts = [np.max(np.abs(g)) if g.size else 0.0 for g in self.weights + self.biases]
        return float(max(parts)) if parts else 0.0

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(g)) for g in self.weights + self.biases)


def _forward_with_tangents(cert, xs, tangents):
    """Propagate primal activations and tangent streams through the layers.

    tangents has shape (B, S, n): S directional seeds per sample. Returns
    (h, d, caches) with d of shape (B, S) holding the directional
    derivatives seed . dh/dx, plus the caches the reverse sweep needs.
    """
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
            t = tz * sig[:, None, :]
        else:
            caches.append((a, t, None, None))
            a = z
            t = tz
    return a[:, 0], t[:, :, 0], caches


def _reverse_combined(cert, caches, d_h, d_dir):
    """Reverse sweep over the primal + tangent graph.

    d_h (B,) is the loss adjoint of the barrier values, d_dir (B, S) the
    adjoints of the directional derivatives. Returns parameter gradients.
    """
    grads = ParamGrads.zeros_like(cert)
    a_bar = d_h[:, None]
    t_bar = d_dir[:, :, None]
    last = cert.n_layers - 1
    for l in range(last, -1, -1):
        a_in, t_in, sig, tz = caches[l]
        if l == last:
            z_bar = a_bar
            tz_bar = t_bar
        else:
            curv = sig * (1.0 - sig)
            z_bar = sig * a_bar + curv * np.einsum("bso,bso->bo", tz, t_bar)
            tz_bar = sig[:, None, :] * t_bar
        w = cert.weights[l]
        grads.weights[l] += z_bar.T @ a_in + np.einsum("bso,bsi->oi", tz_bar, t_in)
        grads.biases[l] += z_bar.sum(axis=0)
        a_bar = z_bar @ w
        t_bar = tz_bar @ w
    return grads


def loss_param_gradient(cert: MlpCertificate, xs, loss_fn) -> tuple[float, ParamGrads]:
    """Value and parameter gradient of a loss built from h and dh/dx.

    loss_fn(h, grads) receives the batch barrier values (B,) and input
    gradients (B, n) and must return (value, dvalue_dh, dvalue_dgrads)
    with shapes (B,) and (B, n). Hinge kinks must follow the inactive
    (zero-derivative) convention inside loss_fn. An empty batch yields
    (0.0, zero gradients).
    """
    n, b = cert.n_inputs, len(np.atleast_2d(xs))
    return _nested_gradient(cert, xs, np.broadcast_to(np.eye(n), (b, n, n)).copy(), loss_fn)


def seeded_loss_param_gradient(cert: MlpCertificate, xs, seed_dirs, loss_fn):
    """Like loss_param_gradient but with one fixed direction per sample.

    The loss sees (h, d) where d[i] = seed_dirs[i] . dh/dx(x_i); this is
    the shape the Lie-derivative penalty has, and it avoids carrying a
    full gradient stream per sample. loss_fn returns (value, dv_dh, dv_dd)
    with (B,) partials.
    """
    def one_stream(h, d):
        value, d_h, d_d = loss_fn(h, d[:, 0])
        return value, d_h, np.asarray(d_d, float)[:, None]

    seeds = np.asarray(seed_dirs, dtype=float)[:, None, :]
    return _nested_gradient(cert, xs, seeds, one_stream)


def _nested_gradient(cert, xs, seeds, loss_fn):
    """loss_fn(h, d) and its parameter gradient, where d (B, S) holds the
    directional derivatives seeds[i, s] . dh/dx(x_i) for the (B, S, n)
    seeds; loss_fn returns (value, dv_dh, dv_dd)."""
    batch = _check_batch(cert, np.atleast_2d(xs))
    if batch.shape[0] == 0:
        return 0.0, ParamGrads.zeros_like(cert)
    if seeds.shape[0] != batch.shape[0] or seeds.shape[2] != cert.n_inputs:
        raise ShapeError("one seed direction of input dimension per sample required")
    h, dirs, caches = _forward_with_tangents(cert, batch, seeds)
    _raise_on_nonfinite(h, dirs)
    value, d_h, d_dirs = loss_fn(h, dirs)
    grads = _reverse_combined(cert, caches, np.asarray(d_h, float), np.asarray(d_dirs, float))
    if not grads.is_finite():
        raise NumericError("non-finite parameter gradient")
    return float(value), grads


def _raise_on_nonfinite(h: np.ndarray, extra: np.ndarray) -> None:
    extra_ok = np.isfinite(np.asarray(extra)).reshape(h.shape[0], -1).all(axis=1)
    bad = ~np.isfinite(h) | ~extra_ok
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NumericError(f"non-finite network output at batch element {idx}")


@dataclass
class OptimizerState:
    """Adam accumulators; shapes always mirror the certificate."""

    m_weights: list[np.ndarray]
    v_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_biases: list[np.ndarray]
    step_count: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(cert: MlpCertificate, learning_rate: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> OptimizerState:
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    return OptimizerState(
        [np.zeros_like(w) for w in cert.weights],
        [np.zeros_like(w) for w in cert.weights],
        [np.zeros_like(b) for b in cert.biases],
        [np.zeros_like(b) for b in cert.biases],
        step_count=0,
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_step(state: OptimizerState, cert: MlpCertificate,
              grads: ParamGrads) -> tuple[OptimizerState, MlpCertificate]:
    """One bias-corrected adaptive-moment update; returns new state and
    parameters, leaving the inputs untouched."""
    if len(grads.weights) != cert.n_layers or len(grads.biases) != cert.n_layers:
        raise ShapeError("gradient layer count does not match certificate")
    for gw, w in zip(grads.weights, cert.weights):
        if gw.shape != w.shape:
            raise ShapeError(f"gradient shape {gw.shape} != weight shape {w.shape}")
    for gb, b in zip(grads.biases, cert.biases):
        if gb.shape != b.shape:
            raise ShapeError(f"gradient shape {gb.shape} != bias shape {b.shape}")
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    new_mw, new_vw, new_w = [], [], []
    for m, v, g, w in zip(state.m_weights, state.v_weights, grads.weights, cert.weights):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        new_mw.append(m)
        new_vw.append(v)
        new_w.append(w - state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps))
    new_mb, new_vb, new_b = [], [], []
    for m, v, g, b in zip(state.m_biases, state.v_biases, grads.biases, cert.biases):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        new_mb.append(m)
        new_vb.append(v)
        new_b.append(b - state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps))
    new_state = OptimizerState(
        new_mw, new_vw, new_mb, new_vb,
        step_count=t,
        learning_rate=state.learning_rate,
        beta1=b1, beta2=b2, eps=state.eps,
    )
    new_cert = MlpCertificate(
        cert.layer_sizes, tuple(new_w), tuple(np.asarray(b) for b in new_b)
    )
    return new_state, new_cert


CERT_FORMAT_VERSION = 1


def certificate_to_json(cert: MlpCertificate) -> str:
    doc = {
        "layer_sizes": list(cert.layer_sizes),
        "weights": [w.tolist() for w in cert.weights],
        "biases": [b.tolist() for b in cert.biases],
        "format_version": CERT_FORMAT_VERSION,
    }
    return json.dumps(doc)


def certificate_from_json(text: str) -> MlpCertificate:
    doc = json.loads(text)
    version = doc.get("format_version")
    if version != CERT_FORMAT_VERSION:
        raise ValueError(f"unsupported certificate format_version: {version}")
    sizes = tuple(int(s) for s in doc["layer_sizes"])
    weights = tuple(np.asarray(w, dtype=float) for w in doc["weights"])
    biases = tuple(np.asarray(b, dtype=float) for b in doc["biases"])
    return MlpCertificate(sizes, weights, biases)


def save_certificate(cert: MlpCertificate, path) -> None:
    Path(path).write_text(certificate_to_json(cert))


def load_certificate(path) -> MlpCertificate:
    return certificate_from_json(Path(path).read_text())
