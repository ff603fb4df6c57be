"""Softplus MLP barrier networks with exact nested derivatives.

The barrier value h(x) is a scalar; training losses also contain the input
gradient dh/dx, so parameter gradients need second-order (forward-over-
reverse) differentiation. Networks are tiny (at most two hidden layers of
128 units), so everything is explicit numpy and stays auditable:

  * one primal pass keeps each layer's input and sigmoid(z); input
    gradients dh/dx are a reverse sweep over those sigmoids;
  * the seed direction of the loss's directional derivative (e.g. the
    closed-loop field f + g u) is pushed through the cached layers as an
    (S, n) tangent on the S seeded rows only;
  * parameter gradients come from a reverse sweep over the combined
    primal + tangent graph, in plain matrix products per layer.

A parameter gradient is one tuple of arrays in the order
cert.weights + cert.biases: the layers' weight gradients first, then their
bias gradients. Adam keeps its moments in the same order.

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
B=1 filter pass their batches through whole; a training step's filter
decides from the h and dh/dx of its whole mini-batch's primal pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SOFTPLUS_CUTOFF = 30.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    """x as a (B, n) float batch; anything else, one state (n,) included,
    is a ShapeError."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != cert.n_inputs:
        raise ShapeError(
            f"state batch shape {arr.shape}, expected (B, {cert.n_inputs})"
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


@dataclass
class Primal:
    """One primal pass over a (B, n) batch: the barrier values, each
    layer's input and each hidden layer's sigmoid(z), the caches that the
    input gradients and the nested gradient read."""

    h: np.ndarray                 # (B,)
    inputs: list[np.ndarray]      # layer l's input, (B, layer_sizes[l])
    sigs: list[np.ndarray]        # hidden layer l's sigmoid(z), (B, layer_sizes[l+1])


def primal_pass(cert: MlpCertificate, xs) -> Primal:
    """The layer recurrence over a batch, keeping its caches."""
    a = _check_batch(cert, xs)
    last = cert.n_layers - 1
    inputs, sigs = [], []
    for l, (w, b) in enumerate(zip(cert.weights, cert.biases)):
        inputs.append(a)
        z = a @ w.T
        z += b
        if l < last:
            sigs.append(sigmoid(z))
            a = softplus(z)
        else:
            a = z
    return Primal(a[:, 0], inputs, sigs)


def primal_input_gradients(cert: MlpCertificate, primal: Primal, first: int) -> np.ndarray:
    """dh/dx of the primal's rows first: onwards, (B - first, n), by a
    reverse sweep over the cached sigmoids."""
    last = cert.n_layers - 1
    d = np.ones((primal.h.shape[0] - first, 1))
    for l in range(last, -1, -1):
        if l < last:
            d *= primal.sigs[l][first:]
        d = d @ cert.weights[l]
    return d


def values_and_input_gradients(cert: MlpCertificate, xs) -> tuple[np.ndarray, np.ndarray]:
    """(h, dh/dx) for a batch in one pass; shapes (B,) and (B, n)."""
    primal = primal_pass(cert, xs)
    return primal.h, primal_input_gradients(cert, primal, 0)


def seeded_loss_param_gradient(cert: MlpCertificate, primal: Primal, seed_dirs,
                               loss_fn) -> tuple[float, tuple[np.ndarray, ...]]:
    """Value and parameter gradient of a loss built from h and one
    directional derivative per seeded row of a primal pass.

    seed_dirs (S, n) seeds the last S rows of the primal's batch; only
    these carry a tangent. loss_fn(h, d) receives the barrier values
    h (B,) and d[i] = seed_dirs[i] . dh/dx at the i-th seeded row, the
    shape the Lie-derivative penalty has, and must return
    (value, dvalue_dh, dvalue_dd) with (B,) and (S,) partials. Hinge kinks
    must follow the inactive (zero-derivative) convention inside loss_fn.
    An empty batch yields (0.0, zero gradients).
    """
    seeds = np.asarray(seed_dirs, dtype=float)
    n_rows = primal.h.shape[0]
    if seeds.ndim != 2 or seeds.shape[1] != cert.n_inputs or seeds.shape[0] > n_rows:
        raise ShapeError(f"seed directions shape {seeds.shape}, expected (S, "
                         f"{cert.n_inputs}) for S <= {n_rows} seeded rows")
    if n_rows == 0:
        return 0.0, tuple(np.zeros_like(p) for p in cert.weights + cert.biases)
    first = n_rows - seeds.shape[0]
    last = cert.n_layers - 1
    # tangent sweep over the seeded rows: t_l is layer l's input tangent
    t_ins, tzs = [], []
    t = seeds
    for l, w in enumerate(cert.weights):
        t_ins.append(t)
        t = t @ w.T
        if l < last:
            tzs.append(t)
            t = t * primal.sigs[l][first:]
    bad = ~np.isfinite(primal.h)
    bad[first:] |= ~np.isfinite(t[:, 0])
    if np.any(bad):
        raise NumericError(f"non-finite network output at batch element {int(np.argmax(bad))}")
    value, d_h, d_dirs = loss_fn(primal.h, t[:, 0])
    # reverse sweep, tangent terms on the seeded rows only; in place, as
    # the hidden adjoints and cached tangents are this call's own:
    # z_bar = sig a_bar + sig (1 - sig) tz t_bar, tz_bar = sig t_bar
    weights, biases = [], []
    a_bar = np.asarray(d_h, float)[:, None]
    t_bar = np.asarray(d_dirs, float)[:, None]
    for l in range(last, -1, -1):
        if l == last:
            z_bar, tz_bar = a_bar, t_bar
        else:
            sig = primal.sigs[l]
            seeded = sig[first:]
            z_bar = a_bar
            z_bar *= sig
            curv = 1.0 - seeded
            curv *= seeded
            tz = tzs[l]
            tz *= t_bar
            curv *= tz
            z_bar[first:] += curv
            tz_bar = t_bar
            tz_bar *= seeded
        w = cert.weights[l]
        weights.append(z_bar.T @ primal.inputs[l] + tz_bar.T @ t_ins[l])
        biases.append(z_bar.sum(axis=0))
        if l:
            a_bar = z_bar @ w
            t_bar = tz_bar @ w
    grads = tuple(weights[::-1] + biases[::-1])
    if not all(np.all(np.isfinite(g)) for g in grads):
        raise NumericError("non-finite parameter gradient")
    return float(value), grads


@dataclass
class OptimizerState:
    """Adam moments, one array per parameter in the gradient order."""

    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    step_count: int
    learning_rate: float


def init_adam(cert: MlpCertificate, learning_rate: float = 1e-3) -> OptimizerState:
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    params = cert.weights + cert.biases
    return OptimizerState(tuple(np.zeros_like(p) for p in params),
                          tuple(np.zeros_like(p) for p in params),
                          step_count=0, learning_rate=learning_rate)


def adam_step(state: OptimizerState, cert: MlpCertificate,
              grads: tuple[np.ndarray, ...]) -> tuple[OptimizerState, MlpCertificate]:
    """One bias-corrected adaptive-moment update; returns new state and
    parameters, leaving the inputs untouched."""
    params = cert.weights + cert.biases
    if len(grads) != len(params):
        raise ShapeError(f"{len(grads)} gradient arrays, expected {len(params)}")
    for g, p in zip(grads, params):
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    new_m, new_v, new_p = [], [], []
    for m, v, g, p in zip(state.m, state.v, grads, params):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        new_m.append(m)
        new_v.append(v)
        new_p.append(p - state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS))
    new_state = OptimizerState(tuple(new_m), tuple(new_v), step_count=t,
                               learning_rate=state.learning_rate)
    layers = cert.n_layers
    new_cert = MlpCertificate(cert.layer_sizes, tuple(new_p[:layers]),
                              tuple(new_p[layers:]))
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
    """The certificate in a JSON document; raises ValueError when the
    document is not a certificate."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a certificate must be a JSON object")
    version = doc.get("format_version")
    if version != CERT_FORMAT_VERSION:
        raise ValueError(f"unsupported certificate format_version: {version}")
    try:
        sizes = tuple(doc["layer_sizes"])
        if not all(isinstance(s, int) and not isinstance(s, bool) for s in sizes):
            raise TypeError(f"layer_sizes must be JSON integers, got {list(sizes)}")
        weights = tuple(np.asarray(w, dtype=float) for w in doc["weights"])
        biases = tuple(np.asarray(b, dtype=float) for b in doc["biases"])
        return MlpCertificate(sizes, weights, biases)
    except (KeyError, TypeError, NumericError) as exc:
        raise ValueError(f"malformed certificate: {exc!r}") from None


def save_certificate(cert: MlpCertificate, path) -> None:
    Path(path).write_text(certificate_to_json(cert))


def load_certificate(path) -> MlpCertificate:
    return certificate_from_json(Path(path).read_text())
