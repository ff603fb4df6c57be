"""Softplus MLP barrier networks with exact nested derivatives.

The barrier value h(x) is a scalar; training losses also contain the input
gradient dh/dx, so parameter gradients need second-order (forward-over-
reverse) differentiation. Networks are tiny (at most two hidden layers of
128 units), so everything is explicit numpy and stays auditable:

  * one primal pass keeps each layer's input and sigmoid(z), made from
    softplus's exp; input gradients dh/dx are a reverse sweep over them;
  * the seed direction of the loss's directional derivative (e.g. the
    closed-loop field f + g u) is pushed through the cached layers as an
    (S, n) tangent on the S seeded rows only;
  * parameter gradients come from a reverse sweep over the combined
    primal + tangent graph, in plain matrix products per layer.

A parameter gradient is one tuple of arrays in the order
cert.weights + cert.biases: the layers' weight gradients first, then their
bias gradients. Adam keeps its moments in the same order.

All arithmetic is float64. No function changes its inputs, but for the
scratch given to softplus; what a function returns (h, dh/dx, gradients,
parameters) is the caller's own, except a Primal's caches, as below.

Workspaces. `forward_batch`, `primal_pass`, `primal_input_gradients`,
`values_and_input_gradients` and `seeded_loss_param_gradient` take an
optional `Workspace` and write their hidden-layer arrays into views of
its buffers: z and the activations of the forward, the sigmoids a primal
pass keeps, the adjoints of the reverse sweeps and the tangents of the
nested gradient. Called without one, each makes a fresh one, as `forward`
always does, so every batch size runs the same code. A Primal built in a
workspace holds views of it in `inputs[1:]` and `sigs`; they stay valid
until the next `forward_batch` or `primal_pass` on that workspace.
`primal_input_gradients` and `seeded_loss_param_gradient` on that primal
may share its workspace: they write only into buffers the primal does
not keep. A training phase passes one workspace to every monitoring loss
and step, and a scoring of N states one to every block's filter pass, so
its pages are faulted in once per phase or scoring instead of once per
call.

Batch semantics. One layer recurrence computes every barrier value, and
the shape it is given decides how BLAS sums. `forward_batch` and
`primal_pass` run it on the (B, n) batch: one matrix product per layer,
much faster for large batches, but BLAS picks its kernel and summation
order by batch size, so a row's value may move in the last ulp with its
batch. `forward` runs it on the (R, 1, n) stack of its states: one
one-row product per state and layer, which numpy's stacked matmul issues
identically for every state, so any stack of states gives, bit for bit,
what one state at a time gives.
`certificate.score_states` and `certificate.verification_scores` (verify,
and the certify step of every refinement round) call the batch path in
row blocks of K = `certificate._BLOCK_ROWS` rows, the remainder joining
the last block, so no call sees more than 2K-1 rows whatever the sample
size. Their row values equal the one-shot batch's wherever the one-shot
batch does not switch BLAS kernel by size; the dubins (B, 64) @ (64, 3)
input-gradient product does above 5208 rows, and moves in the last ulp
there. The monitoring loss, mini-batch training steps, rollouts and the
B=1 filter pass their batches through whole; a training step's filter
decides from the h and dh/dx of its whole mini-batch's primal pass.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ShapeError(ValueError):
    """Input or gradient dimensions do not match the network."""


class NumericError(FloatingPointError):
    """A non-finite value appeared while evaluating the network."""


def softplus(z: np.ndarray, out: np.ndarray | None = None, sig: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    # ln(1+e^z) as max(z, 0) + log1p(e), e = exp(-|z|): no term overflows,
    # and the result is within an ulp of exact. -|z| is minimum(z, -z),
    # which keeps a NaN's sign bit. Given sig, sigmoid(z) goes there from
    # the same e. scratch holds max(z, 0) and may be z, then overwritten;
    # out and sig may not overlap z. Any that is None is a fresh array.
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z) if out is None else out
    e = np.negative(z, out=out if sig is None else sig)
    np.exp(np.minimum(z, e, out=e), out=e)
    np.log1p(e, out=out)
    pos = np.maximum(z, 0.0, out=np.empty_like(z) if scratch is None else scratch)
    out += pos
    if sig is not None:
        _sigmoid_from(e, pos, pos)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    # e as in softplus, then the result, in a fresh array
    z = np.asarray(z, dtype=float)
    e = np.negative(z, out=np.empty_like(z))
    np.exp(np.minimum(z, e, out=e), out=e)
    return _sigmoid_from(e, z, np.empty_like(z))


def _sigmoid_from(e: np.ndarray, pos: np.ndarray, numer: np.ndarray) -> np.ndarray:
    # 1/(1+e^-z) for z > 0, else e^z/(1+e^z), into e = exp(-|z|), from
    # pos = z or max(z, 0): the two branches' operands, hence their bits.
    # The numerator max(pos > 0, e), in numer (may be pos), is exact and
    # branch-free where a mask-driven select is not.
    np.greater(pos, 0.0, out=numer)
    np.maximum(numer, e, out=numer)
    e += 1.0
    return np.divide(numer, e, out=e)


class Workspace:
    """Buffers that the batch functions write their hidden-layer arrays
    into, reused from call to call, so that repeated calls fault their
    pages in once instead of once per call.

    A buffer, named and of one width, is allocated at its first use and
    grows to the largest batch asked of it; a call on B rows writes into
    its first B rows. Functions called without a workspace make a fresh one.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers: dict = {}

    def take(self, name: str, rows: int, width: int) -> np.ndarray:
        """The first rows rows of the buffer called name, of this width."""
        buf = self._buffers.get((name, width))
        if buf is None or buf.shape[0] < rows:
            buf = self._buffers[name, width] = np.empty((rows, width))
        return buf if buf.shape[0] == rows else buf[:rows]


def _reverse_buffer(ws: Workspace, l: int, rows: int, width: int) -> np.ndarray:
    # The reverse sweeps' products alternate between the forward's z
    # buffer, free once the primal pass is done, and a second one, so that
    # no product overwrites the adjoint it is computed from.
    return ws.take("z" if l % 2 else "z_next", rows, width)


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


def _layers(cert: MlpCertificate, a: np.ndarray, ws: Workspace,
            sigs: list | None) -> tuple[np.ndarray, list[np.ndarray]]:
    """The layer recurrence on a checked (R, n) batch or an (R, 1, n)
    stack: the barrier values (R,) and each layer's input. The hidden
    layers write z and their activations into ws; given a list, sigs
    gets each hidden layer's sigmoid(z), from softplus's exp, in ws too."""
    rows = a.shape[0]
    inputs = [a]
    for l in range(cert.n_layers - 1):
        width = cert.layer_sizes[l + 1]
        z = ws.take("z", rows, width)
        act = ws.take(f"act{l}", rows, width)
        if a.ndim == 3:
            z, act = z.reshape(rows, 1, width), act.reshape(rows, 1, width)
        np.matmul(a, cert.weights[l].T, out=z)
        z += cert.biases[l]
        sig = None
        if sigs is not None:
            sig = ws.take(f"sig{l}", rows, width)
            sigs.append(sig)
        # z, dead after, is softplus's scratch
        a = softplus(z, act, sig=sig, scratch=z)
        inputs.append(a)
    z = a @ cert.weights[-1].T
    z += cert.biases[-1]
    return z.ravel(), inputs


def forward_batch(cert: MlpCertificate, xs, workspace: Workspace | None = None) -> np.ndarray:
    """Barrier values for a batch of states, shape (B,)."""
    return _layers(cert, _check_batch(cert, xs), workspace or Workspace(), None)[0]


def forward(cert: MlpCertificate, x) -> float | np.ndarray:
    """Barrier value h(x): a float for one state (n,), an array of shape
    (...) for a stack of states (..., n). The states run as an (R, 1, n)
    stack, so a state's value is the same bits whatever it is stacked
    with (see Batch semantics)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0 or a.shape[-1] != cert.n_inputs:
        raise ShapeError(
            f"state shape {np.shape(x)} does not match input size {cert.n_inputs}"
        )
    h = _layers(cert, a.reshape(-1, 1, cert.n_inputs), Workspace(), None)[0]
    return float(h[0]) if a.ndim == 1 else h.reshape(a.shape[:-1])


def input_gradient(cert: MlpCertificate, x) -> np.ndarray:
    """dh/dx at one state (n,): the one-state view of
    values_and_input_gradients."""
    return values_and_input_gradients(cert, np.asarray(x, dtype=float)[None])[1][0]


@dataclass
class Primal:
    """One primal pass over a (B, n) batch: the barrier values, each
    layer's input and each hidden layer's sigmoid(z), the caches that the
    input gradients and the nested gradient read. Built in a workspace,
    the hidden inputs and sigmoids are views of its buffers."""

    h: np.ndarray                 # (B,)
    inputs: list[np.ndarray]      # layer l's input, (B, layer_sizes[l])
    sigs: list[np.ndarray]        # hidden layer l's sigmoid(z), (B, layer_sizes[l+1])


def primal_pass(cert: MlpCertificate, xs, workspace: Workspace | None = None) -> Primal:
    """The layer recurrence over a batch, keeping its caches."""
    sigs = []
    h, inputs = _layers(cert, _check_batch(cert, xs), workspace or Workspace(), sigs)
    return Primal(h, inputs, sigs)


def primal_input_gradients(cert: MlpCertificate, primal: Primal, first: int,
                           workspace: Workspace | None = None) -> np.ndarray:
    """dh/dx of the primal's rows first: onwards, (B - first, n), by a
    reverse sweep over the cached sigmoids."""
    rows = primal.h.shape[0] - first
    ws = workspace or Workspace()
    last = cert.n_layers - 1
    # The sweep's first product, ones((rows, 1)) @ w_last, is w_last's row
    # on every row, with -0.0 read as +0.0 (BLAS sums the one term onto
    # zero); the sigmoids of the last hidden layer broadcast that row.
    d = cert.weights[last] + 0.0
    for l in range(last - 1, -1, -1):
        sig = primal.sigs[l][first:]
        if l < last - 1:
            d *= sig
        else:
            d = np.multiply(d, sig, out=_reverse_buffer(ws, l + 1, rows, sig.shape[1]))
        w = cert.weights[l]
        d = d @ w if l == 0 else np.matmul(d, w, out=_reverse_buffer(ws, l, rows, w.shape[1]))
    return d if last else np.repeat(d, rows, axis=0)


def values_and_input_gradients(cert: MlpCertificate, xs, workspace: Workspace | None = None
                               ) -> tuple[np.ndarray, np.ndarray]:
    """(h, dh/dx) for a batch in one pass; shapes (B,) and (B, n)."""
    ws = workspace or Workspace()
    primal = primal_pass(cert, xs, ws)
    return primal.h, primal_input_gradients(cert, primal, 0, ws)


def seeded_loss_param_gradient(cert: MlpCertificate, primal: Primal, seed_dirs,
                               loss_fn, workspace: Workspace | None = None
                               ) -> tuple[float, tuple[np.ndarray, ...]]:
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
    ws = workspace or Workspace()
    n_seeded = seeds.shape[0]
    first = n_rows - n_seeded
    last = cert.n_layers - 1
    # tangent sweep over the seeded rows: t_l is layer l's input tangent
    t_ins, tzs = [seeds], []
    t = seeds
    for l in range(last):
        width = cert.layer_sizes[l + 1]
        tz = np.matmul(t, cert.weights[l].T, out=ws.take(f"tz{l}", n_seeded, width))
        tzs.append(tz)
        t = np.multiply(tz, primal.sigs[l][first:], out=ws.take(f"t{l}", n_seeded, width))
        t_ins.append(t)
    t = t @ cert.weights[last].T
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
            curv = np.subtract(1.0, seeded, out=ws.take("curv", n_seeded, seeded.shape[1]))
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
            width = w.shape[1]
            a_bar = np.matmul(z_bar, w, out=_reverse_buffer(ws, l, n_rows, width))
            t_bar = np.matmul(tz_bar, w, out=ws.take(f"t_bar{l % 2}", n_seeded, width))
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
        # m' = b1 m + (1 - b1) g, v' = b2 v + (1 - b2) g g and
        # p - lr (m' / c1) / (sqrt(v' / c2) + eps), operation for operation,
        # written into the three returned arrays and one scratch
        m = np.multiply(m, b1)
        scratch = np.multiply(g, 1.0 - b1)
        m += scratch
        v = np.multiply(v, b2)
        np.multiply(g, 1.0 - b2, out=scratch)
        scratch *= g
        v += scratch
        step = np.divide(m, c1)
        step *= state.learning_rate
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        step /= scratch
        new_m.append(m)
        new_v.append(v)
        new_p.append(np.subtract(p, step, out=step))
    new_state = OptimizerState(tuple(new_m), tuple(new_v), step_count=t,
                               learning_rate=state.learning_rate)
    layers = cert.n_layers
    new_cert = MlpCertificate(cert.layer_sizes, tuple(new_p[:layers]),
                              tuple(new_p[layers:]))
    return new_state, new_cert


CERT_FORMAT_VERSION = 2


def certificate_to_json(cert: MlpCertificate) -> str:
    """The certificate as a format_version 2 document: each weight and
    bias array is one standard base64 string of its little-endian float64
    bytes in C order, its shape given by layer_sizes. The round trip is
    bit-exact."""
    doc = {
        "layer_sizes": list(cert.layer_sizes),
        "weights": [_float64_base64(w) for w in cert.weights],
        "biases": [_float64_base64(b) for b in cert.biases],
        "format_version": CERT_FORMAT_VERSION,
    }
    return json.dumps(doc)


def _float64_base64(arr: np.ndarray) -> str:
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def certificate_from_json(text: str) -> MlpCertificate:
    """The certificate in a JSON document of format_version 2 (base64
    arrays) or 1 (nested number lists); raises ValueError when the
    document is not a certificate."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a certificate must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, CERT_FORMAT_VERSION):
        raise ValueError(f"unsupported certificate format_version: {version!r}")
    try:
        sizes = tuple(doc["layer_sizes"])
        if not all(isinstance(s, int) and not isinstance(s, bool) for s in sizes):
            raise TypeError(f"layer_sizes must be JSON integers, got {list(sizes)}")
        if version == 1:
            weights = tuple(_number_array(w) for w in doc["weights"])
            biases = tuple(_number_array(b) for b in doc["biases"])
        else:
            shapes = list(zip(sizes[1:], sizes[:-1]))
            weights = _base64_arrays(doc["weights"], shapes)
            biases = _base64_arrays(doc["biases"], [(rows,) for rows, _ in shapes])
        return MlpCertificate(sizes, weights, biases)
    except (KeyError, TypeError, ValueError, NumericError) as exc:
        raise ValueError(f"malformed certificate: {exc!r}") from None


def _number_array(value) -> np.ndarray:
    """A format_version 1 array: value as a float array; raises TypeError
    unless numpy reads it as numbers (not bools, strings or nulls). A bool
    among floats is read as a float: checking each element would cost more
    than the whole load."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"parameters must be JSON numbers, got {arr.dtype} values")
    return arr.astype(float, copy=False)


def _base64_arrays(entries, shapes) -> tuple[np.ndarray, ...]:
    """The format_version 2 arrays of these shapes, from a list of one
    base64 string each; raises TypeError or ValueError unless each string
    is base64, alphabet and padding checked, of exactly the shape's
    float64 bytes."""
    if not isinstance(entries, list) or len(entries) != len(shapes):
        raise TypeError(f"expected a list of {len(shapes)} base64 strings")
    arrays = []
    for text, shape in zip(entries, shapes):
        if not isinstance(text, str):
            raise TypeError(f"parameters must be base64 strings, got {type(text).__name__}")
        raw = base64.b64decode(text, validate=True)
        if len(raw) != 8 * math.prod(shape):
            raise ValueError(f"{len(raw)} bytes for a float64 array of shape {shape}")
        # a native, writeable copy of the read-only little-endian view
        arrays.append(np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape))
    return tuple(arrays)


def save_certificate(cert: MlpCertificate, path) -> None:
    Path(path).write_text(certificate_to_json(cert))


def load_certificate(path) -> MlpCertificate:
    return certificate_from_json(Path(path).read_text())
