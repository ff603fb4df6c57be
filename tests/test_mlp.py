import json
import math
import sys
from decimal import Decimal

import numpy as np
import pytest

from cbfcert import mlp

from oracles import (decimal_softplus, naive_forward, reference_adam_update,
                     reference_batch_forward, reference_sigmoid, reference_softplus,
                     reference_stacked_forward)


def random_cert(layer_sizes, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    base = mlp.init_certificate(layer_sizes, seed=seed)
    return mlp.MlpCertificate(
        base.layer_sizes,
        tuple(scale * w for w in base.weights),
        tuple(0.3 * scale * rng.standard_normal(b.shape) for b in base.biases),
    )


def test_zero_weights_decouple_input():
    # all-zero weights except the output layer: h = c + w_out . softplus(b)
    rng = np.random.default_rng(1)
    hidden_b = rng.standard_normal(6)
    w_out = rng.standard_normal((1, 6))
    c = 0.7
    cert = mlp.MlpCertificate(
        (4, 6, 1),
        (np.zeros((6, 4)), w_out),
        (hidden_b, np.array([c])),
    )
    expected = c + float(w_out[0] @ np.log1p(np.exp(hidden_b)))
    for x in (np.zeros(4), rng.standard_normal(4), 5.0 * np.ones(4)):
        assert mlp.forward(cert, x) == pytest.approx(expected, rel=1e-15)


def test_forward_matches_naive_recurrence():
    cert = random_cert([3, 10, 7, 1], seed=4)
    x = np.zeros(3)
    assert mlp.forward(cert, x) == pytest.approx(
        naive_forward(cert.weights, cert.biases, x), rel=1e-14
    )


def test_softplus_unit_ln2():
    cert = mlp.MlpCertificate(
        (1, 1, 1),
        (np.array([[1.0]]), np.array([[1.0]])),
        (np.array([0.0]), np.array([0.0])),
    )
    assert mlp.forward(cert, np.zeros(1)) == pytest.approx(math.log(2.0), rel=1e-15)


def test_forward_shape_error():
    cert = random_cert([3, 4, 1], seed=0)
    with pytest.raises(mlp.ShapeError):
        mlp.forward(cert, np.zeros(5))
    with pytest.raises(mlp.ShapeError):
        mlp.input_gradient(cert, np.zeros(2))


_KERNEL_NETS = [[3, 64, 1], [8, 128, 128, 1]]


@pytest.mark.parametrize("sizes", _KERNEL_NETS)
@pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 9, 33, 441])
def test_forward_stack_is_bitwise_per_state(sizes, count):
    # a BLAS-batched product picks its kernel by batch size and can move
    # the last ulp at these sizes; the per-state kernel must not
    cert = random_cert(sizes, seed=11)
    xs = np.random.default_rng(count).standard_normal((count, sizes[0]))
    stacked = mlp.forward(cert, xs)
    assert stacked.shape == (count,)
    assert np.array_equal(stacked, [mlp.forward(cert, x) for x in xs])
    assert np.array_equal(stacked, reference_stacked_forward(cert.weights, cert.biases, xs))
    # in a workspace, which a larger stack has grown first: the same bits
    ws = mlp.Workspace()
    mlp.forward(cert, np.ones((count + 7, sizes[0])), ws)
    assert mlp.forward(cert, xs, ws).tobytes() == stacked.tobytes()
    assert np.array_equal(stacked, [mlp.forward(cert, x, ws) for x in xs])


@pytest.mark.parametrize("sizes", _KERNEL_NETS)
def test_forward_three_dimensional_stack_is_bitwise_per_state(sizes):
    cert = random_cert(sizes, seed=12)
    xs = np.random.default_rng(5).standard_normal((21, 21, sizes[0]))
    stacked = mlp.forward(cert, xs)
    assert stacked.shape == (21, 21)
    per_state = [[mlp.forward(cert, x) for x in row] for row in xs]
    assert np.array_equal(stacked, per_state)
    ws = mlp.Workspace()
    assert np.array_equal(stacked, [mlp.forward(cert, row, ws) for row in xs])
    assert mlp.forward(cert, xs, ws).tobytes() == stacked.tobytes()
    assert np.array_equal(stacked, reference_stacked_forward(cert.weights, cert.biases, xs))


def test_forward_single_state_is_a_float():
    cert = random_cert([3, 8, 1], seed=2)
    value = mlp.forward(cert, np.array([0.1, -0.2, 0.3]))
    assert type(value) is float
    in_workspace = mlp.forward(cert, np.array([0.1, -0.2, 0.3]), mlp.Workspace())
    assert type(in_workspace) is float and in_workspace == value
    assert mlp.forward(cert, np.zeros((0, 3))).shape == (0,)
    with pytest.raises(mlp.ShapeError):
        mlp.forward(cert, np.zeros((4, 2)))
    with pytest.raises(mlp.ShapeError):
        mlp.forward(cert, 1.0)


def test_input_gradient_zero_weight_cert():
    cert = mlp.MlpCertificate(
        (3, 4, 1),
        (np.zeros((4, 3)), np.zeros((1, 4))),
        (np.ones(4), np.array([2.0])),
    )
    assert np.allclose(mlp.input_gradient(cert, np.ones(3)), 0.0)


def test_input_gradient_linear_cert():
    w = np.array([[0.4, -1.2, 2.5]])
    cert = mlp.MlpCertificate((3, 1), (w,), (np.array([0.3]),))
    g = mlp.input_gradient(cert, np.array([1.0, 2.0, -0.5]))
    assert np.allclose(g, w[0], atol=1e-15)


def test_input_gradient_matches_finite_differences_100_pairs():
    rng = np.random.default_rng(12)
    step = 1e-5
    for trial in range(100):
        sizes = [int(rng.integers(1, 5)), int(rng.integers(2, 12)), 1]
        if rng.random() < 0.4:
            sizes.insert(2, int(rng.integers(2, 10)))
        cert = random_cert(sizes, seed=trial, scale=float(rng.uniform(0.3, 2.0)))
        x = rng.uniform(-2.0, 2.0, size=sizes[0])
        grad = mlp.input_gradient(cert, x)
        for k in range(sizes[0]):
            e = np.zeros(sizes[0])
            e[k] = step
            fd = (mlp.forward(cert, x + e) - mlp.forward(cert, x - e)) / (2 * step)
            assert abs(grad[k] - fd) <= max(1e-6, 1e-5 * abs(fd))


def test_empty_batch_loss_is_zero():
    cert = random_cert([3, 6, 1], seed=5)

    def loss_fn(h, d):
        return float(np.sum(h)), np.ones_like(h), np.zeros_like(d)

    empty = np.zeros((0, 3))
    value, grads = mlp.seeded_loss_param_gradient(
        mlp.primal_pass(cert, empty), empty, loss_fn)
    assert value == 0.0
    assert [g.shape for g in grads] == [p.shape for p in cert.weights + cert.biases]
    assert all(not g.any() for g in grads)


def _fd_param_gradient(cert, value_of, step=1e-6):
    grads_w = [np.zeros_like(w) for w in cert.weights]
    grads_b = [np.zeros_like(b) for b in cert.biases]
    for l in range(cert.n_layers):
        for base, grad in ((cert.weights[l], grads_w[l]),
                           (cert.biases[l], grads_b[l])):
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                ws = [w.copy() for w in cert.weights]
                bs = [b.copy() for b in cert.biases]
                tgt = ws if base is cert.weights[l] else bs
                tgt[l][idx] += step
                plus = value_of(mlp.MlpCertificate(cert.layer_sizes, tuple(ws), tuple(bs)))
                tgt[l][idx] -= 2 * step
                minus = value_of(mlp.MlpCertificate(cert.layer_sizes, tuple(ws), tuple(bs)))
                grad[idx] = (plus - minus) / (2 * step)
    return grads_w, grads_b


def _assert_grads_close(grads, fd_w, fd_b, rel=1e-4, abs_floor=1e-7):
    assert len(grads) == len(fd_w + fd_b)
    for got, want in zip(grads, fd_w + fd_b):
        err = np.abs(got - want)
        tol = np.maximum(abs_floor, rel * np.abs(want))
        assert np.all(err <= tol), f"max excess {np.max(err - tol)}"


def test_plain_value_loss_gradient_matches_fd():
    cert = random_cert([3, 6, 1], seed=9)
    x = np.array([[0.4, -1.0, 0.2]])

    def loss_fn(h, d):
        return float(h[0]), np.ones(1), np.zeros(1)

    _, grads = mlp.seeded_loss_param_gradient(
        mlp.primal_pass(cert, x), np.ones_like(x), loss_fn)
    fd_w, fd_b = _fd_param_gradient(cert, lambda c: mlp.forward(c, x[0]))
    _assert_grads_close(grads, fd_w, fd_b)


def test_directional_derivative_loss_gradient_matches_fd():
    cert = random_cert([3, 6, 1], seed=10)
    x = np.array([[0.1, 0.7, -0.3]])
    v = np.array([1.3, -0.2, 0.8])
    c = -1.7

    def loss_fn(h, d):
        return c * float(d[0]), np.zeros(1), np.full(1, c)

    _, grads = mlp.seeded_loss_param_gradient(
        mlp.primal_pass(cert, x), v[None, :], loss_fn)
    fd_w, fd_b = _fd_param_gradient(
        cert, lambda cc: c * float(mlp.input_gradient(cc, x[0]) @ v)
    )
    _assert_grads_close(grads, fd_w, fd_b)


def test_nested_gradient_with_active_hinges_20_configs():
    # losses mixing h terms, directional-derivative terms and hinges that
    # are active on a strict subset of the batch
    rng = np.random.default_rng(77)
    done = 0
    attempts = 0
    while done < 20:
        attempts += 1
        assert attempts < 200
        sizes = [3, int(rng.integers(4, 10)), 1]
        cert = random_cert(sizes, seed=int(rng.integers(1e6)), scale=1.2)
        xs = rng.uniform(-1.5, 1.5, size=(4, 3))
        vs = rng.uniform(-1.0, 1.0, size=(4, 3))
        thresh = float(rng.uniform(-0.5, 0.5))

        def loss_fn(h, d, thresh=thresh):
            args = h - d - thresh
            act = args > 0
            val = float(np.sum(args[act]))
            return val, act.astype(float), -act.astype(float)

        h = mlp.forward_batch(cert, xs)
        _, g = mlp.values_and_input_gradients(cert, xs)
        args = h - (g * vs).sum(axis=1) - thresh
        # need a strict subset active, and no argument near the kink
        if not (np.any(args > 0) and np.any(args <= 0)):
            continue
        if np.min(np.abs(args)) < 1e-3:
            continue
        _, grads = mlp.seeded_loss_param_gradient(
            mlp.primal_pass(cert, xs), vs, loss_fn)

        def value_of(c, vs=vs, thresh=thresh):
            hh = mlp.forward_batch(c, xs)
            _, gg = mlp.values_and_input_gradients(c, xs)
            aa = hh - (gg * vs).sum(axis=1) - thresh
            return float(np.sum(aa[aa > 0]))

        fd_w, fd_b = _fd_param_gradient(cert, value_of)
        _assert_grads_close(grads, fd_w, fd_b)
        done += 1


def test_lipschitz_bound_from_frobenius_norms():
    rng = np.random.default_rng(3)
    for trial in range(20):
        cert = random_cert([4, 12, 8, 1], seed=trial, scale=1.5)
        bound = float(np.prod([np.linalg.norm(w) for w in cert.weights]))
        x = rng.uniform(-2, 2, size=4)
        y = rng.uniform(-2, 2, size=4)
        lhs = abs(mlp.forward(cert, x) - mlp.forward(cert, y))
        assert lhs <= bound * np.linalg.norm(x - y) + 1e-12


def test_determinism_bit_identical():
    cert = random_cert([3, 16, 1], seed=8)
    x = np.array([0.3, -0.9, 1.4])
    vals = {mlp.forward(cert, x) for _ in range(5)}
    assert len(vals) == 1
    g1 = mlp.input_gradient(cert, x)
    g2 = mlp.input_gradient(cert, x)
    assert np.all(g1 == g2)


def test_adam_zero_gradient_keeps_parameters():
    cert = random_cert([2, 4, 1], seed=1)
    state = mlp.init_adam(cert, learning_rate=1e-3)
    zeros = tuple(np.zeros_like(p) for p in cert.weights + cert.biases)
    new_state, new_cert = mlp.adam_step(state, cert, zeros)
    assert new_state.step_count == 1
    for p0, p1 in zip(cert.weights + cert.biases, new_cert.weights + new_cert.biases):
        assert np.all(p0 == p1)


def test_adam_first_step_closed_form():
    cert = random_cert([2, 3, 1], seed=2)
    rng = np.random.default_rng(0)
    # the gradient tuple lists the weights first, then the biases
    grads = tuple(rng.standard_normal(p.shape) for p in cert.weights + cert.biases)
    lr = 1e-3
    state = mlp.init_adam(cert, learning_rate=lr)
    _, new_cert = mlp.adam_step(state, cert, grads)
    layers = cert.n_layers
    pairs = [(cert.weights, new_cert.weights, grads[:layers]),
             (cert.biases, new_cert.biases, grads[layers:])]
    for old, new, part in pairs:
        assert len(new) == layers
        for p0, p1, g in zip(old, new, part):
            expected = p0 - lr * g / (np.abs(g) + mlp.ADAM_EPS)
            assert np.allclose(p1, expected, rtol=1e-12)


def test_adam_constant_gradient_step_approaches_sign():
    # textbook recurrence iterated numerically as the oracle
    g = np.array([[0.37, -2.1], [0.0008, 5.0]])
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    m = np.zeros_like(g)
    v = np.zeros_like(g)
    theta_ref = np.zeros_like(g)
    cert = mlp.MlpCertificate((2, 2, 1),
                              (np.zeros((2, 2)), np.zeros((1, 2))),
                              (np.zeros(2), np.zeros(1)))
    state = mlp.init_adam(cert, learning_rate=lr)
    grads = (g, np.zeros((1, 2)), np.zeros(2), np.zeros(1))
    for t in range(1, 501):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta_ref = theta_ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        state, cert = mlp.adam_step(state, cert, grads)
    assert np.allclose(cert.weights[0], theta_ref, atol=1e-12)
    # per-parameter late-step magnitude approaches lr * sign(g)
    prev = cert.weights[0].copy()
    state, cert = mlp.adam_step(state, cert, grads)
    step = cert.weights[0] - prev
    assert np.allclose(np.abs(step), lr, rtol=1e-3)
    assert np.all(np.sign(step) == -np.sign(g))


def test_adam_shape_mismatch():
    cert = random_cert([2, 4, 1], seed=1)
    state = mlp.init_adam(cert)
    bad = (np.zeros((4, 3)), np.zeros((1, 4)), np.zeros(4), np.zeros(1))
    with pytest.raises(mlp.ShapeError):
        mlp.adam_step(state, cert, bad)
    with pytest.raises(mlp.ShapeError, match="3 gradient arrays, expected 4"):
        mlp.adam_step(state, cert, bad[:3])
    # the right arrays in the wrong order: biases before weights
    swapped = tuple(np.zeros_like(p) for p in cert.biases + cert.weights)
    with pytest.raises(mlp.ShapeError, match="gradient shape"):
        mlp.adam_step(state, cert, swapped)


def test_adam_step_matches_the_expression_oracle_bit_for_bit():
    cert = random_cert([8, 128, 128, 1], seed=21)
    rng = np.random.default_rng(5)
    state = mlp.init_adam(cert, learning_rate=3e-3)
    for _ in range(4):
        params = cert.weights + cert.biases
        grads = tuple(rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-6, 2, p.shape)
                      for p in params)
        inputs = state.m + state.v + grads + params
        before = [a.tobytes() for a in inputs]
        new_state, new_cert = mlp.adam_step(state, cert, grads)
        assert [a.tobytes() for a in inputs] == before
        got = zip(new_state.m, new_state.v, new_cert.weights + new_cert.biases)
        for m, v, g, p, out in zip(state.m, state.v, grads, params, got):
            ref = reference_adam_update(m, v, g, p, new_state.step_count, state.learning_rate,
                                        mlp.ADAM_BETA1, mlp.ADAM_BETA2, mlp.ADAM_EPS)
            assert [a.tobytes() for a in out] == [a.tobytes() for a in ref]
        state, cert = new_state, new_cert


def _assert_same_parameters(cert, back):
    """back holds cert's parameters bit for bit, as native, C-contiguous,
    writeable float64 arrays."""
    assert back.layer_sizes == cert.layer_sizes
    for p0, p1 in zip(cert.weights + cert.biases, back.weights + back.biases):
        assert p1.shape == p0.shape and p1.tobytes() == p0.tobytes()
        assert p1.dtype == np.float64 and p1.dtype.isnative
        assert p1.flags.c_contiguous and p1.flags.writeable


def test_certificate_json_round_trip_exact():
    cert = random_cert([3, 9, 1], seed=13, scale=1.7)
    edges = [-0.0, 5e-324, -2.5e-310, sys.float_info.min, sys.float_info.max,
             -sys.float_info.max]
    w0 = np.asfortranarray(cert.weights[0])
    w0[0, :3], w0[1, :3] = edges[:3], edges[3:]
    cert = mlp.MlpCertificate(cert.layer_sizes, (w0, cert.weights[1]), cert.biases)
    spec = {"kappa_gain": 1.0, "respect_input_bounds": False, "correction_cap": None}
    text = mlp.certificate_to_json(cert, spec)
    doc = json.loads(text)
    assert doc["format_version"] == 2
    assert doc["layer_sizes"] == [3, 9, 1]
    assert all(isinstance(entry, str) for entry in doc["weights"] + doc["biases"])
    back, recorded = mlp.certificate_from_json(text)
    _assert_same_parameters(cert, back)
    assert recorded == spec


def test_certificate_json_records_the_filter_spec_it_is_given():
    cert = random_cert([3, 9, 1], seed=13, scale=1.7)
    spec = {"kappa_gain": 0.1, "respect_input_bounds": True, "correction_cap": None}
    text = mlp.certificate_to_json(cert, spec)
    doc = json.loads(text)
    assert doc["filter"] == spec and list(doc)[-1] == "filter"
    back, recorded = mlp.certificate_from_json(text)
    _assert_same_parameters(cert, back)
    assert recorded == spec
    # the record's fields are read, not checked: the CLI compares them with
    # the run file's; a record that is missing or not an object is refused
    assert mlp.certificate_from_json(json.dumps({**doc, "filter": {"x": 1}}))[1] == {"x": 1}
    for bad in [{k: v for k, v in doc.items() if k != "filter"},
                *({**doc, "filter": value} for value in (None, "x", [spec], 1.0))]:
        with pytest.raises(ValueError, match="filter"):
            mlp.certificate_from_json(json.dumps(bad))


def test_certificate_rejects_bad_shapes():
    with pytest.raises(mlp.ShapeError):
        mlp.MlpCertificate((3, 1), (np.zeros((1, 2)),), (np.zeros(1),))
    with pytest.raises(mlp.ShapeError):
        mlp.MlpCertificate((3, 2), (np.zeros((2, 3)),), (np.zeros(2),))
    with pytest.raises(mlp.NumericError):
        mlp.MlpCertificate((2, 1), (np.array([[np.inf, 0.0]]),), (np.zeros(1),))


def test_nonfinite_batch_element_identified():
    cert = random_cert([2, 4, 1], seed=3)
    xs = np.array([[0.1, 0.2], [np.nan, 0.0], [1.0, 1.0]])

    def loss_fn(h, d):
        return float(np.sum(h)), np.ones_like(h), np.zeros_like(d)

    with pytest.raises(mlp.NumericError, match="element 1"):
        mlp.seeded_loss_param_gradient(
            mlp.primal_pass(cert, xs), np.ones_like(xs), loss_fn)


def _linear_loss(coef_h, coef_d):
    def loss_fn(h, d):
        return float(coef_h @ h + coef_d @ d), coef_h, coef_d
    return loss_fn


def test_seed_directions_must_fit_the_batch():
    cert = random_cert([3, 6, 1], seed=4)
    primal = mlp.primal_pass(cert, np.random.default_rng(0).standard_normal((5, 3)))
    loss_fn = _linear_loss(np.ones(5), np.ones(5))
    for seeds in (np.ones((5, 4)), np.ones((6, 3)), np.ones(5), np.ones((5, 1, 3))):
        with pytest.raises(mlp.ShapeError, match="seed directions"):
            mlp.seeded_loss_param_gradient(primal, seeds, loss_fn)


def test_batch_calls_reject_one_state():
    cert = random_cert([3, 6, 1], seed=4)
    x = np.array([0.1, -0.2, 0.3])
    for call in (lambda: mlp.forward_batch(cert, x),
                 lambda: mlp.values_and_input_gradients(cert, x),
                 lambda: mlp.primal_pass(cert, x)):
        with pytest.raises(mlp.ShapeError, match=r"\(B, 3\)"):
            call()


@pytest.mark.parametrize("sizes", _KERNEL_NETS)
@pytest.mark.parametrize("rows", [1, 7, 300, 512, 1023, 5300, 6700])
def test_primal_pass_is_values_and_input_gradients(sizes, rows):
    # BLAS switches kernels across these batch sizes; whichever it picks,
    # both batch passes are the one-product-per-layer loop, bit for bit
    rng = np.random.default_rng(8)
    cert = random_cert(sizes, seed=8, scale=1.1)
    xs = rng.uniform(-2.0, 2.0, size=(rows, sizes[0]))
    primal = mlp.primal_pass(cert, xs)
    h, grads = mlp.values_and_input_gradients(cert, xs)
    assert np.array_equal(primal.h, h)
    assert np.array_equal(mlp.primal_input_gradients(primal, 0), grads)
    assert np.array_equal(primal.h, mlp.forward_batch(cert, xs))
    assert np.array_equal(primal.h, reference_batch_forward(cert.weights, cert.biases, xs))
    # the sweep over a row range reads the same cached sigmoids
    first = 2 * rows // 5
    np.testing.assert_allclose(mlp.primal_input_gradients(primal, first),
                               grads[first:], rtol=1e-14, atol=0)


def test_unseeded_rows_carry_no_tangent():
    # seeding the last S rows is seeding every row with zeros in front
    rng = np.random.default_rng(5)
    cert = random_cert([8, 128, 128, 1], seed=5, scale=1.1)
    xs = rng.uniform(-2.0, 2.0, size=(90, 8))
    seeds = rng.standard_normal((30, 8))
    coef_h, coef_d = rng.standard_normal(90), rng.standard_normal(30)
    primal = mlp.primal_pass(cert, xs)
    value, grads = mlp.seeded_loss_param_gradient(
        primal, seeds, _linear_loss(coef_h, coef_d))
    padded = np.concatenate([np.zeros((60, 8)), seeds])
    v_all, g_all = mlp.seeded_loss_param_gradient(
        primal, padded, _linear_loss(coef_h, np.concatenate([np.zeros(60), coef_d])))
    assert value == pytest.approx(v_all, rel=1e-14)
    for got, want in zip(grads, g_all):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_batch_gradient_is_the_sum_of_row_gradients():
    # 768 rows on [8, 128, 128, 1]: BLAS runs the batch through other
    # kernels than a row, so the reductions over rows differ in order only
    rng = np.random.default_rng(21)
    cert = random_cert([8, 128, 128, 1], seed=21, scale=1.1)
    xs = rng.uniform(-2.0, 2.0, size=(768, 8))
    seeds = rng.standard_normal((768, 8))
    coef_h, coef_d = rng.standard_normal(768), rng.standard_normal(768)
    value, grads = mlp.seeded_loss_param_gradient(
        mlp.primal_pass(cert, xs), seeds, _linear_loss(coef_h, coef_d))
    total_value = 0.0
    total = [np.zeros_like(p) for p in cert.weights + cert.biases]
    for i in range(768):
        v, g = mlp.seeded_loss_param_gradient(
            mlp.primal_pass(cert, xs[i:i + 1]), seeds[i:i + 1],
            _linear_loss(coef_h[i:i + 1], coef_d[i:i + 1]))
        total_value += v
        for acc, part in zip(total, g):
            acc += part
    assert value == pytest.approx(total_value, rel=1e-12)
    for got, want in zip(grads, total):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_softplus_overflow_guard():
    z = np.array([-1000.0, -31.0, 0.0, 31.0, 1000.0])
    vals = mlp.softplus(z)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(0.0, abs=1e-300)
    assert vals[2] == pytest.approx(math.log(2.0))
    assert vals[4] == pytest.approx(1000.0)


def test_nonfinite_inputs_propagate_through_forward():
    z = np.array([np.nan, np.inf, -np.inf])
    vals = mlp.softplus(z)
    assert np.isnan(vals[0]) and vals[1] == np.inf and vals[2] == 0.0
    cert = random_cert([2, 4, 1], seed=6)
    assert math.isnan(mlp.forward(cert, np.array([np.nan, 0.0])))


_CUT = 30.0
_EDGE_VALUES = np.array([
    _CUT, -_CUT,
    np.nextafter(_CUT, np.inf), np.nextafter(_CUT, -np.inf),
    np.nextafter(-_CUT, np.inf), np.nextafter(-_CUT, -np.inf),
    1000.0, -1000.0, np.inf, -np.inf, np.nan, -np.nan,
    0.0, -0.0, 5e-324, -5e-324,
])


@pytest.mark.parametrize("kernel, reference", [
    (mlp.softplus, reference_softplus),
    (mlp.sigmoid, reference_sigmoid),
])
@pytest.mark.parametrize("z", [
    _EDGE_VALUES,
    np.random.default_rng(3).normal(0.0, 10.0, (768, 64)),
    np.asarray(-31.0),
    np.asarray(0.25),
    -0.5,
], ids=["edges", "block", "0d_tail", "0d", "python_float"])
def test_activations_bit_identical_to_reference(kernel, reference, z):
    got = kernel(z)
    want = reference(np.asarray(z, dtype=float))
    assert isinstance(got, np.ndarray) and got.shape == np.shape(z)
    assert got.dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_softplus_is_within_two_ulp_of_the_exact_value():
    # the closed form stays within an ulp; the tails it replaced, switched
    # at |z| = 30, were hundreds of ulp off just below -30
    z = np.concatenate([_EDGE_VALUES[np.isfinite(_EDGE_VALUES)],
                        np.random.default_rng(9).uniform(-45.0, 45.0, 3000)])
    got = mlp.softplus(z)
    worst = 0.0
    for zi, gi in zip(z.tolist(), got.tolist()):
        exact = decimal_softplus(zi)
        worst = max(worst, float(abs(Decimal(gi) - exact)) / math.ulp(float(exact)))
    assert worst <= 2.0


def test_activations_write_into_the_buffers_they_are_given():
    z = np.concatenate([_EDGE_VALUES, np.random.default_rng(4).normal(0.0, 20.0, 48)])
    z = z.reshape(8, 8)
    out = np.full_like(z, 7.0)
    assert mlp.softplus(z, out) is out
    assert np.array_equal(out, mlp.softplus(z), equal_nan=True)


@pytest.mark.parametrize("sizes", [(3, 64, 1), (8, 16, 12, 1), (4, 1)])
def test_input_gradients_equal_the_sweep_from_a_column_of_ones(sizes):
    # the sweep starts from ones((B, 1)) @ w_last, negative zeros included
    cert = random_cert(list(sizes), seed=5)
    w_last = cert.weights[-1].copy()
    w_last[0, ::3] = -0.0
    cert = mlp.MlpCertificate(cert.layer_sizes, cert.weights[:-1] + (w_last,), cert.biases)
    xs = np.random.default_rng(5).standard_normal((40, sizes[0]))
    primal = mlp.primal_pass(cert, xs)
    for first in (0, 25):
        d = np.ones((40 - first, 1))
        for l in range(cert.n_layers - 1, -1, -1):
            if l < cert.n_layers - 1:
                d *= primal.sigs[l][first:]
            d = d @ cert.weights[l]
        got = mlp.primal_input_gradients(primal, first)
        assert np.array_equal(got, d) and np.array_equal(np.signbit(got), np.signbit(d))
