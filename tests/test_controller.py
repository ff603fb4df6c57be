import dataclasses

import numpy as np
import pytest

from cbfcert import controller, mlp
from cbfcert.controller import (InfeasibleFilterError, SafetyFilter, decide, filter_batch,
                                filter_input, _batch_box)
from cbfcert.dynamics import dubins_system, planar_aerial_system, quadruped_system
from cbfcert.sampling import sample_uniform

from oracles import (_solve_box, _solve_unbounded, constraint_coefficients,
                     exact_box_qp, grid_qp_best)


def constant_cert(n, value):
    return mlp.MlpCertificate(
        (n, 2, 1),
        (np.zeros((2, n)), np.zeros((1, 2))),
        (np.zeros(2), np.array([float(value)])),
    )


def box_row(u_ref, a, b, lo, hi):
    """(u, slack, active, feasible) of the package's box stage on the
    one-row batch."""
    out = _batch_box(np.asarray(u_ref, dtype=float)[None], np.asarray(a, dtype=float)[None],
                     np.array([float(b)]), np.asarray(lo, dtype=float),
                     np.asarray(hi, dtype=float))
    return tuple(v[0] for v in out)


def linear_cert(w, c=0.0):
    w = np.asarray(w, dtype=float)
    return mlp.MlpCertificate((w.size, 1), (w[None, :],), (np.array([float(c)]),))


def test_coefficients_constant_certificate():
    sys_ = dubins_system()
    filt = SafetyFilter(certificate=constant_cert(3, 0.9), system=sys_,
                        kappa_gain=2.0)
    a, b = constraint_coefficients(filt, np.array([0.3, 0.4, 1.0]))
    assert np.allclose(a, 0.0)
    assert b == pytest.approx(-1.8)


def test_coefficients_linear_certificate_dubins():
    sys_ = dubins_system()
    w = np.array([0.5, -0.3, 0.8])
    x = np.array([0.4, 0.2, 0.0])
    filt = SafetyFilter(certificate=linear_cert(w), system=sys_, kappa_gain=1.5)
    a, b = constraint_coefficients(filt, x)
    assert np.allclose(a, [w[0], w[2]])
    assert b == pytest.approx(-1.5 * float(w @ x))


def test_coefficients_aerial_thrust_columns():
    sys_ = planar_aerial_system()
    # barrier depending only on vertical velocity: h = x[4]
    w = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    filt = SafetyFilter(certificate=linear_cert(w), system=sys_)
    x = np.zeros(6)
    a, _ = constraint_coefficients(filt, x)
    assert np.allclose(a, [1.0, 1.0])   # both motors push vertical at phi=0


def test_reference_returned_when_constraint_inactive():
    sys_ = dubins_system()
    filt = SafetyFilter(certificate=constant_cert(3, 2.0), system=sys_)
    x = np.array([1.8, 0.0, 0.0])
    u = filter_input(filt, x)
    assert np.all(u == sys_.reference_policy(x[None])[0])


def test_axis_aligned_projection():
    u, slack, active, feasible = _solve_unbounded(
        np.zeros(2), np.array([1.0, 0.0]), 1.0, None)
    assert np.allclose(u, [1.0, 0.0])
    assert slack == 0.0 and active and feasible


def test_vertex_solution_under_box():
    # hyperplane misses the box interior; nearest feasible point is a vertex
    u, slack, active, feasible = box_row(
        np.zeros(2), np.array([1.0, 1.0]), 2.0,
        np.zeros(2), np.ones(2))
    assert np.allclose(u, [1.0, 1.0])
    assert feasible and active
    dist, point = grid_qp_best(np.zeros(2), np.array([1.0, 1.0]), 2.0,
                               np.zeros(2), np.ones(2))
    assert np.linalg.norm(u) <= dist + 1e-9


def test_degenerate_gradient_raises():
    sys_ = dubins_system()
    filt = SafetyFilter(certificate=constant_cert(3, -0.5), system=sys_)
    with pytest.raises(InfeasibleFilterError):
        filter_input(filt, np.array([1.0, 1.0, 0.0]))


def test_box_infeasible_raises():
    u_ref = np.zeros(2)
    a = np.array([1.0, 0.0])
    _, _, _, feasible = box_row(u_ref, a, 5.0, np.zeros(2), np.ones(2))
    assert not feasible


@pytest.mark.parametrize("m", [1, 2, 3])
def test_box_nan_constraint_is_binding_and_infeasible(m):
    _, slack, active, feasible = box_row(np.zeros(m), np.ones(m), float("nan"),
                                         -np.ones(m), np.ones(m))
    assert np.isnan(slack) and active and not feasible


def test_box_m1_point_solution():
    u, slack, active, feasible = box_row(
        np.array([0.0]), np.array([2.0]), 1.0, np.array([-1.0]), np.array([1.0]))
    assert feasible and active
    assert np.allclose(u, [0.5])
    assert slack == 0.0


def test_feasibility_and_minimality_against_grid_oracle():
    rng = np.random.default_rng(123)
    checked = 0
    infeasible_agree = 0
    while checked < 1000:
        a = rng.uniform(-2, 2, size=2)
        if rng.random() < 0.1:
            a[rng.integers(2)] = 0.0
        lo = rng.uniform(-2, 0, size=2)
        hi = lo + rng.uniform(0.5, 3.0, size=2)
        u_ref = rng.uniform(lo - 1.0, hi + 1.0)
        b = float(rng.uniform(-3, 3))
        u, slack, active, feasible = box_row(u_ref, a, b, lo, hi)
        cell = np.linalg.norm((hi - lo) / 200.0)
        dist_grid, _ = grid_qp_best(u_ref, a, b, lo, hi, resolution=201)
        if not feasible:
            # the grid may find nothing either, or only boundary-grazing
            # cells; exact infeasibility implies no interior grid point
            if dist_grid is None:
                infeasible_agree += 1
            else:
                # feasible set must be thinner than one grid cell
                assert float(a @ _project(u_ref, a, b)) >= b - 1e-9
            checked += 1
            continue
        # box feasibility exact, constraint within 1e-9
        assert np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12)
        assert float(a @ u) >= b - 1e-9
        if dist_grid is not None:
            assert np.linalg.norm(u - u_ref) <= dist_grid + cell + 1e-9
        checked += 1
    assert infeasible_agree > 0


def _project(u_ref, a, b):
    norm_sq = float(a @ a)
    if norm_sq == 0.0:
        return u_ref
    return u_ref + max(0.0, (b - float(a @ u_ref))) / norm_sq * a


def test_idempotence_on_strictly_feasible_output():
    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 8, 1], seed=6)
    filt = SafetyFilter(certificate=cert, system=sys_)
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3)])
        a, b = constraint_coefficients(filt, x)
        try:
            u1 = filter_input(filt, x)
        except InfeasibleFilterError:
            continue
        if float(a @ u1) <= b + 1e-9:
            continue   # constraint active: slack not strict
        filt2 = SafetyFilter(certificate=cert, system=dataclasses.replace(
            sys_, reference_policy=lambda xs, u1=u1: u1[None]))
        assert np.allclose(filter_input(filt2, x), u1)


def test_batch_matches_scalar_decisions(monkeypatch):
    # filter_batch against the one-state references in oracles: flags
    # exactly, inputs and slack to 1e-12 (the batch forms a and b with
    # einsum, the reference with 1-D products). Given the very rows of a and
    # b the batch formed, the box stage's slack is the per-state solve's bit
    # for bit, sign of zero included. planar_aerial's hover reference is
    # generic, so its a.u is a true two-term product.
    box_args = []

    def recording_box(*args):
        box_args[:] = args
        return _batch_box(*args)

    monkeypatch.setattr(controller, "_batch_box", recording_box)
    seen = {"active": 0, "infeasible": 0, "capped": 0}
    for system, layers in ((dubins_system, [3, 10, 1]),
                           (quadruped_system, [8, 32, 32, 1]),
                           (planar_aerial_system, [6, 16, 16, 1])):
        sys_ = system()
        lo, hi = sys_.input_bounds[:, 0], sys_.input_bounds[:, 1]
        cert = mlp.init_certificate(layers, seed=11)
        xs = sample_uniform(sys_.state_bounds, 400, np.random.default_rng(2))
        for bounds in (False, True):
            for cap in (None, 1e3, 0.05):
                filt = SafetyFilter(certificate=cert, system=sys_,
                                    respect_input_bounds=bounds, correction_cap=cap)
                fb = filter_batch(filt, xs)
                for i, x in enumerate(xs):
                    a, b = constraint_coefficients(filt, x)
                    u_ref = sys_.reference_policy(x[None])[0]
                    u, slack, active, feasible = (
                        _solve_box(u_ref, a, b, lo, hi) if bounds
                        else _solve_unbounded(u_ref, a, b, cap))
                    assert active == fb.active[i] and feasible == fb.feasible[i]
                    assert np.allclose(u, fb.inputs[i], rtol=1e-12, atol=1e-12)
                    assert np.allclose(slack, fb.slack[i], rtol=1e-12, atol=1e-12)
                    if bounds:
                        refs, a_rows, b_rows = box_args[:3]
                        u, slack, active, feasible = _solve_box(refs[i], a_rows[i],
                                                                b_rows[i], lo, hi)
                        assert active == fb.active[i] and feasible == fb.feasible[i]
                        assert np.allclose(u, fb.inputs[i], rtol=1e-12, atol=1e-12)
                        assert np.float64(slack).tobytes() == fb.slack[i].tobytes()
                seen["active"] += int(fb.active.sum())
                seen["infeasible"] += int((~fb.feasible).sum())
                seen["capped"] += int((fb.feasible & (fb.slack < 0)).sum())
    assert min(seen.values()) > 0


@pytest.mark.parametrize("m", [1, 3, 4])
def test_box_stage_matches_exact_kkt_for_any_input_count(m):
    # random box QPs with m inputs against the rational-arithmetic oracle:
    # feasibility agrees, inputs within 1e-12, the box holds exactly and
    # the constraint within 1e-9
    rng = np.random.default_rng(40 + m)
    counts = {True: 0, False: 0}
    for _ in range(1500):
        a = rng.uniform(-2, 2, size=m)
        if rng.random() < 0.1:
            a[rng.integers(m)] = 0.0
        lo = rng.uniform(-2, 0, size=m)
        hi = lo + rng.uniform(0.5, 3.0, size=m)
        u_ref = rng.uniform(lo - 1.0, hi + 1.0)
        b = float(rng.uniform(-3, 3) * m)
        u, slack, active, feasible = box_row(u_ref, a, b, lo, hi)
        exact, exact_feasible = exact_box_qp(u_ref, a, b, lo, hi)
        assert feasible == exact_feasible
        counts[bool(active and feasible)] += 1
        assert np.all(u >= lo) and np.all(u <= hi)
        if feasible:
            assert np.max(np.abs(u - np.array([float(v) for v in exact]))) <= 1e-12
            assert float(a @ u) >= b - 1e-9
    assert min(counts.values()) > 100


@pytest.mark.parametrize("system, layers", [
    (dubins_system, [3, 16, 1]),
    (quadruped_system, [8, 32, 32, 1]),
], ids=["dubins", "quadruped"])
@pytest.mark.parametrize("bounds", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("count", [1, 5000])
@pytest.mark.parametrize("scale", [1.0, 30.0], ids=["glorot", "first_layer_x30"])
def test_filter_batch_h_is_the_forward_value(system, layers, bounds, count, scale):
    # score_states takes h from the filter instead of forwarding again, so
    # it must be the very bits forward_batch gives; scaled first-layer
    # weights put pre-activations on both sides of |z| = 30
    sys_ = system()
    cert = mlp.init_certificate(layers, seed=count)
    cert = mlp.MlpCertificate(cert.layer_sizes, (scale * cert.weights[0],) + cert.weights[1:],
                              cert.biases)
    filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=bounds)
    xs = sample_uniform(sys_.state_bounds, count, np.random.default_rng(count + 1))
    if scale > 1.0:
        z = np.abs(xs @ cert.weights[0].T)
        assert np.any(z > 30.0) and np.any(z < 30.0)
    h = filter_batch(filt, xs).h
    assert h.shape == (count,)
    assert np.array_equal(h, mlp.forward_batch(cert, xs))


@pytest.mark.parametrize("bounds", [False, True])
def test_reference_must_give_one_input_row_per_state(bounds):
    sys_ = dataclasses.replace(dubins_system(), reference_policy=lambda xs: np.array([1.0, 0.0]))
    filt = SafetyFilter(certificate=constant_cert(3, 1.0), system=sys_,
                        respect_input_bounds=bounds)
    with pytest.raises(ValueError, match="reference_policy"):
        filter_input(filt, np.zeros(3))


@pytest.mark.parametrize("cap", [-1.0, 0.0, float("nan"), float("inf"), "abc", True])
def test_correction_cap_must_be_positive_and_finite(cap):
    with pytest.raises(ValueError, match="correction_cap"):
        SafetyFilter(certificate=constant_cert(3, 1.0), system=dubins_system(),
                     correction_cap=cap)


@pytest.mark.parametrize("gain", [-1.0, 0.0, float("nan"), float("inf"), "abc", True])
def test_kappa_gain_must_be_positive_and_finite(gain):
    # a NaN or infinite gain makes a NaN or infinite slack that reads as feasible
    with pytest.raises(ValueError, match="kappa_gain"):
        SafetyFilter(certificate=constant_cert(3, 1.0), system=dubins_system(),
                     kappa_gain=gain)


def test_spec_names_every_field_but_the_certificate_and_the_system():
    # what a certificate's guarantee is conditional on: a field added to
    # the filter joins the spec, and so the certificate's record, unasked
    filt = SafetyFilter(certificate=constant_cert(3, 1.0), system=dubins_system(),
                        kappa_gain=2.5, respect_input_bounds=True, correction_cap=7.0)
    names = [f.name for f in dataclasses.fields(SafetyFilter)]
    assert list(filt.spec) == [n for n in names if n not in ("certificate", "system")]
    assert filt.spec == {"kappa_gain": 2.5, "respect_input_bounds": True,
                         "correction_cap": 7.0}
    assert dataclasses.replace(filt, certificate=constant_cert(3, -1.0)).spec == filt.spec


@pytest.mark.parametrize("bounds", [False, True])
def test_filter_batch_rejects_one_state(bounds):
    # one state is the B=1 view's job; the batch path names the shape it wants
    filt = SafetyFilter(certificate=constant_cert(3, 1.0), system=dubins_system(),
                        respect_input_bounds=bounds)
    with pytest.raises(mlp.ShapeError, match=r"\(B, 3\)"):
        filter_batch(filt, np.zeros(3))
    assert np.array_equal(filter_input(filt, np.zeros(3)),
                          filter_batch(filt, np.zeros((1, 3))).inputs[0])


def overflowing_cert():
    """Finite parameters whose barrier overflows at every state: two
    hidden units of 1000 meet output weights of +-1e308."""
    return mlp.MlpCertificate((3, 2, 1), (np.zeros((2, 3)), np.array([[1e308, -1e308]])),
                              (np.full(2, 1000.0), np.zeros(1)))


@pytest.mark.parametrize("bounds", [False, True])
def test_non_finite_barrier_is_infeasible_and_filter_input_names_its_state(bounds):
    filt = SafetyFilter(certificate=overflowing_cert(), system=dubins_system(),
                        respect_input_bounds=bounds)
    x = np.array([1.8, 1.8, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        batch = filt.batch_decide(np.vstack([x, x]))
    assert not np.any(np.isfinite(batch.h))
    assert not np.any(batch.feasible)
    # filter_input raises, and no numpy warning escapes it
    with pytest.raises(mlp.NumericError,
                       match=r"^non-finite barrier constraint at state \[1\.8 1\.8 0\. \]$"):
        filter_input(filt, x)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("term, index", [
    ("h", (1,)), ("grads", (1, 0)), ("f", (1, 1)), ("g", (1, 0, 0)), ("refs", (1, 1))])
@pytest.mark.parametrize("bounds, cap", [(False, None), (False, 0.05), (True, None)])
def test_decide_marks_a_row_with_a_non_finite_term_infeasible(term, index, value, bounds,
                                                              cap):
    # barrier value, gradient, drift, input matrix and reference make h,
    # the constraint (a, b) and the input; row 1 alone is spoilt
    base = dubins_system()
    cert = mlp.init_certificate([3, 16, 1], seed=5)
    xs = sample_uniform(base.state_bounds, 6, np.random.default_rng(3))
    h, grads = mlp.values_and_input_gradients(cert, xs)
    terms = {"h": h, "grads": grads, "f": base.f(xs), "g": base.g(xs),
             "refs": base.reference_policy(xs)}
    sys_ = dataclasses.replace(base, reference_policy=lambda _: terms["refs"])
    filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=bounds,
                        correction_cap=cap)

    def run():
        return decide(filt, xs, terms["h"], terms["grads"], terms["f"], terms["g"])

    clean = run()
    terms[term] = terms[term].copy()
    terms[term][index] = value
    with np.errstate(over="ignore", invalid="ignore"):
        spoilt = run()
    # what filter_input reads to tell a non-finite row from an infeasible one
    finite = np.isfinite(spoilt.slack[1]) and np.all(np.isfinite(spoilt.inputs[1]))
    if bounds and term == "refs" and not np.isnan(value):
        # the box clips an infinite reference to a bound: a finite input
        assert finite
    else:
        assert not spoilt.feasible[1] and not finite
    rest = np.arange(6) != 1
    for field in ("inputs", "slack", "active", "feasible"):
        assert getattr(spoilt, field)[rest].tobytes() == getattr(clean, field)[rest].tobytes()


def test_correction_cap_limits_magnitude_and_reports_violation():
    u, slack, active, feasible = _solve_unbounded(
        np.zeros(2), np.array([1e-3, 0.0]), 1.0, cap=10.0)
    assert np.linalg.norm(u) <= 10.0 + 1e-12
    assert active and feasible
    assert slack < 0   # residual violation is reported honestly


@pytest.mark.parametrize("system, layers", [
    (dubins_system, [3, 16, 1]),
    (quadruped_system, [8, 32, 32, 1]),
], ids=["dubins", "quadruped"])
def test_box_bounded_filter_ignores_correction_cap(system, layers):
    # documented behaviour: only the unbounded filter reads the cap, so a
    # bounded training filter decides alike with and without one
    sys_ = system()
    cert = mlp.init_certificate(layers, seed=6)
    xs = sample_uniform(sys_.state_bounds, 2000, np.random.default_rng(7))
    # centre h on the sample, so that some constraints bind
    shift = np.median(mlp.forward_batch(cert, xs))
    cert = mlp.MlpCertificate(cert.layer_sizes, cert.weights,
                              cert.biases[:-1] + (cert.biases[-1] - shift,))
    uncapped, capped = (filter_batch(SafetyFilter(certificate=cert, system=sys_,
                                                  respect_input_bounds=True,
                                                  correction_cap=cap), xs)
                        for cap in (None, 0.05))
    assert np.any(uncapped.active)
    for field in ("inputs", "slack", "active", "feasible", "h"):
        assert getattr(uncapped, field).tobytes() == getattr(capped, field).tobytes(), field
    # the same cap binds on the unbounded filter
    free = filter_batch(SafetyFilter(certificate=cert, system=sys_, correction_cap=0.05), xs)
    sizes = np.linalg.norm(free.inputs - sys_.reference_policy(xs), axis=1)
    assert np.max(sizes) <= 0.05 + 1e-12 and np.any(sizes >= 0.05 - 1e-12)
