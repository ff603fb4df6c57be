import numpy as np
import pytest

from cbfcert import mlp
from cbfcert.controller import (InfeasibleFilterError, SafetyFilter, filter_batch,
                                filter_input, _solve_box)
from cbfcert.dynamics import dubins_system, planar_aerial_system, quadruped_system
from cbfcert.sampling import sample_uniform

from oracles import _solve_unbounded, constraint_coefficients, grid_qp_best


def constant_cert(n, value):
    return mlp.MlpCertificate(
        (n, 2, 1),
        (np.zeros((2, n)), np.zeros((1, 2))),
        (np.zeros(2), np.array([float(value)])),
    )


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
    assert np.all(u == sys_.reference_policy(x))


def test_axis_aligned_projection():
    u, slack, active, feasible = _solve_unbounded(
        np.zeros(2), np.array([1.0, 0.0]), 1.0, None)
    assert np.allclose(u, [1.0, 0.0])
    assert slack == 0.0 and active and feasible


def test_vertex_solution_under_box():
    # hyperplane misses the box interior; nearest feasible point is a vertex
    u, slack, active, feasible = _solve_box(
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
    _, _, _, feasible = _solve_box(u_ref, a, 5.0, np.zeros(2), np.ones(2))
    assert not feasible


def test_box_m1_point_solution():
    u, slack, active, feasible = _solve_box(
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
        u, slack, active, feasible = _solve_box(u_ref, a, b, lo, hi)
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
        filt2 = SafetyFilter(certificate=cert, system=sys_,
                             reference_policy=lambda _x, u1=u1: u1)
        assert np.allclose(filter_input(filt2, x), u1)


def test_batch_matches_scalar_decisions():
    # filter_batch against the one-state references in oracles: flags
    # exactly, inputs and slack to 1e-12 (the batch forms a and b with
    # einsum, the reference with 1-D products)
    seen = {"active": 0, "infeasible": 0, "capped": 0}
    for system, layers in ((dubins_system, [3, 10, 1]),
                           (quadruped_system, [8, 32, 32, 1])):
        sys_ = system()
        lo, hi = sys_.input_bounds[:, 0], sys_.input_bounds[:, 1]
        cert = mlp.init_certificate(layers, seed=11)
        xs = sample_uniform(sys_.state_bounds, 400, seed=2)
        for bounds in (False, True):
            for cap in (None, 1e3, 0.05):
                filt = SafetyFilter(certificate=cert, system=sys_,
                                    respect_input_bounds=bounds, correction_cap=cap)
                fb = filter_batch(filt, xs)
                for i, x in enumerate(xs):
                    a, b = constraint_coefficients(filt, x)
                    u_ref = np.asarray(filt.reference_policy(x), dtype=float)
                    u, slack, active, feasible = (
                        _solve_box(u_ref, a, b, lo, hi) if bounds
                        else _solve_unbounded(u_ref, a, b, cap))
                    assert active == fb.active[i] and feasible == fb.feasible[i]
                    assert np.allclose(u, fb.inputs[i], rtol=1e-12, atol=1e-12)
                    assert np.allclose(slack, fb.slack[i], rtol=1e-12, atol=1e-12)
                seen["active"] += int(fb.active.sum())
                seen["infeasible"] += int((~fb.feasible).sum())
                seen["capped"] += int((fb.feasible & (fb.slack < 0)).sum())
    assert min(seen.values()) > 0


@pytest.mark.parametrize("system, layers", [
    (dubins_system, [3, 16, 1]),
    (quadruped_system, [8, 32, 32, 1]),
], ids=["dubins", "quadruped"])
@pytest.mark.parametrize("bounds", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("count", [1, 5000])
def test_filter_batch_h_is_the_forward_value(system, layers, bounds, count):
    # score_states takes h from the filter instead of forwarding again, so
    # it must be the very bits forward_batch gives
    sys_ = system()
    cert = mlp.init_certificate(layers, seed=count)
    filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=bounds)
    xs = sample_uniform(sys_.state_bounds, count, seed=count + 1)
    h = filter_batch(filt, xs).h
    assert h.shape == (count,)
    assert np.array_equal(h, mlp.forward_batch(cert, xs))


@pytest.mark.parametrize("cap", [-1.0, 0.0, float("nan"), float("inf"), "abc", True])
def test_correction_cap_must_be_positive_and_finite(cap):
    with pytest.raises(ValueError, match="correction_cap"):
        SafetyFilter(certificate=constant_cert(3, 1.0), system=dubins_system(),
                     correction_cap=cap)


def test_correction_cap_limits_magnitude_and_reports_violation():
    u, slack, active, feasible = _solve_unbounded(
        np.zeros(2), np.array([1e-3, 0.0]), 1.0, cap=10.0)
    assert np.linalg.norm(u) <= 10.0 + 1e-12
    assert active and feasible
    assert slack < 0   # residual violation is reported honestly
