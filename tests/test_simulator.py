import dataclasses
import json

import numpy as np
import pytest

from cbfcert import dynamics, make_system, mlp, simulator
from cbfcert.cli import _write_levelset, _write_trajectory, main
from cbfcert.controller import SafetyFilter
from cbfcert.dynamics import (ControlAffineSystem, GRAVITY, Label, dubins_system,
                              planar_aerial_system, quadruped_system)
from cbfcert.simulator import (Rollout, RolloutStatus, SliceSpec,
                               empirical_safety_rate, levelset_grid, rk4_step,
                               rollout, sample_safe_starts)

from oracles import constraint_coefficients
from toy import analytic_toy_barrier, toy_system


def constant_cert(n, value):
    return mlp.MlpCertificate(
        (n, 2, 1),
        (np.zeros((2, n)), np.zeros((1, 2))),
        (np.zeros(2), np.array([float(value)])),
    )


def zero_dynamics_system():
    base = toy_system()
    return ControlAffineSystem(
        name="frozen", n=1, m=1,
        f=lambda x: np.zeros_like(x),
        g=lambda x: np.zeros((x.shape[0], 1, 1)),
        state_bounds=base.state_bounds, input_bounds=None,
        label_batch=lambda pts: np.zeros(pts.shape[0], dtype=int),
        reference_policy=base.reference_policy,
    )


def test_rk4_zero_field_fixed_point():
    sys_ = zero_dynamics_system()
    x = np.array([0.3])
    assert np.all(rk4_step(sys_, x, np.array([5.0]), 0.1) == x)


def test_rk4_dubins_constant_speed_exact():
    sys_ = dubins_system()
    x = np.array([0.0, 0.0, 0.0])
    nxt = rk4_step(sys_, x, np.array([1.0, 0.0]), 0.1)
    assert nxt[0] == pytest.approx(0.1, abs=1e-15)
    assert nxt[1] == 0.0 and nxt[2] == 0.0


def test_rk4_free_fall_velocity():
    sys_ = planar_aerial_system()
    x = np.zeros(6)
    for _ in range(100):
        x = rk4_step(sys_, x, np.zeros(2), 0.01)
    assert x[4] == pytest.approx(-GRAVITY, abs=1e-6)
    assert x[1] == pytest.approx(-0.5 * GRAVITY, abs=1e-6)


@pytest.mark.parametrize("system", [dubins_system, planar_aerial_system,
                                    quadruped_system, toy_system])
def test_rk4_one_state_is_row_zero_of_the_batch_step(system):
    sys_ = system()
    rng = np.random.default_rng(3)
    xs = sample_safe_starts(sys_, 9, rng)
    us = rng.uniform(-1.0, 1.0, (9, sys_.m))
    batch = rk4_step(sys_, xs, us, 0.02)
    one = rk4_step(sys_, xs[0], us[0], 0.02)
    assert one.shape == (sys_.n,)
    assert np.array_equal(one, batch[0])


@pytest.mark.parametrize("system", [dubins_system, planar_aerial_system,
                                    quadruped_system, toy_system])
def test_rk4_given_its_first_stage_is_bit_identical(system):
    sys_ = system()
    rng = np.random.default_rng(4)
    xs = sample_safe_starts(sys_, 9, rng)
    us = rng.uniform(-1.0, 1.0, (9, sys_.m))
    k1 = dynamics.closed_loop_field(sys_, xs, us)
    assert rk4_step(sys_, xs, us, 0.02, k1).tobytes() == rk4_step(sys_, xs, us, 0.02).tobytes()
    one = rk4_step(sys_, xs[0], us[0], 0.02, k1[0])
    assert one.tobytes() == rk4_step(sys_, xs[0], us[0], 0.02).tobytes()


def test_rk4_requires_positive_dt():
    with pytest.raises(ValueError):
        rk4_step(dubins_system(), np.zeros(3), np.zeros(2), 0.0)


def test_rk4_fourth_order_convergence():
    # constant thrust with spin: trigonometric exact solution
    sys_ = planar_aerial_system()
    u = np.array([3.0, 3.0])
    omega = 1.3
    x0 = np.array([0.0, 0.0, 0.2, 0.0, 0.0, omega])
    s = u[0] + u[1]

    def analytic(t):
        phi0 = x0[2]
        phi = phi0 + omega * t
        # v1' = -s sin(phi), v2' = -g + s cos(phi)
        v1 = (s / omega) * (np.cos(phi) - np.cos(phi0))
        v2 = -GRAVITY * t + (s / omega) * (np.sin(phi) - np.sin(phi0))
        p1 = (s / omega**2) * (np.sin(phi) - np.sin(phi0)) - (s / omega) * np.cos(phi0) * t
        p2 = -0.5 * GRAVITY * t**2 - (s / omega**2) * (np.cos(phi) - np.cos(phi0)) \
            - (s / omega) * np.sin(phi0) * t
        return np.array([p1, p2, phi, v1, v2, omega])

    horizon = 1.0
    errors = []
    for steps in (50, 100, 200):
        dt = horizon / steps
        x = x0.copy()
        for _ in range(steps):
            x = rk4_step(sys_, x, u, dt)
        errors.append(np.linalg.norm(x - analytic(horizon)))
    assert errors[0] / errors[1] >= 8.0
    assert errors[1] / errors[2] >= 8.0


def test_rollout_immediate_unsafe_start():
    sys_ = dubins_system()
    filt = SafetyFilter(certificate=constant_cert(3, 1.0), system=sys_)
    ro = rollout(sys_, filt, np.array([0.0, 0.0, 0.0]), 50, 0.02)
    assert ro.status == RolloutStatus.ENTERED_UNSAFE
    assert ro.states.shape == (1, 3)
    assert ro.inputs.shape == (0, 2)
    assert len(ro.h_values) == 1


def test_rollout_zero_dynamics_constant_trajectory():
    sys_ = zero_dynamics_system()
    filt = SafetyFilter(certificate=constant_cert(1, 1.0), system=sys_)
    ro = rollout(sys_, filt, np.array([0.5]), 20, 0.05)
    assert ro.status == RolloutStatus.COMPLETED
    assert np.all(ro.states == 0.5)


def test_rollout_filter_infeasible_status():
    sys_ = toy_system()
    # constant negative barrier: zero gradient, b > 0, degenerate
    filt = SafetyFilter(certificate=constant_cert(1, -1.0), system=sys_,
                        respect_input_bounds=True)
    ro = rollout(sys_, filt, np.array([0.2]), 10, 0.05)
    assert ro.status == RolloutStatus.FILTER_INFEASIBLE


def test_rollout_domain_exit():
    sys_ = toy_system()
    # high constant barrier: filter passes the reference through, which
    # drives x to the right edge; unsafe label triggers first at 1.5
    filt = SafetyFilter(certificate=constant_cert(1, 5.0), system=sys_,
                        respect_input_bounds=True)
    ro = rollout(sys_, filt, np.array([0.9]), 200, 0.05)
    assert ro.status == RolloutStatus.ENTERED_UNSAFE


def test_empirical_rate_analytic_barrier_is_one():
    sys_ = toy_system()
    filt = SafetyFilter(certificate=analytic_toy_barrier(), system=sys_,
                        respect_input_bounds=True)
    rate, counts, rollouts = empirical_safety_rate(sys_, filt, 1000, 200, 0.02,
                                                   seed=5)
    assert rate == 1.0
    assert counts[RolloutStatus.ENTERED_UNSAFE.value] == 0
    # invariance: h stays above a small tolerance for every rollout
    assert min(float(np.min(r.h_values)) for r in rollouts) > -1e-3


def test_empirical_rate_single_rollout_binary():
    sys_ = toy_system()
    filt = SafetyFilter(certificate=constant_cert(1, 5.0), system=sys_,
                        respect_input_bounds=True)
    rate, counts, _ = empirical_safety_rate(sys_, filt, 1, 400, 0.05, seed=1)
    assert rate in (0.0, 1.0)
    assert sum(counts.values()) == 1


def test_empirical_rate_deterministic():
    sys_ = toy_system()
    filt = SafetyFilter(certificate=analytic_toy_barrier(), system=sys_,
                        respect_input_bounds=True)
    r1 = empirical_safety_rate(sys_, filt, 50, 100, 0.02, seed=9)
    r2 = empirical_safety_rate(sys_, filt, 50, 100, 0.02, seed=9)
    assert r1[0] == r2[0] and r1[1] == r2[1]


def test_safe_starts_labeled_safe():
    sys_ = dubins_system()
    starts = sample_safe_starts(sys_, 500, np.random.default_rng(3))
    assert np.all(sys_.label_batch(starts) == 1)


def test_levelset_constant_certificate():
    spec = SliceSpec(free_axes=(0, 1), fixed_values=(0.0, 0.0, 0.0), resolution=5)
    _, _, grid = levelset_grid(constant_cert(3, 0.7), spec,
                               dubins_system().state_bounds)
    assert grid.shape == (5, 5)
    assert np.allclose(grid, 0.7)


def test_levelset_node_matches_forward():
    cert = mlp.init_certificate([3, 8, 1], seed=2)
    spec = SliceSpec(free_axes=(0, 2), fixed_values=(0.0, 0.4, 0.0), resolution=7)
    v0, v1, grid = levelset_grid(cert, spec, dubins_system().state_bounds)
    state = np.array([v0[3], 0.4, v1[5]])
    assert grid[3, 5] == mlp.forward(cert, state)


def biased_cert(sizes, seed):
    base = mlp.init_certificate(sizes, seed=seed)
    rng = np.random.default_rng(seed)
    return mlp.MlpCertificate(base.layer_sizes, base.weights,
                              tuple(0.3 * rng.standard_normal(b.shape)
                                    for b in base.biases))


@pytest.mark.parametrize("system, sizes, resolution", [
    (dubins_system, [3, 64, 1], 21),
    (quadruped_system, [8, 128, 128, 1], 15),
])
def test_levelset_every_node_matches_forward(system, sizes, resolution):
    sys_ = system()
    cert = biased_cert(sizes, seed=3)
    fixed = tuple(0.5 * (lo + hi) for lo, hi in sys_.state_bounds)
    spec = SliceSpec(free_axes=(0, 1), fixed_values=fixed, resolution=resolution)
    v0, v1, grid = levelset_grid(cert, spec, sys_.state_bounds)
    state = np.array(fixed)
    for i, a in enumerate(v0):
        for j, b in enumerate(v1):
            state[0], state[1] = a, b
            assert grid[i, j] == mlp.forward(cert, state), (i, j)


def test_levelset_evaluates_at_most_one_grid_row_per_call(monkeypatch):
    from cbfcert import simulator

    sizes, workspaces = [], []

    def counted(cert, states, workspace):
        sizes.append(len(states))
        workspaces.append(workspace)
        return mlp._forward(cert, states, workspace)

    monkeypatch.setattr(simulator, "_forward", counted)
    spec = SliceSpec(free_axes=(0, 1), fixed_values=(0.0, 0.0, 0.3), resolution=9)
    levelset_grid(biased_cert([3, 8, 1], seed=4), spec, dubins_system().state_bounds)
    assert sum(sizes) == 81
    assert max(sizes) <= 9
    # the rows share one workspace instead of making one each
    assert isinstance(workspaces[0], mlp.Workspace)
    assert all(w is workspaces[0] for w in workspaces)


def test_levelset_csv_bytes_match_the_scalar_writer(tmp_path):
    from oracles import reference_levelset_to_csv

    sys_ = quadruped_system()
    spec = SliceSpec(free_axes=(2, 7), resolution=13)
    vals0, vals1, grid = levelset_grid(biased_cert([8, 16, 1], seed=5), spec,
                                       sys_.state_bounds)
    grid[0, :3] = [-0.0, 5e-324, 123456789.125]  # a signed zero, a subnormal
    sidecar = {"resolution": 13}
    _write_levelset(tmp_path / "got.csv", vals0, vals1, grid, sidecar)
    reference_levelset_to_csv(vals0, vals1, grid, tmp_path / "ref.csv", sidecar)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_levelset_pure_function_of_inputs():
    cert = mlp.init_certificate([3, 8, 1], seed=4)
    spec = SliceSpec(free_axes=(0, 1), fixed_values=(0.0, 0.0, 0.3), resolution=11)
    bounds = dubins_system().state_bounds
    g1 = levelset_grid(cert, spec, bounds)[2]
    g2 = levelset_grid(cert, spec, bounds)[2]
    assert np.all(g1 == g2)


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec(free_axes=(0, 0), fixed_values=(0.0,), resolution=5)
    with pytest.raises(ValueError):
        SliceSpec(free_axes=(0, 1), fixed_values=(0.0, 0.0), resolution=1)


def test_rollout_records_filter_decisions(tmp_path):
    sys_ = toy_system()
    filt = SafetyFilter(certificate=analytic_toy_barrier(), system=sys_,
                        respect_input_bounds=True)
    ro = rollout(sys_, filt, np.array([0.5]), 40, 0.05)
    assert ro.filter_active.shape[0] == ro.inputs.shape[0]
    assert ro.filter_slack.shape[0] == ro.inputs.shape[0]
    # inactive steps keep the reference and carry positive slack
    assert np.all(ro.filter_slack[~ro.filter_active] > 0)
    path = tmp_path / "traj.csv"
    _write_trajectory(path, ro)
    header = path.read_text().splitlines()[0]
    assert header.endswith("h,constraint_active,constraint_slack")


def lock_step_matches_one_at_a_time(sys_, filt, starts, horizon, dt):
    """Run the starts as one batch and one at a time; the batch must agree
    up to the last-ulp differences of batched BLAS products."""
    batch = rollout(sys_, filt, starts, horizon, dt)
    assert isinstance(batch, list) and len(batch) == len(starts)
    for x0, ro in zip(starts, batch):
        one = rollout(sys_, filt, x0, horizon, dt)
        assert isinstance(one, Rollout)
        assert ro.status == one.status
        assert ro.states.shape == one.states.shape
        assert ro.inputs.shape == one.inputs.shape
        np.testing.assert_allclose(ro.states, one.states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ro.inputs, one.inputs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ro.h_values, one.h_values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ro.filter_slack, one.filter_slack, rtol=0,
                                   atol=1e-12)
        assert np.array_equal(ro.filter_active, one.filter_active)
    return batch


def test_lock_step_matches_one_at_a_time_every_status(tmp_path):
    def steer(xs):
        # a state-dependent reference, so that rows' inputs differ
        return np.stack([np.ones(len(xs)), np.clip(xs[:, 0] * xs[:, 1], -1, 1)],
                        axis=1)

    sys_ = dataclasses.replace(dubins_system(), reference_policy=steer)
    filt = SafetyFilter(certificate=mlp.init_certificate([3, 16, 1], seed=5),
                        system=sys_, respect_input_bounds=True)
    # the origin is unsafe, so that rollout stops at step 0 amid full ones
    starts = np.vstack([np.zeros(3),
                        sample_safe_starts(sys_, 12, np.random.default_rng(5))])
    batch = lock_step_matches_one_at_a_time(sys_, filt, starts, 80, 0.02)
    assert {ro.status for ro in batch} == set(RolloutStatus)
    stopped = batch[0]
    assert stopped.status == RolloutStatus.ENTERED_UNSAFE
    assert stopped.states.shape == (1, 3) and stopped.inputs.shape == (0, 2)
    completed = next(ro for ro in batch if ro.status == RolloutStatus.COMPLETED)
    assert completed.states.shape == (81, 3) and completed.inputs.shape == (80, 2)
    # a rollout that never stepped has the same columns as its siblings
    for ro, inputs in ((stopped, ["u0", "u1"]), (completed, ["u0", "u1"])):
        path = tmp_path / "traj.csv"
        _write_trajectory(path, ro)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows[0] == ["t", "x0", "x1", "x2", *inputs, "h",
                           "constraint_active", "constraint_slack"]
        assert len(rows) == ro.states.shape[0] + 1
        assert rows[-1][4:4 + len(inputs)] == [""] * len(inputs)
        assert rows[-1][-2:] == ["", ""]


def test_lock_step_matches_one_at_a_time_quadruped():
    sys_ = quadruped_system()
    filt = SafetyFilter(certificate=mlp.init_certificate([8, 16, 1], seed=2),
                        system=sys_, respect_input_bounds=True)
    starts = sample_safe_starts(sys_, 12, np.random.default_rng(2))
    batch = lock_step_matches_one_at_a_time(sys_, filt, starts, 80, 0.02)
    assert {RolloutStatus.COMPLETED, RolloutStatus.EXITED_DOMAIN} <= {
        ro.status for ro in batch}


def test_lock_step_matches_one_at_a_time_infeasible_toy():
    sys_ = toy_system()
    filt = SafetyFilter(certificate=constant_cert(1, -1.0), system=sys_,
                        respect_input_bounds=True)
    batch = lock_step_matches_one_at_a_time(
        sys_, filt, np.array([[0.2], [-0.5], [1.8]]), 10, 0.05)
    assert [ro.status for ro in batch] == [RolloutStatus.FILTER_INFEASIBLE] * 2 + [
        RolloutStatus.ENTERED_UNSAFE]


def test_rollout_non_finite_state_names_its_start():
    base = zero_dynamics_system()
    sys_ = ControlAffineSystem(
        name="blowup", n=1, m=1,
        f=lambda x: np.where(x > 0.5, 1e308, 0.0), g=base.g,
        state_bounds=base.state_bounds, input_bounds=None,
        label_batch=base.label_batch, reference_policy=base.reference_policy,
    )
    filt = SafetyFilter(certificate=constant_cert(1, 1.0), system=sys_)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                   match="start 2"):
        rollout(sys_, filt, np.array([[0.1], [0.2], [0.9]]), 5, 0.05)


def test_rollout_to_csv_bytes_match_the_scalar_writer(tmp_path):
    from oracles import reference_rollout_to_csv

    def steer(xs):
        return np.stack([np.ones(len(xs)), np.clip(xs[:, 0] * xs[:, 1], -1, 1)],
                        axis=1)

    sys_ = dataclasses.replace(dubins_system(), reference_policy=steer)
    filt = SafetyFilter(certificate=mlp.init_certificate([3, 16, 1], seed=5),
                        system=sys_, respect_input_bounds=True)
    starts = np.vstack([np.zeros(3),
                        sample_safe_starts(sys_, 12, np.random.default_rng(5))])
    batch = rollout(sys_, filt, starts, 80, 0.02)
    assert {ro.status for ro in batch} == set(RolloutStatus)
    assert batch[0].inputs.shape == (0, 2)   # stopped at step 0
    for i, ro in enumerate(batch):
        got, expected = tmp_path / f"got_{i}.csv", tmp_path / f"ref_{i}.csv"
        _write_trajectory(got, ro)
        reference_rollout_to_csv(ro, expected)
        assert got.read_bytes() == expected.read_bytes()


def test_rollout_takes_h_from_the_filter_and_forwards_only_final_states(monkeypatch):
    calls = []

    def counting_forward(cert, xs):
        calls.append(xs.shape[0])
        return mlp.forward_batch(cert, xs)

    monkeypatch.setattr(simulator, "forward_batch", counting_forward)
    sys_ = dubins_system()
    filt = SafetyFilter(certificate=mlp.init_certificate([3, 16, 1], seed=5),
                        system=sys_, respect_input_bounds=True)
    starts = sample_safe_starts(sys_, 12, np.random.default_rng(5))
    batch = rollout(sys_, filt, starts, 60, 0.02)
    assert calls == [len(starts)]
    for ro in batch:
        np.testing.assert_allclose(ro.h_values, mlp.forward_batch(filt.certificate, ro.states),
                                   rtol=0, atol=1e-12)


def integrator_3d(reference=(2.0, 0.5, -0.3)) -> ControlAffineSystem:
    """xdot = u in R^3 with u in [-1, 1]^3: safe |x|_1 <= 1, unsafe
    |x|_1 > 1.5, and a reference that drives outward, past the box in u0."""
    def label_batch(pts):
        size = np.abs(pts).sum(axis=1)
        return np.where(size <= 1.0, Label.SAFE,
                        np.where(size > 1.5, Label.UNSAFE, Label.UNLABELED))

    return ControlAffineSystem(
        name="integrator_3d", n=3, m=3,
        f=lambda x: np.zeros_like(x),
        g=lambda x: np.broadcast_to(np.eye(3), (x.shape[0], 3, 3)).copy(),
        state_bounds=np.array([[-2.0, 2.0]] * 3),
        input_bounds=np.array([[-1.0, 1.0]] * 3),
        label_batch=label_batch,
        reference_policy=lambda x: np.tile(reference, (x.shape[0], 1)),
    )


def l1_barrier(sharpness=20.0, level=1.4) -> mlp.MlpCertificate:
    """h(x) = level - sum_j (softplus(k x_j) + softplus(-k x_j)) / k, a
    smooth level - |x|_1."""
    k = sharpness
    eye = np.eye(3)
    return mlp.MlpCertificate(
        (3, 6, 1),
        (np.vstack([k * eye, -k * eye]), np.full((1, 6), -1.0 / k)),
        (np.zeros(6), np.array([level])),
    )


def check_three_input_decisions(filt, states, inputs):
    """Every applied input lies in the box, and the constraint holds to
    1e-9 at every state it was applied at."""
    lo, hi = filt.system.input_bounds[:, 0], filt.system.input_bounds[:, 1]
    assert np.all(inputs >= lo) and np.all(inputs <= hi)
    for x, u in zip(states, inputs):
        a, b = constraint_coefficients(filt, x)
        assert float(a @ u) >= b - 1e-9


@pytest.fixture
def registered_integrator_3d():
    dynamics.register_system("integrator_3d", integrator_3d)
    yield
    dynamics._BUILDERS.pop("integrator_3d", None)


def test_three_input_system_rollout_and_simulate(registered_integrator_3d, tmp_path):
    # m = 3, more inputs than any built-in system has
    sys_ = make_system("integrator_3d")
    cert = l1_barrier()
    filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=True)
    starts = sample_safe_starts(sys_, 8, np.random.default_rng(3))
    batch = rollout(sys_, filt, starts, 100, 0.02)
    assert all(ro.status == RolloutStatus.COMPLETED for ro in batch)
    assert sum(int(ro.filter_active.sum()) for ro in batch) > 100
    for ro in batch:
        check_three_input_decisions(filt, ro.states[:-1], ro.inputs)

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(cert, cert_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "system": "integrator_3d", "hidden_layers": [6], "seed": 3,
        "simulation": {"n_rollouts": 4, "horizon_steps": 60, "dt": 0.02},
    }))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["rate"] == 1.0
    for path in sorted(out.glob("trajectory_*.csv")):
        rows = np.array([[float(v) for v in line.split(",")[1:7]]
                         for line in path.read_text().splitlines()[1:-1]])
        check_three_input_decisions(filt, rows[:, :3], rows[:, 3:6])


def steered_dubins():
    def steer(xs):
        return np.stack([np.ones(len(xs)), np.clip(xs[:, 0] * xs[:, 1], -1, 1)],
                        axis=1)

    return dataclasses.replace(dubins_system(), reference_policy=steer)


# (system, certificate, extra starts) for the reference rollout
_REFERENCE_CASES = {
    # the origin is unsafe: a rollout that stops at step 0 amid the others
    "dubins": (steered_dubins, lambda: mlp.init_certificate([3, 16, 1], seed=5),
               [np.zeros(3)]),
    "quadruped": (quadruped_system, lambda: mlp.init_certificate([8, 16, 1], seed=2), []),
    "planar_aerial": (planar_aerial_system,
                      lambda: mlp.init_certificate([6, 16, 1], seed=3), []),
    "integrator_3d": (integrator_3d, l1_barrier, []),
}


@pytest.mark.parametrize("bounded", [True, False])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_rollout_is_bit_identical_to_the_reference_rollout(case, bounded):
    from oracles import reference_rollout

    system, cert, extra = _REFERENCE_CASES[case]
    sys_ = system()
    filt = SafetyFilter(certificate=cert(), system=sys_, respect_input_bounds=bounded)
    starts = np.vstack([*extra, sample_safe_starts(sys_, 24, np.random.default_rng(7))])
    got = rollout(sys_, filt, starts, 80, 0.02)
    want = reference_rollout(sys_, filt, starts, 80, 0.02)
    for ro, ref in zip(got, want, strict=True):
        assert ro.status == ref.status
        for name in ("states", "inputs", "h_values", "filter_active", "filter_slack"):
            assert getattr(ro, name).tobytes() == getattr(ref, name).tobytes(), name
    statuses = {ro.status for ro in got}
    if case == "dubins" and bounded:
        assert statuses == set(RolloutStatus)
    if case == "planar_aerial":
        # domain exit is a failure on this system; the reference must see some
        assert sys_.domain_exit_unsafe and RolloutStatus.EXITED_DOMAIN in statuses


def nan_barrier(n):
    """Finite parameters whose output is inf - inf = NaN at every state."""
    return mlp.MlpCertificate((n, 2, 1), (np.zeros((2, n)), np.array([[1e308, -1e308]])),
                              (np.full(2, 1000.0), np.zeros(1)))


@pytest.mark.parametrize("bounded", [True, False])
@pytest.mark.parametrize("horizon, message", [
    # the origin is unsafe, so rollout 0 stops before the filter sees it
    (5, "non-finite barrier at rollout 1, step 0"),
    # no step is taken: the final states' barrier is checked too
    (0, "non-finite barrier at rollout 0, step 0"),
])
def test_rollout_names_the_first_non_finite_barrier(horizon, message, bounded):
    sys_ = dubins_system()
    filt = SafetyFilter(certificate=nan_barrier(3), system=sys_, respect_input_bounds=bounded)
    starts = np.vstack([np.zeros(3), sample_safe_starts(sys_, 3, np.random.default_rng(1))])
    with pytest.raises(mlp.NumericError, match=f"^{message}$"):
        rollout(sys_, filt, starts, horizon, 0.02)
