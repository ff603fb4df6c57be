import dataclasses

import numpy as np
import pytest

from cbfcert import dynamics
from cbfcert.dynamics import (GRAVITY, Label, closed_loop_field, dubins_system,
                              make_system, planar_aerial_system,
                              quadruped_system, register_system)
from cbfcert.sampling import sample_uniform


def test_dubins_bounds_verbatim():
    sys_ = dubins_system()
    assert np.all(sys_.state_bounds == np.array([[-2, 2], [-2, 2], [-np.pi, np.pi]]))
    assert sys_.n == 3 and sys_.m == 2


def test_dubins_labels():
    sys_ = dubins_system()
    assert sys_.label([1.8, 1.8, 0.0]) == Label.SAFE
    assert sys_.label([0.0, 0.1, 1.0]) == Label.UNSAFE
    assert sys_.label([1.0, 0.0, 0.0]) == Label.UNLABELED


def test_dubins_heading_zero_moves_along_x():
    sys_ = dubins_system()
    xdot = closed_loop_field(sys_, [[0.5, 0.5, 0.0]], [[1.0, 0.0]])
    assert np.allclose(xdot, [[1.0, 0.0, 0.0]])


def test_dubins_drift_free():
    sys_ = dubins_system()
    x = np.array([[0.3, -1.0, 2.0]])
    assert np.allclose(sys_.f(x), 0.0)
    assert np.allclose(closed_loop_field(sys_, x, np.zeros((1, 2))), sys_.f(x))


def test_aerial_bounds_and_drift():
    sys_ = planar_aerial_system()
    assert np.all(sys_.state_bounds[0] == [-2, 2])
    assert np.all(sys_.state_bounds[2] == [-np.pi, np.pi])
    x = np.array([[0.5, -0.3, 1.2, 0.0, 0.0, 0.0]])
    f = sys_.f(x)[0]
    assert np.allclose(f[3:], [0.0, -GRAVITY, 0.0])


def test_aerial_control_matrix_at_level_attitude():
    sys_ = planar_aerial_system()
    g = sys_.g(np.zeros((1, 6)))[0]
    assert np.allclose(g[3], [0.0, 0.0])
    assert np.allclose(g[4], [1.0, 1.0])
    assert np.allclose(g[5], [1.0, -1.0])


def test_aerial_hover_equilibrium():
    sys_ = planar_aerial_system()
    x = np.array([[0.2, 0.1, 0.0, 0.0, 0.0, 0.0]])
    u = np.array([[GRAVITY / 2.0, GRAVITY / 2.0]])
    assert np.allclose(closed_loop_field(sys_, x, u), 0.0, atol=1e-14)


def test_aerial_label_shell_unlabeled():
    sys_ = planar_aerial_system()
    x = np.array([0.9, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert sys_.label(x) == Label.UNLABELED
    assert sys_.label(np.zeros(6)) == Label.SAFE
    x[0] = 1.5
    assert sys_.label(x) == Label.UNSAFE


def test_quadruped_control_matrix_heading_up():
    sys_ = quadruped_system()
    x = np.zeros(8)
    x[2] = np.pi / 2.0
    x[7] = 0.6
    g = sys_.g(x[None])[0]
    assert np.allclose(g[:, 0], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(g[:, 1], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_quadruped_drift_columns():
    sys_ = quadruped_system(k1=0.0, k2=0.0, kr=0.0)
    x = np.zeros(8)
    x[5], x[6] = 0.3, -0.2
    x[7] = 0.7
    assert np.allclose(sys_.f(x[None])[0], [0, 0, 0, 0.3, -0.2, 0, 0, 0])


def test_quadruped_zero_gains_zero_input_keeps_robot_still():
    sys_ = quadruped_system(k1=0.0, k2=0.0, kr=0.0)
    x = np.array([[0.1, 0.2, 0.5, 1.0, 1.0, 0.1, 0.1, 0.6]])
    xdot = closed_loop_field(sys_, x, np.zeros((1, 2)))
    assert np.allclose(xdot[0, :3], 0.0)


def test_quadruped_gain_passthrough():
    sys_ = quadruped_system(k1=0.5, k2=-0.25, kr=0.1)
    f = sys_.f(np.zeros((1, 8)))[0]
    assert np.allclose(f[5:], [0.5, -0.25, 0.1])


def test_affinity_of_closed_loop_field():
    rng = np.random.default_rng(5)
    for name in ("dubins", "planar_aerial", "quadruped"):
        sys_ = make_system(name)
        x = sample_uniform(sys_.state_bounds, 30, rng)
        u1 = rng.uniform(-1, 1, (30, sys_.m))
        u2 = rng.uniform(-1, 1, (30, sys_.m))
        lam = rng.uniform(size=(30, 1))
        lhs = closed_loop_field(sys_, x, lam * u1 + (1 - lam) * u2)
        rhs = (lam * closed_loop_field(sys_, x, u1)
               + (1 - lam) * closed_loop_field(sys_, x, u2))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_labeler_disjoint_and_inside_domain():
    for name in ("dubins", "planar_aerial", "quadruped"):
        sys_ = make_system(name)
        pts = sample_uniform(sys_.state_bounds, 100_000, np.random.default_rng(2))
        labels = sys_.label_batch(pts)
        # single integer per point by construction; check the label sets
        # cover everything and safe/unsafe samples stay in the domain
        assert set(np.unique(labels)) <= {0, 1, 2}
        marked = pts[labels != Label.UNLABELED]
        assert np.all(sys_.contains(marked))


# one SAFE and one UNSAFE state per system
_LABELED_STATES = {
    "dubins": ([1.8, 1.8, 0.0], [0.0, 0.0, 0.0]),
    "planar_aerial": ([0.0] * 6, [1.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
    "quadruped": ([0, 0, 0, -1.5, 0, 0, 0, 0.5], [0, 0, 0, 1.5, 0, 0, 0, 0.5]),
}


@pytest.mark.parametrize("name, coord", [
    (name, coord) for name, (safe, _) in _LABELED_STATES.items()
    for coord in range(len(safe))])
def test_a_nan_coordinate_is_unlabeled(name, coord):
    sys_ = make_system(name)
    states = np.array(_LABELED_STATES[name], dtype=float)
    assert sys_.label_batch(states).tolist() == [Label.SAFE, Label.UNSAFE]
    poisoned = states.copy()
    poisoned[:, coord] = np.nan
    # the NaN rows beside their clean originals, which keep their labels
    labels = sys_.label_batch(np.vstack([poisoned, states]))
    assert labels.tolist() == [Label.UNLABELED] * 2 + [Label.SAFE, Label.UNSAFE]
    assert sys_.label(poisoned[1]) == Label.UNLABELED


@pytest.mark.parametrize("name", ["dubins", "planar_aerial", "quadruped"])
@pytest.mark.parametrize("count", [1, 7])
def test_batch_contract(name, count):
    sys_ = make_system(name)
    n, m = sys_.n, sys_.m
    pts = sample_uniform(sys_.state_bounds, count, np.random.default_rng(3))
    assert sys_.f(pts).shape == (count, n)
    assert sys_.g(pts).shape == (count, n, m)
    assert sys_.reference_policy(pts).shape == (count, m)
    assert sys_.label_batch(pts).shape == (count,)
    assert sys_.contains(pts).shape == (count,)
    assert closed_loop_field(sys_, pts, np.zeros((count, m))).shape == (count, n)
    # each row is what that state gives on its own
    for i in range(count):
        assert np.array_equal(sys_.f(pts[i:i + 1])[0], sys_.f(pts)[i])
        assert np.array_equal(sys_.g(pts[i:i + 1])[0], sys_.g(pts)[i])


@pytest.mark.parametrize("xs, us", [
    (np.zeros((1, 3)), np.zeros((1, 3))),   # m = 2
    (np.zeros((2, 3)), np.zeros((1, 2))),   # one input row for two states
    (np.zeros(3), np.zeros(2)),             # one state: pass a (1, n) batch
])
def test_dimension_mismatch_raises(xs, us):
    with pytest.raises(ValueError, match="states"):
        closed_loop_field(dubins_system(), xs, us)


def test_make_system_rejects_a_one_state_builder():
    def one_state():
        base = dubins_system()
        return dataclasses.replace(base, reference_policy=lambda x: np.array([1.0, 0.0]))

    register_system("one_state", one_state)
    try:
        with pytest.raises(ValueError,
                           match=r"reference_policy .* shape \(2,\) .* finite \(1, 2\)"):
            make_system("one_state")
    finally:
        dynamics._BUILDERS.pop("one_state")


def test_registry_round_trip_and_unknown():
    assert make_system("dubins").name == "dubins"
    with pytest.raises(KeyError):
        make_system("hovercraft")

    def toy():
        return dubins_system()

    register_system("toy_alias", toy)
    try:
        assert make_system("toy_alias").name == "dubins"
    finally:
        dynamics._BUILDERS.pop("toy_alias")


def test_quadruped_params_forwarded():
    sys_ = make_system("quadruped", k1=0.3, margin=0.5)
    assert np.allclose(sys_.f(np.zeros((1, 8)))[0, 5], 0.3)
