import dataclasses

import numpy as np
import pytest

from cbfcert import mlp
from cbfcert.dynamics import (ControlAffineSystem, Label, collision_cone_label,
                              collision_cone_label_batch, dubins_system, make_system,
                              planar_aerial_system)
from cbfcert.sampling import (STREAMS, LabelingMeasureError, build_datasets,
                              rejection_sample_label, sample_uniform, stream)

from oracles import min_distance_constant_velocity, reference_label_codes, reference_sample_uniform


def test_sample_uniform_empty():
    pts = sample_uniform([[-1, 1]], 0, seed=0)
    assert pts.shape == (0, 1)


def test_sample_uniform_statistics():
    pts = sample_uniform([[-2.0, 2.0]] * 3, 100_000, seed=42)
    assert pts.shape == (100_000, 3)
    means = pts.mean(axis=0)
    assert np.all(np.abs(means) < 0.02)
    assert np.all(pts.min(axis=0) < -1.99)
    assert np.all(pts.max(axis=0) > 1.99)


def test_sample_uniform_deterministic():
    a = sample_uniform([[-1, 1], [0, 5]], 1000, seed=7)
    b = sample_uniform([[-1, 1], [0, 5]], 1000, seed=7)
    assert np.all(a == b)


def test_sample_uniform_validates_bounds():
    with pytest.raises(ValueError):
        sample_uniform([[1, 1]], 5, seed=0)
    with pytest.raises(ValueError):
        sample_uniform([[0, 1]], -2, seed=0)


_SEEDS = (0, 1, 5, 17, 101, 211, 2**31 - 1, 2**32 - 1)
_ROUNDS = range(4)


def _state(rng):
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("seed", _SEEDS)
def test_every_stream_a_run_uses_is_distinct(seed):
    # by generator state, not key: numpy pads a key with zeros and splits
    # big ints into 32-bit words, so a new entry (101,) taking no index
    # would be the epochs stream of round 0
    indices = {"epochs": [(r,) for r in _ROUNDS], "tuning": [(r,) for r in _ROUNDS]}
    uses = {(name, index): stream(seed, name, *index)
            for name in STREAMS for index in indices.get(name, [()])}
    for r in _ROUNDS:  # refine's quantify_safety seed, drawn from the tuning stream
        tuning_seed = int(stream(seed, "tuning", r).integers(2**31))
        uses["tuning calibration", r] = stream(tuning_seed, "calibration")
    first_use = {}
    for use, rng in uses.items():
        assert first_use.setdefault(_state(rng), use) == use


@pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32 + 1, 2**64 + 3])
def test_the_init_stream_is_the_generator_of_init_certificate(seed):
    cert = mlp.init_certificate([3, 8, 5, 1], seed=seed)
    rng = stream(seed, "init")
    for w in cert.weights:
        limit = np.sqrt(6.0 / sum(w.shape))
        assert np.array_equal(w, rng.uniform(-limit, limit, size=w.shape))


def test_build_datasets_buckets_correct():
    sys_ = dubins_system()
    ds = build_datasets(sys_, n_safe=300, n_unsafe=100, n_domain=500, seed=3)
    assert ds.sizes() == (300, 100, 500)
    assert np.all(sys_.label_batch(ds.safe) == Label.SAFE)
    assert np.all(sys_.label_batch(ds.unsafe) == Label.UNSAFE)
    assert np.all(np.abs(ds.unsafe[:, 0]) <= 0.2)
    assert np.all(np.abs(ds.unsafe[:, 1]) <= 0.2)
    assert np.all(sys_.contains(ds.domain))


def test_build_datasets_aerial_safe_box():
    sys_ = planar_aerial_system()
    ds = build_datasets(sys_, n_safe=100, n_unsafe=50, n_domain=50, seed=1)
    assert np.all(np.abs(ds.safe[:, 0]) <= 0.8)
    assert np.all(np.abs(ds.safe[:, 1]) <= 0.8)


def test_build_datasets_reproducible():
    sys_ = make_system("quadruped")
    d1 = build_datasets(sys_, 50, 50, 50, seed=11)
    d2 = build_datasets(sys_, 50, 50, 50, seed=11)
    for a, b in ((d1.safe, d2.safe), (d1.unsafe, d2.unsafe), (d1.domain, d2.domain)):
        assert np.all(a == b)


def test_rejection_stall_raises():
    base = dubins_system()
    degenerate = ControlAffineSystem(
        name="degenerate", n=3, m=2, f=base.f, g=base.g,
        state_bounds=base.state_bounds, input_bounds=base.input_bounds,
        label_batch=lambda pts: np.zeros(pts.shape[0], dtype=int),
        reference_policy=base.reference_policy,
    )
    with pytest.raises(LabelingMeasureError):
        build_datasets(degenerate, 10, 10, 10, seed=0)


def test_collision_cone_head_on_unsafe():
    # robot at origin heading +x at speed 1, obstacle dead ahead, stationary
    state = np.array([0, 0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.5])
    assert collision_cone_label(state) == Label.UNSAFE


def test_collision_cone_lateral_safe():
    state = np.array([0, 0, 0.0, 0.0, 1.9, 0.0, 0.0, 0.5])
    assert collision_cone_label(state, margin=0.2) == Label.SAFE


def test_collision_cone_boundary_inclusive_unsafe():
    # |p| == r exactly
    state = np.array([0, 0, 0.0, 0.5, 0.0, 1.0, 0.0, 0.5])
    assert collision_cone_label(state) == Label.UNSAFE


def test_collision_cone_oracle_equivalence_10k():
    sys_ = make_system("quadruped")
    pts = sample_uniform(sys_.state_bounds, 10_000, seed=9)
    # robot at the origin heading +x at the nominal speed 1 and a still
    # obstacle of radius 0.5, so v_rel = (-1, 0) where vo = (0, 0)
    edge = np.array([
        [np.nan, 0, 0, 1.0, 0.0, 0.0, 0.0, 0.5],   # NaN distance: never labeled
        [0, 0, 0, 1.0, np.nan, 0.0, 0.0, 0.5],
        [0, 0, 0, 1.0, 0.3, 1.0, 0.0, 0.5],        # zero relative velocity:
        [0, 0, 0, 0.6, 0.0, 1.0, 0.0, 0.5],        # the distance decides
        [0, 0, 0, 0.5, 0.0, 1.0, 0.0, 0.5],        # dist = r, not closing
        [0, 0, 0, 0.0, -0.5, 0.0, 0.0, 0.5],       # dist = r, closing
        [0, 0, 0, 1.5, 0.5 + 0.2, 0.0, 0.0, 0.5],  # miss = r + margin
        [0, 0, 0, 1.5, -(0.5 + 0.2), 0.0, 0.0, 0.5],
    ])
    want = [Label.UNLABELED, Label.UNLABELED, Label.SAFE, Label.UNLABELED,
            Label.UNSAFE, Label.UNSAFE, Label.SAFE, Label.SAFE]
    pts = np.concatenate([pts, edge])
    labels = collision_cone_label_batch(pts, nominal_speed=1.0, margin=0.2)
    assert labels[-len(edge):].tolist() == want
    p = pts[:, 3:5] - pts[:, 0:2]
    v_rel = np.stack([pts[:, 5] - np.cos(pts[:, 2]),
                      pts[:, 6] - np.sin(pts[:, 2])], axis=1)
    for i in range(pts.shape[0]):
        dmin = min_distance_constant_velocity(p[i], v_rel[i])
        if labels[i] == Label.UNSAFE:
            assert dmin <= pts[i, 7] + 1e-12
        elif labels[i] == Label.SAFE:
            assert dmin >= pts[i, 7] + 0.2 - 1e-12


def fixed_chunk_rejection_sample(sys_, want_label, count, rng):
    """Rejection sampling in chunks of max(4096, 2 count) rows each, the
    first one included: the draw a resized chunk must not change."""
    chunk, kept, got = max(4096, 2 * count), [], 0
    while got < count:
        pts = sample_uniform(sys_.state_bounds, chunk, rng)
        keep = pts[sys_.label_batch(pts) == want_label][:count - got]
        kept.append(keep)
        got += len(keep)
    return np.concatenate(kept)


@pytest.mark.parametrize("label", list(Label), ids=[label.name for label in Label])
@pytest.mark.parametrize("name", ["dubins", "quadruped"])
def test_chunk_sizes_change_no_draw(name, label):
    sys_ = make_system(name)
    for count in (1, 4, 10, 600, 6700):
        got = rejection_sample_label(sys_, label, count, stream(count, "safe"))
        want = fixed_chunk_rejection_sample(sys_, label, count, stream(count, "safe"))
        assert got.tobytes() == want.tobytes(), count


@pytest.mark.parametrize("name", ["dubins", "quadruped"])
def test_four_starts_label_at_most_64_rows(name):
    base = make_system(name)
    labeled = []

    def counting(pts):
        labeled.append(len(pts))
        return base.label_batch(pts)

    sys_ = dataclasses.replace(base, label_batch=counting)
    starts = rejection_sample_label(sys_, Label.SAFE, 4, stream(0, "rollout_starts"))
    assert np.all(base.label_batch(starts) == Label.SAFE)
    assert sum(labeled) <= 64


@pytest.mark.parametrize("name", ["dubins", "planar_aerial", "quadruped"])
def test_draws_and_labels_keep_the_bits_of_fresh_array_formulas(name, monkeypatch):
    # every draw a run makes, and labels of NaN and +-inf rows, with the
    # package's in-place formulas and then with the oracles' fresh arrays
    from cbfcert import certificate, controller, dynamics, sampling, simulator

    sys_ = make_system(name)
    cert = mlp.init_certificate([sys_.n, 8, 1], seed=1)
    filt = controller.SafetyFilter(certificate=cert, system=sys_)
    base = sample_uniform(sys_.state_bounds, 3, seed=4)
    odd = [base]
    for value in (np.nan, np.inf, -np.inf):
        for coord in range(sys_.n):
            row = base.copy()
            row[:, coord] = value
            odd.append(row)
    pts = np.vstack([sample_uniform(sys_.state_bounds, 500, seed=5), *odd])

    def draws():
        data = build_datasets(sys_, 300, 300, 300, seed=2)
        with np.errstate(invalid="ignore"):   # cos(inf) in the quadruped labeler
            labels = sys_.label_batch(pts)
        return [data.safe, data.unsafe, data.domain,
                simulator.sample_safe_starts(sys_, 10, stream(0, "rollout_starts")),
                sampling.sample_uniform(sys_.state_bounds, 1100, stream(3, "calibration")),
                certificate.verification_scores(cert, sys_, filt, 1100, seed=3), labels]

    got = draws()
    monkeypatch.setattr(sampling, "sample_uniform", reference_sample_uniform)
    monkeypatch.setattr(certificate, "sample_uniform", reference_sample_uniform)
    monkeypatch.setattr(dynamics, "_label_codes", reference_label_codes)
    want = draws()
    assert got[-1].dtype == np.int64
    for i, (g, w) in enumerate(zip(got, want, strict=True)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), i
