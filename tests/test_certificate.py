import numpy as np
import pytest

from cbfcert import certificate, mlp
from cbfcert.certificate import (ConformalReport, EmptyBucketError,
                                 InsufficientSamplesError, InvalidAlphaError,
                                 LossWeights, conformal_quantile, epsilon_for,
                                 quantify_safety, quantile_index, score_states,
                                 total_loss, total_loss_and_gradient)
from cbfcert.controller import SafetyFilter
from cbfcert.dynamics import dubins_system, quadruped_system
from cbfcert.sampling import TrainingDatasets, build_datasets

from oracles import betainc_quadrature, reference_score_states, violation_terms


def constant_cert(n, value):
    return mlp.MlpCertificate(
        (n, 2, 1),
        (np.zeros((2, n)), np.zeros((1, 2))),
        (np.zeros(2), np.array([float(value)])),
    )


def linear_cert(w, c=0.0):
    w = np.asarray(w, dtype=float)
    return mlp.MlpCertificate((w.size, 1), (w[None, :],), (np.array([float(c)]),))


def test_violation_terms_constant_positive_on_safe_point():
    sys_ = dubins_system()
    cert = constant_cert(3, 0.8)
    weights = LossWeights(kappa_gain=1.0)
    terms = violation_terms(cert, sys_, np.array([0.5, 0.0]),
                            np.array([1.8, 1.8, 0.0]), weights)
    assert terms.q1 == pytest.approx(-0.8)
    assert terms.q2 is None
    assert terms.q3 == pytest.approx(-0.8)
    assert terms.score == pytest.approx(-0.8)


def test_violation_terms_constant_positive_on_unsafe_point():
    sys_ = dubins_system()
    cert = constant_cert(3, 0.8)
    weights = LossWeights(delta=0.01)
    terms = violation_terms(cert, sys_, np.zeros(2), np.array([0.0, 0.1, 1.0]), weights)
    assert terms.q1 is None
    assert terms.q2 == pytest.approx(0.81)
    assert terms.score == pytest.approx(0.81)


def test_violation_terms_linear_cert_dubins():
    sys_ = dubins_system()
    w = np.array([0.7, -0.4, 0.2])
    cert = linear_cert(w)
    x = np.array([1.0, 0.2, 0.0])   # heading 0, unlabeled annulus point
    u = np.array([1.0, 0.0])
    weights = LossWeights(kappa_gain=2.0)
    terms = violation_terms(cert, sys_, u, x, weights)
    # q3 = -w1*u1 - gamma * (w . x) at heading 0 with f = 0
    expected = -w[0] - 2.0 * float(w @ x)
    assert terms.q3 == pytest.approx(expected, rel=1e-12)
    assert terms.q1 is None and terms.q2 is None


def test_total_loss_direct_arithmetic():
    # single-point buckets with hand-set barrier outcomes:
    # q1 - psi = 0.5 (active), q2 - psi = -1 (inactive), q3 - psi = 2 (active)
    sys_ = dubins_system()
    weights = LossWeights(lambda1=1.0, lambda2=0.1, delta=0.01, psi=0.0,
                          kappa_gain=1.0)
    cert = constant_cert(3, -0.5)   # h == -0.5 everywhere, grad 0
    safe_pt = np.array([[1.8, 1.8, 0.0]])
    unsafe_pt = np.array([[0.0, 0.0, 0.0]])
    domain_pt = np.array([[1.0, 0.0, 0.0]])
    ds = TrainingDatasets(safe=safe_pt, unsafe=unsafe_pt, domain=domain_pt, seed=0)

    # q1 = 0.5; q2 = -0.5 + 0.01 = -0.49; with gamma=1 and grad=0 the
    # decrease term is infeasible-degenerate: q3 = b - a.u_ref = 0.5
    def controller(xs):
        return np.tile([1.0, 0.0], (xs.shape[0], 1))

    loss, parts = total_loss(cert, ds, controller, weights, sys=sys_)
    assert loss == pytest.approx(0.5 + 0.0 + 0.1 * 0.5, rel=1e-12)
    assert parts == pytest.approx((0.5, 0.0, 0.5), rel=1e-12)


def test_total_loss_zero_when_margins_met():
    sys_ = dubins_system()
    cert = constant_cert(3, 0.8)
    ds = build_datasets(sys_, 20, 20, 20, seed=1)
    filt = SafetyFilter(certificate=cert, system=sys_)
    weights = LossWeights(delta=0.01)
    # h = 0.8 > 0 on safe, but unsafe bucket violates: q2 = 0.81
    assert total_loss(cert, ds, filt, weights, sys=sys_)[0] == pytest.approx(0.81)
    # negative constant barrier: safe bucket and decrease term violate
    cert2 = constant_cert(3, -0.8)
    loss2, _ = total_loss(cert2, ds, filt, weights, sys=sys_)
    assert loss2 > 0.8


def test_total_loss_empty_bucket_error():
    sys_ = dubins_system()
    cert = constant_cert(3, 1.0)
    ds = TrainingDatasets(safe=np.zeros((0, 3)), unsafe=np.zeros((1, 3)),
                          domain=np.zeros((1, 3)), seed=0)
    with pytest.raises(EmptyBucketError):
        total_loss(cert, ds, lambda xs: np.zeros((xs.shape[0], 2)),
                   LossWeights(), sys=sys_)


def test_psi_tightening_increases_loss():
    sys_ = dubins_system()
    cert = constant_cert(3, 0.8)
    ds = build_datasets(sys_, 30, 30, 30, seed=5)
    filt = SafetyFilter(certificate=cert, system=sys_)
    losses = [total_loss(cert, ds, filt, LossWeights(psi=psi), sys=sys_)[0]
              for psi in (0.0, -0.5, -2.0, -8.0)]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_conformal_quantile_all_zeros():
    assert conformal_quantile(np.zeros(50), 0.1) == 0.0


def test_conformal_quantile_explicit_index():
    scores = np.arange(1.0, 100.0)   # N = 99
    assert conformal_quantile(scores, 0.05) == 95.0


def test_conformal_quantile_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        conformal_quantile(np.arange(9.0), 0.05)


def test_conformal_quantile_permutation_invariant():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(400)
    ref = conformal_quantile(scores, 0.07)
    for _ in range(5):
        assert conformal_quantile(rng.permutation(scores), 0.07) == ref


def test_conformal_quantile_exact_integer_products():
    # (N+1)(1-alpha) hits an exact integer: N=19, alpha=0.05 -> rank 19
    scores = np.arange(19.0)
    assert conformal_quantile(scores, 0.05) == 18.0


def test_quantile_index_matches_floor():
    assert quantile_index(500, 0.05) == 25
    assert quantile_index(2000, 0.05) == 100
    assert quantile_index(99, 0.05) == 5


def test_epsilon_for_large_n_tracks_alpha():
    eps = epsilon_for(10**6, 0.05, 0.5)
    assert abs(eps - 0.05) < 0.001


def test_epsilon_for_definition_of_smallest_solution():
    n, alpha, beta = 2000, 0.05, 1e-3
    eps = epsilon_for(n, alpha, beta)
    l = quantile_index(n, alpha)
    assert betainc_quadrature(1.0 - eps, n - l + 1, l) <= beta + 1e-12
    assert betainc_quadrature(1.0 - eps + 1e-6, n - l + 1, l) > beta
    assert eps > alpha


def test_epsilon_for_monotone_in_n():
    eps_small = epsilon_for(500, 0.05, 1e-3)
    eps_big = epsilon_for(2000, 0.05, 1e-3)
    assert eps_big < eps_small


def test_epsilon_for_monotone_in_beta():
    eps_tight = epsilon_for(1000, 0.05, 1e-4)
    eps_loose = epsilon_for(1000, 0.05, 1e-2)
    assert eps_loose < eps_tight


def test_epsilon_for_invalid_alpha():
    with pytest.raises(InvalidAlphaError):
        epsilon_for(10, 0.01, 0.5)   # l = 0


def test_quantify_safety_constant_cert_scores():
    # constant positive barrier, zero-input controller, gamma=1: every
    # state has q3 = -c, unsafe-box samples have q2 = c + delta
    sys_ = dubins_system()
    c = 0.6
    cert = constant_cert(3, c)
    weights = LossWeights(delta=0.01, kappa_gain=1.0)

    def controller(xs):
        return np.zeros((xs.shape[0], 2))

    n, alpha = 2000, 0.05
    report = quantify_safety(cert, sys_, controller, n, alpha, 1e-3, seed=21,
                             weights=weights)
    # brute-force recount from the same sample draw
    from cbfcert.sampling import sample_uniform
    xs = sample_uniform(sys_.state_bounds, n, np.random.default_rng([21, 17]))
    labels = sys_.label_batch(xs)
    scores = np.full(n, -c)
    scores[labels == 2] = c + weights.delta
    rank = int(np.ceil((n + 1) * (1 - alpha)))
    expected = np.sort(scores)[rank - 1]
    assert report.quantile == pytest.approx(expected)
    n_unsafe = int(np.sum(labels == 2))
    if n_unsafe >= n - rank + 1:
        assert report.quantile > 0
    else:
        assert report.quantile < 0


def test_quantify_safety_identical_scores():
    sys_ = dubins_system()
    cert = constant_cert(3, 0.3)

    # controller irrelevant: constant barrier gives q3 = -0.3 everywhere;
    # use a system with no labeled points so all scores coincide
    from cbfcert.dynamics import ControlAffineSystem

    unlabeled = ControlAffineSystem(
        name="blank", n=3, m=2, f=sys_.f, g=sys_.g,
        state_bounds=sys_.state_bounds, input_bounds=None,
        label_batch=lambda pts: np.zeros(pts.shape[0], dtype=int),
        reference_policy=sys_.reference_policy,
    )
    filt = SafetyFilter(certificate=cert, system=unlabeled)
    report = quantify_safety(cert, unlabeled, filt, 500, 0.05, 1e-3, seed=3)
    assert report.quantile == pytest.approx(-0.3)
    assert report.score_min == report.score_max == pytest.approx(-0.3)


def test_quantify_safety_deterministic():
    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 8, 1], seed=4)
    filt = SafetyFilter(certificate=cert, system=sys_)
    r1 = quantify_safety(cert, sys_, filt, 500, 0.05, 1e-3, seed=10)
    r2 = quantify_safety(cert, sys_, filt, 500, 0.05, 1e-3, seed=10)
    assert r1 == r2
    assert r1.to_json() == r2.to_json()


def test_report_json_round_trip():
    report = ConformalReport(n_samples=100, alpha=0.1, beta=1e-3, index_l=10,
                             quantile=-0.2, epsilon=0.15, score_min=-1.0,
                             score_max=0.5, score_mean=-0.3, seed=4)
    back = ConformalReport.from_dict(__import__("json").loads(report.to_json()))
    assert back == report


def test_gradient_uses_filtered_inputs_consistently():
    # the loss value from total_loss matches total_loss_and_gradient
    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 12, 1], seed=2)
    ds = build_datasets(sys_, 40, 40, 40, seed=8)
    filt = SafetyFilter(certificate=cert, system=sys_, correction_cap=100.0)
    weights = LossWeights(psi=-0.05)
    v1, _ = total_loss(cert, ds, filt, weights, sys=sys_)
    v2, grads = total_loss_and_gradient(cert, ds, filt, weights, sys=sys_)
    assert v1 == pytest.approx(v2, rel=1e-12)
    assert grads.is_finite()


def test_exact_slack_q3_matches_inner_product_form():
    # the pipeline scores the decrease condition from the filter's closed-
    # form slack; the literal inner-product evaluation must agree, and at
    # active constraints the slack form is exactly zero
    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 12, 1], seed=21)
    filt = SafetyFilter(certificate=cert, system=sys_)
    from cbfcert.sampling import sample_uniform

    xs = sample_uniform(sys_.state_bounds, 500, seed=6)
    batch = filt.batch_decide(xs)
    weights = LossWeights()
    seen_active = 0
    for i in range(xs.shape[0]):
        if not batch.feasible[i]:
            continue
        terms = violation_terms(cert, sys_, batch.inputs[i], xs[i], weights)
        assert terms.q3 == pytest.approx(-batch.slack[i], abs=1e-9)
        if batch.active[i]:
            seen_active += 1
            assert batch.slack[i] == 0.0
    assert seen_active > 0


def test_score_states_never_forwards_twice(monkeypatch):
    # a batch_decide controller hands over the h it built its constraint
    # from; for a plain callable, h comes from the same pass as dh/dx
    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 12, 1], seed=4)
    filt = SafetyFilter(certificate=cert, system=sys_)
    from cbfcert.sampling import sample_uniform

    xs = sample_uniform(sys_.state_bounds, 400, seed=8)
    weights = LossWeights()
    expected = score_states(cert, sys_, filt, xs, weights)
    calls = []

    def no_second_forward(*_args):
        raise AssertionError("score_states forwarded a batch_decide controller twice")

    def counted_forward(c, states):
        calls.append(len(states))
        return mlp.forward_batch(c, states)

    monkeypatch.setattr(certificate, "forward_batch", no_second_forward)
    assert np.array_equal(score_states(cert, sys_, filt, xs, weights), expected)
    monkeypatch.setattr(certificate, "forward_batch", counted_forward)
    plain = score_states(cert, sys_, lambda s: filt.batch_decide(s).inputs, xs, weights)
    assert calls == []
    # the inner-product q3 differs from the closed-form slack by roundoff
    np.testing.assert_allclose(plain, expected, rtol=0, atol=1e-9)


R = certificate._BLOCK_ROWS


def biased_cert(sizes, seed):
    base = mlp.init_certificate(sizes, seed=seed)
    rng = np.random.default_rng(seed)
    return mlp.MlpCertificate(base.layer_sizes, base.weights,
                              tuple(0.3 * rng.standard_normal(b.shape)
                                    for b in base.biases))


def scoring_setup(system, sizes, n, bounded=False):
    from cbfcert.sampling import sample_uniform

    sys_ = system()
    cert = biased_cert(sizes, seed=6)
    filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=bounded)
    xs = sample_uniform(sys_.state_bounds, n, np.random.default_rng(12))
    return cert, sys_, filt, xs


_EXACT_SIZES = [1, R - 1, R, R + 1, 2 * R + 7]


# quadruped rows are bit-identical at any size; dubins rows up to 5208,
# where the one-shot batch itself changes kernel (see the next test)
@pytest.mark.parametrize("system, sizes, n, bounded", [
    *[(quadruped_system, [8, 128, 128, 1], n, b)
      for n in _EXACT_SIZES for b in (False, True)],
    (quadruped_system, [8, 128, 128, 1], 20000, False),
    *[(dubins_system, [3, 64, 1], n, b)
      for n in [*_EXACT_SIZES, 5000] for b in (False, True)],
])
def test_block_scores_equal_one_shot(system, sizes, n, bounded):
    cert, sys_, filt, xs = scoring_setup(system, sizes, n, bounded)
    weights = LossWeights()
    expected = reference_score_states(cert, sys_, filt, xs, weights)
    assert np.array_equal(score_states(cert, sys_, filt, xs, weights), expected)


def test_block_scores_dubins_20k_within_an_ulp_same_quantile():
    # above 5208 rows the one-shot (B, 64) @ (64, 3) input-gradient product
    # leaves OpenBLAS's small-matrix kernel, so one-shot rows may move in
    # the last ulp; the blocks keep the small-batch values
    cert, sys_, filt, xs = scoring_setup(dubins_system, [3, 64, 1], 20000)
    weights = LossWeights()
    expected = reference_score_states(cert, sys_, filt, xs, weights)
    got = score_states(cert, sys_, filt, xs, weights)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    assert conformal_quantile(got, 0.0075) == conformal_quantile(expected, 0.0075)


@pytest.mark.parametrize("n", [1, R - 1, R, 2 * R - 1, 2 * R, 3 * R + 7])
def test_plain_controller_called_once_per_block_in_order(n):
    cert, sys_, filt, xs = scoring_setup(dubins_system, [3, 64, 1], n)
    blocks = []

    def plain(states):
        blocks.append(states.copy())
        return filt.batch_decide(states).inputs

    weights = LossWeights()
    scores = score_states(cert, sys_, plain, xs, weights)
    assert np.array_equal(np.concatenate(blocks), xs)
    assert [len(b) for b in blocks[:-1]] == [R] * (len(blocks) - 1)
    # the remainder joins the last block instead of forming a short one
    assert len(blocks) == max(1, n // R) and len(blocks[-1]) < 2 * R
    assert np.array_equal(scores, reference_score_states(cert, sys_, plain, xs,
                                                         weights))


def test_block_scoring_memory_is_a_fraction_of_one_shot():
    import tracemalloc

    cert, sys_, filt, xs = scoring_setup(quadruped_system, [8, 128, 128, 1], 50000)
    weights = LossWeights()
    peaks = []
    for scorer in (reference_score_states, score_states):
        tracemalloc.start()
        try:
            scorer(cert, sys_, filt, xs, weights)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] / 5, peaks


def test_report_from_scores_matches_quantify_safety():
    from cbfcert.certificate import report_from_scores, verification_scores

    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 12, 1], seed=4)
    filt = SafetyFilter(certificate=cert, system=sys_)
    report = quantify_safety(cert, sys_, filt, 3000, 0.01, 1e-3, seed=7)
    scores = verification_scores(cert, sys_, filt, 3000, seed=7)
    assert report_from_scores(scores, 0.01, 1e-3, 7) == report
    with pytest.raises(InvalidAlphaError):
        report_from_scores(scores, 1e-5, 1e-3, 7)
