import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from cbfcert import certificate, mlp
from cbfcert.certificate import (ConformalReport, EmptyBucketError,
                                 InsufficientSamplesError, InvalidAlphaError,
                                 LossWeights, conformal_quantile, epsilon_for,
                                 failure_bound, quantify_safety, quantile_index,
                                 score_states, total_loss, total_loss_and_gradient)
from cbfcert.controller import SafetyFilter
from cbfcert.dynamics import dubins_system, quadruped_system
from cbfcert.sampling import TrainingDatasets, build_datasets, stream

from oracles import (betainc_quadrature, reference_epsilon_for, reference_loss_rows,
                     reference_score_states, reference_total_loss_and_gradient,
                     violation_terms)


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
    terms = violation_terms(cert, sys_, np.array([0.5, 0.0]),
                            np.array([1.8, 1.8, 0.0]), LossWeights(), kappa_gain=1.0)
    assert terms.q1 == pytest.approx(-0.8)
    assert terms.q2 is None
    assert terms.q3 == pytest.approx(-0.8)
    assert terms.score == pytest.approx(-0.8)


def test_violation_terms_constant_positive_on_unsafe_point():
    sys_ = dubins_system()
    cert = constant_cert(3, 0.8)
    weights = LossWeights(delta=0.01)
    terms = violation_terms(cert, sys_, np.zeros(2), np.array([0.0, 0.1, 1.0]), weights,
                            kappa_gain=1.0)
    assert terms.q1 is None
    assert terms.q2 == pytest.approx(0.81)
    assert terms.score == pytest.approx(0.81)


def test_violation_terms_linear_cert_dubins():
    sys_ = dubins_system()
    w = np.array([0.7, -0.4, 0.2])
    cert = linear_cert(w)
    x = np.array([1.0, 0.2, 0.0])   # heading 0, unlabeled annulus point
    u = np.array([1.0, 0.0])
    terms = violation_terms(cert, sys_, u, x, LossWeights(), kappa_gain=2.0)
    # q3 = -w1*u1 - gamma * (w . x) at heading 0 with f = 0
    expected = -w[0] - 2.0 * float(w @ x)
    assert terms.q3 == pytest.approx(expected, rel=1e-12)
    assert terms.q1 is None and terms.q2 is None


def test_total_loss_direct_arithmetic():
    # single-point buckets with hand-set barrier outcomes:
    # q1 - psi = 0.5 (active), q2 - psi = -1 (inactive), q3 - psi = 2 (active)
    sys_ = dubins_system()
    weights = LossWeights(lambda1=1.0, lambda2=0.1, delta=0.01, psi=0.0)
    cert = constant_cert(3, -0.5)   # h == -0.5 everywhere, grad 0
    safe_pt = np.array([[1.8, 1.8, 0.0]])
    unsafe_pt = np.array([[0.0, 0.0, 0.0]])
    domain_pt = np.array([[1.0, 0.0, 0.0]])
    ds = TrainingDatasets(safe=safe_pt, unsafe=unsafe_pt, domain=domain_pt)

    # q1 = 0.5; q2 = -0.5 + 0.01 = -0.49; with gamma=1 and grad=0 the
    # decrease term is infeasible-degenerate: q3 = b - a.u_ref = 0.5
    filt = SafetyFilter(certificate=cert, system=sys_, kappa_gain=1.0)
    loss, parts = total_loss(cert, ds, filt, weights)
    assert loss == pytest.approx(0.5 + 0.0 + 0.1 * 0.5, rel=1e-12)
    assert parts == pytest.approx((0.5, 0.0, 0.5), rel=1e-12)


def test_total_loss_zero_when_margins_met():
    sys_ = dubins_system()
    cert = constant_cert(3, 0.8)
    ds = build_datasets(sys_, 20, 20, 20, seed=1)
    filt = SafetyFilter(certificate=cert, system=sys_)
    weights = LossWeights(delta=0.01)
    # h = 0.8 > 0 on safe, but unsafe bucket violates: q2 = 0.81
    assert total_loss(cert, ds, filt, weights)[0] == pytest.approx(0.81)
    # negative constant barrier: the safe bucket (q1 = 0.8) and the
    # decrease term (degenerate, q3 = -gamma h = 0.8) violate
    cert2 = constant_cert(3, -0.8)
    filt2 = SafetyFilter(certificate=cert2, system=sys_)
    loss2, parts2 = total_loss(cert2, ds, filt2, weights)
    assert parts2 == pytest.approx((0.8, 0.0, 0.8))
    assert loss2 == pytest.approx(0.8 + 0.1 * 0.8)


def test_total_loss_empty_bucket_error():
    sys_ = dubins_system()
    cert = constant_cert(3, 1.0)
    ds = TrainingDatasets(safe=np.zeros((0, 3)), unsafe=np.zeros((1, 3)),
                          domain=np.zeros((1, 3)))
    with pytest.raises(EmptyBucketError):
        total_loss(cert, ds, SafetyFilter(certificate=cert, system=sys_), LossWeights())


def test_psi_tightening_increases_loss():
    sys_ = dubins_system()
    cert = constant_cert(3, 0.8)
    ds = build_datasets(sys_, 30, 30, 30, seed=5)
    filt = SafetyFilter(certificate=cert, system=sys_)
    losses = [total_loss(cert, ds, filt, LossWeights(psi=psi))[0]
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
    assert issubclass(InsufficientSamplesError, InvalidAlphaError)


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


INDEX_SAMPLE_SIZES = [*range(1, 200), 999, 1000, 1999, 2000, 4999, 5000, 19999, 20000,
                      99999, 100000]


def test_quantile_index_is_the_exact_floor_and_places_the_quantile():
    # l = floor((N+1) alpha) and the rank ceil((N+1)(1-alpha)) = N+1-l, both
    # in the exact arithmetic of the decimal alpha a run file holds
    alphas = [float(a) for a in np.round(np.linspace(1e-4, 0.5, 501), 6)]
    in_range = 0
    for n in INDEX_SAMPLE_SIZES:
        for alpha in alphas:
            exact = Fraction(repr(alpha))
            l = math.floor((n + 1) * exact)
            if l < 1:
                with pytest.raises(InsufficientSamplesError):
                    quantile_index(n, alpha)
                continue
            assert quantile_index(n, alpha) == l, (n, alpha)
            assert n + 1 - l == math.ceil((n + 1) * (1 - exact)), (n, alpha)
            in_range += 1
    assert in_range > 90_000
    for n in (1, 19, 99, 2000):
        for alpha in alphas[::50]:
            l = math.floor((n + 1) * Fraction(repr(alpha)))
            if l >= 1:
                scores = np.random.default_rng(n).permutation(np.arange(float(n)))
                assert conformal_quantile(scores, alpha) == n - l, (n, alpha)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 1.5])
def test_quantile_index_rejects_an_alpha_out_of_range(alpha):
    for n in (1, 99, 20000):
        with pytest.raises(InvalidAlphaError):
            quantile_index(n, alpha)
        with pytest.raises(InvalidAlphaError):
            conformal_quantile(np.arange(float(n)), alpha)


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


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_non_finite_alpha_is_an_invalid_alpha(alpha):
    with pytest.raises(InvalidAlphaError, match="finite"):
        quantile_index(100, alpha)
    with pytest.raises(InvalidAlphaError, match="finite"):
        epsilon_for(100, alpha, 1e-3)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_conformal_quantile_rejects_a_non_finite_alpha(alpha):
    with pytest.raises(InvalidAlphaError, match="finite"):
        conformal_quantile([1.0, 2.0, 3.0], alpha)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_conformal_quantile_rejects_an_alpha_of_one_or_more(alpha):
    # l would exceed N and index the sorted scores from the end
    with pytest.raises(InvalidAlphaError, match=r"outside \[1, N\]"):
        conformal_quantile([1.0, 2.0, 3.0], alpha)


def _epsilon_cases():
    """5,000 seeded (N, alpha, beta): a grid over N in [1, 3e6] with
    l = 1, 2, N/100, N/2, N-1, N, then random N, l and log-uniform beta in
    [1e-15, 0.9]; alpha puts (N+1) alpha strictly inside (l, l+1)."""
    rng = np.random.default_rng(2107)
    cases = []
    for n in (1, 2, 3, 10, 100, 1000, 10**4, 10**5, 10**6, 3 * 10**6):
        for l in sorted({1, 2, max(1, n // 100), max(1, n // 2), max(1, n - 1), n}):
            if l <= n:
                for beta in (1e-15, 1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.9):
                    cases.append((n, l, beta))
    while len(cases) < 5000:
        n = int(10 ** rng.uniform(0.0, 6.5))
        l = int(rng.integers(1, n + 1))
        cases.append((n, l, float(10 ** rng.uniform(-15.0, math.log10(0.9)))))
    return [(n, (l + float(rng.uniform(0.05, 0.95))) / (n + 1), beta) for n, l, beta in cases]


def _counted_epsilons(cases):
    """(N, alpha, beta, epsilon, incomplete-beta evaluations) per case."""
    original = certificate.regularized_incomplete_beta
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificate, "regularized_incomplete_beta", counted)
        for n, alpha, beta in cases:
            calls[0] = 0
            rows.append((n, alpha, beta, epsilon_for(n, alpha, beta), calls[0]))
    return rows


@pytest.fixture(scope="module")
def epsilon_sweep():
    return _counted_epsilons(_epsilon_cases())


def test_epsilon_for_matches_the_bisection_oracle_bit_for_bit(epsilon_sweep):
    indices = {(n, quantile_index(n, alpha)) for n, alpha, *_ in epsilon_sweep}
    assert {(1, 1), (10**6, 1), (10**6, 10**6), (3 * 10**6, 3 * 10**6)} <= indices
    mismatches = [(n, alpha, beta, eps) for n, alpha, beta, eps, _ in epsilon_sweep
                  if eps != reference_epsilon_for(n, quantile_index(n, alpha), beta)]
    assert mismatches == []


def test_epsilon_for_evaluation_count(epsilon_sweep):
    # 4.82 on average and 8 at most from the normal-approximation start
    # with Newton steps alone; 3.02 and 8 from the Peizer-Pratt start
    counts = [calls for *_, calls in epsilon_sweep]
    assert max(counts) <= 8
    assert sum(counts) / len(counts) <= 4.0


def test_epsilon_for_evaluation_count_on_curve_grids():
    # the benchmark's curve operation: 8 alphas from U(0.005, 0.02) to
    # U(0.1, 0.2) at N = 1e3, 1e4 and 1e5, beta = 1e-3; 4.96 evaluations per
    # epsilon from the normal-approximation start, 3.0 from Peizer-Pratt
    rng = np.random.default_rng(25)
    cases = []
    for _ in range(50):
        alphas = np.linspace(rng.uniform(0.005, 0.02), rng.uniform(0.1, 0.2), 8)
        cases += [(n, float(alpha), 1e-3) for n in (1000, 10000, 100000) for alpha in alphas]
    counts = [calls for *_, calls in _counted_epsilons(cases)]
    assert sum(counts) / len(counts) <= 3.25


def test_failure_bound_of_no_failure_in_a_thousand_rollouts():
    # 1 - beta**(1/n), rounded up to the 2**-40 grid
    assert failure_bound(0, 1000, 1e-3) == pytest.approx(0.00688, abs=5e-6)
    assert failure_bound(0, 1000, 1e-3) >= 1.0 - 1e-3 ** (1.0 / 1000)


@pytest.mark.parametrize("n,k", [(1, 0), (10, 3), (10, 9), (200, 0), (1000, 17),
                                 (1000, 999), (50000, 1200)])
@pytest.mark.parametrize("beta", [1e-3, 0.05])
def test_failure_bound_is_the_clopper_pearson_upper_bound(n, k, beta):
    expected = float(stats.beta.ppf(1.0 - beta, k + 1, n - k))
    assert abs(failure_bound(k, n, beta) - expected) < 1e-9


def test_failure_bound_when_every_trial_failed_or_out_of_range():
    assert failure_bound(7, 7, 1e-3) == 1.0
    for failures, trials in ((-1, 10), (11, 10)):
        with pytest.raises(ValueError, match="failures"):
            failure_bound(failures, trials, 1e-3)
    with pytest.raises(ValueError, match="beta"):
        failure_bound(0, 10, 1.0)


def test_quantify_safety_constant_cert_scores():
    # constant positive barrier, gamma=1: the constraint 0.u >= -c never
    # binds, so every state has q3 = -c, unsafe-box samples q2 = c + delta
    sys_ = dubins_system()
    c = 0.6
    cert = constant_cert(3, c)
    weights = LossWeights(delta=0.01)
    filt = SafetyFilter(certificate=cert, system=sys_, kappa_gain=1.0)
    n, alpha = 2000, 0.05
    report = quantify_safety(cert, sys_, filt, n, alpha, 1e-3, seed=21,
                             weights=weights)
    # brute-force recount from the same sample draw
    from cbfcert.sampling import sample_uniform
    xs = sample_uniform(sys_.state_bounds, n, stream(21, "calibration"))
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
    assert json.dumps(r1.to_dict(), indent=2) == json.dumps(r2.to_dict(), indent=2)


def test_report_json_round_trip():
    report = ConformalReport(n_samples=100, alpha=0.1, beta=1e-3, index_l=10,
                             quantile=-0.2, epsilon=0.15, score_min=-1.0,
                             score_max=0.5, score_mean=-0.3, seed=4)
    doc = report.to_dict()
    assert json.loads(json.dumps(doc, indent=2)) == doc
    assert list(doc) == ["format_version", "n_samples", "alpha", "beta", "index_l", "quantile",
                         "epsilon", "score_min", "score_max", "score_mean", "seed", "filter",
                         "draws"]
    assert doc["format_version"] == 2 and doc["filter"] is None and doc["draws"] == []
    # a report with its filter and draw survives JSON as it is
    cert = mlp.init_certificate([3, 8, 1], seed=4)
    sys_ = dubins_system()
    full = quantify_safety(cert, sys_, SafetyFilter(certificate=cert, system=sys_), 500,
                           0.05, 1e-3, seed=10)
    doc = full.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["filter"] == full.filter and doc["draws"] == list(full.draws) != []


def test_score_mean_of_finite_scores_whose_sum_overflows():
    from cbfcert.certificate import report_from_scores

    big = 1.5 * 2.0 ** 1023  # four of them overflow a sum, a quarter of each does not
    assert report_from_scores(np.full(4, big), 0.25, 0.5, 0).score_mean == big
    scores = np.array([-0.25, 0.5, 0.125, 1.0])
    assert report_from_scores(scores, 0.25, 0.5, 0).score_mean == scores.mean()


@pytest.mark.parametrize("bounded", [False, True])
def test_draw_counts_equal_a_recount_of_the_regenerated_sample(bounded):
    from cbfcert.certificate import calibrate
    from cbfcert.controller import filter_batch
    from cbfcert.sampling import sample_uniform

    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 16, 1], seed=3)
    filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=bounded)
    weights = LossWeights(delta=0.05)
    n, seed = 2000, 9
    report, scores = calibrate(cert, sys_, filt, n, 0.05, 1e-3, seed, weights)
    (draw,) = report.draws
    # the recount: each state's label term (-inf for an unlabeled state)
    # against its decrease term, on the whole sample at once
    xs = sample_uniform(sys_.state_bounds, n, stream(seed, "calibration"))
    labels = sys_.label_batch(xs)
    batch = filter_batch(filt, xs)
    q3 = -batch.slack
    label_term = np.where(labels == 1, -batch.h,
                          np.where(labels == 2, batch.h + weights.delta, -np.inf))
    positive = np.maximum(q3, label_term) > 0
    names = np.array(["unlabeled", "safe", "unsafe"])
    condition = np.where(q3 >= label_term, "decrease", names[labels])

    def count(mask, keys, of):
        return {key: int(np.sum(mask & (of == key))) for key in keys}

    assert draw == {
        "stream": "calibration", "seed": seed, "n_samples": n,
        "n_by_label": count(np.ones(n, bool), names, names[labels]),
        "positive": int(np.sum(positive)),
        "positive_by_label": count(positive, names, names[labels]),
        "positive_by_condition": count(positive, ["safe", "unsafe", "decrease"], condition),
        "infeasible": int(np.sum(~batch.feasible)),
    }
    assert (draw["positive"] == int(np.sum(scores > 0))
            == sum(draw["positive_by_label"].values())
            == sum(draw["positive_by_condition"].values()))
    assert sum(draw["n_by_label"].values()) == n
    # every count is exercised: both label terms fail somewhere, and only
    # the box-bounded filter meets infeasible QPs and decrease failures
    by_condition = draw["positive_by_condition"]
    assert by_condition["safe"] > 0 and by_condition["unsafe"] > 0
    assert (by_condition["decrease"] > 0) == (draw["infeasible"] > 0) == bounded


def test_a_tie_counts_under_the_decrease_term():
    # a constant barrier c < 0 at kappa = 1: q3 = -kappa c equals the safe
    # term -c on every safe state and exceeds the unsafe term c + delta
    sys_ = dubins_system()
    cert = constant_cert(3, -0.3)
    filt = SafetyFilter(certificate=cert, system=sys_, kappa_gain=1.0)
    (draw,) = quantify_safety(cert, sys_, filt, 1000, 0.05, 1e-3, seed=2).draws
    assert draw["n_by_label"]["safe"] > 0 and draw["n_by_label"]["unsafe"] > 0
    assert draw["positive_by_label"] == draw["n_by_label"]
    assert draw["positive_by_condition"] == {"safe": 0, "unsafe": 0, "decrease": 1000}


def test_gradient_uses_filtered_inputs_consistently():
    # the loss value from total_loss matches total_loss_and_gradient
    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 12, 1], seed=2)
    ds = build_datasets(sys_, 40, 40, 40, seed=8)
    filt = SafetyFilter(certificate=cert, system=sys_, correction_cap=100.0)
    weights = LossWeights(psi=-0.05)
    v1, _ = total_loss(cert, ds, filt, weights)
    v2, grads = total_loss_and_gradient(cert, ds, filt, weights)
    assert v1 == pytest.approx(v2, rel=1e-12)
    assert all(np.all(np.isfinite(g)) for g in grads)


@pytest.mark.parametrize("name", ["total_loss", "total_loss_and_gradient",
                                  "score_states", "verification_scores",
                                  "quantify_safety"])
def test_certificate_and_system_must_be_the_filters(name):
    # identity, not equality: a twin with the same parameters is refused too
    from cbfcert.certificate import verification_scores

    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 8, 1], seed=1)
    filt = SafetyFilter(certificate=cert, system=sys_)
    ds = build_datasets(sys_, 10, 10, 10, seed=1)
    weights = LossWeights()
    call = {
        "total_loss": lambda c, s, f: total_loss(c, ds, f, weights),
        "total_loss_and_gradient": lambda c, s, f: total_loss_and_gradient(
            c, ds, f, weights),
        "score_states": lambda c, s, f: score_states(c, s, f, ds.domain, weights),
        "verification_scores": lambda c, s, f: verification_scores(c, s, f, 100, 0),
        "quantify_safety": lambda c, s, f: quantify_safety(c, s, f, 100, 0.05,
                                                           1e-3, seed=0),
    }[name]
    call(cert, sys_, filt)
    with pytest.raises(ValueError, match="certificate"):
        call(mlp.init_certificate([3, 8, 1], seed=1), sys_, filt)
    with pytest.raises(ValueError, match="SafetyFilter"):
        call(cert, sys_, lambda xs: np.zeros((len(xs), 2)))
    if not name.startswith("total_loss"):
        with pytest.raises(ValueError, match="system"):
            call(cert, dubins_system(), filt)


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
        terms = violation_terms(cert, sys_, batch.inputs[i], xs[i], weights,
                                filt.kappa_gain)
        assert terms.q3 == pytest.approx(-batch.slack[i], abs=1e-9)
        if batch.active[i]:
            seen_active += 1
            assert batch.slack[i] == 0.0
    assert seen_active > 0


def test_score_states_never_forwards_twice(monkeypatch):
    # the filter hands over the h it built its constraint from
    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 12, 1], seed=4)
    filt = SafetyFilter(certificate=cert, system=sys_)
    from cbfcert.sampling import sample_uniform

    xs = sample_uniform(sys_.state_bounds, 400, seed=8)
    weights = LossWeights()
    expected = score_states(cert, sys_, filt, xs, weights)

    def no_second_forward(*_args):
        raise AssertionError("score_states forwarded the batch a second time")

    monkeypatch.setattr(certificate, "forward_batch", no_second_forward)
    assert np.array_equal(score_states(cert, sys_, filt, xs, weights), expected)


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
def test_filter_decides_once_per_block_in_order(n, monkeypatch):
    from cbfcert import controller

    cert, sys_, filt, xs = scoring_setup(dubins_system, [3, 64, 1], n)
    weights = LossWeights()
    expected = reference_score_states(cert, sys_, filt, xs, weights)
    blocks, workspaces = [], []
    original = controller.filter_batch

    def recorded(f, states, workspace):
        blocks.append(states.copy())
        workspaces.append(workspace)
        return original(f, states, workspace)

    monkeypatch.setattr(certificate, "filter_batch", recorded)
    scores = score_states(cert, sys_, filt, xs, weights)
    assert np.array_equal(np.concatenate(blocks), xs)
    assert [len(b) for b in blocks[:-1]] == [R] * (len(blocks) - 1)
    # the remainder joins the last block instead of forming a short one
    assert len(blocks) == max(1, n // R) and len(blocks[-1]) < 2 * R
    assert np.array_equal(scores, expected)
    # every block's filter pass writes into the one workspace of the call
    assert isinstance(workspaces[0], mlp.Workspace)
    assert all(w is workspaces[0] for w in workspaces)


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


@pytest.mark.parametrize("system, sizes, n, bounded", [
    (system, sizes, n, b)
    for system, sizes in [(quadruped_system, [8, 128, 128, 1]), (dubins_system, [3, 64, 1])]
    for n in _EXACT_SIZES for b in (False, True)])
def test_verification_scores_equal_scores_of_the_whole_draw(system, sizes, n, bounded):
    # the blocks are drawn one at a time from the one generator; the scores
    # keep the bits (sign of zero included) of scoring the whole sample
    from cbfcert.certificate import verification_scores
    from cbfcert.sampling import sample_uniform

    cert, sys_, filt, _ = scoring_setup(system, sizes, 0, bounded)
    weights = LossWeights(delta=0.05)
    xs = sample_uniform(sys_.state_bounds, n, stream(11, "calibration"))
    expected = score_states(cert, sys_, filt, xs, weights)
    got = verification_scores(cert, sys_, filt, n, 11, weights)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    # and those of the one-shot oracle: counting the draw moves no bit
    assert got.tobytes() == reference_score_states(cert, sys_, filt, xs, weights).tobytes()


def test_verification_scores_refuse_a_negative_count_before_the_filter():
    from cbfcert.certificate import verification_scores

    cert, sys_, filt, _ = scoring_setup(dubins_system, [3, 8, 1], 0)
    with pytest.raises(ValueError, match="count must be non-negative"):
        verification_scores(cert, sys_, filt, -1, 0)
    other = mlp.init_certificate([3, 8, 1], seed=1)
    with pytest.raises(ValueError, match="count must be non-negative"):
        verification_scores(other, sys_, filt, -1, 0)
    with pytest.raises(ValueError, match="SafetyFilter built on this certificate"):
        verification_scores(other, sys_, filt, 1, 0)


def test_verification_scores_memory_grows_by_the_scores_alone():
    # the scores take 8 bytes per state; drawing the whole (N, 3) sample
    # first would hold at least 72 (the sample and two temporaries of its
    # size), so 16 bytes per added state leaves room for the scores only
    import tracemalloc

    from cbfcert.certificate import verification_scores

    cert, sys_, filt, _ = scoring_setup(dubins_system, [3, 16, 1], 0)
    peaks = {}
    for n in (10_000, 100_000):
        tracemalloc.start()
        try:
            verification_scores(cert, sys_, filt, n, 3)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[100_000] - peaks[10_000] < 16 * 90_000, peaks


def test_report_from_scores_matches_quantify_safety():
    from cbfcert.certificate import calibrate, report_from_scores, verification_scores

    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 12, 1], seed=4)
    filt = SafetyFilter(certificate=cert, system=sys_)
    report = quantify_safety(cert, sys_, filt, 3000, 0.01, 1e-3, seed=7)
    scores = verification_scores(cert, sys_, filt, 3000, seed=7)
    # calibrate is quantify_safety's report with verification_scores' scores
    again, calibrated = calibrate(cert, sys_, filt, 3000, 0.01, 1e-3, seed=7)
    assert again == report and calibrated.tobytes() == scores.tobytes()
    # the statement comes from the scores alone; the filter and draw from the pass
    assert report_from_scores(scores, 0.01, 1e-3, 7) == dataclasses.replace(
        report, filter=None, draws=())
    assert report.filter == filt.spec and len(report.draws) == 1
    with pytest.raises(InvalidAlphaError):
        report_from_scores(scores, 1e-5, 1e-3, 7)


@pytest.mark.parametrize("beta", [0.0, 1.0, float("nan")])
def test_quantify_safety_checks_beta_before_it_scores(beta, monkeypatch):
    # like alpha: an invalid beta raises epsilon_for's error before any state is scored
    def unreachable(*args, **kwargs):
        raise AssertionError("scored a draw under an invalid beta")

    monkeypatch.setattr(certificate, "_calibration_draw", unreachable)
    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 8, 1], seed=4)
    with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\)$"):
        epsilon_for(1000, 0.05, beta)
    with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\)$"):
        quantify_safety(cert, sys_, SafetyFilter(certificate=cert, system=sys_),
                        1000, 0.05, beta, seed=1)


STEP_ARCHITECTURES = [
    ("dubins", (3, 64, 1)),
    ("dubins", (3, 12, 1)),
    ("quadruped", (8, 128, 128, 1)),
    ("planar_aerial", (6, 32, 32, 1)),
]
STEP_BUCKETS = [(1, 1, 1), (2, 3, 5), (7, 9, 33), (248, 249, 244)]


def step_case(name, arch, bounded, sizes, seed):
    """A certificate, its training filter (unbounded with the default
    training cap, or box-bounded) and a mini-batch of the given sizes."""
    from cbfcert import make_system
    from cbfcert.sampling import sample_uniform

    sys_ = make_system(name)
    cert = mlp.init_certificate(arch, seed=seed)
    filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=bounded,
                        correction_cap=None if bounded else 1e3)
    rng = np.random.default_rng([seed, *sizes])
    ds = TrainingDatasets(*(sample_uniform(sys_.state_bounds, k, rng) for k in sizes))
    return cert, filt, ds


@pytest.mark.parametrize("name, arch", STEP_ARCHITECTURES,
                         ids=[f"{n}{list(a[1:-1])}" for n, a in STEP_ARCHITECTURES])
@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("psi", [0.0, -0.3])
def test_one_pass_step_matches_the_two_pass_step(name, arch, bounded, psi):
    # the domain rows' z now comes from the whole mini-batch and the
    # tangent products sum over the domain rows only, so BLAS may round
    # differently; nothing else changes
    weights = LossWeights(psi=psi)
    for sizes in STEP_BUCKETS:
        cert, filt, ds = step_case(name, arch, bounded, sizes, seed=len(arch) + arch[1])
        value, grads = total_loss_and_gradient(cert, ds, filt, weights)
        ref_value, ref_grads = reference_total_loss_and_gradient(cert, ds, filt, weights)
        assert abs(value - ref_value) <= 1e-14 * abs(ref_value), sizes
        assert len(grads) == len(ref_grads)
        for got, want in zip(grads, ref_grads):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), sizes


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
def test_step_evaluates_f_g_and_each_hidden_layer_once(bounded, monkeypatch):
    import dataclasses
    from collections import Counter

    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    cert, filt, ds = step_case("quadruped", (8, 128, 128, 1), bounded, (20, 30, 40), seed=3)
    base = filt.system
    filt = dataclasses.replace(filt, system=dataclasses.replace(
        base, f=counted("f", base.f), g=counted("g", base.g)))
    # one fused softplus-and-sigmoid call per hidden layer, no lone sigmoid
    monkeypatch.setattr(mlp, "softplus", counted("softplus", mlp.softplus))
    monkeypatch.setattr(mlp, "sigmoid", counted("sigmoid", mlp.sigmoid))
    total_loss_and_gradient(cert, ds, filt, LossWeights(psi=-0.3))
    assert counts == {"f": 1, "g": 1, "softplus": 2}


def desk_loss_case():
    """The desk dubins [3, 64, 1] barrier, its training filter, the
    6,700/6,700/6,600-row buckets of the monitoring loss and one
    256/256/256-row step batch."""
    sys_ = dubins_system()
    cert = mlp.init_certificate([3, 64, 1], seed=0)
    filt = SafetyFilter(certificate=cert, system=sys_, correction_cap=1e3)
    ds = build_datasets(sys_, 6700, 6700, 6600, seed=0)
    step = TrainingDatasets(ds.safe[:256], ds.unsafe[:256], ds.domain[:256])
    return cert, filt, ds, step


def _traced_peak(fn) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_workspace_leaves_no_hidden_layer_allocations():
    # tracemalloc sees numpy's buffers. With a warm workspace the desk
    # monitoring loss peaks at 0.38 MiB (the per-row values, and f, g and
    # the filter's arrays on one row block) and a step at 0.11 MiB. One
    # (512, 64) hidden array is 0.25 MiB and one (768, 64) array 0.38 MiB,
    # so either bound fails if a single hidden-layer array of a block or
    # of the step is allocated again. Without a workspace a step peaks at
    # 1.7 MiB, which shows that the tracer sees the hidden-layer arrays.
    cert, filt, ds, step = desk_loss_case()
    weights = LossWeights()
    workspace = mlp.Workspace()
    loss = lambda: total_loss(cert, ds, filt, weights, workspace)
    grad = lambda: total_loss_and_gradient(cert, step, filt, weights, workspace)
    loss()
    grad()  # warm-up: the workspace allocates its buffers
    assert _traced_peak(loss) < 0.75 * 2**20
    assert _traced_peak(grad) < 0.25 * 2**20
    assert _traced_peak(lambda: total_loss_and_gradient(cert, step, filt, weights)) > 2**20


def test_the_monitoring_loss_runs_in_constant_memory():
    # ten copies of the desk buckets, 67,000/67,000/66,000 rows: whole
    # buckets held three (67,000, 64) hidden arrays and peaked at 99.7 MiB;
    # row blocks in one fresh workspace peak at 5.0 MiB, mostly the
    # per-row values and the hinge's temporaries (8 bytes a row each)
    cert, filt, ds, _ = desk_loss_case()
    big = TrainingDatasets(*(np.concatenate([bucket] * 10)
                             for bucket in (ds.safe, ds.unsafe, ds.domain)))
    assert _traced_peak(lambda: total_loss(cert, big, filt, LossWeights())) < 8 * 2**20


def blocked_loss(cert, ds, filt, weights, monkeypatch):
    """total_loss's value and terms, and the per-row values (h_safe,
    h_unsafe, q3) it hands to _hinge."""
    hinge, rows = certificate._hinge, []

    def recorded(h_safe, h_unsafe, q3, weights):
        rows.append((h_safe, h_unsafe, q3))
        return hinge(h_safe, h_unsafe, q3, weights)

    monkeypatch.setattr(certificate, "_hinge", recorded)
    value, terms = total_loss(cert, ds, filt, weights)
    assert len(rows) == 1
    return value, terms, rows[0]


# as in test_block_scores_equal_one_shot: every bucket size up to 5208
# rows keeps its bits on both systems
@pytest.mark.parametrize("system, sizes", [(dubins_system, [3, 64, 1]),
                                           (quadruped_system, [8, 128, 128, 1])],
                         ids=["dubins", "quadruped"])
@pytest.mark.parametrize("n", _EXACT_SIZES)
@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
def test_blocked_loss_equals_whole_buckets(system, sizes, n, bounded, monkeypatch):
    from cbfcert.sampling import sample_uniform

    sys_ = system()
    cert = biased_cert(sizes, seed=6)
    filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=bounded,
                        correction_cap=None if bounded else 1e3)
    rng = np.random.default_rng([12, n])
    ds = TrainingDatasets(*(sample_uniform(sys_.state_bounds, n, rng) for _ in range(3)))
    weights = LossWeights(psi=-0.1)
    expected = reference_loss_rows(cert, ds, filt)
    want_value, want_terms, _ = certificate._hinge(*expected, weights)
    value, terms, rows = blocked_loss(cert, ds, filt, weights, monkeypatch)
    for got, want in zip(rows, expected, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (value, terms) == (want_value, want_terms)


def test_blocked_loss_desk_buckets_within_an_ulp(monkeypatch):
    # the 6,600 domain rows pass 5208, where the whole bucket's (B, 64) @
    # (64, 3) input-gradient product changes kernel: q3 moves by at most
    # 2.2e-16 on 1,986 rows, and h keeps its bits
    cert, filt, ds, _ = desk_loss_case()
    weights = LossWeights(psi=-0.8)  # every hinge active on part of its bucket
    expected = reference_loss_rows(cert, ds, filt)
    want_value, want_terms, _ = certificate._hinge(*expected, weights)
    value, terms, rows = blocked_loss(cert, ds, filt, weights, monkeypatch)
    for got, want in zip(rows, expected, strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert value == pytest.approx(want_value, rel=1e-14, abs=0)
    assert terms == pytest.approx(want_terms, rel=1e-14, abs=0)


def test_a_reused_workspace_gives_the_values_of_fresh_ones():
    # shrinking and growing batches and other certificates in one
    # workspace must never read what an earlier call left in it
    from cbfcert import make_system
    from cbfcert.sampling import sample_uniform

    workspace = mlp.Workspace()
    weights = LossWeights(psi=-0.2)
    cases = [("dubins", (3, 64, 1), (100, 100, 100)), ("dubins", (3, 64, 1), (20, 10, 5)),
             ("dubins", (3, 64, 1), (1, 1, 1)), ("dubins", (3, 64, 1), (150, 160, 170)),
             ("quadruped", (8, 128, 128, 1), (40, 50, 60)),
             ("planar_aerial", (6, 32, 16, 1), (90, 100, 110)),
             ("quadruped", (8, 128, 128, 1), (3, 2, 7)), ("dubins", (3, 12, 1), (99, 1, 200))]
    for seed, (name, arch, sizes) in enumerate(cases):
        sys_ = make_system(name)
        cert = biased_cert(arch, seed)
        filt = SafetyFilter(certificate=cert, system=sys_, correction_cap=1e3)
        rng = np.random.default_rng([seed, *sizes])
        ds = TrainingDatasets(*(sample_uniform(sys_.state_bounds, k, rng) for k in sizes))
        xs = np.concatenate([ds.safe, ds.unsafe, ds.domain])
        value, grads = total_loss_and_gradient(cert, ds, filt, weights, workspace)
        ref_value, ref_grads = total_loss_and_gradient(cert, ds, filt, weights)
        assert value == ref_value, (name, sizes)
        assert all(np.array_equal(a, b) for a, b in zip(grads, ref_grads, strict=True))
        assert total_loss(cert, ds, filt, weights, workspace) == total_loss(cert, ds, filt,
                                                                            weights)
        assert np.array_equal(mlp.forward_batch(cert, xs, workspace), mlp.forward_batch(cert, xs))
        h, dh_dx = mlp.values_and_input_gradients(cert, xs, workspace)
        ref_h, ref_dh_dx = mlp.values_and_input_gradients(cert, xs)
        assert np.array_equal(h, ref_h) and np.array_equal(dh_dx, ref_dh_dx)
