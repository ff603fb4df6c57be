import json

import numpy as np
import pytest

from cbfcert import dynamics, mlp, trainer
from cbfcert.certificate import EmptyBucketError, score_states, total_loss
from cbfcert.controller import SafetyFilter
from cbfcert.dynamics import register_system
from cbfcert.sampling import build_datasets, sample_uniform
from cbfcert.trainer import (STATUS_BUDGET_EXHAUSTED, STATUS_CERTIFIED,
                             ConfigError, DivergedTrainingError, TrainConfig,
                             alpha_epsilon_curve, certifying_filter, refine,
                             train_phase)

from toy import analytic_toy_barrier, toy_system


@pytest.fixture(scope="module", autouse=True)
def register_toy():
    register_system("toy_integrator", toy_system)
    yield
    dynamics._BUILDERS.pop("toy_integrator", None)


def toy_config(**overrides) -> TrainConfig:
    base = dict(
        system="toy_integrator", hidden_layers=(16,), epochs=150,
        batch_size=128, learning_rate=3e-3, n_safe=400, n_unsafe=400,
        n_domain=400, conformal_samples=2000, alpha=0.05, beta=1e-3,
        max_refinements=2, seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_config_validation_messages():
    with pytest.raises(ConfigError) as info:
        TrainConfig(system="nope", alpha=0.0001, conformal_samples=100, epochs=0)
    joined = " | ".join(info.value.messages)
    assert "system" in joined
    assert "epochs" in joined
    with pytest.raises(ConfigError) as info:
        TrainConfig(alpha=0.001, conformal_samples=100)
    assert any("alpha" in e for e in info.value.messages)
    toy_config()


def test_config_refuses_a_bucket_shorter_than_the_mini_batches():
    # 6700 rows in batches of 256 make 27 mini-batches, and 10 unsafe rows
    # would leave 17 of them without one
    with pytest.raises(ConfigError) as info:
        TrainConfig(n_safe=6700, n_unsafe=10, n_domain=6600, batch_size=256)
    assert info.value.messages == ["n_unsafe: 10 rows for 27 mini-batches of "
                                   "batch_size 256; need at least one row per mini-batch"]
    TrainConfig(n_safe=6700, n_unsafe=27, n_domain=6600, batch_size=256)
    # a phase given such buckets directly raises instead of skipping steps
    sys_, cfg = toy_system(), toy_config()
    ds = build_datasets(sys_, cfg.n_safe, 3, cfg.n_domain, seed=1)
    with pytest.raises(EmptyBucketError):
        train_phase(mlp.init_certificate([1, 8, 1], seed=3), ds, cfg.loss_weights(),
                    cfg, sys_, np.random.default_rng(0))


@pytest.mark.parametrize("batch_size", [1, 2, 3, 7, 64, 256, 1000])
def test_every_mini_batch_takes_rows_from_every_bucket(batch_size):
    # each bucket size a config accepts splits into contiguous, non-empty
    # slices, so every step sees all three loss terms
    for largest in [*range(1, 3000, 37), 6700, 20_000]:
        n_batches = trainer._mini_batches([largest], batch_size)
        assert (n_batches - 1) * batch_size < largest <= n_batches * batch_size
        sizes = {*range(n_batches, n_batches + 4), (n_batches + largest) // 2, largest}
        for size in (s for s in sizes if s <= largest):
            cuts = trainer._batch_slices(size, n_batches)
            assert cuts[0][0] == 0 and cuts[-1][1] == size
            assert all(start < stop for start, stop in cuts)
            assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))


def test_config_round_trip():
    cfg = toy_config(seed=3)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"no_such_field": 1})


def test_train_phase_zero_loss_returns_immediately():
    sys_ = toy_system()
    cert = analytic_toy_barrier()
    ds = build_datasets(sys_, 100, 100, 100, seed=1)
    cfg = toy_config()
    rng = np.random.default_rng(0)
    start = rng.bit_generator.state
    out_cert, losses = train_phase(cert, ds, cfg.loss_weights(), cfg, sys_, rng)
    assert out_cert is cert
    assert losses == [0.0]
    assert rng.bit_generator.state == start


def test_train_phase_first_loss_at_the_tolerance_returns_the_start():
    sys_ = toy_system()
    ds = build_datasets(sys_, 100, 100, 100, seed=1)
    cert = mlp.init_certificate([1, 8, 1], seed=3)
    cfg = toy_config()
    first, _ = total_loss(cert, ds, certifying_filter(cert, sys_, cfg, cfg.correction_cap),
                          cfg.loss_weights())
    assert first > 0.0
    cfg = toy_config(loss_tolerance=first)
    rng = np.random.default_rng(0)
    start = rng.bit_generator.state
    out_cert, losses = train_phase(cert, ds, cfg.loss_weights(), cfg, sys_, rng)
    assert out_cert is cert
    assert losses == [first]
    assert rng.bit_generator.state == start


def test_train_phase_nonfinite_first_loss_diverges_at_epoch_zero(monkeypatch):
    sys_ = toy_system()
    ds = build_datasets(sys_, 100, 100, 100, seed=1)
    cfg = toy_config()
    monkeypatch.setattr(trainer, "total_loss",
                        lambda *args: (float("nan"), (0.0, 0.0, 0.0)))
    rng = np.random.default_rng(0)
    start = rng.bit_generator.state
    with pytest.raises(DivergedTrainingError) as info:
        train_phase(mlp.init_certificate([1, 8, 1], seed=3), ds, cfg.loss_weights(),
                    cfg, sys_, rng)
    assert info.value.epoch == 0
    assert rng.bit_generator.state == start


def test_train_phase_toy_reaches_separation():
    sys_ = toy_system()
    cfg = toy_config()
    ds = build_datasets(sys_, cfg.n_safe, cfg.n_unsafe, cfg.n_domain, seed=2)
    cert = mlp.init_certificate([1, 16, 1], seed=2)
    weights = cfg.loss_weights()
    trained, losses = train_phase(cert, ds, weights, cfg, sys_,
                                  np.random.default_rng(1))
    assert losses[-1] <= 1e-6 or min(losses) < losses[0]
    h_safe = mlp.forward_batch(trained, ds.safe)
    h_unsafe = mlp.forward_batch(trained, ds.unsafe)
    assert np.all(h_safe >= 0.0)
    assert np.all(h_unsafe <= -weights.delta + weights.psi)
    # equivalently, the first two loss components vanish on training data
    filt = SafetyFilter(certificate=trained, system=sys_,
                        correction_cap=cfg.correction_cap)
    _, (l1, l2, _) = total_loss(trained, ds, filt, weights)
    assert l1 == 0.0 and l2 == 0.0


def test_train_phase_best_checkpoint_monotone_running_min():
    sys_ = toy_system()
    cfg = toy_config(epochs=40)
    ds = build_datasets(sys_, 200, 200, 200, seed=3)
    cert = mlp.init_certificate([1, 16, 1], seed=5)
    trained, losses = train_phase(cert, ds, cfg.loss_weights(), cfg, sys_,
                                  np.random.default_rng(2))
    running = np.minimum.accumulate(losses)
    assert np.all(np.diff(running) <= 0)
    filt = SafetyFilter(certificate=trained, system=sys_,
                        correction_cap=cfg.correction_cap)
    final_loss, _ = total_loss(trained, ds, filt, cfg.loss_weights())
    assert final_loss == pytest.approx(min(losses), abs=1e-12)


def test_refine_toy_certifies_phase_zero():
    cert, history, report = refine(toy_config())
    assert history.status == STATUS_CERTIFIED
    assert len(history.refinements) == 1
    assert history.refinements[0].psi == 0.0
    assert report.quantile <= 0.0


def test_refine_undertrained_dubins_triggers_refinement():
    cfg = TrainConfig(system="dubins", hidden_layers=(16,), epochs=5,
                      batch_size=256, n_safe=1500, n_unsafe=1500,
                      n_domain=1500, conformal_samples=4000, alpha=0.05,
                      beta=1e-3, max_refinements=1, seed=1)
    cert, history, report = refine(cfg)
    assert history.refinements[0].quantile > 0.0
    assert len(history.refinements) == 2
    assert history.refinements[1].psi < 0.0
    psis = [r.psi for r in history.refinements]
    assert all(b <= a for a, b in zip(psis, psis[1:]))


def test_refine_reproducible_modulo_wall_clock():
    cfg = toy_config(epochs=30, max_refinements=1, seed=11)
    c1, h1, r1 = refine(cfg)
    c2, h2, r2 = refine(cfg)
    assert mlp.certificate_to_json(c1) == mlp.certificate_to_json(c2)
    assert r1 == r2
    d1, d2 = h1.to_dict(), h2.to_dict()
    for key in ("phase_seconds", "phase_minor_faults"):  # measurements of the machine
        d1.pop(key)
        d2.pop(key)
    assert d1 == d2


def test_history_records_each_phases_minor_faults(monkeypatch):
    from cbfcert import trainer

    import resource

    def process_faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    cfg = toy_config(epochs=3, max_refinements=1, seed=11)
    before = process_faults()
    _, history, _ = refine(cfg)
    faults = history.phase_minor_faults
    assert len(faults) == len(history.phase_seconds) == len(history.epoch_losses) == 2
    assert all(isinstance(f, int) and f >= 0 for f in faults)
    assert sum(faults) <= process_faults() - before  # each phase's own faults
    monkeypatch.setattr(trainer, "resource", None)
    _, history, _ = refine(cfg)
    doc = json.loads(json.dumps(history.to_dict(), indent=2))
    assert doc["phase_minor_faults"] == [None, None]


def test_refine_budget_exhausted_returns_best():
    # one epoch cannot certify at a tight alpha; both rounds report and
    # the better one wins
    cfg = TrainConfig(system="dubins", hidden_layers=(8,), epochs=1,
                      batch_size=256, n_safe=500, n_unsafe=500, n_domain=500,
                      conformal_samples=2000, alpha=0.005, beta=1e-3,
                      max_refinements=1, seed=0)
    cert, history, report = refine(cfg)
    assert history.status == STATUS_BUDGET_EXHAUSTED
    assert report.quantile == min(r.quantile for r in history.refinements)


def test_tightening_psi_never_grows_violation_count():
    # retraining at a more negative psi weakly shrinks the set of training
    # points violating that psi (points whose filter constraint is active
    # score exactly zero in both certificates and cancel out)
    sys_ = toy_system()
    cfg = toy_config(epochs=200)
    ds = build_datasets(sys_, cfg.n_safe, cfg.n_unsafe, cfg.n_domain, seed=7)
    cert = mlp.init_certificate([1, 16, 1], seed=7)
    psi_new = -0.05

    def count_violations(c):
        filt = SafetyFilter(certificate=c, system=sys_,
                            correction_cap=cfg.correction_cap)
        pts = np.concatenate([ds.safe, ds.unsafe, ds.domain])
        scores = score_states(c, sys_, filt, pts, cfg.loss_weights(psi=0.0))
        return int(np.sum(scores > psi_new))

    cert0, _ = train_phase(cert, ds, cfg.loss_weights(psi=0.0), cfg, sys_,
                           np.random.default_rng(1))
    before = count_violations(cert0)
    cert1, _ = train_phase(cert0, ds, cfg.loss_weights(psi=psi_new), cfg, sys_,
                           np.random.default_rng(2))
    after = count_violations(cert1)
    assert after <= before


def test_certification_soundness_over_seeds():
    # after a certified run, fresh-sample violations stay within epsilon
    # plus binomial slack; with beta = 1e-3 none of the 20 seeds should
    # breach the bound
    n_eval = 100_000
    breaches = 0
    for seed in range(20):
        cfg = toy_config(seed=seed)
        cert, history, report = refine(cfg)
        assert history.status == STATUS_CERTIFIED
        sys_ = cfg.build_system()
        filt = SafetyFilter(certificate=cert, system=sys_,
                            respect_input_bounds=cfg.respect_input_bounds_training)
        xs = sample_uniform(sys_.state_bounds, n_eval,
                            np.random.default_rng([seed, 999]))
        scores = score_states(cert, sys_, filt, xs, cfg.loss_weights())
        frac = float(np.mean(scores > report.quantile))
        slack = 3.0 * np.sqrt(report.epsilon * (1 - report.epsilon) / n_eval)
        if frac > report.epsilon + slack:
            breaches += 1
    assert breaches == 0


def test_alpha_epsilon_curve_values():
    rows = alpha_epsilon_curve(100_000, 1e-3, [0.05])
    assert rows[0]["error"] is None
    assert rows[0]["epsilon"] - 0.05 < 0.005
    small = alpha_epsilon_curve(500, 1e-3, [0.05])[0]["epsilon"]
    big = alpha_epsilon_curve(5000, 1e-3, [0.05])[0]["epsilon"]
    assert small >= big
    assert alpha_epsilon_curve(1000, 1e-3, []) == []


def test_alpha_epsilon_curve_collects_errors():
    rows = alpha_epsilon_curve(100, 1e-3, [0.001, 0.05])
    assert rows[0]["epsilon"] is None and rows[0]["error"]
    assert rows[1]["epsilon"] is not None


def test_psi_reset_mode_sets_margin_to_negated_quantile():
    cfg = TrainConfig(system="dubins", hidden_layers=(16,), epochs=3,
                      batch_size=256, n_safe=800, n_unsafe=800, n_domain=800,
                      conformal_samples=2000, alpha=0.005, beta=1e-3,
                      max_refinements=1, seed=4, psi_update="reset")
    _, history, _ = refine(cfg)
    first = history.refinements[0]
    assert first.quantile > 0
    assert history.refinements[1].psi == pytest.approx(-first.quantile)


def test_config_coerces_json_numerics():
    cfg = TrainConfig.from_dict({"epochs": 8, "kappa_gain": 2, "seed": 2})
    assert cfg.kappa_gain == 2.0 and isinstance(cfg.kappa_gain, float)
    for epochs in (8.0, 8.5):
        with pytest.raises(ConfigError) as info:
            TrainConfig.from_dict({"epochs": epochs})
        assert info.value.messages == ["epochs: must be an integer"]


@pytest.mark.parametrize("cap", [-1.0, 0.0, float("nan"), float("inf"), "abc", True])
def test_config_rejects_bad_correction_cap(cap):
    with pytest.raises(ConfigError) as info:
        TrainConfig(correction_cap=cap)
    errors = info.value.messages
    assert errors and all(e.startswith("correction_cap: must be null or a") for e in errors)
    TrainConfig(correction_cap=None)


@pytest.mark.parametrize("name, value", [
    ("hidden_layers", "64"), ("hidden_layers", [64.5]), ("hidden_layers", [True]),
    ("learning_rate", "0.001"), ("learning_rate", True),
    ("learning_rate", float("nan")), ("learning_rate", 10**400), ("epochs", "8"),
    ("seed", None),
    ("respect_input_bounds_training", 0), ("system_params", []),
])
def test_config_rejects_mistyped_fields(name, value):
    with pytest.raises(ConfigError, match=f"^{name}: must be "):
        TrainConfig.from_dict({name: value})
    with pytest.raises(ConfigError) as info:
        TrainConfig(**{name: value})
    assert info.value.messages[0].startswith(f"{name}: must be ")


def test_config_from_dict_keeps_json_layer_widths():
    cfg = TrainConfig.from_dict({"hidden_layers": [32, 16], "learning_rate": 1})
    assert cfg.hidden_layers == (32, 16)
    assert cfg.learning_rate == 1.0 and isinstance(cfg.learning_rate, float)
    with pytest.raises(ConfigError) as info:
        TrainConfig.from_dict({"hidden_layers": [32, 16.0]})
    assert info.value.messages == ["hidden_layers: must be a list of integers"]
