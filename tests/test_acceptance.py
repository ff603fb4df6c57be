"""Acceptance gate: every release-blocking criterion, one test each.

Each test prints a single PASS line on success (run with -s or -rA to see
them); a failure shows up as the test failing. Criteria 1-5 are the
global correctness invariants; 6-8 are the desk-scale ground-vehicle
studies; the two smoke tests drive the higher-dimensional pipelines end
to end at reduced budgets.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from cbfcert import make_system, mlp
from cbfcert.certificate import (LossWeights, conformal_quantile, epsilon_for,
                                 quantify_safety, quantile_index,
                                 total_loss_and_gradient)
from cbfcert.cli import main
from cbfcert.controller import SafetyFilter, _batch_box
from cbfcert.sampling import TrainingDatasets, build_datasets, sample_uniform, stream
from cbfcert.simulator import SliceSpec, empirical_safety_rate, levelset_grid
from cbfcert.special import regularized_incomplete_beta
from cbfcert.trainer import (STATUS_CERTIFIED, TrainConfig, refine,
                             train_phase)

from oracles import (betainc_quadrature, composite_loss_fd_gradient,
                     composite_loss_values, grid_qp_best)

REPO_ROOT = Path(__file__).resolve().parents[1]


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# --------------------------------------------------------------------------
# 1. Nested-gradient correctness on every benchmark architecture
# --------------------------------------------------------------------------

ARCHITECTURES = [
    ("dubins", (3, 64, 1)),
    ("planar_aerial", (6, 128, 128, 1)),
    ("quadruped", (8, 128, 128, 1)),
]


def _random_pair(sys_, arch, rng):
    """A random certificate, 2+2+2 batch, a filter with a random gain and
    random reference inputs, the closed-loop directions of its decisions,
    and loss weights whose hinge arguments stay clear of the kink (finite
    differences are only a valid oracle away from the subgradient point)."""
    base = mlp.init_certificate(arch, seed=int(rng.integers(2**31)))
    cert = mlp.MlpCertificate(
        tuple(arch),
        tuple(float(rng.uniform(0.8, 1.6)) * w for w in base.weights),
        tuple(0.25 * rng.standard_normal(b.shape) for b in base.biases),
    )
    xs = sample_uniform(sys_.state_bounds, 6, rng)
    batch = (xs[:2], xs[2:4], xs[4:])
    lo, hi = sys_.input_bounds[:, 0], sys_.input_bounds[:, 1]
    refs = rng.uniform(lo, hi, size=(2, sys_.m))
    filt = SafetyFilter(certificate=cert,
                        system=dataclasses.replace(sys_, reference_policy=lambda pts, u=refs: u),
                        kappa_gain=float(rng.uniform(0.5, 2.0)), correction_cap=1.0)
    inputs = filt.batch_decide(batch[2]).inputs
    dirs = sys_.f(batch[2]) + np.einsum("bnm,bm->bn", sys_.g(batch[2]), inputs)
    weights = LossWeights(psi=float(rng.uniform(-0.3, 0.05)))
    h = mlp.forward_batch(cert, xs)
    _, grads = mlp.values_and_input_gradients(cert, batch[2])
    args = np.concatenate([
        -h[:2] - weights.psi,
        h[2:4] + weights.delta - weights.psi,
        -np.einsum("bn,bn->b", grads, dirs) - filt.kappa_gain * h[4:] - weights.psi,
    ])
    q3_args = args[4:]
    if np.min(np.abs(args)) < 1e-3 or not np.any(q3_args > 0):
        return None
    return cert, batch, filt, dirs, weights


def test_acceptance_1_nested_gradients_match_finite_differences():
    for name, arch in ARCHITECTURES:
        sys_ = make_system(name)
        rng = np.random.default_rng([4100, arch[1]])
        done = 0
        attempts = 0
        while done < 20:
            attempts += 1
            assert attempts < 400, "could not build kink-free batches"
            pair = _random_pair(sys_, arch, rng)
            if pair is None:
                continue
            cert, batch, filt, dirs, weights = pair
            ds = TrainingDatasets(safe=batch[0], unsafe=batch[1], domain=batch[2])
            value, grads = total_loss_and_gradient(cert, ds, filt, weights)
            params = (weights.lambda1, weights.lambda2, weights.delta,
                      weights.psi, filt.kappa_gain)
            oracle_value = composite_loss_values(cert.weights, cert.biases,
                                                 batch, dirs, params)
            assert value == pytest.approx(oracle_value, rel=1e-12, abs=1e-14)
            fd_w, fd_b = composite_loss_fd_gradient(cert, batch, dirs, params)
            for got, want in zip(grads, fd_w + fd_b):
                err = np.abs(got - want)
                tol = np.maximum(1e-7, 1e-4 * np.abs(want))
                assert np.all(err <= tol), (
                    f"{name}: gradient mismatch, worst excess "
                    f"{float(np.max(err - tol)):.3e}"
                )
            done += 1
    report("1 PASS: nested parameter gradients match finite differences "
           "on all three benchmark architectures (20 pairs each)")


# --------------------------------------------------------------------------
# 2. Conformal coverage law
# --------------------------------------------------------------------------

def test_acceptance_2_coverage_follows_beta_law():
    n, alpha = 500, 0.05
    l = quantile_index(n, alpha)
    assert l == 25
    coverages = []
    for trial in range(300):
        rng = np.random.default_rng([9100, trial])
        scores = rng.uniform(size=n)
        q_hat = conformal_quantile(scores, alpha)
        fresh = rng.uniform(size=100_000)
        coverages.append(float(np.mean(fresh <= q_hat)))
    ks = stats.kstest(coverages, stats.beta(n + 1 - l, l).cdf)
    mean_cov = float(np.mean(coverages))
    assert ks.pvalue >= 0.01, f"KS p-value {ks.pvalue}"
    assert mean_cov >= 0.94
    report(f"2 PASS: coverage ~ Beta({n + 1 - l}, {l}) "
           f"(KS p={ks.pvalue:.3f}, mean coverage {mean_cov:.4f})")


# --------------------------------------------------------------------------
# 3. Finite-sample guarantee consistency
# --------------------------------------------------------------------------

def test_acceptance_3_epsilon_bound_and_violation_rates():
    n, alpha, beta = 2000, 0.05, 1e-3
    eps = epsilon_for(n, alpha, beta)
    l = quantile_index(n, alpha)
    a, b = n - l + 1, l
    mine = regularized_incomplete_beta(1.0 - eps, a, b)
    quad = betainc_quadrature(1.0 - eps, a, b)
    assert abs(mine - quad) <= 1e-8
    assert mine <= beta
    assert betainc_quadrature(1.0 - (eps - 1e-6), a, b) > beta
    exceed = 0
    for trial in range(200):
        rng = np.random.default_rng([9200, trial])
        scores = rng.uniform(size=n)
        q_hat = conformal_quantile(scores, alpha)
        if 1.0 - q_hat > eps:   # true violation rate for uniform scores
            exceed += 1
    assert exceed <= 3, f"{exceed} of 200 trials exceeded epsilon"
    report(f"3 PASS: epsilon={eps:.5f} satisfies the Beta tail bound "
           f"(quadrature-checked); {exceed}/200 trials exceeded it")


# --------------------------------------------------------------------------
# 4. Epsilon approaches alpha as the verification set grows
# --------------------------------------------------------------------------

def test_acceptance_4_epsilon_curve_flattens_onto_alpha():
    alpha, beta = 0.05, 1e-3
    ns = [100, 1000, 10_000, 100_000]
    eps = [epsilon_for(n, alpha, beta) for n in ns]
    assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:])), eps
    assert eps[-1] - alpha < 0.005
    report(f"4 PASS: epsilon(N) non-increasing {['%.4f' % e for e in eps]}, "
           f"gap at N=1e5 is {eps[-1] - alpha:.5f}")


# --------------------------------------------------------------------------
# 5. Exactness of the box-constrained CBF-QP solve
# --------------------------------------------------------------------------

def test_acceptance_5_qp_matches_grid_oracle():
    rng = np.random.default_rng(555)
    feasible_checked = 0
    trials = 0
    while feasible_checked < 1000:
        trials += 1
        assert trials < 3000
        a = rng.uniform(-2, 2, size=2)
        if rng.random() < 0.05:
            a[rng.integers(2)] = 0.0
        lo = rng.uniform(-2, 0, size=2)
        hi = lo + rng.uniform(0.5, 3.0, size=2)
        u_ref = rng.uniform(lo - 1.0, hi + 1.0)
        b = float(rng.uniform(-3, 3))
        inputs, _, _, feasible = _batch_box(u_ref[None], a[None], np.array([b]), lo, hi)
        u = inputs[0]
        if not feasible[0]:
            continue
        assert np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12)
        assert float(a @ u) >= b - 1e-9
        dist_grid, _ = grid_qp_best(u_ref, a, b, lo, hi, resolution=201)
        if dist_grid is not None:
            cell = float(np.linalg.norm((hi - lo) / 200.0))
            assert np.linalg.norm(u - u_ref) <= dist_grid + cell
        feasible_checked += 1
    report("5 PASS: closed-form QP matches the 201x201 grid oracle on 1000 "
           "feasible instances (feasibility within 1e-9)")


# --------------------------------------------------------------------------
# 6. Desk-scale ground-vehicle study: certify, inspect, deploy
# --------------------------------------------------------------------------

def test_acceptance_6_dubins_certify_levelset_and_safety_rate():
    config = TrainConfig(
        system="dubins", hidden_layers=(64,), epochs=300, batch_size=256,
        learning_rate=1e-3, n_safe=6700, n_unsafe=6700, n_domain=6600,
        conformal_samples=20_000, alpha=0.0075, beta=1e-3,
        max_refinements=3, seed=0,
    )
    cert, history, rep = refine(config)
    assert rep.epsilon <= 0.01, "chosen alpha must deliver a 99% guarantee"
    assert history.status == STATUS_CERTIFIED
    assert rep.quantile <= 0.0

    sys_ = make_system("dubins")
    spec = SliceSpec(free_axes=(0, 1), fixed_values=(0.0, 0.0, 0.0),
                     resolution=201)
    v0, v1, grid = levelset_grid(cert, spec, sys_.state_bounds)
    inside = (np.abs(v0[:, None]) <= 0.2) & (np.abs(v1[None, :]) <= 0.2)
    bad_nodes = int(np.sum(grid[inside] > 0))
    budget = math.ceil(rep.epsilon * int(inside.sum()))
    assert bad_nodes <= budget, f"{bad_nodes} positive nodes in the unsafe box"

    filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=True)
    rate, counts, rollouts = empirical_safety_rate(filt, 1000, 500, 0.02,
                                                   seed=101)
    floor = 0.99 - 3.0 * math.sqrt(0.01 * 0.99 / 1000.0)
    assert rate >= floor, f"safety rate {rate} below {floor}"

    h0 = np.array([r.h_values[0] for r in rollouts])
    min_h = np.array([float(np.min(r.h_values)) for r in rollouts])
    started_inside = h0 > 0
    frac = float(np.mean(min_h[started_inside] >= -1e-3))
    inv_floor = 1.0 - rep.epsilon - 3.0 * math.sqrt(
        rep.epsilon * (1 - rep.epsilon) / max(1, int(started_inside.sum())))
    assert frac >= inv_floor
    report(f"6 PASS: certified (eps={rep.epsilon:.5f}), {bad_nodes} unsafe-box "
           f"level-set nodes (budget {budget}), safety rate {rate:.4f} "
           f">= {floor:.4f}, invariance {frac:.4f}")


# --------------------------------------------------------------------------
# 7. Conformal score decreases with training-set size
# --------------------------------------------------------------------------

def _phase0_quantile(total_points, seed, epochs):
    per = total_points // 3
    config = TrainConfig(
        system="dubins", hidden_layers=(64,), epochs=epochs, batch_size=256,
        n_safe=per, n_unsafe=per, n_domain=total_points - 2 * per,
        conformal_samples=20_000, alpha=0.0075, beta=1e-3,
        loss_tolerance=0.0, seed=seed,
    )
    sys_ = make_system("dubins")
    ds = build_datasets(sys_, config.n_safe, config.n_unsafe, config.n_domain,
                        seed=seed)
    cert = mlp.init_certificate(config.layer_sizes(sys_.n), seed=seed)
    cert, _ = train_phase(cert, ds, config.loss_weights(), config, sys_,
                          stream(seed, "epochs", 0))
    filt = SafetyFilter(certificate=cert, system=sys_)
    return quantify_safety(cert, sys_, filt, config.conformal_samples, config.alpha,
                           config.beta, seed=seed + 5000,
                           weights=config.loss_weights()).quantile


def test_acceptance_7_score_non_increasing_in_sample_size():
    sizes = [2000, 5000, 10_000, 20_000]
    inversions = 0
    table = {}
    for seed in (0, 1, 2):
        quantiles = [_phase0_quantile(size, seed, epochs=6) for size in sizes]
        table[seed] = quantiles
        inversions += sum(1 for a, b in zip(quantiles, quantiles[1:])
                          if b > a + 1e-9)
    assert inversions <= 1, (inversions, table)
    report(f"7 PASS: phase-0 conformal score non-increasing over {sizes} "
           f"({inversions} inversion(s) across 3 seeds)")


# --------------------------------------------------------------------------
# 8. Undertrained certificates fail verification
# --------------------------------------------------------------------------

def test_acceptance_8_undertrained_certificates_score_positive():
    positive = 0
    quantiles = []
    for seed in (0, 1, 2):
        q = _phase0_quantile(3000, seed, epochs=3)
        quantiles.append(q)
        positive += int(q > 0.0)
    assert positive >= 2, quantiles
    report(f"8 PASS: undertrained runs score q>0 in {positive}/3 seeds "
           f"({['%.3f' % q for q in quantiles]})")


# --------------------------------------------------------------------------
# Smoke: the higher-dimensional pipelines run end to end with at least one
# refinement and valid artifacts (criteria 1-5 above are their invariants)
# --------------------------------------------------------------------------

def _smoke_config(tmp_path, system):
    doc = {
        "system": system,
        "hidden_layers": [128, 128],
        "epochs": 15,
        "batch_size": 256,
        "n_safe": 600,
        "n_unsafe": 600,
        "n_domain": 600,
        "conformal_samples": 2000,
        "alpha": 0.005,
        "beta": 1e-3,
        "max_refinements": 1,
        "seed": 1,
        "simulation": {"n_rollouts": 5, "horizon_steps": 100, "dt": 0.02},
        "levelset": {"free_axes": [0, 1], "resolution": 41},
    }
    path = tmp_path / f"{system}.json"
    path.write_text(json.dumps(doc))
    return path


def _run_smoke(tmp_path, system):
    config = _smoke_config(tmp_path, system)
    out = tmp_path / system
    code = main(["train", "--config", str(config), "--out", str(out)])
    assert code in (0, 2)
    cert = mlp.load_certificate(out / "certificate.json")
    history = json.loads((out / "history.json").read_text())
    rep = json.loads((out / "report.json").read_text())
    assert len(history["refinements"]) >= 2, "no refinement executed"
    psis = [r["psi"] for r in history["refinements"]]
    assert all(b <= a for a, b in zip(psis, psis[1:]))
    assert rep["n_samples"] == 2000
    # artifacts drive the rest of the pipeline
    sim = main(["simulate", "--config", str(config),
                "--cert", str(out / "certificate.json"),
                "--out", str(out / "sim")])
    lvl = main(["levelset", "--config", str(config),
                "--cert", str(out / "certificate.json"),
                "--out", str(out / "lvl")])
    assert sim == 0 and lvl == 0
    assert (out / "sim" / "summary.json").exists()
    assert (out / "lvl" / "levelset.csv").exists()
    return history


def test_acceptance_smoke_planar_aerial_pipeline(tmp_path):
    history = _run_smoke(tmp_path, "planar_aerial")
    report(f"SMOKE PASS: planar_aerial end-to-end "
           f"({len(history['refinements'])} verification rounds)")


def test_acceptance_smoke_quadruped_pipeline(tmp_path):
    history = _run_smoke(tmp_path, "quadruped")
    report(f"SMOKE PASS: quadruped end-to-end "
           f"({len(history['refinements'])} verification rounds)")
