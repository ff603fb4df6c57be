"""The benchmark's operations and the checks on their outputs.

Each operation is one user-visible step of the cbfcert pipeline, run in
this process through the ``cbfcert`` command (``cli.main``) or, for the
online decision, through ``SafetyFilter.batch_decide``. An operation
returns an ``Outcome``: its wall time, the work it did and the artifacts
it wrote, read back into memory. Checks run after the timed phase and
raise ``CheckError`` on a wrong output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from cbfcert import certificate, cli, controller, dynamics, mlp, trainer

CURVE_BETA = 1e-3


class CheckError(AssertionError):
    """An operation's output failed its check."""


@dataclass
class Outcome:
    kind: str
    wall_s: float
    work: float                 # units of the operation's throughput metric
    out: dict = field(default_factory=dict)
    inputs: object = None       # outcomes with equal inputs must be equal


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _cli(argv: list[str]) -> tuple[int, float]:
    """Run one cbfcert command; returns (exit code, wall seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - started
    return code, wall


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2))
    return path


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def op_train(config_path: Path, out: Path) -> Outcome:
    code, wall = _cli(["train", "--config", str(config_path), "--out", str(out)])
    history = json.loads((out / "history.json").read_text())
    config = json.loads((out / "run_config.json").read_text())
    points = config["n_safe"] + config["n_unsafe"] + config["n_domain"]
    epochs = sum(len(losses) - 1 for losses in history["epoch_losses"])
    return Outcome("train", wall, epochs * points, {
        "code": code,
        "out": out,
        "phase_s": sum(history["phase_seconds"]),
        "epochs": epochs,
        "history": history,
        "report": json.loads((out / "report.json").read_text()),
        "cert_text": (out / "certificate.json").read_text(),
    })


def op_verify(config_path: Path, cert_path: Path, out: Path, seed: int,
              n_samples: int) -> Outcome:
    code, wall = _cli(["verify", "--config", str(config_path), "--cert",
                       str(cert_path), "--out", str(out), "--seed", str(seed)])
    _check(code == 0, f"verify exited {code}")
    return Outcome("verify", wall, n_samples, {
        "report_text": (out / "report.json").read_text(), "seed": seed}, seed)


def op_levelset(config_path: Path, cert_path: Path, out: Path,
                resolution: int) -> Outcome:
    code, wall = _cli(["levelset", "--config", str(config_path), "--cert",
                       str(cert_path), "--out", str(out)])
    _check(code == 0, f"levelset exited {code}")
    return Outcome("levelset", wall, resolution * resolution, {
        "csv_text": (out / "levelset.csv").read_text(),
        "sidecar": json.loads((out / "levelset.json").read_text())})


def op_curve(out: Path, ns: list[int], alpha_min: float, alpha_max: float,
             alpha_count: int) -> Outcome:
    argv = ["curve", "--beta", repr(CURVE_BETA), "--alpha-min", repr(alpha_min),
            "--alpha-max", repr(alpha_max), "--alpha-count", str(alpha_count),
            "--out", str(out)]
    for n in ns:
        argv += ["--n", str(n)]
    code, wall = _cli(argv)
    _check(code == 0, f"curve exited {code}")
    return Outcome("curve", wall, len(ns) * alpha_count,
                   {"csv_text": (out / "curve.csv").read_text()})


def op_simulate(config_path: Path, cert_path: Path, out: Path, seed: int) -> Outcome:
    code, wall = _cli(["simulate", "--config", str(config_path), "--cert",
                       str(cert_path), "--out", str(out), "--seed", str(seed)])
    _check(code == 0, f"simulate exited {code}")
    statuses = (out / "rollout_statuses.csv").read_text()
    steps = sum(int(row["steps"]) for row in csv.DictReader(io.StringIO(statuses)))
    trajectories = sorted(out.glob("trajectory_*.csv"))
    return Outcome("simulate", wall, steps, {
        "summary_text": (out / "summary.json").read_text(),
        "statuses_text": statuses,
        "trajectories": [p.read_text() for p in trajectories],
    }, seed)


def op_decide(cert_path: Path, train_doc: dict, states: np.ndarray) -> Outcome:
    """Single-state decisions of the deployed (box-bounded) filter."""
    cert = mlp.load_certificate(cert_path)
    system = dynamics.make_system(train_doc["system"])
    filt = controller.SafetyFilter(certificate=cert, system=system,
                                   kappa_gain=train_doc.get("kappa_gain", 1.0),
                                   respect_input_bounds=True)
    latencies = np.empty(states.shape[0])
    inputs = np.empty((states.shape[0], system.m))
    clock = time.perf_counter_ns
    started = time.perf_counter()
    for i in range(states.shape[0]):
        t0 = clock()
        decision = filt.batch_decide(states[i:i + 1])
        latencies[i] = clock() - t0
        inputs[i] = decision.inputs[0]
    wall = time.perf_counter() - started
    return Outcome("decide", wall, states.shape[0], {
        "latency_us": latencies / 1e3, "inputs": inputs,
        "input_bounds": system.input_bounds})


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def _same_as_first(outcome: Outcome, first: Outcome, key: str) -> None:
    _check(outcome.out[key] == first.out[key],
           f"{outcome.kind}: repeated run with the same inputs changed {key}")


def quantile_rank(n: int, alpha: float) -> tuple[int, int]:
    """(ceil((N+1)(1-alpha)), floor((N+1) alpha)) in exact arithmetic."""
    a = Fraction(repr(alpha))
    return math.ceil((n + 1) * (1 - a)), math.floor((n + 1) * a)


def check_epsilon(n: int, alpha: float, beta: float, eps: float) -> None:
    """eps meets I_{1-eps}(N-l+1, l) <= beta by scipy, and eps - 1e-6 does not.

    The program's incomplete beta is accurate to about 1e-10 absolute, so
    the bound is read with a relative slack of 1e-9 on beta."""
    from scipy.special import betainc

    _, l = quantile_rank(n, alpha)
    a, b = n - l + 1, l
    _check(float(betainc(a, b, 1.0 - eps)) <= beta * (1.0 + 1e-9),
           f"epsilon {eps} misses the Beta bound at N={n}, alpha={alpha}")
    _check(float(betainc(a, b, 1.0 - (eps - 1e-6))) > beta,
           f"epsilon {eps} is not the smallest at N={n}, alpha={alpha}")


def _verifier(cert, system, doc: dict):
    return controller.SafetyFilter(
        certificate=cert, system=system, kappa_gain=doc.get("kappa_gain", 1.0),
        respect_input_bounds=doc.get("respect_input_bounds_training", False))


def check_train(outcome: Outcome, first: Outcome, doc: dict,
                require_certified: bool, max_epsilon: float) -> None:
    """Status and guarantee as in acceptance criterion 6, and the report's
    quantile reproduced by quantify_safety at the report's seed."""
    report = outcome.out["report"]
    if require_certified:
        _check(outcome.out["code"] == 0, f"train exited {outcome.out['code']}")
        _check(outcome.out["history"]["status"] == trainer.STATUS_CERTIFIED,
               f"train status {outcome.out['history']['status']}")
        _check(report["quantile"] <= 0.0, f"quantile {report['quantile']} > 0")
        _check(report["epsilon"] <= max_epsilon,
               f"epsilon {report['epsilon']} > {max_epsilon}")
    else:
        _check(outcome.out["code"] in (0, 2), f"train exited {outcome.out['code']}")
    if outcome is not first:
        _same_as_first(outcome, first, "cert_text")
        return
    config = trainer.TrainConfig.from_dict(doc)
    cert = mlp.load_certificate(outcome.out["out"] / "certificate.json")
    system = config.build_system()
    again = certificate.quantify_safety(
        cert, system, _verifier(cert, system, doc), config.conformal_samples,
        config.alpha, config.beta, seed=report["seed"],
        weights=config.loss_weights())
    _check(again.quantile == report["quantile"],
           f"quantify_safety gives {again.quantile}, report says {report['quantile']}")


def check_verify(outcome: Outcome, first: Outcome, doc: dict, cert_path: Path) -> None:
    """The quantile is the ceil((N+1)(1-alpha))-th order statistic of the
    verification scores; epsilon meets the Beta bound."""
    if outcome is not first:
        _same_as_first(outcome, first, "report_text")
        return
    report = json.loads(outcome.out["report_text"])
    n, alpha = doc["conformal_samples"], doc["alpha"]
    cert = mlp.load_certificate(cert_path)
    system = dynamics.make_system(doc["system"])
    scores = certificate.verification_scores(
        cert, system, _verifier(cert, system, doc), n, seed=outcome.out["seed"],
        weights=trainer.TrainConfig.from_dict(doc).loss_weights())
    rank, _ = quantile_rank(n, alpha)
    _check(report["quantile"] == float(np.sort(scores)[rank - 1]),
           f"quantile {report['quantile']} is not order statistic {rank} of {n}")
    check_epsilon(n, alpha, doc["beta"], report["epsilon"])


def check_levelset(outcome: Outcome, first: Outcome, cert_path: Path,
                   rng: np.random.Generator, samples: int = 64) -> None:
    """The grid is bit-identical to forward() at sampled nodes."""
    if outcome is not first:
        _same_as_first(outcome, first, "csv_text")
        return
    rows = list(csv.reader(io.StringIO(outcome.out["csv_text"])))
    sidecar = outcome.out["sidecar"]
    res = sidecar["resolution"]
    _check(len(rows) == res + 1 and all(len(r) == res + 1 for r in rows),
           "level-set grid has the wrong shape")
    cert = mlp.load_certificate(cert_path)
    i0, i1 = sidecar["axes"]
    state = np.array(sidecar["fixed_values"], dtype=float)
    for i, j in rng.integers(res, size=(samples, 2)):
        state[i0] = float(rows[i + 1][0])
        state[i1] = float(rows[0][j + 1])
        _check(float(rows[i + 1][j + 1]) == mlp.forward(cert, state),
               f"level-set node ({i}, {j}) differs from forward()")


def check_curve(outcome: Outcome, first: Outcome) -> None:
    if outcome is not first:
        _same_as_first(outcome, first, "csv_text")
        return
    rows = list(csv.DictReader(io.StringIO(outcome.out["csv_text"])))
    _check(len(rows) == outcome.work, f"curve has {len(rows)} rows, want {outcome.work}")
    for row in rows:
        _check(row["error"] == "", f"curve row failed: {row['error']}")
        check_epsilon(int(row["n_samples"]), float(row["alpha"]),
                      float(row["beta"]), float(row["epsilon"]))


def check_simulate(outcome: Outcome, first: Outcome, input_bounds: np.ndarray,
                   apply_floor: bool) -> None:
    """Counts add up, every applied input lies inside the input box, and a
    certified barrier keeps the rate at or above the 99% floor."""
    if outcome is not first:
        _same_as_first(outcome, first, "summary_text")
        _same_as_first(outcome, first, "statuses_text")
        return
    summary = json.loads(outcome.out["summary_text"])
    n = summary["n_rollouts"]
    _check(sum(summary["counts"].values()) == n, "status counts do not add up")
    _check(len(outcome.out["trajectories"]) == n, "a trajectory file is missing")
    lo, hi = input_bounds[:, 0], input_bounds[:, 1]
    m = input_bounds.shape[0]
    for text in outcome.out["trajectories"]:
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 3:
            continue  # stopped before its first step: no input applied
        first_u = rows[0].index("u0")
        for row in rows[1:-1]:
            u = np.array([float(v) for v in row[first_u:first_u + m]])
            _check(bool(np.all(u >= lo) and np.all(u <= hi)),
                   f"applied input {u} outside the input box")
    if apply_floor:
        floor = 0.99 - 3.0 * math.sqrt(0.01 * 0.99 / n)
        _check(summary["rate"] >= floor, f"safety rate {summary['rate']} < {floor}")


def check_decide(outcome: Outcome) -> None:
    inputs = outcome.out["inputs"]
    bounds = outcome.out["input_bounds"]
    _check(bool(np.all(np.isfinite(inputs))), "non-finite filtered input")
    _check(bool(np.all(inputs >= bounds[:, 0]) and np.all(inputs <= bounds[:, 1])),
           "filtered input outside the input box")
