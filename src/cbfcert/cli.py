"""Command-line pipeline driver.

Subcommands: train (full refinement loop), verify (conformal report for an
existing certificate), simulate (closed-loop safety rate), levelset (grid
export of the barrier over a 2-D slice), curve (alpha-epsilon tables).

Every command validates its whole configuration before touching the
output directory. Exit codes: 0 success, 1 validation or runtime error,
2 training budget exhausted with valid artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys as _sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import mlp
from .certificate import report_from_scores, verification_scores
from .controller import SafetyFilter
from .dynamics import ControlAffineSystem
from .simulator import (SliceSpec, empirical_safety_rate, levelset_grid,
                        levelset_to_csv, rollout_to_csv)
from .trainer import (STATUS_CERTIFIED, ConfigError, TrainConfig,
                      alpha_epsilon_curve, fits_type, refine)

_ENV_OUT_ROOT = "CBFCERT_OUT"

_SIM_DEFAULTS = {
    "n_rollouts": 100,
    "horizon_steps": 500,
    "dt": 0.02,
    "respect_input_bounds": True,
    "emit_trajectories": True,
    "max_trajectory_files": 10,
}

_LEVELSET_DEFAULTS = {
    "free_axes": [0, 1],
    "fixed_values": None,   # None: midpoint of each state interval
    "resolution": 201,
}


def _load_config(path: str) -> tuple[TrainConfig, dict, dict, ControlAffineSystem]:
    """The training config, the simulation and levelset sections, and the
    system they describe; raises ConfigError listing every problem."""
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError([f"config: file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"])
    if not isinstance(doc, dict):
        raise ConfigError(["config: top level must be an object"])
    sections = []
    for name, defaults in (("simulation", _SIM_DEFAULTS), ("levelset", _LEVELSET_DEFAULTS)):
        given = doc.pop(name, {}) or {}
        unknown = set(given) - set(defaults)
        if unknown:
            raise ConfigError([f"{name}: unknown keys {sorted(unknown)}"])
        sections.append({**defaults, **given})
    sim, lvl = sections
    config = TrainConfig.from_dict(doc)
    errors = config.validate()
    system = None
    if not errors:
        try:
            system = config.build_system()
        except (TypeError, ValueError) as exc:
            errors.append(f"system_params: {exc}")
    for key in ("n_rollouts", "horizon_steps"):
        if not fits_type(sim[key], int) or sim[key] <= 0:
            errors.append(f"simulation.{key}: must be a positive integer")
    if not fits_type(sim["dt"], float) or sim["dt"] <= 0:
        errors.append("simulation.dt: must be a positive finite number")
    for key in ("respect_input_bounds", "emit_trajectories"):
        if not isinstance(sim[key], bool):
            errors.append(f"simulation.{key}: must be true or false")
    limit = sim["max_trajectory_files"]
    if not fits_type(limit, int) or limit < 0:
        errors.append("simulation.max_trajectory_files: must be a non-negative integer")
    if not fits_type(lvl["resolution"], int) or lvl["resolution"] < 2:
        errors.append("levelset.resolution: must be an integer of at least 2")
    axes = lvl["free_axes"]
    if not fits_type(axes, tuple[int, ...]) or len(axes) != 2 or axes[0] == axes[1]:
        errors.append("levelset.free_axes: need a list of two distinct integer indices")
    if not fits_type(lvl["fixed_values"], tuple[float, ...] | None):
        errors.append("levelset.fixed_values: must be null or a list of finite numbers")
    if errors:
        raise ConfigError(errors)
    return config, sim, lvl, system


def _out_dir(args, command: str) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get(_ENV_OUT_ROOT)
    if root:
        return Path(root) / command
    return Path(command + "-output")


def _write_status(out: Path, text: str) -> None:
    (out / "STATUS").write_text(text + "\n")


def _echo_config(out: Path, config: TrainConfig, sim: dict, lvl: dict) -> None:
    doc = config.to_dict()
    doc["simulation"] = sim
    doc["levelset"] = lvl
    (out / "run_config.json").write_text(json.dumps(doc, indent=2))


def cmd_train(args) -> int:
    config, sim, lvl, _ = _load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = _out_dir(args, "train")
    out.mkdir(parents=True, exist_ok=True)
    _write_status(out, "running")
    _echo_config(out, config, sim, lvl)

    def checkpoint(round_idx, cert_k):
        mlp.save_certificate(cert_k, out / f"certificate_round_{round_idx}.json")

    try:
        cert, history, report = refine(config, on_phase=checkpoint)
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code + marker
        _write_status(out, f"error: {exc}")
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    mlp.save_certificate(cert, out / "certificate.json")
    (out / "history.json").write_text(history.to_json())
    (out / "report.json").write_text(report.to_json())
    with (out / "losses.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "epoch", "loss"])
        for phase, losses in enumerate(history.epoch_losses):
            for epoch, loss in enumerate(losses):
                writer.writerow([phase, epoch, repr(loss)])
    certified = history.status == STATUS_CERTIFIED
    _write_status(out, history.status)
    print(f"{history.status}: quantile={report.quantile:.6g} "
          f"epsilon={report.epsilon:.6g} beta={report.beta:.3g}")
    return 0 if certified else 2


def _load_deployment(args):
    """(config, sim, lvl, system, cert) for a command that reads a
    certificate; raises ConfigError."""
    config, sim, lvl, system = _load_config(args.config)
    try:
        cert = mlp.load_certificate(args.cert)
    except FileNotFoundError:
        raise ConfigError([f"certificate file not found: {args.cert}"])
    except (ValueError, KeyError) as exc:
        raise ConfigError([f"unreadable certificate: {exc}"])
    if cert.n_inputs != system.n:
        raise ConfigError([f"certificate input size {cert.n_inputs} != system "
                           f"dimension {system.n}"])
    return config, sim, lvl, system, cert


def cmd_verify(args) -> int:
    config, sim, lvl, system, cert = _load_deployment(args)
    seed = args.seed if args.seed is not None else config.seed
    out = _out_dir(args, "verify")
    out.mkdir(parents=True, exist_ok=True)
    verifier = SafetyFilter(certificate=cert, system=system,
                            kappa_gain=config.kappa_gain,
                            respect_input_bounds=config.respect_input_bounds_training)
    scores = verification_scores(cert, system, verifier, config.conformal_samples,
                                 seed=seed, weights=config.loss_weights())
    report = report_from_scores(scores, config.alpha, config.beta, seed)
    (out / "report.json").write_text(report.to_json())
    if args.emit_scores:
        with (out / "scores.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "score"])
            for i, s in enumerate(scores.tolist()):
                writer.writerow([i, repr(s)])
    print(f"quantile={report.quantile:.6g} epsilon={report.epsilon:.6g} "
          f"beta={report.beta:.3g}")
    return 0


def cmd_simulate(args) -> int:
    config, sim, lvl, system, cert = _load_deployment(args)
    seed = args.seed if args.seed is not None else config.seed
    out = _out_dir(args, "simulate")
    out.mkdir(parents=True, exist_ok=True)
    filt = SafetyFilter(certificate=cert, system=system,
                        kappa_gain=config.kappa_gain,
                        respect_input_bounds=sim["respect_input_bounds"])
    rate, counts, rollouts = empirical_safety_rate(
        system, filt, int(sim["n_rollouts"]), int(sim["horizon_steps"]),
        float(sim["dt"]), seed=seed)
    summary = {
        "rate": rate,
        "counts": dict(counts),
        "n_rollouts": int(sim["n_rollouts"]),
        "horizon_steps": int(sim["horizon_steps"]),
        "dt": float(sim["dt"]),
        "seed": seed,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    with (out / "rollout_statuses.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rollout", "status", "steps", "min_h"])
        for i, ro in enumerate(rollouts):
            writer.writerow([i, ro.status.value, ro.states.shape[0] - 1,
                             repr(float(np.min(ro.h_values)))])
    if sim["emit_trajectories"]:
        for i, ro in enumerate(rollouts[:sim["max_trajectory_files"]]):
            rollout_to_csv(ro, out / f"trajectory_{i:04d}.csv")
    print(f"safety rate {rate:.4f} over {sim['n_rollouts']} rollouts; "
          f"counts: {dict(counts)}")
    return 0


def cmd_levelset(args) -> int:
    config, sim, lvl, system, cert = _load_deployment(args)
    fixed = lvl["fixed_values"]
    if fixed is None:
        fixed = [float(0.5 * (lo + hi)) for lo, hi in system.state_bounds]
    if len(fixed) != system.n:
        raise ConfigError([f"levelset.fixed_values needs {system.n} entries"])
    if not all(0 <= i < system.n for i in lvl["free_axes"]):
        raise ConfigError([f"levelset.free_axes {lvl['free_axes']} outside state "
                           f"dimension {system.n}"])
    spec = SliceSpec(free_axes=tuple(lvl["free_axes"]),
                     fixed_values=tuple(float(v) for v in fixed),
                     resolution=lvl["resolution"])
    out = _out_dir(args, "levelset")
    out.mkdir(parents=True, exist_ok=True)
    vals0, vals1, grid = levelset_grid(cert, spec, system.state_bounds)
    sidecar = {
        "axes": list(spec.free_axes),
        "fixed_values": list(spec.fixed_values),
        "resolution": spec.resolution,
        "bounds": system.state_bounds.tolist(),
    }
    levelset_to_csv(vals0, vals1, grid, out / "levelset.csv", sidecar=sidecar)
    print(f"wrote {spec.resolution}x{spec.resolution} grid to {out / 'levelset.csv'}")
    return 0


def cmd_curve(args) -> int:
    ns = args.n or [1000]
    betas = args.beta or [1e-3]
    for b in betas:
        if not (0.0 < b < 1.0):
            raise ConfigError([f"beta must lie in (0, 1), got {b}"])
    for n in ns:
        if n < 1:
            raise ConfigError([f"N must be >= 1, got {n}"])
    if args.alpha_count < 0 or args.alpha_min > args.alpha_max:
        raise ConfigError(["empty or negative alpha range"])
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_count)
    out = _out_dir(args, "curve")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "curve.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_samples", "beta", "alpha", "epsilon", "error"])
        for n in ns:
            for b in betas:
                for row in alpha_epsilon_curve(n, b, alphas):
                    writer.writerow([
                        row["n_samples"], row["beta"], row["alpha"],
                        "" if row["epsilon"] is None else repr(row["epsilon"]),
                        row["error"] or "",
                    ])
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbfcert",
        description="Train, certify, and deploy neural control barrier functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run the full training + certification loop")
    train.add_argument("--config", required=True)
    train.add_argument("--out", default=None)
    train.add_argument("--seed", type=int, default=None)
    train.set_defaults(func=cmd_train)

    verify = sub.add_parser("verify", help="conformal report for an existing certificate")
    verify.add_argument("--config", required=True)
    verify.add_argument("--cert", required=True)
    verify.add_argument("--out", default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--emit-scores", action="store_true",
                        help="also dump the calibration scores to scores.csv")
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser("simulate", help="closed-loop safety-rate campaign")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--cert", required=True)
    simulate.add_argument("--out", default=None)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.set_defaults(func=cmd_simulate)

    levelset = sub.add_parser("levelset", help="export a barrier level-set grid")
    levelset.add_argument("--config", required=True)
    levelset.add_argument("--cert", required=True)
    levelset.add_argument("--out", default=None)
    levelset.set_defaults(func=cmd_levelset)

    curve = sub.add_parser("curve", help="alpha-epsilon tables for chosen N and beta")
    curve.add_argument("--n", type=int, action="append")
    curve.add_argument("--beta", type=float, action="append")
    curve.add_argument("--alpha-min", type=float, default=0.01)
    curve.add_argument("--alpha-max", type=float, default=0.2)
    curve.add_argument("--alpha-count", type=int, default=20)
    curve.add_argument("--out", default=None)
    curve.set_defaults(func=cmd_curve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"error: {msg}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
