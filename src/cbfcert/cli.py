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
import math
import os
import sys as _sys
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import mlp
from .certificate import calibrate, failure_bound
from .dynamics import ControlAffineSystem
from .simulator import (Rollout, SimulationConfig, SliceSpec, empirical_safety_rate,
                        failure_count, levelset_grid)
from .trainer import (STATUS_CERTIFIED, ConfigError, TrainConfig,
                      alpha_epsilon_curve, certifying_filter, parse_section,
                      refine)

_ENV_OUT_ROOT = "CBFCERT_OUT"


def _load_config(path: str, seed: int | None = None
                 ) -> tuple[TrainConfig, SimulationConfig, SliceSpec, ControlAffineSystem]:
    """The run file's sections, the top level with seed in place of its
    own when one is given, and the system they describe; raises
    ConfigError naming the problems of the first section that has any."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc.strerror}"])
    except ValueError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"])
    if not isinstance(doc, dict):
        raise ConfigError(["config: top level must be an object"])
    sim = parse_section(SimulationConfig, doc.pop("simulation", {}), "simulation")
    spec = parse_section(SliceSpec, doc.pop("levelset", {}), "levelset")
    config = TrainConfig.from_dict(doc)
    if seed is not None:
        config = replace(config, seed=seed)
    try:
        system = config.build_system()
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"system_params: {exc}"]) from None
    for key, value in config.system_params.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise ConfigError([f"system_params: {key}: must be finite"]) from None
    try:
        spec.fixed_state(system.state_bounds)
    except ValueError as exc:
        raise ConfigError([f"levelset.{exc}"]) from None
    return config, sim, spec, system


def _out_dir(args, command: str) -> Path:
    """The command's output directory, created: call once the config is valid."""
    root = os.environ.get(_ENV_OUT_ROOT)
    if args.out:
        out = Path(args.out)
    elif root:
        out = Path(root) / command
    else:
        out = Path(command + "-output")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_status(out: Path, text: str) -> None:
    (out / "STATUS").write_text(text + "\n")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2))


def _write_csv(path: Path, header: list, rows) -> None:
    """The header, then one line per row of Python values. csv writes a
    float with str(), which is its repr: the shortest text that reads back
    to the same bits. None is an empty cell; a bool reads True or False."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_trajectory(path: Path, ro: Rollout) -> None:
    """t, state..., input..., h, constraint_active, constraint_slack at
    each step; the final state's row has no input or filter cells."""
    n, m = ro.states.shape[1], ro.inputs.shape[1]
    header = ["t", *(f"x{i}" for i in range(n)), *(f"u{i}" for i in range(m)),
              "h", "constraint_active", "constraint_slack"]
    # one .tolist() per array; the final state's row gets None cells
    cells = zip(ro.states.tolist(), ro.inputs.tolist() + [[None] * m], ro.h_values.tolist(),
                ro.filter_active.astype(int).tolist() + [None],
                ro.filter_slack.tolist() + [None])
    _write_csv(path, header, ([k * ro.dt, *x, *u, h, a, s]
                              for k, (x, u, h, a, s) in enumerate(cells)))


def _write_levelset(path: Path, vals0, vals1, grid, sidecar: dict) -> None:
    """The grid row-major under an axis header, and the sidecar as JSON beside it."""
    _write_csv(path, ["axis0\\axis1", *vals1.tolist()],
               ([v0, *row] for v0, row in zip(vals0.tolist(), grid.tolist())))
    _write_json(path.with_suffix(".json"), sidecar)


def cmd_train(args) -> int:
    config, sim, spec, system = _load_config(args.config, args.seed)
    out = _out_dir(args, "train")
    _write_status(out, "running")
    echo = {**config.to_dict(), "simulation": asdict(sim), "levelset": asdict(spec)}
    _write_json(out / "run_config.json", echo)

    def save(cert_k, name: str) -> None:
        """Write cert_k with the spec of the filter refine scores it under."""
        mlp.save_certificate(cert_k, out / name, certifying_filter(cert_k, system, config).spec)

    try:
        cert, history, report = refine(
            config, on_phase=lambda k, cert_k: save(cert_k, f"certificate_round_{k}.json"))
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code + marker
        _write_status(out, f"error: {exc}")
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    save(cert, "certificate.json")
    _write_json(out / "history.json", history.to_dict())
    _write_json(out / "report.json", report.to_dict())
    _write_csv(out / "losses.csv", ["phase", "epoch", "loss"],
               ([phase, epoch, loss] for phase, losses in enumerate(history.epoch_losses)
                for epoch, loss in enumerate(losses)))
    certified = history.status == STATUS_CERTIFIED
    _write_status(out, history.status)
    print(f"{history.status}: quantile={report.quantile:.6g} "
          f"epsilon={report.epsilon:.6g} beta={report.beta:.3g}")
    return 0 if certified else 2


def _load_deployment(args):
    """(config, sim, spec, the run file's certifying filter) for a command
    that reads a certificate, with --seed applied where the command has it;
    raises ConfigError, also when the certificate records another filter."""
    config, sim, spec, system = _load_config(args.config, getattr(args, "seed", None))
    try:
        cert, recorded = mlp.certificate_from_json(Path(args.cert).read_text())
    except OSError as exc:
        raise ConfigError([f"cannot read certificate {args.cert}: {exc.strerror}"])
    except ValueError as exc:
        raise ConfigError([f"unreadable certificate: {exc}"])
    if cert.n_inputs != system.n:
        raise ConfigError([f"certificate input size {cert.n_inputs} != system "
                           f"dimension {system.n}"])
    filt = certifying_filter(cert, system, config)
    described = json.loads(json.dumps(filt.spec))  # as the certificate records it
    if recorded is not None and recorded != described:
        raise ConfigError([f"certificate: certified under filter {recorded}; "
                           f"the run file describes {described}"])
    return config, sim, spec, filt


def cmd_verify(args) -> int:
    config, _, _, filt = _load_deployment(args)
    report, scores = calibrate(filt.certificate, filt.system, filt, config.conformal_samples,
                               config.alpha, config.beta, config.seed, config.loss_weights())
    out = _out_dir(args, "verify")
    _write_json(out / "report.json", report.to_dict())
    if args.emit_scores:
        _write_csv(out / "scores.csv", ["index", "score"], enumerate(scores.tolist()))
    print(f"quantile={report.quantile:.6g} epsilon={report.epsilon:.6g} "
          f"beta={report.beta:.3g}")
    return 0


def cmd_simulate(args) -> int:
    config, sim, _, certified = _load_deployment(args)
    filt = replace(certified, respect_input_bounds=sim.respect_input_bounds)
    rate, counts, rollouts = empirical_safety_rate(
        filt, sim.n_rollouts, sim.horizon_steps, sim.dt, seed=config.seed)
    out = _out_dir(args, "simulate")
    certified_spec, deployed_spec = certified.spec, filt.spec
    if certified_spec != deployed_spec:
        print(f"warning: deployed filter {deployed_spec} is not the certified filter "
              f"{certified_spec}; the certificate's guarantee does not cover it",
              file=_sys.stderr)
    summary = {
        "rate": rate,
        "failure_bound": failure_bound(failure_count(filt.system, rollouts), sim.n_rollouts,
                                       config.beta),
        "beta": config.beta,
        "counts": dict(counts),
        "n_rollouts": sim.n_rollouts,
        "horizon_steps": sim.horizon_steps,
        "dt": sim.dt,
        "seed": config.seed,
        "certified_spec": certified_spec,
        "deployed_spec": deployed_spec,
        "certified_filter": certified_spec == deployed_spec,
    }
    _write_json(out / "summary.json", summary)
    _write_csv(out / "rollout_statuses.csv", ["rollout", "status", "steps", "min_h"],
               ([i, ro.status.value, ro.states.shape[0] - 1, float(np.min(ro.h_values))]
                for i, ro in enumerate(rollouts)))
    if sim.emit_trajectories:
        for i, ro in enumerate(rollouts[:sim.max_trajectory_files]):
            _write_trajectory(out / f"trajectory_{i:04d}.csv", ro)
    print(f"safety rate {rate:.4f} over {sim.n_rollouts} rollouts; "
          f"counts: {dict(counts)}")
    return 0


def cmd_levelset(args) -> int:
    _, _, spec, filt = _load_deployment(args)
    system = filt.system
    vals0, vals1, grid = levelset_grid(filt.certificate, spec, system.state_bounds)
    out = _out_dir(args, "levelset")
    sidecar = {
        "axes": list(spec.free_axes),
        "fixed_values": list(spec.fixed_state(system.state_bounds)),
        "resolution": spec.resolution,
        "bounds": system.state_bounds.tolist(),
    }
    _write_levelset(out / "levelset.csv", vals0, vals1, grid, sidecar)
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
    for flag, value in (("--alpha-min", args.alpha_min), ("--alpha-max", args.alpha_max)):
        if not math.isfinite(value):
            raise ConfigError([f"{flag} must be finite, got {value}"])
    if args.alpha_count < 0 or args.alpha_min > args.alpha_max:
        raise ConfigError(["empty or negative alpha range"])
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_count)
    out = _out_dir(args, "curve")
    path = out / "curve.csv"
    _write_csv(path, ["n_samples", "beta", "alpha", "epsilon", "error"],
               ([row["n_samples"], row["beta"], row["alpha"], row["epsilon"], row["error"]]
                for n in ns for b in betas for row in alpha_epsilon_curve(n, b, alphas)))
    print(f"wrote {path}")
    return 0


_SHARED_FLAGS = {
    "--config": {"required": True},
    "--cert": {"required": True},
    "--out": {"default": None},
    "--seed": {"type": int, "default": None},
}


@cache  # built once: an in-process caller of main runs many commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbfcert",
        description="Train, certify, and deploy neural control barrier functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flags):
        cmd = sub.add_parser(name, help=summary)
        for flag in flags:
            cmd.add_argument(flag, **_SHARED_FLAGS[flag])
        cmd.set_defaults(func=func)
        return cmd

    command("train", cmd_train, "run the full training + certification loop",
            "--config", "--out", "--seed")
    verify = command("verify", cmd_verify, "conformal report for an existing certificate",
                     "--config", "--cert", "--out", "--seed")
    verify.add_argument("--emit-scores", action="store_true",
                        help="also dump the calibration scores to scores.csv")
    command("simulate", cmd_simulate, "closed-loop safety-rate campaign",
            "--config", "--cert", "--out", "--seed")
    command("levelset", cmd_levelset, "export a barrier level-set grid",
            "--config", "--cert", "--out")
    curve = command("curve", cmd_curve, "alpha-epsilon tables for chosen N and beta")
    curve.add_argument("--n", type=int, action="append")
    curve.add_argument("--beta", type=float, action="append")
    curve.add_argument("--alpha-min", type=float, default=0.01)
    curve.add_argument("--alpha-max", type=float, default=0.2)
    curve.add_argument("--alpha-count", type=int, default=20)
    curve.add_argument("--out", **_SHARED_FLAGS["--out"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        messages = exc.messages
    except mlp.NumericError as exc:  # a barrier that evaluates to NaN or infinity
        messages = [f"certificate: {exc}"]
    for msg in messages:
        print(f"error: {msg}", file=_sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
