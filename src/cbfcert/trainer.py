"""Iterative training with conformal refinement.

Phase 0 trains the barrier network with zero robustness margin. Each
round then draws fresh verification samples, computes the conformal
quantile of the violation scores, and either stops (quantile <= 0, the
certificate holds at the requested confidence) or tightens the margin and
retrains. On budget exhaustion the certificate with the best quantile
seen is returned.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import typing
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import mlp
from .certificate import (ConformalReport, InvalidAlphaError, LossWeights,
                          epsilon_for, quantile_index, quantify_safety,
                          total_loss, total_loss_and_gradient)
from .controller import SafetyFilter
from .dynamics import ControlAffineSystem, make_system
from .sampling import TrainingDatasets, build_datasets

STATUS_CERTIFIED = "certified"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"


class DivergedTrainingError(RuntimeError):
    """The loss became non-finite; carries the epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


class ConfigError(ValueError):
    """An unusable config; messages holds one field-path message each."""

    def __init__(self, messages):
        super().__init__("; ".join(messages))
        self.messages = list(messages)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs; defaults mirror the benchmark
    hyperparameters at desk scale."""

    system: str = "dubins"
    system_params: dict = field(default_factory=dict)
    hidden_layers: tuple[int, ...] = (64,)
    epochs: int = 300
    batch_size: int = 256
    learning_rate: float = 1e-3
    n_safe: int = 6700
    n_unsafe: int = 6700
    n_domain: int = 6600
    lambda1: float = 1.0
    lambda2: float = 0.1
    delta: float = 0.01
    kappa_gain: float = 1.0
    conformal_samples: int = 20000
    alpha: float = 0.0075
    beta: float = 1e-3
    max_refinements: int = 3
    loss_tolerance: float = 1e-6
    seed: int = 0
    psi_update: str = "cumulative"        # or "reset"
    respect_input_bounds_training: bool = False
    correction_cap: float | None = 1e3

    def validate(self) -> list[str]:
        """Field-path error messages; empty when the config is usable."""
        errors = _type_errors(vars(self))
        if errors:
            return errors
        if self.system not in _known_systems():
            errors.append(f"system: unknown {self.system!r}")
        if not self.hidden_layers or any(h <= 0 for h in self.hidden_layers):
            errors.append("hidden_layers: need at least one positive layer width")
        for name in ("epochs", "batch_size", "n_safe", "n_unsafe", "n_domain",
                     "conformal_samples", "max_refinements", "learning_rate",
                     "lambda1", "lambda2", "delta", "kappa_gain"):
            if getattr(self, name) <= 0:
                errors.append(f"{name}: must be positive")
        if self.loss_tolerance < 0:
            errors.append("loss_tolerance: must be non-negative")
        if not (0.0 < self.alpha < 1.0):
            errors.append("alpha: must lie in (0, 1)")
        if not (0.0 < self.beta < 1.0):
            errors.append("beta: must lie in (0, 1)")
        if not errors:
            l = quantile_index(self.conformal_samples, self.alpha)
            if l < 1 or l > self.conformal_samples:
                errors.append(
                    "alpha: floor((N+1) alpha) = "
                    f"{l} outside [1, N] for N={self.conformal_samples}"
                )
        if self.psi_update not in ("cumulative", "reset"):
            errors.append("psi_update: must be 'cumulative' or 'reset'")
        if self.correction_cap is not None and self.correction_cap <= 0:
            errors.append("correction_cap: must be null or a positive finite number")
        return errors

    def loss_weights(self, psi: float = 0.0) -> LossWeights:
        return LossWeights(lambda1=self.lambda1, lambda2=self.lambda2,
                           delta=self.delta, psi=psi, kappa_gain=self.kappa_gain)

    def build_system(self) -> ControlAffineSystem:
        return make_system(self.system, **self.system_params)

    def layer_sizes(self, n: int) -> tuple[int, ...]:
        return (n, *self.hidden_layers, 1)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The config in a JSON document: lists become tuples and integral
        floats integers where the field is an integer, and ints floats
        where it is a float. Raises ConfigError, a ValueError, on unknown
        keys and on values that do not have their field's type."""
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError([f"config: unknown config keys: {sorted(unknown)}"])
        kwargs = {name: _from_json(value, _FIELD_TYPES[name])
                  for name, value in doc.items()}
        errors = _type_errors(kwargs)
        if errors:
            raise ConfigError(errors)
        return cls(**kwargs)


_FIELD_TYPES = typing.get_type_hints(TrainConfig)
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", dict: "an object", tuple[int, ...]: "a list of integers"}


def _from_json(value, kind):
    if typing.get_origin(kind) is tuple and isinstance(value, list):
        return tuple(_from_json(v, typing.get_args(kind)[0]) for v in value)
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if kind is float and fits_type(value, int):
        return float(value)
    return value


def fits_type(value, kind) -> bool:
    """Whether a config value fits a type annotation: int, float, bool,
    str, dict, tuple[X, ...] (a list or tuple) or X | None. A bool is not
    a number here, and a float must be finite."""
    args = typing.get_args(kind)
    if type(None) in args:
        return value is None or fits_type(value, args[0])
    if typing.get_origin(kind) is tuple:
        return (isinstance(value, (list, tuple))
                and all(fits_type(v, args[0]) for v in value))
    if kind in (int, float) and isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _type_name(kind) -> str:
    args = typing.get_args(kind)
    if type(None) in args:
        return "null or " + _type_name(args[0])
    return _TYPE_NAMES[kind]


def _type_errors(values: dict) -> list[str]:
    return [f"{name}: must be {_type_name(_FIELD_TYPES[name])}"
            for name, value in values.items() if not fits_type(value, _FIELD_TYPES[name])]


def _known_systems():
    from .dynamics import _BUILDERS

    return _BUILDERS


@dataclass
class RefinementRecord:
    psi: float
    quantile: float
    epsilon: float
    beta: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class TrainingHistory:
    epoch_losses: list[list[float]] = field(default_factory=list)
    refinements: list[RefinementRecord] = field(default_factory=list)
    phase_seconds: list[float] = field(default_factory=list)
    status: str = STATUS_BUDGET_EXHAUSTED

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _training_filter(cert, sys, config: TrainConfig) -> SafetyFilter:
    return SafetyFilter(
        certificate=cert, system=sys, kappa_gain=config.kappa_gain,
        respect_input_bounds=config.respect_input_bounds_training,
        correction_cap=config.correction_cap,
    )


def _batch_slices(total: int, n_batches: int):
    cuts = np.linspace(0, total, n_batches + 1).astype(int)
    return [(cuts[i], cuts[i + 1]) for i in range(n_batches)]


def train_phase(cert: mlp.MlpCertificate, datasets: TrainingDatasets,
                weights: LossWeights, config: TrainConfig,
                sys: ControlAffineSystem, rng: np.random.Generator
                ) -> tuple[mlp.MlpCertificate, list[float]]:
    """Mini-batch descent on the composite loss until it drops below the
    tolerance or the epoch budget runs out. The safety filter feeding the
    decrease term is rebuilt from the current parameters at every batch.
    Returns the best certificate seen (lowest full-dataset loss)."""
    losses = [total_loss(cert, datasets, _training_filter(cert, sys, config), weights)[0]]
    if not np.isfinite(losses[0]):
        raise DivergedTrainingError(0)
    best_loss, best_cert = losses[0], cert
    if best_loss <= config.loss_tolerance:
        return cert, losses
    state = mlp.init_adam(cert, learning_rate=config.learning_rate)
    ns, nu, nd = datasets.sizes()
    n_batches = max(1, int(np.ceil(max(ns, nu, nd) / config.batch_size)))
    for epoch in range(1, config.epochs + 1):
        order_s = rng.permutation(ns)
        order_u = rng.permutation(nu)
        order_d = rng.permutation(nd)
        s_cuts = _batch_slices(ns, n_batches)
        u_cuts = _batch_slices(nu, n_batches)
        d_cuts = _batch_slices(nd, n_batches)
        for (s0, s1), (u0, u1), (d0, d1) in zip(s_cuts, u_cuts, d_cuts):
            if s1 == s0 or u1 == u0 or d1 == d0:
                continue
            batch = TrainingDatasets(
                safe=datasets.safe[order_s[s0:s1]],
                unsafe=datasets.unsafe[order_u[u0:u1]],
                domain=datasets.domain[order_d[d0:d1]],
                seed=datasets.seed,
            )
            filt = _training_filter(cert, sys, config)
            _, grads = total_loss_and_gradient(cert, batch, filt, weights)
            state, cert = mlp.adam_step(state, cert, grads)
        loss, _ = total_loss(cert, datasets, _training_filter(cert, sys, config), weights)
        if not np.isfinite(loss):
            raise DivergedTrainingError(epoch)
        losses.append(loss)
        if loss < best_loss:
            best_loss, best_cert = loss, cert
        if loss <= config.loss_tolerance:
            break
    return best_cert, losses


def refine(config: TrainConfig,
           on_phase: Callable[[int, mlp.MlpCertificate], None] | None = None
           ) -> tuple[mlp.MlpCertificate, TrainingHistory, ConformalReport]:
    """Run the full train / certify / tighten loop.

    Returns the final certificate, the history, and the conformal report
    that decided the final status. With status budget_exhausted, the
    certificate (and report) with the smallest quantile is returned.
    """
    errors = config.validate()
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))
    sys = config.build_system()
    datasets = build_datasets(sys, config.n_safe, config.n_unsafe, config.n_domain,
                              seed=config.seed)
    cert = mlp.init_certificate(config.layer_sizes(sys.n), seed=config.seed)
    history = TrainingHistory()
    psi = 0.0
    best: tuple[float, mlp.MlpCertificate, ConformalReport] | None = None
    for round_idx in range(config.max_refinements + 1):
        weights = config.loss_weights(psi=psi)
        rng = np.random.default_rng([config.seed, 101, round_idx])
        started = time.perf_counter()
        cert, losses = train_phase(cert, datasets, weights, config, sys, rng)
        history.phase_seconds.append(time.perf_counter() - started)
        history.epoch_losses.append(losses)
        if on_phase is not None:
            on_phase(round_idx, cert)
        verifier = SafetyFilter(
            certificate=cert, system=sys, kappa_gain=config.kappa_gain,
            respect_input_bounds=config.respect_input_bounds_training,
        )
        report = quantify_safety(
            cert, sys, verifier, config.conformal_samples, config.alpha,
            config.beta, seed=int(np.random.default_rng(
                [config.seed, 211, round_idx]).integers(2**31)),
            weights=weights,
        )
        history.refinements.append(RefinementRecord(
            psi=psi, quantile=report.quantile, epsilon=report.epsilon,
            beta=report.beta,
        ))
        if best is None or report.quantile < best[0]:
            best = (report.quantile, cert, report)
        if report.quantile <= 0.0:
            history.status = STATUS_CERTIFIED
            return cert, history, report
        if config.psi_update == "cumulative":
            psi = psi - max(report.quantile, 0.0)
        else:
            psi = -report.quantile
    history.status = STATUS_BUDGET_EXHAUSTED
    _, best_cert, best_report = best
    return best_cert, history, best_report


def alpha_epsilon_curve(n_samples: int, beta: float, alphas) -> list[dict]:
    """Pointwise epsilon evaluations; invalid alphas are recorded, not fatal."""
    rows = []
    for alpha in alphas:
        row = {"n_samples": n_samples, "beta": beta, "alpha": float(alpha)}
        try:
            row["epsilon"] = epsilon_for(n_samples, float(alpha), beta)
            row["error"] = None
        except (InvalidAlphaError, ValueError) as exc:
            row["epsilon"] = None
            row["error"] = str(exc)
        rows.append(row)
    return rows
