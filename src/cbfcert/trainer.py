"""Iterative training with conformal refinement.

Phase 0 trains the barrier network with zero robustness margin. Each
round then draws fresh verification samples, computes the conformal
quantile of the violation scores, and either stops (quantile <= 0, the
certificate holds at the requested confidence) or tightens the margin and
retrains. On budget exhaustion the certificate with the best quantile
seen is returned.
"""

from __future__ import annotations

import functools
import json
import sys as _sys
import time
import typing
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

try:
    import resource
except ImportError:  # not on every platform (Windows)
    resource = None

from . import mlp
from .certificate import (ConformalReport, InvalidAlphaError, LossWeights, epsilon_for,
                          quantify_safety, quantile_index, total_loss,
                          total_loss_and_gradient)
from .controller import SafetyFilter
from .dynamics import _BUILDERS, ControlAffineSystem, make_system
from .sampling import TrainingDatasets, build_datasets, stream

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
    hyperparameters at desk scale. Building one with a mistyped or
    out-of-range field raises ConfigError."""

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

    def __post_init__(self) -> None:
        check_types(self)
        errors = []
        if self.system not in _BUILDERS:
            errors.append(f"system: unknown {self.system!r}")
        for key, value in self.system_params.items():
            try:
                # numpy values as their lists or numbers; str passes the rest
                json.dumps(value, allow_nan=False,
                           default=lambda v: v.tolist() if hasattr(v, "tolist") else str(v))
            except ValueError:
                errors.append(f"system_params: {key}: must be finite")
        if not self.hidden_layers or any(h <= 0 for h in self.hidden_layers):
            errors.append("hidden_layers: need at least one positive layer width")
        for name in ("epochs", "batch_size", "n_safe", "n_unsafe", "n_domain",
                     "conformal_samples", "max_refinements", "learning_rate",
                     "lambda1", "lambda2", "delta", "kappa_gain"):
            if getattr(self, name) <= 0:
                errors.append(f"{name}: must be positive")
        for name in ("loss_tolerance", "seed"):
            if getattr(self, name) < 0:
                errors.append(f"{name}: must be non-negative")
        # numpy splits a larger key into 32-bit words, so stream(2**32 + 1,
        # "init") would be stream(1, "safe")
        if self.seed >= 2**32:
            errors.append("seed: must be below 2**32")
        if not (0.0 < self.alpha < 1.0):
            errors.append("alpha: must lie in (0, 1)")
        if not (0.0 < self.beta < 1.0):
            errors.append("beta: must lie in (0, 1)")
        if not errors:
            try:
                quantile_index(self.conformal_samples, self.alpha)
            except InvalidAlphaError as exc:
                errors.append(f"alpha: {exc}")
            buckets = {name: getattr(self, name) for name in ("n_safe", "n_unsafe", "n_domain")}
            n_batches = _mini_batches(buckets.values(), self.batch_size)
            errors += [f"{name}: {size} rows for {n_batches} mini-batches of batch_size "
                       f"{self.batch_size}; need at least one row per mini-batch"
                       for name, size in buckets.items() if size < n_batches]
        if self.psi_update not in ("cumulative", "reset"):
            errors.append("psi_update: must be 'cumulative' or 'reset'")
        if self.correction_cap is not None and self.correction_cap <= 0:
            errors.append("correction_cap: must be null or a positive finite number")
        if errors:
            raise ConfigError(errors)

    def loss_weights(self, psi: float = 0.0) -> LossWeights:
        return LossWeights(lambda1=self.lambda1, lambda2=self.lambda2,
                           delta=self.delta, psi=psi)

    def build_system(self) -> ControlAffineSystem:
        return make_system(self.system, **self.system_params)

    def layer_sizes(self, n: int) -> tuple[int, ...]:
        return (n, *self.hidden_layers, 1)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The top level of a run file; raises ConfigError as parse_section."""
        return parse_section(cls, doc)


_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", dict: "an object", tuple[int, ...]: "a list of integers",
               tuple[float, ...]: "a list of finite numbers"}
# evaluating a class's annotations takes longer than the rest of loading a run file
_field_types = functools.cache(typing.get_type_hints)


def parse_section(cls, doc, section: str | None = None):
    """The frozen dataclass cls from one JSON object of a run file. Raises
    ConfigError on unknown keys and on every field the class refuses when
    built, naming the field as section.field."""
    name, prefix = (section, section + ".") if section else ("config", "")
    if not isinstance(doc, dict):
        raise ConfigError([f"{name}: must be an object"])
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError([f"{name}: unknown keys {sorted(unknown)}"])
    try:
        return cls(**doc)
    except ConfigError as exc:
        raise ConfigError([prefix + m for m in exc.messages]) from None


_MISFIT = object()


def _coerce(value, kind):
    """value in the form a type annotation asks for, or _MISFIT: int,
    float, bool, str, dict, tuple[X, ...] (from a list or tuple) or
    X | None. Ints become floats where a float is due; a bool is not a
    number here, and a float must be finite."""
    args = typing.get_args(kind)
    if type(None) in args:
        return None if value is None else _coerce(value, args[0])
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            return _MISFIT
        items = tuple(_coerce(v, args[0]) for v in value)
        return _MISFIT if any(v is _MISFIT for v in items) else items
    if kind in (int, float) and isinstance(value, bool):
        return _MISFIT
    if kind is float:
        # exact int/float comparison: refuses inf, nan and ints too large for a float
        fits = isinstance(value, (int, float)) and abs(value) <= _sys.float_info.max
        return float(value) if fits else _MISFIT
    return value if isinstance(value, kind) else _MISFIT


def _type_name(kind) -> str:
    args = typing.get_args(kind)
    if type(None) in args:
        return "null or " + _type_name(args[0])
    return _TYPE_NAMES[kind]


def check_types(config) -> None:
    """Put each field of the frozen dataclass instance config in the form
    its annotation asks for (lists as tuples, ints as floats where a float
    is due); raise one ConfigError naming each field that does not fit."""
    kinds = _field_types(type(config))
    errors = []
    for name, value in vars(config).items():
        value = _coerce(value, kinds[name])
        if value is _MISFIT:
            errors.append(f"{name}: must be {_type_name(kinds[name])}")
        else:
            object.__setattr__(config, name, value)
    if errors:
        raise ConfigError(errors)


@dataclass
class RefinementRecord:
    psi: float
    quantile: float
    epsilon: float
    beta: float


@dataclass
class TrainingHistory:
    epoch_losses: list[list[float]] = field(default_factory=list)
    refinements: list[RefinementRecord] = field(default_factory=list)
    phase_seconds: list[float] = field(default_factory=list)
    # minor page faults of each phase; None where resource is unavailable
    phase_minor_faults: list[int | None] = field(default_factory=list)
    status: str = STATUS_BUDGET_EXHAUSTED


def certifying_filter(cert, sys, config: TrainConfig,
                      correction_cap: float | None = None) -> SafetyFilter:
    """The filter that refine certifies under and verify scores under;
    training adds the config's correction_cap."""
    return SafetyFilter(
        certificate=cert, system=sys, kappa_gain=config.kappa_gain,
        respect_input_bounds=config.respect_input_bounds_training,
        correction_cap=correction_cap,
    )


def _minor_faults() -> int | None:
    """This process's minor page faults so far, or None without resource."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _mini_batches(sizes, batch_size: int) -> int:
    """Mini-batches per epoch: as many as the largest bucket fills."""
    return -(-max(sizes) // batch_size)


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
    def training_filter(cert):
        return certifying_filter(cert, sys, config, config.correction_cap)

    # one workspace for the monitoring losses and steps of the phase,
    # dropped when the phase ends
    workspace = mlp.Workspace()
    state = mlp.init_adam(cert, learning_rate=config.learning_rate)
    ns, nu, nd = datasets.sizes()
    n_batches = _mini_batches((ns, nu, nd), config.batch_size)
    cuts = list(zip(*(_batch_slices(size, n_batches) for size in (ns, nu, nd))))
    losses, best_loss, best_cert = [], np.inf, cert
    # epoch 0 only measures the starting certificate's loss
    for epoch in range(config.epochs + 1):
        if epoch:
            order_s, order_u, order_d = (rng.permutation(size) for size in (ns, nu, nd))
            for (s0, s1), (u0, u1), (d0, d1) in cuts:
                batch = TrainingDatasets(
                    safe=datasets.safe[order_s[s0:s1]],
                    unsafe=datasets.unsafe[order_u[u0:u1]],
                    domain=datasets.domain[order_d[d0:d1]],
                )
                _, grads = total_loss_and_gradient(cert, batch, training_filter(cert),
                                                   weights, workspace)
                state, cert = mlp.adam_step(state, cert, grads)
        loss, _ = total_loss(cert, datasets, training_filter(cert), weights, workspace)
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
    sys = config.build_system()
    datasets = build_datasets(sys, config.n_safe, config.n_unsafe, config.n_domain,
                              seed=config.seed)
    cert = mlp.init_certificate(config.layer_sizes(sys.n), seed=config.seed)
    history = TrainingHistory()
    psi = 0.0
    best: tuple[float, mlp.MlpCertificate, ConformalReport] | None = None
    for round_idx in range(config.max_refinements + 1):
        weights = config.loss_weights(psi=psi)
        rng = stream(config.seed, "epochs", round_idx)
        started, faults = time.perf_counter(), _minor_faults()
        cert, losses = train_phase(cert, datasets, weights, config, sys, rng)
        history.phase_seconds.append(time.perf_counter() - started)
        history.phase_minor_faults.append(None if faults is None else _minor_faults() - faults)
        history.epoch_losses.append(losses)
        if on_phase is not None:
            on_phase(round_idx, cert)
        report = quantify_safety(
            cert, sys, certifying_filter(cert, sys, config), config.conformal_samples,
            config.alpha, config.beta,
            seed=int(stream(config.seed, "tuning", round_idx).integers(2**31)),
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
        except ValueError as exc:
            row["epsilon"] = None
            row["error"] = str(exc)
        rows.append(row)
    return rows
