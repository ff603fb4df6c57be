"""Closed-loop rollouts, empirical safety rates and level-set grids.

Integration is classical fixed-step RK4 with the input held over each
step. Safety during rollout is judged by the system's ground-truth
labeler, not by the learned barrier; the barrier value is recorded along
the trajectory for diagnostics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .controller import SafetyFilter, filter_batch
from .dynamics import ControlAffineSystem, Label, affine_field, closed_loop_field
from .mlp import MlpCertificate, NumericError, Workspace, _forward, forward_batch
from .sampling import rejection_sample_label, stream
from .trainer import ConfigError, check_types


class RolloutStatus(str, Enum):
    COMPLETED = "completed"
    ENTERED_UNSAFE = "entered_unsafe"
    FILTER_INFEASIBLE = "filter_infeasible"
    EXITED_DOMAIN = "exited_domain"


@dataclass
class Rollout:
    states: np.ndarray         # (T+1, n)
    inputs: np.ndarray         # (T, m)
    h_values: np.ndarray       # (T+1,)
    filter_active: np.ndarray  # (T,) constraint binding at each step
    filter_slack: np.ndarray   # (T,) achieved a.u - b at each step
    dt: float
    status: RolloutStatus


class NonFiniteStepError(FloatingPointError):
    """An RK4 step left the finite reals; `row` is the first offending row
    of the batch (0 for a single state)."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def rk4_step(sys: ControlAffineSystem, x, u, dt: float, k1=None) -> np.ndarray:
    """One classical Runge-Kutta step of f(x) + g(x) u, u held constant, for
    states (B, n) and inputs (B, m); one state (n,) is the one-state batch.

    k1, when given, is the first stage f(x) + g(x) u itself: rollout builds
    it from the f(x) and g(x) its filter evaluated, so that only stages 2-4
    evaluate the system. It must have the bits closed_loop_field gives.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim == 1:
        return rk4_step(sys, x[None], u[None], dt, None if k1 is None else k1[None])[0]
    if k1 is None:
        k1 = closed_loop_field(sys, x, u)
    k2 = closed_loop_field(sys, x + 0.5 * dt * k1, u)
    k3 = closed_loop_field(sys, x + 0.5 * dt * k2, u)
    k4 = closed_loop_field(sys, x + dt * k3, u)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        row = int(np.argmin(np.all(np.isfinite(out), axis=1)))
        raise NonFiniteStepError(row, f"non-finite state after RK4 step from {x[row]}")
    return out


# Every non-finite value a rollout meets raises a named error, so numpy's
# overflow and invalid-value warnings would only print ahead of it.
@np.errstate(over="ignore", invalid="ignore")
def rollout(sys: ControlAffineSystem, filt: SafetyFilter, x0, horizon_steps: int,
            dt: float) -> Rollout | list[Rollout]:
    """Filter, step, repeat, from one start (n,) or, in lock step, from a
    batch of starts (B, n); returns a Rollout or a list of them.

    Each step checks the live rollouts for unsafe entry, then domain exit,
    then filter infeasibility, and stops those that fail; the final states
    get the first two checks too. Failure modes land in the status field
    rather than raising; a non-finite state raises FloatingPointError
    naming its start, and a non-finite barrier value or constraint slack
    raises NumericError naming its start and step.
    """
    starts = np.asarray(x0, dtype=float)
    x = np.atleast_2d(starts).copy()
    count = x.shape[0]
    states = np.empty((count, horizon_steps + 1, sys.n))
    inputs = np.empty((count, horizon_steps, sys.m))
    h_vals = np.empty((count, horizon_steps + 1))
    active = np.empty((count, horizon_steps), dtype=bool)
    slack = np.empty((count, horizon_steps))
    states[:, 0] = x
    status = [RolloutStatus.COMPLETED] * count
    steps = np.full(count, horizon_steps)
    live = np.arange(count)
    angles = list(sys.angle_dims)
    workspace = Workspace()

    def retire(stop, why):
        nonlocal live, x
        if not stop.any():
            return
        for i in live[stop]:
            status[i], steps[i] = why, k
        live, x = live[~stop], x[~stop]

    for k in range(horizon_steps + 1):
        retire(sys.label_batch(x) == Label.UNSAFE, RolloutStatus.ENTERED_UNSAFE)
        retire(~sys.contains(x), RolloutStatus.EXITED_DOMAIN)
        if k == horizon_steps or not live.size:
            break
        decision = filter_batch(filt, x, workspace)
        _check_finite("barrier", decision.h, live, k)
        _check_finite("constraint slack", decision.slack, live, k)
        ok = decision.feasible
        retire(~ok, RolloutStatus.FILTER_INFEASIBLE)
        if not live.size:
            break
        u = decision.inputs[ok]
        inputs[live, k], active[live, k], slack[live, k], h_vals[live, k] = (
            u, decision.active[ok], decision.slack[ok], decision.h[ok])
        # RK4's first stage from the f(x) and g(x) the filter evaluated
        k1 = affine_field(decision.f[ok], decision.g[ok], u)
        try:
            x = rk4_step(sys, x, u, dt, k1)
        except NonFiniteStepError as exc:
            raise FloatingPointError(
                f"rollout from start {live[exc.row]}, step {k}: {exc}") from None
        x[:, angles] = np.mod(x[:, angles] + np.pi, 2.0 * np.pi) - np.pi
        states[live, k + 1] = x
    # the filter gave h at every state it decided; forward only the last ones
    rows = np.arange(count)
    final = forward_batch(filt.certificate, states[rows, steps])
    _check_finite("barrier", final, rows, steps)
    h_vals[rows, steps] = final
    out = [Rollout(states=states[i, :s + 1].copy(), inputs=inputs[i, :s].copy(),
                   h_values=h_vals[i, :s + 1].copy(),
                   filter_active=active[i, :s].copy(),
                   filter_slack=slack[i, :s].copy(), dt=dt, status=status[i])
           for i, s in enumerate(steps)]
    return out[0] if starts.ndim == 1 else out


def _check_finite(what: str, values: np.ndarray, starts: np.ndarray, step) -> None:
    """Raise NumericError naming the first rollout, by its start index in
    starts, whose value is not finite at step (one step, or one per row)."""
    finite = np.isfinite(values)
    if not finite.all():
        row = int(finite.argmin())
        raise NumericError(f"non-finite {what} at rollout {starts[row]}, "
                           f"step {np.broadcast_to(step, finite.shape)[row]}")


def sample_safe_starts(sys: ControlAffineSystem, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    return rejection_sample_label(sys, Label.SAFE, count, rng)


def empirical_safety_rate(sys: ControlAffineSystem, filt: SafetyFilter,
                          n_rollouts: int, horizon_steps: int, dt: float,
                          seed: int) -> tuple[float, Counter, list[Rollout]]:
    """Fraction of rollouts from uniform safe starts that never fail.

    Unsafe entry and filter infeasibility always count as failures; domain
    exit counts as a failure only for systems that declare it so (the
    geofence benchmark), and as harmless truncation otherwise.
    """
    if n_rollouts < 1:
        raise ValueError("n_rollouts must be >= 1")
    starts = sample_safe_starts(sys, n_rollouts, stream(seed, "rollout_starts"))
    rollouts = rollout(sys, filt, starts, horizon_steps, dt)
    counts = Counter(ro.status.value for ro in rollouts)
    return 1.0 - failure_count(sys, rollouts) / n_rollouts, counts, rollouts


def failure_count(sys: ControlAffineSystem, rollouts: list[Rollout]) -> int:
    """How many rollouts failed, by the rule empirical_safety_rate states."""
    failed = {RolloutStatus.ENTERED_UNSAFE, RolloutStatus.FILTER_INFEASIBLE}
    if sys.domain_exit_unsafe:
        failed.add(RolloutStatus.EXITED_DOMAIN)
    return sum(ro.status in failed for ro in rollouts)


@dataclass(frozen=True)
class SimulationConfig:
    """The simulation section of a run file: the campaign `simulate` runs.
    Building one with a mistyped or out-of-range field raises ConfigError."""

    n_rollouts: int = 100
    horizon_steps: int = 500
    dt: float = 0.02
    respect_input_bounds: bool = True
    emit_trajectories: bool = True
    max_trajectory_files: int = 10

    def __post_init__(self) -> None:
        check_types(self)
        errors = [f"{name}: must be positive"
                  for name in ("n_rollouts", "horizon_steps", "dt") if getattr(self, name) <= 0]
        if self.max_trajectory_files < 0:
            errors.append("max_trajectory_files: must be non-negative")
        if errors:
            raise ConfigError(errors)


@dataclass(frozen=True)
class SliceSpec:
    """A 2-D slice through the state space for level-set extraction: the
    levelset section of a run file. Building one with a mistyped or
    out-of-range field raises ConfigError."""

    free_axes: tuple[int, ...] = (0, 1)
    fixed_values: tuple[float, ...] | None = None   # None: box midpoint
    resolution: int = 201

    def __post_init__(self) -> None:
        check_types(self)
        errors = []
        if len(self.free_axes) != 2 or self.free_axes[0] == self.free_axes[1]:
            errors.append("free_axes: need two distinct indices")
        if self.resolution < 2:
            errors.append("resolution: must be at least 2")
        if errors:
            raise ConfigError(errors)

    def fixed_state(self, bounds) -> tuple[float, ...]:
        """The state the slice goes through, for state bounds (n, 2); raises
        ValueError, naming the field, when the slice does not fit n."""
        n = len(bounds)
        if not all(0 <= i < n for i in self.free_axes):
            raise ValueError(f"free_axes: {list(self.free_axes)} outside state dimension {n}")
        if self.fixed_values is None:
            return tuple(float(0.5 * (lo + hi)) for lo, hi in bounds)
        if len(self.fixed_values) != n:
            raise ValueError(f"fixed_values: needs one value per state dimension ({n})")
        return self.fixed_values


@np.errstate(over="ignore", invalid="ignore")  # a non-finite node raises below
def levelset_grid(cert: MlpCertificate, spec: SliceSpec, bounds
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barrier values on a resolution x resolution grid over the slice.

    Returns (axis0_values, axis1_values, grid) with grid[i, j] the barrier
    at free_axes[0] = axis0_values[i], free_axes[1] = axis1_values[j].
    """
    bounds = np.asarray(bounds, dtype=float)
    fixed = spec.fixed_state(bounds)
    i0, i1 = spec.free_axes
    vals0 = np.linspace(bounds[i0, 0], bounds[i0, 1], spec.resolution)
    vals1 = np.linspace(bounds[i1, 0], bounds[i1, 1], spec.resolution)
    # one grid row per call of forward, in one workspace: forward is
    # per-state exact, so every node is bit-identical to a direct barrier
    # evaluation at that node
    row = np.tile(np.asarray(fixed, dtype=float), (spec.resolution, 1))
    row[:, i1] = vals1
    grid = np.empty((spec.resolution, spec.resolution))
    workspace = Workspace()
    for i, v0 in enumerate(vals0):
        row[:, i0] = v0
        grid[i] = _forward(cert, row, workspace)
    if not np.all(np.isfinite(grid)):
        i, j = np.argwhere(~np.isfinite(grid))[0]
        raise NumericError(f"non-finite barrier at level-set node ({i}, {j})")
    return vals0, vals1, grid
