"""Minimally invasive CBF-QP safety filter.

Per state the quadratic program min ||u - u_ref||^2 subject to a.u >= b
(the barrier constraint) and optional box input bounds is solved in closed
form: the barrier constraint is a single halfspace, so the optimum is
either the (box-clipped) reference or the nearest point on the constraint
hyperplane restricted to the box. Supports m <= 2, which covers all
built-in systems.

The filter reports the achieved constraint slack through the same closed
form. When the constraint is active the slack is exactly 0.0 rather than
the few-ulp noise a recomputed inner product would produce; conformal
scores sit right at that boundary, so the distinction matters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import ControlAffineSystem
from .mlp import MlpCertificate, values_and_input_gradients

_DEGENERATE_SQ = 1e-28


def _is_positive_finite(value) -> bool:
    """A real number (not a bool) in (0, inf)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0.0 < value < math.inf)


class InfeasibleFilterError(RuntimeError):
    """The barrier constraint cannot be met (degenerate gradient or empty
    feasible set under the input box)."""


@dataclass(frozen=True)
class SafetyFilter:
    certificate: MlpCertificate
    system: ControlAffineSystem
    kappa_gain: float = 1.0
    reference_policy: Callable[[np.ndarray], np.ndarray] | None = None
    respect_input_bounds: bool = False
    correction_cap: float | None = None  # training-only guard, see filter notes

    def __post_init__(self) -> None:
        if self.kappa_gain <= 0:
            raise ValueError("kappa_gain must be positive")
        if self.correction_cap is not None and not _is_positive_finite(self.correction_cap):
            raise ValueError("correction_cap must be None or a positive finite number")
        if self.reference_policy is None:
            object.__setattr__(self, "reference_policy", self.system.reference_policy)

    def batch_decide(self, xs: np.ndarray) -> "FilterBatch":
        return filter_batch(self, xs)


@dataclass
class FilterBatch:
    """Vectorized filter results: inputs, exact constraint slack a.u - b,
    whether the constraint was binding, per-state feasibility, and the
    barrier values the constraint was built from."""

    inputs: np.ndarray     # (B, m)
    slack: np.ndarray      # (B,)
    active: np.ndarray     # (B,) bool
    feasible: np.ndarray   # (B,) bool
    h: np.ndarray          # (B,) barrier value at each state


def _box_bounds(filt: SafetyFilter) -> tuple[np.ndarray, np.ndarray] | None:
    if not filt.respect_input_bounds or filt.system.input_bounds is None:
        return None
    ib = filt.system.input_bounds
    return ib[:, 0], ib[:, 1]


def _solve_box(u_ref, a, b, lo, hi):
    clipped = np.clip(u_ref, lo, hi)
    r = float(a @ clipped)
    if r >= b:
        return clipped, r - b, False, True
    norm_sq = float(a @ a)
    if norm_sq < _DEGENERATE_SQ:
        return clipped, r - b, True, False
    m = u_ref.shape[0]
    if m == 1:
        point = b / a[0]
        if lo[0] <= point <= hi[0]:
            return np.array([point]), 0.0, True, True
        return clipped, r - b, True, False
    # m == 2: the optimum lies on the segment {a.u = b} within the box
    norm = np.sqrt(norm_sq)
    anchor = (b / norm_sq) * a
    tangent = np.array([-a[1], a[0]]) / norm
    t_lo, t_hi = -np.inf, np.inf
    for j in range(2):
        if abs(tangent[j]) < 1e-300:
            if not (lo[j] - 1e-12 <= anchor[j] <= hi[j] + 1e-12):
                return clipped, r - b, True, False
            continue
        t_a = (lo[j] - anchor[j]) / tangent[j]
        t_b = (hi[j] - anchor[j]) / tangent[j]
        t_lo = max(t_lo, min(t_a, t_b))
        t_hi = min(t_hi, max(t_a, t_b))
    if t_lo > t_hi:
        return clipped, r - b, True, False
    t_star = float(np.clip(tangent @ (u_ref - anchor), t_lo, t_hi))
    u = anchor + t_star * tangent
    # clamp roundoff so box feasibility is exact
    return np.clip(u, lo, hi), 0.0, True, True


def filter_input(filt: SafetyFilter, x) -> np.ndarray:
    """The safety-filtered input at one state x (n,): row 0 of filter_batch
    on the one-state batch; raises InfeasibleFilterError when the
    constraint cannot be satisfied."""
    x = np.asarray(x, dtype=float)
    batch = filter_batch(filt, x[None])
    if not batch.feasible[0]:
        raise InfeasibleFilterError(
            f"barrier constraint infeasible at state {x} (slack {batch.slack[0]:.6g})"
        )
    return batch.inputs[0]


def filter_batch(filt: SafetyFilter, xs) -> FilterBatch:
    """Vectorized coefficients, then the closed-form solve per state.

    Infeasible states fall back to the (clipped) reference input and keep
    their negative slack so that callers can score the violation instead
    of aborting; rollout code treats feasible=False as a hard stop.
    """
    xs = np.asarray(xs, dtype=float)
    h, grads = values_and_input_gradients(filt.certificate, xs)
    g = filt.system.g(xs)
    f = filt.system.f(xs)
    a_all = np.einsum("bn,bnm->bm", grads, g)
    b_all = -np.einsum("bn,bn->b", grads, f) - filt.kappa_gain * h
    # one input row per state; atleast_2d lets a policy written for one
    # state serve the one-state batch of filter_input
    refs = np.atleast_2d(np.asarray(filt.reference_policy(xs), dtype=float))
    box = _box_bounds(filt)
    if box is None:
        return _batch_unbounded(refs, a_all, b_all, filt.correction_cap, h)
    if filt.system.m > 2:
        raise NotImplementedError("box-constrained filtering implemented for m <= 2")
    n_pts = xs.shape[0]
    inputs = np.empty((n_pts, filt.system.m))
    slack = np.empty(n_pts)
    active = np.empty(n_pts, dtype=bool)
    feasible = np.empty(n_pts, dtype=bool)
    for i in range(n_pts):
        inputs[i], slack[i], active[i], feasible[i] = _solve_box(
            refs[i], a_all[i], b_all[i], *box
        )
    return FilterBatch(inputs=inputs, slack=slack, active=active, feasible=feasible,
                       h=h)


def _batch_unbounded(refs, a_all, b_all, cap, h) -> FilterBatch:
    # Closed-form projection onto a.u >= b for every state at once. The
    # scalar reference is tests/oracles.py:_solve_unbounded, and
    # test_batch_matches_scalar_decisions checks that both decide alike.
    r = np.einsum("bm,bm->b", a_all, refs)
    viol = b_all - r
    active = viol > 0.0
    norm_sq = np.einsum("bm,bm->b", a_all, a_all)
    degenerate = norm_sq < _DEGENERATE_SQ
    feasible = ~(active & degenerate)
    project = active & ~degenerate
    scale = np.zeros_like(viol)
    scale[project] = viol[project] / norm_sq[project]
    corr = scale[:, None] * a_all
    slack = np.where(active, 0.0, r - b_all)
    slack[active & degenerate] = (r - b_all)[active & degenerate]
    if cap is not None:
        size = np.linalg.norm(corr, axis=1)
        over = size > cap
        if np.any(over):
            shrink = cap / size[over]
            corr[over] *= shrink[:, None]
            slack[over] = (shrink - 1.0) * viol[over]
    return FilterBatch(inputs=refs + corr, slack=slack, active=active,
                       feasible=feasible, h=h)
