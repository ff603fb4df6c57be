"""Minimally invasive CBF-QP safety filter.

Per state the quadratic program min ||u - u_ref||^2 subject to a.u >= b
(the barrier constraint) and optional box input bounds is solved exactly
for any number of inputs m: the constraint is one halfspace, so the
optimum is the (box-clipped) reference, its projection onto a.u = b, or,
with bounds, clip(u_ref + lam a, lo, hi) for the smallest lam >= 0 that fits.

The filter reports the achieved slack a.u - b: exactly 0.0 when the
constraint binds, not the few-ulp noise a recomputed inner product would
give; conformal scores sit right at that boundary, so the distinction matters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import ControlAffineSystem
from .mlp import MlpCertificate, NumericError, Workspace, values_and_input_gradients

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
    """The CBF-QP filter of a certificate and a system, around the
    system's reference_policy. correction_cap, a training-only guard,
    caps the norm of u - u_ref (the rest stays as negative slack) in the
    unbounded filter only: the box-bounded solve ignores it, so
    TrainConfig.correction_cap has no effect under
    respect_input_bounds_training."""

    certificate: MlpCertificate
    system: ControlAffineSystem
    kappa_gain: float = 1.0
    respect_input_bounds: bool = False
    correction_cap: float | None = None

    def __post_init__(self) -> None:
        if not _is_positive_finite(self.kappa_gain):
            raise ValueError("kappa_gain must be a positive finite number")
        if self.correction_cap is not None and not _is_positive_finite(self.correction_cap):
            raise ValueError("correction_cap must be None or a positive finite number")

    @property
    def spec(self) -> dict:
        """Every field but the certificate and the system: the filter a
        certificate's guarantee covers, as certificate.json records it."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("certificate", "system")}

    def batch_decide(self, xs: np.ndarray) -> "FilterBatch":
        return filter_batch(self, xs)


@dataclass
class FilterBatch:
    """Vectorized filter results: inputs, exact constraint slack a.u - b,
    whether the constraint was binding, per-state feasibility, and the
    barrier values and system terms f(x), g(x) the constraint was built
    from, so that a caller stepping the system need not evaluate them again."""

    inputs: np.ndarray     # (B, m)
    slack: np.ndarray      # (B,)
    active: np.ndarray     # (B,) bool
    feasible: np.ndarray   # (B,) bool
    h: np.ndarray          # (B,) barrier value at each state
    f: np.ndarray          # (B, n) drift at each state
    g: np.ndarray          # (B, n, m) input matrix at each state


def _box_optimum(r, a, b, lo, hi):
    """The KKT point clip(r + lam a, lo, hi) of min |u - r|^2 s.t. a.u >= b,
    lo <= u <= hi, for the smallest lam >= 0 that meets the constraint, in
    Python floats; None when no lam does. a.u(lam) is linear between the
    breakpoints where a coordinate meets a bound: each piece solves for lam
    afresh, its bounded coordinates held (Helgason, Kennington & Lall 1980)."""
    # (lam leaving the entry bound, lam at the exit bound, both bounds, a_j, r_j)
    moves = [((lj - rj) / aj, (hj - rj) / aj, lj, hj, aj, rj) if aj > 0.0
             else ((hj - rj) / aj, (lj - rj) / aj, hj, lj, aj, rj)
             for rj, aj, lj, hj in zip(r, a, lo, hi) if aj != 0.0]
    cuts = sorted({0.0, *(t for move in moves for t in move[:2] if t > 0.0)})
    for t0, t1 in zip(cuts, cuts[1:]):
        num, den = [b], []
        for t_in, t_out, entry, exit_, aj, rj in moves:
            free = t_in < t1 and t0 < t_out
            num.append(-aj * (rj if free else exit_ if t_out <= t0 else entry))
            if free:
                den.append(aj * aj)
        if den:
            lam = math.fsum(num) / math.fsum(den)
            if lam <= t1:
                return [min(max(rj + lam * aj, lj), hj)
                        for rj, aj, lj, hj in zip(r, a, lo, hi)]
    return None


def _batch_box(refs, a, b, lo, hi):
    """(inputs, slack, active, feasible) of the box QP at each row of refs,
    a (B, m) and b (B,): one array pass accepts every clipped reference that
    meets the constraint, and the multiplier walk solves the binding rows."""
    inputs = np.minimum(np.maximum(refs, lo), hi)
    # the stacked matmul has the bits of the 1-D a @ u (ddot) of every row
    slack = np.matmul(a[:, None, :], inputs[:, :, None]).ravel()
    slack -= b
    finite = np.isfinite(slack)   # false where a, b or the reference is not
    feasible = slack >= 0   # a NaN slack binds
    active = ~feasible
    feasible &= finite      # and a non-finite row is not walked
    rows = (active & finite).nonzero()[0]
    if not rows.size:
        return inputs, slack, active, feasible
    a_rows = a[rows]
    norm_sq = np.matmul(a_rows[:, None, :], a_rows[:, :, None]).ravel()
    bounds = lo.tolist(), hi.tolist()
    for i, r, a_i, b_i, sq in zip(rows.tolist(), refs[rows].tolist(), a_rows.tolist(),
                                  b[rows].tolist(), norm_sq.tolist()):
        u = None if sq < _DEGENERATE_SQ else _box_optimum(r, a_i, b_i, *bounds)
        if u is not None:
            inputs[i], slack[i], feasible[i] = u, 0.0, True
    return inputs, slack, active, feasible


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises below
def filter_input(filt: SafetyFilter, x) -> np.ndarray:
    """The safety-filtered input at one state x (n,): row 0 of filter_batch
    on the one-state batch; raises NumericError when the barrier or the
    constraint is not finite there, and InfeasibleFilterError when the
    constraint cannot be satisfied."""
    x = np.asarray(x, dtype=float)
    batch = filter_batch(filt, x[None])
    if not batch.feasible[0]:
        # a non-finite h, a or b leaves the slack or the input non-finite
        if not np.isfinite(batch.slack[0]) or not np.all(np.isfinite(batch.inputs[0])):
            raise NumericError(f"non-finite barrier constraint at state {x}")
        raise InfeasibleFilterError(
            f"barrier constraint infeasible at state {x} (slack {batch.slack[0]:.6g})"
        )
    return batch.inputs[0]


def filter_batch(filt: SafetyFilter, xs, workspace: Workspace | None = None) -> FilterBatch:
    """The filter's decisions at a batch of states: evaluate h, dh/dx
    (in the workspace, if one is given), f and g, then decide."""
    xs = np.asarray(xs, dtype=float)
    h, grads = values_and_input_gradients(filt.certificate, xs, workspace)
    return decide(filt, xs, h, grads, filt.system.f(xs), filt.system.g(xs))


def decide(filt: SafetyFilter, xs: np.ndarray, h: np.ndarray, grads: np.ndarray,
           f: np.ndarray, g: np.ndarray) -> FilterBatch:
    """The closed-form solve per state, from the barrier values h (B,),
    their input gradients dh/dx (B, n) and the system's f (B, n) and
    g (B, n, m) at the states xs (B, n).

    Infeasible states fall back to the (clipped) reference input and keep
    their negative slack so that callers can score the violation instead
    of aborting; rollout code treats feasible=False as a hard stop. A
    state whose barrier value, constraint (a, b), slack or input is not
    finite is infeasible too.
    """
    a_all = np.einsum("bn,bnm->bm", grads, g)
    b_all = -np.einsum("bn,bn->b", grads, f) - filt.kappa_gain * h
    refs = np.asarray(filt.system.reference_policy(xs), dtype=float)
    if refs.shape != a_all.shape:
        raise ValueError(f"reference_policy gave {refs.shape}, expected {a_all.shape}")
    ib = filt.system.input_bounds
    solve = (_batch_box(refs, a_all, b_all, ib[:, 0], ib[:, 1])
             if filt.respect_input_bounds and ib is not None
             else _batch_unbounded(refs, a_all, b_all, filt.correction_cap))
    return FilterBatch(*solve, h=h, f=f, g=g)


def _batch_unbounded(refs, a_all, b_all, cap):
    """(inputs, slack, active, feasible) of the unbounded QP at each row."""
    # Closed-form projection onto a.u >= b for every state at once. The
    # scalar reference is tests/oracles.py:_solve_unbounded, and
    # test_batch_matches_scalar_decisions checks that both decide alike.
    r = np.einsum("bm,bm->b", a_all, refs)
    viol = b_all - r
    gap = r - b_all
    active = gap < 0
    norm_sq = np.einsum("bm,bm->b", a_all, a_all)
    degenerate = norm_sq < _DEGENERATE_SQ
    feasible = ~(active & degenerate)
    project = active & ~degenerate
    scale = np.where(project, viol / np.where(project, norm_sq, 1.0), 0.0)
    corr = scale[:, None] * a_all
    slack = np.where(project, 0.0, gap)
    if cap is not None:
        size = np.linalg.norm(corr, axis=1)
        over = size > cap
        if np.any(over):
            shrink = cap / size[over]
            corr[over] *= shrink[:, None]
            slack[over] = (shrink - 1.0) * viol[over]
    inputs = refs + corr
    # a non-finite a, b or reference makes the slack or the input non-finite
    feasible &= np.isfinite(slack) & np.isfinite(inputs).all(axis=1)
    return inputs, slack, active, feasible
