"""Barrier-validity scoring and split-conformal certification.

A state is scored by the worst violation of the three barrier conditions:
negative barrier on safe-labeled states, insufficiently negative barrier
on unsafe-labeled states, and failure of the decrease condition under the
filtered input. The conformal quantile of those scores over fresh i.i.d.
samples, together with a Beta-distribution tail bound, yields the
finite-sample probabilistic guarantee.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ControlAffineSystem, Label, closed_loop_field
from .mlp import (MlpCertificate, ParamGrads, forward_batch,
                  seeded_loss_param_gradient, values_and_input_gradients)
from .sampling import TrainingDatasets, sample_uniform
from .special import regularized_incomplete_beta

_INDEX_NUDGE = 1e-9

# Rows per block of score_states: a block's (R, 128) temporaries stay in
# the caches, and numpy's per-call cost is spread over R rows. Picked by a
# 256-4096 sweep on the benchmark's 100K-state quadruped verify and desk
# dubins scoring.
_BLOCK_ROWS = 512


class InsufficientSamplesError(ValueError):
    """alpha is too small for the sample count: the quantile index exceeds N."""


class InvalidAlphaError(ValueError):
    """floor((N+1) * alpha) falls outside [1, N]."""


class EmptyBucketError(ValueError):
    """A training loss bucket is empty."""


@dataclass(frozen=True)
class LossWeights:
    """Weights of the composite hinge loss and of the barrier conditions."""

    lambda1: float = 1.0
    lambda2: float = 0.1
    delta: float = 0.01
    psi: float = 0.0
    kappa_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ValueError("lambda weights must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.kappa_gain <= 0:
            raise ValueError("kappa_gain must be positive")


def _control_decisions(controller, xs):
    """(inputs, exact_slack_or_None, h_or_None) for a batch of states.

    SafetyFilter-like controllers expose batch_decide and report the
    constraint slack in closed form, with the barrier values they built it
    from; plain callables map states to inputs and the decrease term is
    then evaluated from inner products.
    """
    decide = getattr(controller, "batch_decide", None)
    if decide is not None:
        batch = decide(xs)
        return batch.inputs, batch.slack, batch.h
    return np.asarray(controller(xs), dtype=float), None, None


def _decrease_scores(cert, sys, xs, inputs, slack, h, kappa_gain):
    """(q3, closed-loop directions f + g u, h) per state.

    With an exact slack from the filter, q3 is its negation and h is the
    filter's; otherwise both come from one values_and_input_gradients pass.
    """
    dirs = closed_loop_field(sys, xs, inputs)
    if slack is not None:
        return -np.asarray(slack, dtype=float), dirs, h
    h, grads = values_and_input_gradients(cert, xs)
    return -np.einsum("bn,bn->b", grads, dirs) - kappa_gain * h, dirs, h


def _by_blocks(fn, xs) -> np.ndarray:
    """fn's per-row values over row blocks of xs, written into one array.

    Blocks have R = _BLOCK_ROWS rows; the last also takes the remainder
    (up to 2R-1 rows), since a short tail block sends its rows through
    other BLAS kernels than the one-shot batch does. Each row then keeps
    its offset from both ends of its batch modulo R, and BLAS never sees
    more than 2R-1 rows. Reductions run on the returned full array.
    """
    n = len(xs)
    out = np.empty(n)
    cuts = [0, *range(_BLOCK_ROWS, n - _BLOCK_ROWS + 1, _BLOCK_ROWS), n]
    for start, stop in zip(cuts, cuts[1:]):
        out[start:stop] = fn(xs[start:stop])
    return out


def _domain_decrease(cert, datasets, controller, weights, sys):
    """(q3, closed-loop directions) on the domain bucket under the
    controller's inputs, once all three buckets are known nonempty."""
    if min(datasets.sizes()) == 0:
        raise EmptyBucketError("all three dataset buckets must be nonempty")
    sys = getattr(controller, "system", sys)
    if sys is None:
        raise ValueError(
            "a system is required: pass sys= or use a controller that carries one")
    inputs, slack, h = _control_decisions(controller, datasets.domain)
    q3, dirs, _ = _decrease_scores(cert, sys, datasets.domain, inputs, slack, h,
                                   weights.kappa_gain)
    return q3, dirs


def total_loss(cert: MlpCertificate, datasets: TrainingDatasets, controller,
               weights: LossWeights, sys: ControlAffineSystem | None = None
               ) -> tuple[float, tuple[float, float, float]]:
    """The composite hinge loss over the full datasets and its three terms
    (safe, unsafe, decrease): the per-epoch monitoring loss, each bucket in
    one pass."""
    # Whole buckets, not row blocks: blocked, the desk dubins loss took 35%
    # less time but the mini-batch steps after it 50% more. glibc malloc
    # raises its mmap and trim thresholds only when a large chunk is freed;
    # without these multi-MB temporaries it hands the heap back to the
    # system after every step and faults it in again at the next. The
    # safe and unsafe forwards go first: the steps that follow were
    # measured slower with the domain pass first.
    h_safe = forward_batch(cert, datasets.safe)
    h_unsafe = forward_batch(cert, datasets.unsafe)
    q3, _ = _domain_decrease(cert, datasets, controller, weights, sys)
    l1 = float(np.mean(np.maximum(0.0, -h_safe - weights.psi)))
    l2 = float(np.mean(np.maximum(0.0, h_unsafe + weights.delta - weights.psi)))
    l3 = float(np.mean(np.maximum(0.0, q3 - weights.psi)))
    value = l1 + weights.lambda1 * l2 + weights.lambda2 * l3
    return value, (l1, l2, l3)


def total_loss_and_gradient(cert: MlpCertificate, datasets: TrainingDatasets,
                            controller, weights: LossWeights,
                            sys: ControlAffineSystem | None = None
                            ) -> tuple[float, ParamGrads]:
    """Composite hinge loss and its exact parameter gradient.

    The filtered input at each domain point is held constant with respect
    to the parameters: it is recomputed from the current certificate every
    call, but not differentiated through.
    """
    q3_exact, dirs = _domain_decrease(cert, datasets, controller, weights, sys)
    ns, nu, nd = datasets.sizes()
    xs = np.concatenate([datasets.safe, datasets.unsafe, datasets.domain], axis=0)
    seeds = np.zeros_like(xs)
    seeds[ns + nu:] = dirs
    lam1, lam2, psi, gamma = (weights.lambda1, weights.lambda2,
                              weights.psi, weights.kappa_gain)
    delta = weights.delta

    def combined(h, d):
        q1 = -h[:ns]
        q2 = h[ns:ns + nu] + delta
        q3 = q3_exact
        act1 = q1 - psi > 0
        act2 = q2 - psi > 0
        act3 = q3 - psi > 0
        l1 = np.sum(q1[act1] - psi) / ns
        l2 = np.sum(q2[act2] - psi) / nu
        l3 = np.sum(q3[act3] - psi) / nd
        value = l1 + lam1 * l2 + lam2 * l3
        dh = np.zeros_like(h)
        dh[:ns][act1] = -1.0 / ns
        dh[ns:ns + nu][act2] = lam1 / nu
        dh[ns + nu:][act3] = -lam2 * gamma / nd
        dd = np.zeros_like(d)
        dd[ns + nu:][act3] = -lam2 / nd
        return value, dh, dd

    return seeded_loss_param_gradient(cert, xs, seeds, combined)


def conformal_quantile(scores, alpha: float) -> float:
    """The ceil((N+1)(1-alpha))-th smallest score.

    The index arithmetic nudges against floating-point error so exact
    integer products are read as integers.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("scores must be a nonempty 1-D collection")
    n = arr.size
    rank = math.ceil((n + 1) * (1.0 - alpha) - _INDEX_NUDGE)
    if rank > n:
        raise InsufficientSamplesError(
            f"quantile rank {rank} exceeds N={n}; increase N or alpha "
            f"(need (N+1)(1-alpha) <= N)"
        )
    return float(np.sort(arr)[rank - 1])


def quantile_index(n: int, alpha: float) -> int:
    """l = floor((N+1) * alpha), the Beta-parameter index of the quantile."""
    return math.floor((n + 1) * alpha + _INDEX_NUDGE)


def _checked_quantile_index(n_samples: int, alpha: float) -> int:
    l = quantile_index(n_samples, alpha)
    if l < 1 or l > n_samples:
        raise InvalidAlphaError(
            f"floor((N+1) alpha) = {l} outside [1, N] for N={n_samples}, alpha={alpha}"
        )
    return l


def epsilon_for(n_samples: int, alpha: float, beta: float) -> float:
    """Smallest violation level epsilon whose Beta tail bound holds.

    Bisects the monotone condition I_{1-eps}(N-l+1, l) <= beta; the
    returned value satisfies it, and values 1e-6 smaller do not.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    l = _checked_quantile_index(n_samples, alpha)
    a, b = n_samples - l + 1, l

    def ok(eps: float) -> bool:
        return regularized_incomplete_beta(1.0 - eps, a, b) <= beta

    lo, hi = 0.0, 1.0
    # I_{1-0}=1 > beta always; I_{1-1}=0 <= beta always
    for _ in range(200):
        if hi - lo < 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ConformalReport:
    """Everything the certification step produces, serializable to JSON."""

    n_samples: int
    alpha: float
    beta: float
    index_l: int
    quantile: float
    epsilon: float
    score_min: float
    score_max: float
    score_mean: float
    seed: int

    def certified(self, tol: float = 0.0) -> bool:
        return self.quantile <= tol

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "ConformalReport":
        """The report in doc; keys that are not fields are ignored."""
        return cls(**{f.name: doc[f.name] for f in dataclasses.fields(cls)})


def score_states(cert: MlpCertificate, sys: ControlAffineSystem, controller,
                 xs, weights: LossWeights) -> np.ndarray:
    """Conformal scores for a batch: max over the active condition terms.

    Labels, filter decisions and the decrease term run in row blocks of
    _BLOCK_ROWS states (see _by_blocks; a plain-callable controller is
    called once per block, in order), so memory beyond xs and the scores
    stays O(block) whatever the sample size.
    """
    xs = np.asarray(xs, dtype=float)

    def block_scores(block):
        labels = sys.label_batch(block)
        inputs, slack, h = _control_decisions(controller, block)
        q3, _, h = _decrease_scores(cert, sys, block, inputs, slack, h,
                                    weights.kappa_gain)
        if not np.all(np.isfinite(h)) or not np.all(np.isfinite(q3)):
            raise FloatingPointError("non-finite score while sampling the state space")
        scores = np.array(q3, copy=True)
        safe = labels == Label.SAFE
        unsafe = labels == Label.UNSAFE
        scores[safe] = np.maximum(scores[safe], -h[safe])
        scores[unsafe] = np.maximum(scores[unsafe], h[unsafe] + weights.delta)
        return scores

    return _by_blocks(block_scores, xs)


def verification_scores(cert: MlpCertificate, sys: ControlAffineSystem,
                        controller, n_samples: int, seed: int,
                        weights: LossWeights | None = None) -> np.ndarray:
    """The score sample a report with the same seed was calibrated on;
    exposed so score lists can be dumped for audit."""
    weights = weights if weights is not None else LossWeights()
    xs = sample_uniform(sys.state_bounds, n_samples, np.random.default_rng([seed, 17]))
    return score_states(cert, sys, controller, xs, weights)


def report_from_scores(scores, alpha: float, beta: float, seed: int) -> ConformalReport:
    """Calibrate a score sample of N = len(scores) i.i.d. states: the
    conformal quantile, its epsilon at confidence 1 - beta, and the score
    summary."""
    scores = np.asarray(scores, dtype=float)
    n_samples = scores.size
    l = _checked_quantile_index(n_samples, alpha)
    return ConformalReport(
        n_samples=n_samples, alpha=alpha, beta=beta, index_l=l,
        quantile=conformal_quantile(scores, alpha),
        epsilon=epsilon_for(n_samples, alpha, beta),
        score_min=float(scores.min()), score_max=float(scores.max()),
        score_mean=float(scores.mean()), seed=seed,
    )


def quantify_safety(cert: MlpCertificate, sys: ControlAffineSystem, controller,
                    n_samples: int, alpha: float, beta: float, seed: int,
                    weights: LossWeights | None = None) -> ConformalReport:
    """Draw fresh i.i.d. states, score them, and calibrate.

    With probability at least 1 - beta over the draw, at least a
    1 - epsilon fraction of the state space scores no worse than the
    returned quantile.
    """
    _checked_quantile_index(n_samples, alpha)  # before the scoring work
    scores = verification_scores(cert, sys, controller, n_samples, seed, weights)
    return report_from_scores(scores, alpha, beta, seed)
