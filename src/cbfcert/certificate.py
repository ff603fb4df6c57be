"""Barrier-validity scoring and split-conformal certification.

A state is scored by the worst violation of the three barrier conditions:
negative barrier on safe-labeled states, insufficiently negative barrier
on unsafe-labeled states, and failure of the decrease condition under the
filtered input. The conformal quantile of those scores over fresh i.i.d.
samples, together with a Beta-distribution tail bound, yields the
finite-sample probabilistic guarantee.

The loss and scoring functions take the SafetyFilter whose decisions
they score: the decrease term is minus the filter's constraint slack,
and the certificate and system they are given must be the filter's own.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .controller import SafetyFilter, decide, filter_batch
from .dynamics import ControlAffineSystem, Label, affine_field
from .mlp import (MlpCertificate, NumericError, Workspace, forward_batch,
                  primal_input_gradients, primal_pass, seeded_loss_param_gradient)
from .sampling import TrainingDatasets, sample_uniform, stream
from .special import _log_front, regularized_incomplete_beta

_INDEX_NUDGE = 1e-9

# epsilon_for answers on the grid j * 2**-40 that 40 halvings of [0, 1] visit.
_GRID_BITS = 40
_GRID = 1 << _GRID_BITS
_CELL = 2.0 ** -_GRID_BITS

# Rows per block of score_states, verification_scores and total_loss: a
# block's (R, 128) temporaries stay in the caches, and numpy's per-call
# cost is spread over R rows. Picked by a 256-4096 sweep on the
# benchmark's 100K-state quadruped verify and desk dubins scoring.
_BLOCK_ROWS = 512


class InvalidAlphaError(ValueError):
    """alpha is not finite, or l = floor((N+1) alpha) falls outside [1, N]."""


class InsufficientSamplesError(InvalidAlphaError):
    """alpha is too small for the sample count: l = floor((N+1) alpha) < 1."""


class EmptyBucketError(ValueError):
    """A training loss bucket is empty."""


@dataclass(frozen=True)
class LossWeights:
    """Hinge-loss weights and margins; the decrease gain is the filter's kappa_gain."""

    lambda1: float = 1.0
    lambda2: float = 0.1
    delta: float = 0.01
    psi: float = 0.0

    def __post_init__(self) -> None:
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ValueError("lambda weights must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")


def _check_filter(cert, controller, sys=None) -> None:
    """Raise ValueError unless controller filters with cert (and sys)."""
    if getattr(controller, "certificate", None) is not cert:
        raise ValueError("controller must be a SafetyFilter built on this certificate")
    if sys is not None and controller.system is not sys:
        raise ValueError("sys must be the system of the controller's SafetyFilter")


def _by_blocks(n: int, block) -> np.ndarray:
    """The per-row values of n rows, block(start, stop) giving those of
    rows start:stop, written block by block into one array.

    Blocks have R = _BLOCK_ROWS rows; the last also takes the remainder
    (up to 2R-1 rows), since a short tail block sends its rows through
    other BLAS kernels than the one-shot batch does. Each row then keeps
    its offset from both ends of its batch modulo R, and BLAS never sees
    more than 2R-1 rows. Reductions run on the returned full array.
    """
    out = np.empty(n)
    cuts = [0, *range(_BLOCK_ROWS, n - _BLOCK_ROWS + 1, _BLOCK_ROWS), n]
    for start, stop in zip(cuts, cuts[1:]):
        out[start:stop] = block(start, stop)
    return out


def _hinge(h_safe, h_unsafe, q3, weights: LossWeights):
    """The composite hinge loss of the three buckets: its value, its terms
    (safe, unsafe, decrease) and the masks of the active hinges."""
    psi = weights.psi
    args = (-h_safe - psi, h_unsafe + weights.delta - psi, q3 - psi)
    l1, l2, l3 = terms = tuple(float(np.mean(np.maximum(0.0, a))) for a in args)
    value = l1 + weights.lambda1 * l2 + weights.lambda2 * l3
    return value, terms, tuple(a > 0 for a in args)


def total_loss(cert: MlpCertificate, datasets: TrainingDatasets,
               controller: SafetyFilter, weights: LossWeights,
               workspace: Workspace | None = None
               ) -> tuple[float, tuple[float, float, float]]:
    """The composite hinge loss over the full datasets and its three terms
    (safe, unsafe, decrease): the per-epoch monitoring loss. Each bucket
    runs in row blocks (see _by_blocks) in one workspace, the given one
    or a fresh one, so memory beyond the per-row values stays O(block)."""
    if min(datasets.sizes()) == 0:
        raise EmptyBucketError("all three dataset buckets must be nonempty")
    _check_filter(cert, controller)
    # A row keeps the bits the whole bucket gives it unless the whole
    # bucket switches BLAS kernel: on the 6,600 desk dubins domain rows,
    # q3 moves by up to 2.2e-16. A desk dubins training phase
    # (6,700/6,700/6,600 rows) traced a 12.1 MiB peak with whole buckets
    # and 2.5 MiB with blocks, and this loss took 8.4 ms instead of
    # 11.4 ms (2 vCPUs, one BLAS thread, best of 40).
    ws = workspace or Workspace()
    safe, unsafe, domain = datasets.safe, datasets.unsafe, datasets.domain
    h_safe = _by_blocks(len(safe), lambda i, j: forward_batch(cert, safe[i:j], ws))
    h_unsafe = _by_blocks(len(unsafe), lambda i, j: forward_batch(cert, unsafe[i:j], ws))
    q3 = _by_blocks(len(domain), lambda i, j: filter_batch(controller, domain[i:j], ws).slack)
    np.negative(q3, out=q3)
    value, terms, _ = _hinge(h_safe, h_unsafe, q3, weights)
    return value, terms


def total_loss_and_gradient(cert: MlpCertificate, datasets: TrainingDatasets,
                            controller: SafetyFilter, weights: LossWeights,
                            workspace: Workspace | None = None
                            ) -> tuple[float, tuple[np.ndarray, ...]]:
    """Composite hinge loss and its exact parameter gradient, the
    hidden-layer arrays in the workspace (a fresh one if None).

    The filtered input at each domain point is held constant with respect
    to the parameters: it is recomputed from the current certificate every
    call, but not differentiated through.
    """
    if min(datasets.sizes()) == 0:
        raise EmptyBucketError("all three dataset buckets must be nonempty")
    _check_filter(cert, controller)
    ns, nu, nd = datasets.sizes()
    first = ns + nu
    domain = datasets.domain
    # one primal pass over all rows; the filter decides on the domain rows,
    # which alone carry the closed-loop field f + g u as their tangent
    primal = primal_pass(cert, np.concatenate([datasets.safe, datasets.unsafe, domain]),
                         workspace)
    batch = decide(controller, domain, primal.h[first:], primal_input_gradients(primal, first),
                   controller.system.f(domain), controller.system.g(domain))
    seeds = affine_field(batch.f, batch.g, batch.inputs)
    lam1, lam2 = weights.lambda1, weights.lambda2
    gamma = controller.kappa_gain

    def combined(h, d):
        value, _, (act1, act2, act3) = _hinge(h[:ns], h[ns:first], -batch.slack, weights)
        dh = np.zeros_like(h)
        dh[:ns][act1] = -1.0 / ns
        dh[ns:first][act2] = lam1 / nu
        dh[first:][act3] = -lam2 * gamma / nd
        return value, dh, np.where(act3, -lam2 / nd, 0.0)

    return seeded_loss_param_gradient(primal, seeds, combined)


def conformal_quantile(scores, alpha: float) -> float:
    """The (N+1-l)-th smallest of N scores, l = quantile_index(N, alpha)."""
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("scores must be a nonempty 1-D collection")
    # a full sort, not a partition: it fixes which of tied zeros (-0.0 or
    # 0.0) is returned
    return float(np.sort(arr)[arr.size - quantile_index(arr.size, alpha)])


def quantile_index(n: int, alpha: float) -> int:
    """l = floor((N+1) alpha): the conformal quantile is the (N+1-l)-th
    smallest of N scores, and Beta(l, N+1-l) bounds its coverage. The
    arithmetic nudges against floating-point error so exact integer
    products are read as integers. Raises InvalidAlphaError unless alpha
    is finite and l lies in [1, N], InsufficientSamplesError if l < 1."""
    if not math.isfinite(alpha):
        raise InvalidAlphaError(f"alpha must be finite, got {alpha}")
    l = math.floor((n + 1) * alpha + _INDEX_NUDGE)
    if l < 1 or l > n:
        error = InsufficientSamplesError if l < 1 else InvalidAlphaError
        raise error(f"floor((N+1) alpha) = {l} outside [1, N] for N={n}, alpha={alpha}")
    return l


def _tail_bracket(n: int, l: int, beta: float) -> tuple[int, int, float]:
    """Grid indices (lo, hi) on either side of the root of S(eps) = beta,
    from binomial tail bounds, and a lower bound on log S at lo.

    S(eps) = I_{1-eps}(N-l+1, l) = P(Binomial(N, eps) <= l-1). Up to lo,
    S >= min(e beta, (1+beta)/2); from hi on, S <= beta/e. The margins
    dwarf the rounding error of the computed S, so neither end needs an
    evaluation.
    """
    log_beta = math.log(beta)
    log_lo = min(log_beta + 1.0, math.log1p(beta) - math.log(2.0))
    log_hi = log_beta - 1.0
    k = l - 1
    # S = 1 - P(X >= l) for X ~ Binomial(N, eps), mean mu = N eps, and
    # Chernoff: P(X >= (1+d) mu) <= exp(-d^2 mu / (2+d))
    c = -math.log1p(-math.exp(log_lo))
    lower = (l - (math.sqrt(c * c + 8.0 * c * l) - c) / 2.0) / n
    # S <= C(N, k) (1-eps)^(N-k), some N-k trials all failing, and
    # Chernoff: P(X <= (1-d) mu) <= exp(-d^2 mu / 2)
    log_choose = math.lgamma(n + 1) - math.lgamma(l) - math.lgamma(n - k + 1)
    c = -log_hi
    upper = min(-math.expm1((log_hi - log_choose) / (n - k)),
                (k + c + math.sqrt(c * c + 2.0 * k * c)) / n)
    return (max(0, math.floor(lower / _CELL) - 1),
            min(_GRID, math.ceil(upper / _CELL) + 1), log_lo)


def _pratt_g(x: float) -> tuple[float, float]:
    """Peizer and Pratt's g(x) = (1 - x^2 + 2 x ln x) / (1 - x)^2 and its
    derivative; near x = 1, where both ratios cancel, their power series."""
    t = x - 1.0
    if abs(t) < 1e-3:
        return (t * (-1.0 / 3.0 + t * (1.0 / 6.0 - t / 10.0)),
                -1.0 / 3.0 + t * (1.0 / 3.0 - 0.3 * t))
    num = 1.0 - x * x + 2.0 * x * math.log(x)
    return num / (t * t), -2.0 * ((x - math.log(x) - 1.0) * t + num) / (t * t * t)


def _peizer_pratt_root(n: int, k: int, z: float) -> float:
    """The eps at which the Peizer-Pratt normal deviate of
    P(Binomial(N, eps) <= k) equals z (Peizer & Pratt, JASA 1968): Newton
    steps on logit(eps), which keeps eps inside (0, 1), from the normal
    approximation. nan where a step overflows or leaves a log's domain."""
    s, f = k + 0.5, n - k - 0.5
    # the deviate is d r, with r = sqrt(w / ((N + 1/6) eps (1 - eps))) and
    # d linear in eps, of slope dd
    dd = -(n + 1.0 / 3.0) - 0.02 * (1.0 / (k + 1) + 1.0 / (n - k) + 1.0 / (n + 1))
    # the normal approximation, with eps and 1 - eps at least half their means
    p = min(max(s / n - z * math.sqrt(s * f / n) / n, 0.5 * s / n), 1.0 - 0.5 * f / n)
    u = math.log(p / (1.0 - p))
    try:
        for _ in range(8):
            p = 1.0 / (1.0 + math.exp(-u))
            q = 1.0 - p
            d = k + 2.0 / 3.0 - (n + 1.0 / 3.0) * p + 0.02 * (q / (k + 1) - p / (n - k)
                                                                 + (q - 0.5) / (n + 1))
            xs, xf = s / (n * p), f / (n * q)
            (gs, dgs), (gf, dgf) = _pratt_g(xs), _pratt_g(xf)
            w = 1.0 + q * gs + p * gf
            dw = gf - gs - q * dgs * xs / p + p * dgf * xf / q
            r = math.sqrt(w / ((n + 1.0 / 6.0) * p * q))
            # d(d r)/du = r (dd + d (dw / 2w - (q - p) / 2pq)) p q
            step = (d * r - z) / (r * (dd * p * q + d * (0.5 * dw * p * q / w - 0.5 * (q - p))))
            u -= step
            if abs(step) <= 1e-6:
                break
    except (ValueError, ZeroDivisionError, OverflowError):
        return math.nan
    return 1.0 / (1.0 + math.exp(-u))


def epsilon_for(n_samples: int, alpha: float, beta: float) -> float:
    """Smallest violation level epsilon whose Beta tail bound holds: the
    smallest grid point eps = j * 2**-40 with I_{1-eps}(N-l+1, l) <= beta,
    l = quantile_index(N, alpha) (see _beta_tail_root)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    _check_beta(beta)
    return _beta_tail_root(n_samples, quantile_index(n_samples, alpha), beta)


def _check_beta(beta: float) -> None:
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")


def failure_bound(failures: int, trials: int, beta: float) -> float:
    """The exact one-sided Clopper-Pearson 1 - beta upper bound on a
    failure probability after `failures` of `trials` independent trials
    failed: the smallest grid point eps = j * 2**-40 with
    P(Binomial(trials, eps) <= failures) <= beta, and 1.0 when every
    trial failed."""
    if not 0 <= failures <= trials:
        raise ValueError(f"failures must lie in [0, {trials}], got {failures}")
    _check_beta(beta)
    return 1.0 if failures == trials else _beta_tail_root(trials, failures + 1, beta)


def _beta_tail_root(n_samples: int, l: int, beta: float) -> float:
    """The smallest grid point eps = j * 2**-40 with
    S(eps) = I_{1-eps}(N-l+1, l) = P(Binomial(N, eps) <= l-1) <= beta,
    for 1 <= l <= N: the value 40 halvings of [0, 1] return, bit for bit.

    S is the survival function of Beta(l, N-l+1), log-concave in eps and
    in v = log(1 - eps). The search starts at the Peizer-Pratt root, which
    needs no evaluation of S, or at the bracket's midpoint where that root
    fails. Halley steps on log S(v) = log beta (Newton steps where Halley's
    divisor is not positive and finite), snapped to the grid, shrink a
    bracket (lo, hi) of grid indices with S > beta at lo and S <= beta at
    hi, and the chord of log S across the bracket raises lo without an
    evaluation.
    Each step lands where either outcome leaves a bracket that halving
    could still close in the evaluations left, so no call evaluates the
    incomplete beta more than 40 times; most take 2 to 4.
    """
    a, b = n_samples - l + 1, l
    log_beta = math.log(beta)
    lo, hi, y_lo = _tail_bracket(n_samples, l, beta)
    y_hi = -math.inf  # log S at hi, once evaluated
    z = NormalDist().inv_cdf(beta)
    guess = _peizer_pratt_root(n_samples, l - 1, z)
    j = math.ceil(guess / _CELL) if 0.0 < guess < 1.0 else (lo + hi) // 2  # nan too
    left = _GRID_BITS
    while hi - lo > 1:
        # either outcome must leave at most 2**(left-1) cells for halving
        half = 1 << (left - 1)
        j = min(max(j, hi - half, lo + 1), lo + half, hi - 1)
        eps = j * _CELL
        x = 1.0 - eps
        s = regularized_incomplete_beta(x, a, b)
        left -= 1
        y = math.log(s) if s > 0.0 else -math.inf
        if s <= beta:
            hi, y_hi = j, y
        else:
            lo, y_lo = j, y
        j = (lo + hi) // 2
        if s > 0.0:
            # Newton on L(v) = log S(v): L' = x pdf(x) / S = e^front / (eps S)
            inv = eps * math.exp(min(y - _log_front(x, a, b), 700.0))  # 1 / L'
            step = (y - log_beta) * inv
            # Halley, with L'' = L' (a - (b-1) x / eps - L')
            shrink = 1.0 - 0.5 * (y - log_beta) * ((a - (b - 1) * x / eps) * inv - 1.0)
            if 0.0 < shrink < math.inf:
                step /= shrink
            v = math.log(x) - step
            j = math.ceil(-math.expm1(min(v, 0.0)) / _CELL)
        if y_lo > y_hi > -math.inf:
            # log S lies above its chord; 2e-12 and two cells cover rounding
            v_lo, v_hi = math.log1p(-lo * _CELL), math.log1p(-hi * _CELL)
            v_cut = v_lo + (v_hi - v_lo) * (y_lo - log_beta - 2e-12) / (y_lo - y_hi)
            cut = math.floor(-math.expm1(v_cut) / _CELL) - 2
            if cut > lo:
                y_lo += (y_hi - y_lo) * (math.log1p(-cut * _CELL) - v_lo) / (v_hi - v_lo)
                lo = cut
    return hi * _CELL


@dataclass(frozen=True)
class ConformalReport:
    """report.json, format_version 2: the conformal quantile of one uniform
    draw, the spec of the `filter` it was scored under and the draw's
    counts (see _calibration_draw)."""

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
    filter: dict | None = None
    draws: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {"format_version": 2, **dataclasses.asdict(self), "draws": list(self.draws)}


def _block_scorer(cert: MlpCertificate, sys: ControlAffineSystem,
                  controller: SafetyFilter, weights: LossWeights):
    """The conformal scores of one row block, as a function of the block,
    and the (4, 3) counts of the rows scored: by Label code, the states,
    the scores > 0 and those by the term attaining them (decrease, also on
    a tie, at 0), then the infeasible QPs. Every block's filter pass writes
    into the same workspace, so its pages fault in once per scoring."""
    _check_filter(cert, controller, sys)
    workspace = Workspace()
    counts = np.zeros((4, 3), dtype=np.int64)

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite score raises below
    def block_scores(block):
        labels = sys.label_batch(block)
        batch = filter_batch(controller, block, workspace)
        h, scores = batch.h, -batch.slack
        if not np.all(np.isfinite(h)) or not np.all(np.isfinite(scores)):
            raise NumericError("non-finite score while sampling the state space")
        safe = labels == Label.SAFE
        unsafe = labels == Label.UNSAFE
        scores[safe] = np.maximum(scores[safe], -h[safe])
        scores[unsafe] = np.maximum(scores[unsafe], h[unsafe] + weights.delta)
        positive = scores > 0
        terms = np.where(scores[positive] == -batch.slack[positive], 0, labels[positive])
        for row, values in enumerate((labels, labels[positive], terms)):
            counts[row] += np.bincount(values, minlength=3)
        counts[3, 0] += np.count_nonzero(~batch.feasible)
        return scores

    return block_scores, counts


def score_states(cert: MlpCertificate, sys: ControlAffineSystem,
                 controller: SafetyFilter, xs, weights: LossWeights) -> np.ndarray:
    """Conformal scores for a batch: max over the active condition terms,
    with q3 minus the filter's slack.

    Labels and filter decisions run in row blocks of _BLOCK_ROWS states
    (see _by_blocks; the filter decides once per block, in order, in one
    workspace), so memory beyond xs and the scores stays O(block)
    whatever the sample size.
    """
    scorer, _ = _block_scorer(cert, sys, controller, weights)
    xs = np.asarray(xs, dtype=float)
    return _by_blocks(len(xs), lambda start, stop: scorer(xs[start:stop]))


def verification_scores(cert: MlpCertificate, sys: ControlAffineSystem,
                        controller: SafetyFilter, n_samples: int, seed: int,
                        weights: LossWeights | None = None) -> np.ndarray:
    """The score sample a report with the same seed was calibrated on;
    exposed so score lists can be dumped for audit.

    The scores of score_states on sample_uniform(sys.state_bounds,
    n_samples, stream(seed, "calibration")), bit for bit, but each row block
    is drawn from the generator just before it is scored: a generator's
    draws do not depend on how they are chunked, and the (N, n) sample is
    never held, so memory beyond the N scores stays O(block).
    """
    return _calibration_draw(cert, sys, controller, n_samples, seed, weights)[0]


def _calibration_draw(cert, sys, controller, n_samples, seed, weights):
    """verification_scores' scores and the record of their draw that a
    report keeps under `draws`, from the one scoring pass."""
    weights = weights if weights is not None else LossWeights()
    if n_samples < 0:  # sample_uniform's check, made before the filter's
        raise ValueError("count must be non-negative")
    scorer, counts = _block_scorer(cert, sys, controller, weights)
    rng = stream(seed, "calibration")
    scores = _by_blocks(n_samples, lambda start, stop: scorer(
        sample_uniform(sys.state_bounds, stop - start, rng)))
    by_label, positive, (decrease, safe, unsafe), (infeasible, _, _) = counts.tolist()
    keys = [label.name.lower() for label in Label]
    return scores, {"stream": "calibration", "seed": seed, "n_samples": n_samples,
                    "n_by_label": dict(zip(keys, by_label)), "positive": sum(positive),
                    "positive_by_label": dict(zip(keys, positive)), "positive_by_condition":
                    {"safe": safe, "unsafe": unsafe, "decrease": decrease},
                    "infeasible": infeasible}


def report_from_scores(scores, alpha: float, beta: float, seed: int) -> ConformalReport:
    """Calibrate a score sample of N = len(scores) i.i.d. states: the
    conformal quantile, its epsilon at confidence 1 - beta, and the score
    summary."""
    scores = np.asarray(scores, dtype=float)
    n_samples = scores.size
    l = quantile_index(n_samples, alpha)
    with np.errstate(over="ignore"):  # finite scores can overflow the sum: then scale first
        mean = float(scores.mean())
    mean = mean if math.isfinite(mean) else float(np.sum(scores / n_samples))
    return ConformalReport(
        n_samples=n_samples, alpha=alpha, beta=beta, index_l=l,
        quantile=conformal_quantile(scores, alpha),
        epsilon=epsilon_for(n_samples, alpha, beta),
        score_min=float(scores.min()), score_max=float(scores.max()),
        score_mean=mean, seed=seed,
    )


def calibrate(cert: MlpCertificate, sys: ControlAffineSystem, controller: SafetyFilter,
              n_samples: int, alpha: float, beta: float, seed: int,
              weights: LossWeights | None = None) -> tuple[ConformalReport, np.ndarray]:
    """Draw fresh i.i.d. states, score them once, and calibrate: the report,
    with the filter's spec and the draw's counts, and the scores.

    With probability at least 1 - beta over the draw, at least a
    1 - epsilon fraction of the state space scores no worse than the
    returned quantile.
    """
    quantile_index(n_samples, alpha)  # both checks before the scoring work
    _check_beta(beta)
    scores, draw = _calibration_draw(cert, sys, controller, n_samples, seed, weights)
    report = report_from_scores(scores, alpha, beta, seed)
    return dataclasses.replace(report, filter=controller.spec, draws=(draw,)), scores


def quantify_safety(cert: MlpCertificate, sys: ControlAffineSystem,
                    controller: SafetyFilter, n_samples: int, alpha: float,
                    beta: float, seed: int,
                    weights: LossWeights | None = None) -> ConformalReport:
    """calibrate's report, without the scores."""
    return calibrate(cert, sys, controller, n_samples, alpha, beta, seed, weights)[0]
