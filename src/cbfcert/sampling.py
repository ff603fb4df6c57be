"""Training-set construction: i.i.d. uniform draws over the state box and
rejection sampling into labeled buckets; the table of seeded streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ControlAffineSystem, Label

_STALL_MIN_DRAWS = 200_000
_STALL_RATE = 1e-4

# Every seeded random stream of a run, one entry per use: stream(seed,
# name, *index) is default_rng([seed, *STREAMS[name], *index]); epochs and
# tuning take the refinement round as index. A changed key changes every
# artifact it draws for. numpy pads keys with zeros and splits ints of
# 2**32 or more into words ([s, 101] is [s, 101, 0]), so streams are told
# apart by generator state, not by key.
STREAMS = {
    "init": (),  # mlp.init_certificate's default_rng(seed)
    "safe": (1,),
    "unsafe": (2,),
    "domain": (3,),
    "rollout_starts": (5,),
    "calibration": (17,),
    "epochs": (101,),
    "tuning": (211,),
}


class LabelingMeasureError(RuntimeError):
    """Rejection sampling stalled: the requested label has (near-)zero measure."""


@dataclass(frozen=True)
class TrainingDatasets:
    """The three point sets the loss runs over: safe, unsafe, whole-space."""

    safe: np.ndarray     # (n_safe, n)
    unsafe: np.ndarray   # (n_unsafe, n)
    domain: np.ndarray   # (n_domain, n)

    def sizes(self) -> tuple[int, int, int]:
        return self.safe.shape[0], self.unsafe.shape[0], self.domain.shape[0]


def stream(seed: int, name: str, *index: int) -> np.random.Generator:
    """The generator of the named stream (STREAMS) of a run with this seed."""
    return np.random.default_rng([seed, *STREAMS[name], *index])


def sample_uniform(bounds, count: int, seed) -> np.ndarray:
    """count points, each coordinate independent uniform over its interval.

    seed may be an int, a sequence of ints, or a Generator; fixed seeds
    reproduce exact sequences.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or np.any(bounds[:, 0] >= bounds[:, 1]):
        raise ValueError("bounds must be (n, 2) intervals with lo < hi")
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    pts = rng.uniform(size=(count, bounds.shape[0]))
    return bounds[:, 0] + pts * (bounds[:, 1] - bounds[:, 0])


def rejection_sample_label(sys: ControlAffineSystem, want_label: int, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Uniform draws over X kept only when the labeler matches; raises
    LabelingMeasureError when the acceptance rate collapses.

    The first chunk is sized to the request, later ones to at least 4096
    rows. The generator's stream does not depend on the chunking, so the
    rows kept, the first count accepted, do not either.
    """
    out = np.empty((count, sys.n))
    got = 0
    drawn = 0
    chunk = max(64, 2 * count)
    while got < count:
        pts = sample_uniform(sys.state_bounds, chunk, rng)
        keep = pts[sys.label_batch(pts) == want_label]
        take = min(count - got, keep.shape[0])
        out[got:got + take] = keep[:take]
        got += take
        drawn += chunk
        chunk = max(4096, 2 * count)
        if drawn >= _STALL_MIN_DRAWS and got / drawn < _STALL_RATE:
            raise LabelingMeasureError(
                f"acceptance rate {got / drawn:.2e} for label {Label(want_label).name} "
                f"after {drawn} draws; labeler looks degenerate"
            )
    return out


def build_datasets(sys: ControlAffineSystem, n_safe: int, n_unsafe: int,
                   n_domain: int, seed: int) -> TrainingDatasets:
    """Rejection-sample the safe and unsafe buckets to their exact targets;
    the domain bucket is unconditioned uniform over X."""
    if min(n_safe, n_unsafe, n_domain) <= 0:
        raise ValueError("all dataset sizes must be positive")
    safe = rejection_sample_label(sys, Label.SAFE, n_safe, stream(seed, "safe"))
    unsafe = rejection_sample_label(sys, Label.UNSAFE, n_unsafe, stream(seed, "unsafe"))
    domain = sample_uniform(sys.state_bounds, n_domain, stream(seed, "domain"))
    return TrainingDatasets(safe=safe, unsafe=unsafe, domain=domain)
