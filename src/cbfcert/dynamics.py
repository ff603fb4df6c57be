"""Control-affine benchmark systems: xdot = f(x) + g(x) u.

Three built-in benchmarks (unicycle ground vehicle, planar aerial vehicle
with a geofence, quadruped with a moving obstacle) plus a registry for
user-defined systems. f, g and the safe/unsafe labeler are vectorized:
they accept a single state (n,) or a batch (B, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable

import numpy as np

GRAVITY = 9.81


class Label(IntEnum):
    UNLABELED = 0
    SAFE = 1
    UNSAFE = 2


@dataclass(frozen=True)
class ControlAffineSystem:
    name: str
    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    state_bounds: np.ndarray          # (n, 2) closed intervals, the set X
    input_bounds: np.ndarray | None   # (m, 2) or None for unbounded inputs
    label_batch: Callable[[np.ndarray], np.ndarray]  # (B, n) -> (B,) Label codes
    reference_policy: Callable[[np.ndarray], np.ndarray]
    angle_dims: tuple[int, ...] = ()  # coordinates wrapped to [-pi, pi) in simulation
    domain_exit_unsafe: bool = False  # leaving X counts as a safety failure

    def __post_init__(self) -> None:
        bounds = np.asarray(self.state_bounds, dtype=float)
        if bounds.shape != (self.n, 2) or np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ValueError(f"state_bounds must be (n, 2) with lo < hi, got {bounds}")
        object.__setattr__(self, "state_bounds", bounds)
        if self.input_bounds is not None:
            ib = np.asarray(self.input_bounds, dtype=float)
            if ib.shape != (self.m, 2) or np.any(ib[:, 0] >= ib[:, 1]):
                raise ValueError(f"input_bounds must be (m, 2) with lo < hi, got {ib}")
            object.__setattr__(self, "input_bounds", ib)

    def label(self, x) -> Label:
        return Label(int(self.label_batch(np.asarray(x, float)[None, :])[0]))

    def contains(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        single = xs.ndim == 1
        pts = xs[None, :] if single else xs
        lo, hi = self.state_bounds[:, 0], self.state_bounds[:, 1]
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        return bool(inside[0]) if single else inside


def closed_loop_field(sys: ControlAffineSystem, x, u) -> np.ndarray:
    """f(x) + g(x) u, for a single state or a batch of states."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim == 1:
        if u.shape != (sys.m,):
            raise ValueError(f"input shape {u.shape} does not match m={sys.m}")
        return sys.f(x) + sys.g(x) @ u
    if u.shape != (x.shape[0], sys.m):
        raise ValueError(f"input batch shape {u.shape} does not match states {x.shape}")
    return sys.f(x) + np.einsum("bnm,bm->bn", sys.g(x), u)


def _box_mask(pts: np.ndarray, cols, lo, hi) -> np.ndarray:
    mask = np.ones(pts.shape[0], dtype=bool)
    for c, l, h in zip(cols, lo, hi):
        mask &= (pts[:, c] >= l) & (pts[:, c] <= h)
    return mask


def dubins_system() -> ControlAffineSystem:
    """Unicycle ground vehicle avoiding a static central obstacle.

    State (x1, x2, heading); inputs are forward speed in [0, 1] and turn
    rate in [-1, 1], so f is identically zero. Safe states are the outer
    shell of the workspace, unsafe states the small box around the origin.
    """
    bounds = np.array([[-2.0, 2.0], [-2.0, 2.0], [-np.pi, np.pi]])

    def f(x):
        return np.zeros_like(x)

    def g(x):
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros(pts.shape[:-1] + (3, 2))
        out[..., 0, 0] = np.cos(pts[..., 2])
        out[..., 1, 0] = np.sin(pts[..., 2])
        out[..., 2, 1] = 1.0
        return out[0] if single else out

    lo, hi = bounds[:, 0], bounds[:, 1]

    def label_batch(pts):
        in_x = np.all((pts >= lo) & (pts <= hi), axis=1)
        inner = _box_mask(pts, (0, 1), (-1.5, -1.5), (1.5, 1.5))
        unsafe = _box_mask(pts, (0, 1), (-0.2, -0.2), (0.2, 0.2))
        out = np.zeros(pts.shape[0], dtype=int)
        out[in_x & ~inner] = Label.SAFE
        out[unsafe] = Label.UNSAFE
        return out

    def reference(pts):
        single = pts.ndim == 1
        u = np.zeros((1 if single else pts.shape[0], 2))
        u[:, 0] = 1.0
        return u[0] if single else u

    return ControlAffineSystem(
        name="dubins", n=3, m=2, f=f, g=g,
        state_bounds=bounds,
        input_bounds=np.array([[0.0, 1.0], [-1.0, 1.0]]),
        label_batch=label_batch,
        reference_policy=reference,
        angle_dims=(2,),
    )


def planar_aerial_system() -> ControlAffineSystem:
    """Planar aerial vehicle inside a position geofence.

    State (x1, x2, phi, v1, v2, omega); the two inputs are motor thrusts
    with mass and inertia normalized to 1. Safe inside the |x| <= 0.8
    position box, unsafe outside the |x| <= 1 box; leaving the modeled
    region counts as a safety failure for this benchmark.
    """
    bounds = np.array([
        [-2.0, 2.0], [-2.0, 2.0], [-np.pi, np.pi],
        [-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0],
    ])

    def f(x):
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros_like(pts)
        out[:, 0:3] = pts[:, 3:6]
        out[:, 4] = -GRAVITY
        return out[0] if single else out

    def g(x):
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros(pts.shape[:-1] + (6, 2))
        s, c = np.sin(pts[..., 2]), np.cos(pts[..., 2])
        out[..., 3, 0] = -s
        out[..., 3, 1] = -s
        out[..., 4, 0] = c
        out[..., 4, 1] = c
        out[..., 5, 0] = 1.0
        out[..., 5, 1] = -1.0
        return out[0] if single else out

    def label_batch(pts):
        safe = _box_mask(pts, (0, 1), (-0.8, -0.8), (0.8, 0.8))
        unsafe = ~_box_mask(pts, (0, 1), (-1.0, -1.0), (1.0, 1.0))
        rest_ok = np.all(
            (pts[:, 2:] >= bounds[2:, 0]) & (pts[:, 2:] <= bounds[2:, 1]), axis=1
        )
        out = np.zeros(pts.shape[0], dtype=int)
        out[safe & rest_ok] = Label.SAFE
        out[unsafe] = Label.UNSAFE
        return out

    hover = GRAVITY / 2.0

    def reference(pts):
        single = pts.ndim == 1
        u = np.full((1 if single else pts.shape[0], 2), hover)
        return u[0] if single else u

    return ControlAffineSystem(
        name="planar_aerial", n=6, m=2, f=f, g=g,
        state_bounds=bounds,
        input_bounds=np.array([[0.0, 2.0 * GRAVITY], [0.0, 2.0 * GRAVITY]]),
        label_batch=label_batch,
        reference_policy=reference,
        angle_dims=(2,),
        domain_exit_unsafe=True,
    )


def quadruped_system(k1: float = 0.0, k2: float = 0.0, kr: float = 0.0,
                     nominal_speed: float = 1.0, margin: float = 0.2) -> ControlAffineSystem:
    """Quadruped robot avoiding a moving circular obstacle.

    State (x1, x2, phi, xo1, xo2, vo1, vo2, r): robot pose, obstacle
    position, obstacle velocity and obstacle radius. The obstacle drifts
    at its velocity; k1, k2, kr give optional acceleration / radius-growth
    terms. Labels come from the collision-cone classifier.
    """
    bounds = np.array([
        [-2.0, 2.0], [-2.0, 2.0], [-np.pi, np.pi],
        [-2.0, 2.0], [-2.0, 2.0],
        [-1.0, 1.0], [-1.0, 1.0],
        [0.5, 1.0],
    ])
    drift_tail = np.array([k1, k2, kr])

    def f(x):
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros_like(pts)
        out[:, 3] = pts[:, 5]
        out[:, 4] = pts[:, 6]
        out[:, 5:8] = drift_tail
        return out[0] if single else out

    def g(x):
        single = x.ndim == 1
        pts = x[None, :] if single else x
        out = np.zeros(pts.shape[:-1] + (8, 2))
        out[..., 0, 0] = np.cos(pts[..., 2])
        out[..., 1, 0] = np.sin(pts[..., 2])
        out[..., 2, 1] = 1.0
        return out[0] if single else out

    def label_batch(pts):
        from .sampling import collision_cone_label_batch

        return collision_cone_label_batch(pts, nominal_speed=nominal_speed, margin=margin)

    def reference(pts):
        single = pts.ndim == 1
        u = np.zeros((1 if single else pts.shape[0], 2))
        u[:, 0] = 1.0
        return u[0] if single else u

    return ControlAffineSystem(
        name="quadruped", n=8, m=2, f=f, g=g,
        state_bounds=bounds,
        input_bounds=np.array([[0.0, 1.0], [-1.0, 1.0]]),
        label_batch=label_batch,
        reference_policy=reference,
        angle_dims=(2,),
    )


_BUILDERS: dict[str, Callable[..., ControlAffineSystem]] = {
    "dubins": dubins_system,
    "planar_aerial": planar_aerial_system,
    "quadruped": quadruped_system,
}

BENCHMARK_NAMES = tuple(sorted(_BUILDERS))


def register_system(name: str, builder: Callable[..., ControlAffineSystem]) -> None:
    """Add a user-defined system factory to the registry."""
    _BUILDERS[name] = builder


def make_system(name: str, **params) -> ControlAffineSystem:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; registered: {sorted(_BUILDERS)}"
        ) from None
    return builder(**params)
