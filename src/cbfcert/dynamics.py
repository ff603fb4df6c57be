"""Control-affine benchmark systems: xdot = f(x) + g(x) u.

Three built-in benchmarks (unicycle ground vehicle, planar aerial vehicle
with a geofence, quadruped with a moving obstacle) plus a registry for
user-defined systems. f, g, the labeler and the reference policy take a
batch of states (B, n) and return (B, n), (B, n, m), (B,) and (B, m);
`make_system` checks this once on the box midpoint. `label` is the
one-state view of the labeler.
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
    f: Callable[[np.ndarray], np.ndarray]  # (B, n) -> (B, n) drift
    g: Callable[[np.ndarray], np.ndarray]  # (B, n) -> (B, n, m) input matrices
    state_bounds: np.ndarray          # (n, 2) closed intervals, the set X
    input_bounds: np.ndarray | None   # (m, 2) or None for unbounded inputs
    label_batch: Callable[[np.ndarray], np.ndarray]  # (B, n) -> (B,) Label codes
    reference_policy: Callable[[np.ndarray], np.ndarray]  # (B, n) -> (B, m)
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
        """(B,) bool: which states of a (B, n) batch lie in X."""
        lo, hi = self.state_bounds[:, 0], self.state_bounds[:, 1]
        return np.all((xs >= lo) & (xs <= hi), axis=1)


def closed_loop_field(sys: ControlAffineSystem, xs, us) -> np.ndarray:
    """f(x) + g(x) u for a batch of states (B, n) and inputs (B, m)."""
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if xs.ndim != 2 or us.shape != (xs.shape[0], sys.m):
        raise ValueError(f"need states (B, n) and inputs (B, {sys.m}), "
                         f"got {xs.shape} and {us.shape}")
    return affine_field(sys.f(xs), sys.g(xs), us)


def affine_field(f: np.ndarray, g: np.ndarray, us: np.ndarray) -> np.ndarray:
    """f + g u from drifts f (B, n), input matrices g (B, n, m) and inputs
    us (B, m): closed_loop_field with f(x) and g(x) already evaluated."""
    return f + np.einsum("bnm,bm->bn", g, us)


def _box_mask(pts: np.ndarray, cols, lo, hi) -> np.ndarray:
    mask = np.ones(pts.shape[0], dtype=bool)
    for c, l, h in zip(cols, lo, hi):
        mask &= (pts[:, c] >= l) & (pts[:, c] <= h)
    return mask


def _label_codes(pts: np.ndarray, safe: np.ndarray, unsafe: np.ndarray) -> np.ndarray:
    """(B,) Label codes from a labeler's masks: UNSAFE where unsafe, else
    SAFE where safe; a state with a NaN coordinate is UNLABELED."""
    out = np.zeros(pts.shape[0], dtype=int)
    out[safe] = Label.SAFE
    out[unsafe] = Label.UNSAFE
    out[np.isnan(pts).any(axis=1)] = Label.UNLABELED
    return out


def _unicycle_g(x):
    """Input matrices of a unicycle whose pose is x[:, 0:3] inside an
    n = x.shape[1] state: forward speed moves the position along the
    heading, turn rate turns the heading."""
    out = np.zeros((x.shape[0], x.shape[1], 2))
    out[:, 0, 0] = np.cos(x[:, 2])
    out[:, 1, 0] = np.sin(x[:, 2])
    out[:, 2, 1] = 1.0
    return out


def _full_speed(x):
    """The unicycle reference input: full forward speed, no turn."""
    u = np.zeros((x.shape[0], 2))
    u[:, 0] = 1.0
    return u


def dubins_system() -> ControlAffineSystem:
    """Unicycle ground vehicle avoiding a static central obstacle.

    State (x1, x2, heading); inputs are forward speed in [0, 1] and turn
    rate in [-1, 1], so f is identically zero. Safe states are the outer
    shell of the workspace, unsafe states the small box around the origin.
    """
    bounds = np.array([[-2.0, 2.0], [-2.0, 2.0], [-np.pi, np.pi]])

    def f(x):
        return np.zeros_like(x)

    lo, hi = bounds[:, 0], bounds[:, 1]

    def label_batch(pts):
        in_x = np.all((pts >= lo) & (pts <= hi), axis=1)
        inner = _box_mask(pts, (0, 1), (-1.5, -1.5), (1.5, 1.5))
        unsafe = _box_mask(pts, (0, 1), (-0.2, -0.2), (0.2, 0.2))
        return _label_codes(pts, in_x & ~inner, unsafe)

    return ControlAffineSystem(
        name="dubins", n=3, m=2, f=f, g=_unicycle_g,
        state_bounds=bounds,
        input_bounds=np.array([[0.0, 1.0], [-1.0, 1.0]]),
        label_batch=label_batch,
        reference_policy=_full_speed,
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
        out = np.zeros_like(x)
        out[:, 0:3] = x[:, 3:6]
        out[:, 4] = -GRAVITY
        return out

    def g(x):
        out = np.zeros((x.shape[0], 6, 2))
        s, c = np.sin(x[:, 2]), np.cos(x[:, 2])
        out[:, 3, 0] = -s
        out[:, 3, 1] = -s
        out[:, 4, 0] = c
        out[:, 4, 1] = c
        out[:, 5, 0] = 1.0
        out[:, 5, 1] = -1.0
        return out

    def label_batch(pts):
        safe = _box_mask(pts, (0, 1), (-0.8, -0.8), (0.8, 0.8))
        unsafe = ~_box_mask(pts, (0, 1), (-1.0, -1.0), (1.0, 1.0))
        rest_ok = np.all(
            (pts[:, 2:] >= bounds[2:, 0]) & (pts[:, 2:] <= bounds[2:, 1]), axis=1
        )
        return _label_codes(pts, safe & rest_ok, unsafe)

    hover = GRAVITY / 2.0

    def reference(pts):
        return np.full((pts.shape[0], 2), hover)

    return ControlAffineSystem(
        name="planar_aerial", n=6, m=2, f=f, g=g,
        state_bounds=bounds,
        input_bounds=np.array([[0.0, 2.0 * GRAVITY], [0.0, 2.0 * GRAVITY]]),
        label_batch=label_batch,
        reference_policy=reference,
        angle_dims=(2,),
        domain_exit_unsafe=True,
    )


def collision_cone_label_batch(states, nominal_speed: float = 1.0,
                               margin: float = 0.2) -> np.ndarray:
    """Label moving-obstacle states by constant-velocity closest approach.

    Relative position p points from robot to obstacle; relative velocity
    assumes the robot holds its nominal forward speed. A state is unsafe
    when already inside the obstacle radius, or when closing and the
    straight-line miss distance is within the radius. It is safe when both
    clearances exceed radius + margin; the band between is left unlabeled,
    as is a state with a NaN coordinate.
    """
    pts = np.asarray(states, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 8:
        raise ValueError("collision-cone labeling expects (B, 8) states")
    # relative position p and velocity v, column by column
    p0, p1 = pts[:, 3] - pts[:, 0], pts[:, 4] - pts[:, 1]
    v0 = pts[:, 5] - nominal_speed * np.cos(pts[:, 2])
    v1 = pts[:, 6] - nominal_speed * np.sin(pts[:, 2])
    r = pts[:, 7]
    dist = np.sqrt(p0 * p0 + p1 * p1)
    approaching = p0 * v0 + p1 * v1 < 0.0
    speed_sq = v0 * v0 + v1 * v1
    # miss distance: |p x v| / |v| where v != 0, else never
    miss = np.divide(np.abs(p0 * v1 - p1 * v0), np.sqrt(speed_sq),
                     out=np.full(pts.shape[0], np.inf), where=speed_sq > 0.0)

    unsafe = (dist <= r) | (approaching & (miss <= r))
    safe = (dist >= r + margin) & (~approaching | (miss >= r + margin))
    return _label_codes(pts, safe, unsafe)


def collision_cone_label(state, nominal_speed: float = 1.0, margin: float = 0.2) -> Label:
    return Label(int(collision_cone_label_batch(
        np.asarray(state, float)[None, :], nominal_speed, margin)[0]))


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
        out = np.zeros_like(x)
        out[:, 3] = x[:, 5]
        out[:, 4] = x[:, 6]
        out[:, 5:8] = drift_tail
        return out

    def label_batch(pts):
        return collision_cone_label_batch(pts, nominal_speed=nominal_speed, margin=margin)

    return ControlAffineSystem(
        name="quadruped", n=8, m=2, f=f, g=_unicycle_g,
        state_bounds=bounds,
        input_bounds=np.array([[0.0, 1.0], [-1.0, 1.0]]),
        label_batch=label_batch,
        reference_policy=_full_speed,
        angle_dims=(2,),
    )


_BUILDERS: dict[str, Callable[..., ControlAffineSystem]] = {
    "dubins": dubins_system,
    "planar_aerial": planar_aerial_system,
    "quadruped": quadruped_system,
}


def register_system(name: str, builder: Callable[..., ControlAffineSystem]) -> None:
    """Add a user-defined system factory to the registry."""
    _BUILDERS[name] = builder


def make_system(name: str, **params) -> ControlAffineSystem:
    """The registered system `name` built with params, its batch contract checked."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown system {name!r}; registered: {sorted(_BUILDERS)}")
    sys = _BUILDERS[name](**params)
    _check_batch_contract(sys)
    return sys


def _check_batch_contract(sys: ControlAffineSystem) -> None:
    """Evaluate sys once on its box midpoint as a (1, n) batch; raise
    ValueError unless f, g, the reference and the labeler return finite
    values of their batch shapes."""
    x = sys.state_bounds.mean(axis=1)[None, :]
    shapes = {"f": (1, sys.n), "g": (1, sys.n, sys.m),
              "reference_policy": (1, sys.m), "label_batch": (1,)}
    for name, shape in shapes.items():
        try:
            out = np.asarray(getattr(sys, name)(x), dtype=float)
        except (TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"{sys.name}: {name} at the box midpoint: {exc}") from exc
        if out.shape != shape or not np.all(np.isfinite(out)):
            raise ValueError(f"{sys.name}: {name} at the box midpoint gave shape "
                             f"{out.shape} {out.tolist()}, expected finite {shape}")
