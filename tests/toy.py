"""A 1-D integrator test system: xdot = u on [-2, 2].

Safe |x| <= 1, unsafe |x| > 1.5. Small enough that training takes
seconds, and simple enough that a provably valid barrier can be written
down: h(x) = 1.4 - |x| (smoothed), whose zero level set sits strictly
between the safe and unsafe regions.
"""

import numpy as np

from cbfcert.dynamics import ControlAffineSystem, Label
from cbfcert.mlp import MlpCertificate


def toy_system() -> ControlAffineSystem:
    bounds = np.array([[-2.0, 2.0]])

    def f(x):
        return np.zeros_like(x)

    def g(x):
        return np.ones((x.shape[0], 1, 1))

    def label_batch(pts):
        out = np.zeros(pts.shape[0], dtype=int)
        ax = np.abs(pts[:, 0])
        out[ax <= 1.0] = Label.SAFE
        out[ax > 1.5] = Label.UNSAFE
        return out

    def reference(pts):
        return np.ones((pts.shape[0], 1))

    return ControlAffineSystem(
        name="toy_integrator", n=1, m=1, f=f, g=g,
        state_bounds=bounds,
        input_bounds=np.array([[-1.0, 1.0]]),
        label_batch=label_batch,
        reference_policy=reference,
    )


def analytic_toy_barrier(sharpness: float = 20.0, level: float = 1.4) -> MlpCertificate:
    """h(x) = level - (softplus(kx) + softplus(-kx)) / k, a smooth version
    of level - |x|; a valid barrier for the toy system by construction."""
    k = sharpness
    return MlpCertificate(
        (1, 2, 1),
        (np.array([[k], [-k]]), np.array([[-1.0 / k, -1.0 / k]])),
        (np.zeros(2), np.array([level])),
    )
