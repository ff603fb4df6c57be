"""Kernel sheet: per-layer timings at fixed shapes.

Run from the root of a checkout:

    python3 bench/kernels.py

Each kernel is a public cbfcert function called at a fixed shape. Its time
per call is the median of REPEAT batches, each long enough (at least
MIN_BATCH_S) to dwarf the clock. For the array kernels the sheet
also gives an operation count and the bytes moved, both computed from the
shapes, not measured: bytes assume each named array is written once and
read once and ignore cache misses. The last line is the sheet as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import machine_details, prepare_environment  # noqa: E402

F8 = 8  # bytes per float64
REPEAT = 7
MIN_BATCH_S = 0.05


def _time_per_call(fn) -> dict:
    fn()  # warm caches and lazy set-up before timing
    number = 1
    while True:
        started = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - started >= MIN_BATCH_S:
            break
        number *= 2
    samples = []
    for _ in range(REPEAT):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - started) / number)
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median_us": statistics.median(samples) * 1e6,
            "q1_us": quartiles[0] * 1e6, "q3_us": quartiles[2] * 1e6,
            "calls_per_batch": number, "batches": REPEAT}


def _mlp_flops(sizes, rows: int, passes: int) -> int:
    """passes matrix products of every layer at rows rows, 2 flops per MAC."""
    return passes * 2 * rows * sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _mlp_bytes(sizes, rows: int, arrays_per_layer: int) -> int:
    params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    activations = arrays_per_layer * rows * sum(sizes[1:])
    return F8 * (params + rows * sizes[0] + 2 * activations)


def build_kernels():
    """name -> (callable, computed counts)."""
    import numpy as np

    from cbfcert import certificate, controller, dynamics, mlp, simulator
    from cbfcert.sampling import build_datasets, sample_uniform
    from cbfcert.trainer import TrainConfig

    rng = np.random.default_rng(0)
    config = TrainConfig()  # the desk-scale dubins defaults
    system = dynamics.make_system("dubins")
    sizes = config.layer_sizes(system.n)
    cert = mlp.init_certificate(sizes, seed=0)
    weights = config.loss_weights()
    kernels = {}

    z = 3.0 * rng.standard_normal((768, 64))
    kernels["activation_pair_768x64"] = (
        lambda: (mlp.softplus(z), mlp.sigmoid(z)),
        {"elements": z.size, "transcendentals": 4 * z.size,
         "bytes_moved": 4 * F8 * z.size,
         "note": "softplus: exp, log1p and a tail exp; sigmoid: exp"})

    batch = build_datasets(system, 256, 256, 256, seed=0)
    train_filter = controller.SafetyFilter(  # the filter training uses
        certificate=cert, system=system, kappa_gain=config.kappa_gain,
        respect_input_bounds=config.respect_input_bounds_training,
        correction_cap=config.correction_cap)
    rows = sum(batch.sizes())
    kernels["nested_grad_dubins_batch_768"] = (
        lambda: certificate.total_loss_and_gradient(cert, batch, train_filter, weights),
        {"rows": rows,
         # nested: primal and tangent forward, four reverse products;
         # the filter adds a forward and an input-gradient sweep on domain rows
         "flops": _mlp_flops(sizes, rows, 6) + _mlp_flops(sizes, 256, 2),
         "bytes_moved": _mlp_bytes(sizes, rows, 5) + _mlp_bytes(sizes, 256, 3)})

    box_filter = controller.SafetyFilter(certificate=cert, system=system,
                                         respect_input_bounds=True)
    states = sample_uniform(system.state_bounds, 64, rng)
    cursor = iter(range(10**12))

    def decide():
        i = next(cursor) % states.shape[0]
        return box_filter.batch_decide(states[i:i + 1])

    kernels["box_qp_decide_b1"] = (
        decide, {"rows": 1, "flops": _mlp_flops(sizes, 1, 2),
                 "bytes_moved": _mlp_bytes(sizes, 1, 3)})

    x = states[0]
    u = np.array([0.5, 0.1])
    kernels["rk4_step_dubins"] = (
        lambda: simulator.rk4_step(system, x, u, 0.02),
        {"field_evaluations": 4})

    xs = sample_uniform(system.state_bounds, 20000, rng)
    verifier = controller.SafetyFilter(certificate=cert, system=system)
    kernels["score_states_20k"] = (
        lambda: certificate.score_states(cert, system, verifier, xs, weights),
        {"rows": xs.shape[0],
         # values with input gradients (forward + backward), then forward again
         "flops": _mlp_flops(sizes, xs.shape[0], 3),
         "bytes_moved": _mlp_bytes(sizes, xs.shape[0], 5)})

    calls = [0]
    original = certificate.regularized_incomplete_beta

    def counted(*args):
        calls[0] += 1
        return original(*args)

    certificate.regularized_incomplete_beta = counted
    try:
        certificate.epsilon_for(20000, 0.0075, 1e-3)
    finally:
        certificate.regularized_incomplete_beta = original
    kernels["epsilon_for_n20k"] = (
        lambda: certificate.epsilon_for(20000, 0.0075, 1e-3),
        {"beta_evaluations": calls[0]})
    return kernels


def main() -> int:
    prepare_environment(Path.cwd())
    sheet = {}
    for name, (fn, counts) in build_kernels().items():
        timing = _time_per_call(fn)
        sheet[name] = {**timing, "computed": counts}
        rate = ""
        if "flops" in counts:
            rate = f"  {counts['flops'] / timing['median_us'] / 1e3:8.3f} GFLOP/s (computed)"
        print(f"{name:<30} {timing['median_us']:>12.2f} us  "
              f"[{timing['q1_us']:.2f}, {timing['q3_us']:.2f}]{rate}")
    print(json.dumps({"kernels": sheet, "machine": machine_details()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
