"""cbfcert benchmark: train, certify and deploy workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload train_dubins --seed 0 --seconds 24 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds the per-layer metrics
from a traced run. ``--workload all`` runs every workload, each in its own
process. See bench/README.md for what each workload and metric is for.

The program is imported from ``src/`` of the current directory and from
nowhere else. Operations run as a closed loop: this one process, with one
BLAS thread and no worker threads, runs one operation at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment(root: Path):
    """Pin one BLAS thread and import cbfcert from root/src only.

    Returns (import seconds, cbfcert module); exits with code 2 when the
    directory holds no cbfcert source tree.
    """
    src = root / "src"
    if not (src / "cbfcert" / "__init__.py").is_file():
        print(f"error: no cbfcert sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import cbfcert
    import_s = time.perf_counter() - started
    loaded = Path(cbfcert.__file__).resolve()
    if src.resolve() not in loaded.parents:
        print(f"error: cbfcert imported from {loaded}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return import_s, cbfcert


def _blas_threads():
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_details() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"cpu_model": model, "caches": caches}


def machine_details() -> dict:
    import platform

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        **_cpu_details(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

def _format(name: str, value: float, unit: str) -> str:
    return f"{name:<32} {value:>16.6g} {unit}"


def _run_all(args, root: Path, names) -> int:
    results = {}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from bench/workloads.py, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_s, _ = prepare_environment(root)
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import workloads

    if args.workload == "all":
        return _run_all(args, root, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke_workload(workload)
    result = workloads.run_workload(workload, args.seed, args.seconds,
                                    bool(args.trace), root)
    run = result["run"]
    details = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "train_seed": run.train_doc["seed"], "verify_seed": run.verify_seed,
        "simulate_seed": run.sim_seed, "cycles": result["cycles"],
        "setup_runs_s": result["setup_runs_s"], "import_s": import_s,
        "decide_samples": sum(len(x.out["latency_us"]) for x in run.outcomes.get("decide", [])),
        "op_seconds": {kind: [round(o.wall_s, 5) for o in outcomes]
                       for kind, outcomes in run.outcomes.items()},
        "quality": run.quality(), "machine": machine_details(),
        "errors": run.errors,
    }
    if "skipped" in result:
        details["trace_skipped"] = result["skipped"]
    for name, (value, unit) in result["metrics"].items():
        print(_format(name, value, unit))
    print(_format("error_rate", run.failed / max(run.attempted, 1), "ratio"))
    print("details " + json.dumps(details, default=str))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
