"""The benchmark's workloads and the run loop that measures them.

A run makes its inputs from the seed, sets up, repeats a cycle of
operations for the requested time, checks every output, and turns the
outcomes into end-to-end metrics (untraced) or per-layer metrics (traced).
Import this module only after ``run.prepare_environment``, which pins the
BLAS threads and puts the checkout's ``src`` on the path.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import operations as ops
from cbfcert import make_system
from spans import Tracer, aggregate_run

WORK_DIR = ".bench_work"

# Certificates are trained at their source config's seed, not the run's:
# over seeds 0-11 the desk config needs 6 to 21 epochs to reach the loss
# tolerance, and a quadruped smoke barrier's safety rate ranges from 0.63
# to 0.83, so a seeded training set would swamp any speed change. The run
# seed drives every other input. This is the README desk-scale config.
DESK_DUBINS = {
    "system": "dubins", "hidden_layers": [64], "epochs": 300, "batch_size": 256,
    "learning_rate": 1e-3, "n_safe": 6700, "n_unsafe": 6700, "n_domain": 6600,
    "lambda1": 1.0, "lambda2": 0.1, "delta": 0.01, "kappa_gain": 1.0,
    "conformal_samples": 20000, "alpha": 0.0075, "beta": 1e-3,
    "max_refinements": 3, "seed": 0,
}
# The acceptance suite's quadruped smoke config and budget.
SMOKE_QUADRUPED = {
    "system": "quadruped", "hidden_layers": [128, 128], "epochs": 15,
    "batch_size": 256, "n_safe": 600, "n_unsafe": 600, "n_domain": 600,
    "conformal_samples": 2000, "alpha": 0.005, "beta": 1e-3, "max_refinements": 1,
    "seed": 1,
}


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and bench/README.md say why it exists.

    A cycle runs each of ``long_ops`` once, then ``rounds`` rounds of
    ``round_ops``. The round operations are small, so each of them runs
    many times, spread over the whole run."""

    name: str
    train: dict             # the config the certificate is trained from
    certified: bool         # the barrier is certified: apply the 99% checks
    long_ops: tuple[str, ...]
    round_ops: tuple[str, ...]
    rounds: int
    verify_n: int
    levelset_res: int
    rollouts: int
    # simulate from this fixed start seed instead of one drawn from the run
    # seed, so that safety_rate is deterministic
    sim_seed: int | None = None
    # set-ups per untraced run; on the fixture workloads each one is a
    # sample of train_s
    setups: int = 6

    @property
    def fixture(self) -> bool:
        """The certificate is trained in set-up, not every cycle."""
        return "train" not in self.long_ops


HORIZON_STEPS = 100
CURVE_NS = (1000, 10000, 100000)
CURVE_ALPHAS = 8
DECIDE_STATES = 1000   # a p99 has ten states beyond it

ROUND = ("verify", "levelset", "curve", "simulate", "decide")

WORKLOADS = {w.name: w for w in (
    # trains every cycle, then deploys the certified barrier: the rounds
    # carry the box-QP rollouts and B=1 decisions
    Workload("train_dubins", DESK_DUBINS, certified=True,
             long_ops=("train",), round_ops=ROUND, rounds=6,
             verify_n=5000, levelset_res=21, rollouts=10),
    # the smoke barrier's safety rate depends strongly on the start states,
    # so its start set is fixed
    Workload("certify_quadruped", SMOKE_QUADRUPED, certified=False,
             long_ops=("verify",), round_ops=ROUND[1:], rounds=8,
             verify_n=100000, levelset_res=15, rollouts=4, sim_seed=0, setups=5),
)}

# Tiny sizes for the benchmark's own tests; the desk config certifies at
# seed 0 in well under a second at these settings.
SMOKE_TRAIN = {
    "dubins": {"hidden_layers": [32], "epochs": 30, "learning_rate": 1e-2,
               "n_safe": 1000, "n_unsafe": 1000, "n_domain": 1000,
               "conformal_samples": 5000, "alpha": 0.002},
    "quadruped": {"hidden_layers": [16, 16], "epochs": 3, "n_safe": 200,
                  "n_unsafe": 200, "n_domain": 200, "conformal_samples": 500,
                  "alpha": 0.01},
}

# end-to-end metric -> unit; error_rate is printed too but is not a tracked
# metric: it reads 0 on correct code, and attempted/failed carry it
END_TO_END = {
    "setup_s": "s", "train_s": "s", "train_points_per_s": "1/s",
    "certify_states_per_s": "1/s", "levelset_nodes_per_s": "1/s",
    "curve_points_per_s": "1/s", "rollout_steps_per_s": "1/s",
    "decide_us_p50": "us", "decide_us_p99": "us", "safety_rate": "ratio",
    "peak_rss_mb": "MB",
}


def smoke_workload(w: Workload) -> Workload:
    return replace(w, train={**w.train, **SMOKE_TRAIN[w.train["system"]]},
                   rounds=1, verify_n=2000, levelset_res=11, rollouts=3, setups=2)


class Run:
    """State of one workload run: inputs made from the seed, the operation
    outcomes, and the failure count."""

    def __init__(self, workload: Workload, seed: int, root: Path):
        self.w = workload
        rng = np.random.default_rng([seed, 7919])
        self.dir = root / WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        train = dict(workload.train)
        self.train_doc = train
        bounds = make_system(train["system"]).state_bounds
        fixed = [float(v) for v in rng.uniform(bounds[:, 0], bounds[:, 1])]
        self.train_config = ops.write_config(self.dir / "train.json", {
            **train,
            "simulation": {"n_rollouts": workload.rollouts,
                           "horizon_steps": HORIZON_STEPS, "dt": 0.02,
                           "respect_input_bounds": True, "emit_trajectories": True,
                           "max_trajectory_files": workload.rollouts},
            "levelset": {"free_axes": [0, 1], "fixed_values": fixed,
                         "resolution": workload.levelset_res},
        })
        self.verify_config = ops.write_config(self.dir / "verify.json", {
            **train, "conformal_samples": workload.verify_n})
        self.verify_seed = int(rng.integers(2**31))
        self.sim_seed = (workload.sim_seed if workload.sim_seed is not None
                         else int(rng.integers(2**31)))
        self.curve_alpha = (float(rng.uniform(0.005, 0.02)),
                            float(rng.uniform(0.1, 0.2)))
        self.decide_states = rng.uniform(
            bounds[:, 0], bounds[:, 1], size=(DECIDE_STATES, bounds.shape[0]))
        self.check_seed = int(rng.integers(2**31))
        self.outcomes: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cert_path: Path | None = None
        self.cycles = 0
        self._count = 0

    def _fresh(self, kind: str) -> Path:
        self._count += 1
        return self.dir / f"{kind}-{self._count}"

    def attempt(self, kind: str, fn, *args):
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            outcome = fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.outcomes.setdefault(kind, []).append(outcome)
        return outcome

    def train(self):
        outcome = self.attempt("train", ops.op_train, self.train_config,
                               self._fresh("train"))
        if outcome is not None and self.cert_path is None:
            self.cert_path = outcome.out["out"] / "certificate.json"
        return outcome

    def operation(self, kind: str) -> None:
        w = self.w
        if kind == "train":
            self.train()
        elif kind == "verify":
            self.attempt("verify", ops.op_verify, self.verify_config, self.cert_path,
                         self._fresh("verify"), self.verify_seed, w.verify_n)
        elif kind == "levelset":
            self.attempt("levelset", ops.op_levelset, self.train_config, self.cert_path,
                         self._fresh("levelset"), w.levelset_res)
        elif kind == "curve":
            self.attempt("curve", ops.op_curve, self._fresh("curve"), list(CURVE_NS),
                         self.curve_alpha[0], self.curve_alpha[1], CURVE_ALPHAS)
        elif kind == "simulate":
            self.attempt("simulate", ops.op_simulate, self.train_config, self.cert_path,
                         self._fresh("simulate"), self.sim_seed)
        elif kind == "decide":
            self.attempt("decide", ops.op_decide, self.cert_path, self.train_doc,
                         self.decide_states)
        else:
            raise ValueError(f"unknown operation {kind!r}")

    def cycle(self) -> None:
        """The long operations once, then the rounds of small ones."""
        if self.cert_path is None and self.w.fixture:
            raise RuntimeError("no certificate to run the cycle on")
        for kind in self.w.long_ops:
            self.operation(kind)
        for _ in range(self.w.rounds):
            for kind in self.w.round_ops:
                self.operation(kind)
        self.cycles += 1

    def check(self) -> None:
        """Check every operation's output; a failed check counts as failed."""
        w = self.w
        input_bounds = make_system(self.train_doc["system"]).input_bounds
        rng = np.random.default_rng(self.check_seed)
        checks = {
            "train": lambda o, f: ops.check_train(o, f, self.train_doc, w.certified, 0.01),
            "verify": lambda o, f: ops.check_verify(
                o, f, json.loads(self.verify_config.read_text()), self.cert_path),
            "levelset": lambda o, f: ops.check_levelset(o, f, self.cert_path, rng),
            "curve": ops.check_curve,
            "simulate": lambda o, f: ops.check_simulate(o, f, input_bounds, w.certified),
            "decide": lambda o, f: ops.check_decide(o),
        }
        for kind, outcomes in self.outcomes.items():
            for outcome in outcomes:
                first = next(o for o in outcomes if o.inputs == outcome.inputs)
                try:
                    checks[kind](outcome, first)
                except Exception as exc:  # noqa: BLE001 - counted and reported
                    self.failed += 1
                    self.errors.append(f"{kind} check: {type(exc).__name__}: {exc}")

    def quality(self) -> dict:
        """Quality numbers a speed-up must not move."""
        out = {}
        if self.outcomes.get("train"):
            first = self.outcomes["train"][0]
            out.update({
                "train_status": first.out["history"]["status"],
                "train_quantile": first.out["report"]["quantile"],
                "train_epsilon": first.out["report"]["epsilon"],
                "final_loss": first.out["history"]["epoch_losses"][-1][-1],
                "epochs_run": first.out["epochs"],
                "rounds": len(first.out["history"]["epoch_losses"]),
            })
        if self.outcomes.get("verify"):
            report = json.loads(self.outcomes["verify"][0].out["report_text"])
            out.update({"verify_quantile": report["quantile"],
                        "verify_epsilon": report["epsilon"]})
        if self.outcomes.get("simulate"):
            summary = json.loads(self.outcomes["simulate"][0].out["summary_text"])
            out["rollout_counts"] = summary["counts"]
        return out


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> dict:
    """Timings of the small operations are the run's best one: interference
    from other work on the machine only ever adds time, and a small
    operation runs often enough to meet a quiet moment. The long ones
    (``train`` and the workload's ``long_ops``) run five to ten times a
    run, too few for a steady best, so they report the median (see
    README, "Steadiness")."""
    o = run.outcomes
    long_kinds = {"train", *run.w.long_ops}

    def rate(kind, seconds=lambda x: x.wall_s):
        rates = [x.work / seconds(x) for x in o.get(kind, [])]
        if not rates:
            return float("nan")
        return statistics.median(rates) if kind in long_kinds else max(rates)

    # every block replays the same states: each state's fastest decision
    # of the run, so the percentiles are over states, not over interference
    blocks = [x.out["latency_us"] for x in o.get("decide", [])]
    fast = np.min(blocks, axis=0) if blocks else np.array([np.nan])

    simulated = o.get("simulate")

    return {
        "setup_s": setup_s,
        "train_s": _median([x.wall_s for x in o.get("train", [])]),
        "train_points_per_s": rate("train", lambda x: x.out["phase_s"]),
        "certify_states_per_s": rate("verify"),
        "levelset_nodes_per_s": rate("levelset"),
        "curve_points_per_s": rate("curve"),
        "rollout_steps_per_s": rate("simulate"),
        "decide_us_p50": float(np.percentile(fast, 50)),
        "decide_us_p99": float(np.percentile(fast, 99)),
        "safety_rate": (json.loads(simulated[0].out["summary_text"])["rate"]
                        if simulated else float("nan")),
        "peak_rss_mb": peak_rss_mb,
    }


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 root: Path) -> dict:
    """Set up, run timed cycles, check; returns the result document.

    Cycles, traced and untraced, run until they have taken ``seconds``.
    The workload's set-ups run on top of that, spread evenly over the cycles'
    time, so that a slow spell of the machine does not land on all of
    them."""
    run = Run(workload, seed, root)
    tracer = Tracer() if traced else None
    setups, cycle_ranges, setup_end = [], [], 0
    walls = {False: [], True: []}
    # a traced run reports per cycle, so one set-up is enough
    setup_reps = 1 if traced else workload.setups

    def spent():
        return sum(walls[False]) + sum(walls[True])

    try:
        while len(setups) < setup_reps or spent() < seconds or not walls[False]:
            if len(setups) < setup_reps and spent() >= len(setups) * seconds / setup_reps:
                if tracer is None:
                    setups.append(_setup(run, root))
                else:
                    with tracer.installed(), tracer.span("bench.setup"):
                        setups.append(_setup(run, root))
                    setup_end = len(tracer.spans)
                continue
            for with_trace in ((False, True) if traced else (False,)):
                t0 = time.perf_counter()
                if with_trace:
                    first = len(tracer.spans)
                    with tracer.installed(), tracer.span("bench.cycle"):
                        run.cycle()
                    cycle_ranges.append((first, len(tracer.spans)))
                else:
                    run.cycle()
                walls[with_trace].append(time.perf_counter() - t0)
    except Exception as exc:  # noqa: BLE001 - a run that cannot go on still reports
        run.failed += 1
        run.attempted += 1
        run.errors.append(f"run: {type(exc).__name__}: {exc}")
    # before the checks, which hold their own copies of some outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.check()
    result = {"run": run, "cycles": len(walls[False])}
    if traced:
        result["metrics"] = aggregate_run(
            tracer, setup_end, cycle_ranges, walls[False], walls[True])
        result["skipped"] = tracer.skipped
    else:
        result["metrics"] = {name: (value, END_TO_END[name]) for name, value
                             in end_to_end(run, _median(setups), peak_rss_mb).items()}
    result["setup_runs_s"] = setups
    shutil.rmtree(run.dir, ignore_errors=True)
    return result


# Times ``import cbfcert`` in a fresh interpreter: the one import in this
# process is a single sample, and later imports are free.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import cbfcert; print(time.perf_counter() - t)")


def _setup(run: Run, root: Path) -> float:
    """Import the program, build the system and, for fixture workloads,
    train the certificate.

    Returns the program's seconds: the import in a fresh interpreter,
    building the system and the ``cbfcert train`` call, without the
    benchmark's reading of its artifacts."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(root / "src")],
                           capture_output=True, text=True, timeout=120, check=True)
    seconds = float(probe.stdout.strip().splitlines()[-1])
    started = time.perf_counter()
    make_system(run.train_doc["system"])
    seconds += time.perf_counter() - started
    if run.w.fixture:
        run.cert_path = None
        outcome = run.train()
        if outcome is None:
            raise RuntimeError("fixture training failed")
        seconds += outcome.wall_s
    return seconds
