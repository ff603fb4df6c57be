"""Span tracing for the benchmark's traced run.

The tracer lives in the benchmark, not in the program: it replaces the
public functions of each ``cbfcert`` module with thin wrappers that record
a span (name, start, end, parent) per call. A function imported by name
into another module (``certificate`` does ``from .mlp import
forward_batch``) is patched wherever that same function object appears,
so every call site is seen. Names listed here that the program no longer
has are skipped and reported, never fatal.

Spans stay in memory; ``aggregate_run`` turns them into per-layer metrics
after the run. A span's self time is its duration minus the durations of
its direct children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Public names wrapped per module. "Class.method" patches the class.
# Left out on purpose: sampling.collision_cone_label_batch, which the
# quadruped labeler calls, so its time is dynamics time (label_batch); and
# the artifact readers and writers (certificate JSON, trajectory and grid
# CSVs), so their time is cli time.
WRAPPED = {
    "mlp": ("softplus", "sigmoid", "forward_batch", "forward",
            "input_gradient_batch", "input_gradient",
            "values_and_input_gradients", "loss_param_gradient",
            "seeded_loss_param_gradient", "init_certificate", "init_adam",
            "adam_step"),
    "certificate": ("violation_terms", "total_loss", "loss_components",
                    "total_loss_and_gradient", "conformal_quantile",
                    "epsilon_for", "score_states", "verification_scores",
                    "quantify_safety"),
    "controller": ("filter_batch", "filter_input", "constraint_coefficients"),
    "simulator": ("rk4_step", "rollout", "sample_safe_starts",
                  "empirical_safety_rate", "levelset_grid"),
    "special": ("regularized_incomplete_beta",),
    "sampling": ("sample_uniform", "rejection_sample_label", "build_datasets"),
    "dynamics": ("closed_loop_field", "make_system", "ControlAffineSystem.label",
                 "ControlAffineSystem.contains"),
    "trainer": ("refine", "train_phase", "alpha_epsilon_curve"),
    "cli": ("main",),
}

# system fields that are per-system closures; make_system's wrapper wraps them
SYSTEM_FIELDS = ("f", "g", "label_batch", "reference_policy")

MLP_ACTIVATIONS = ("mlp.softplus", "mlp.sigmoid")
MLP_FORWARD = ("mlp.forward_batch", "mlp.forward", "mlp.input_gradient_batch",
               "mlp.input_gradient", "mlp.values_and_input_gradients")
MLP_NESTED = ("mlp.loss_param_gradient", "mlp.seeded_loss_param_gradient")


def _rows(arg) -> int:
    shape = np.shape(arg)
    return int(shape[0]) if len(shape) == 2 else 1


def _count(arg) -> int:
    return int(arg)


# name -> (positional index of the argument that gives the row count, reader)
ROW_ARGS = {
    **{name: (1, _rows) for name in MLP_FORWARD + MLP_NESTED},
    "controller.filter_batch": (1, _rows),
    "controller.filter_input": (1, _rows),
    "certificate.score_states": (3, _rows),
    "sampling.sample_uniform": (1, _count),
    "sampling.rejection_sample_label": (2, _count),
    "dynamics.label_batch": (0, _rows),
}


def _filter_counts(result) -> dict:
    return {"active": int(np.count_nonzero(result.active)),
            "infeasible": int(np.count_nonzero(~result.feasible))}


def _phase_counts(result) -> dict:
    return {"epochs": len(result[1]) - 1}


RESULT_COUNTS = {
    "controller.filter_batch": _filter_counts,
    "trainer.train_phase": _phase_counts,
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    rows: int = 0
    counts: dict | None = None


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.skipped: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span: a set-up or a cycle."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        row_arg = ROW_ARGS.get(name)
        result_counts = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            span = self.spans[index]
            if row_arg is not None and len(args) > row_arg[0]:
                span.rows = row_arg[1](args[row_arg[0]])
            if result_counts is not None:
                span.counts = result_counts(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_system(self, make_system):
        traced_make = self.wrap("dynamics.make_system", make_system)

        def make(name, **params):
            system = traced_make(name, **params)
            return dataclasses.replace(system, **{
                field: self.wrap(f"dynamics.{field}", getattr(system, field))
                for field in SYSTEM_FIELDS})

        make.__wrapped__ = make_system
        return make

    @contextmanager
    def installed(self, wrapped: dict = WRAPPED):
        """Patch every listed public function in every cbfcert module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cbfcert" or n.startswith("cbfcert."))]
        patches = []
        try:
            for layer, names in wrapped.items():
                module = sys.modules.get(f"cbfcert.{layer}")
                for name in names:
                    owner_name, _, attr = name.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    original = getattr(owner, attr, None) if owner is not None else None
                    if original is None:
                        self.skipped.append(f"{layer}.{name}")
                        continue
                    if name == "make_system":
                        wrapper = self._wrap_system(original)
                    else:
                        wrapper = self.wrap(f"{layer}.{attr}", original)
                    if owner_name:
                        patches.append((owner, attr, owner.__dict__[attr]))
                        setattr(owner, attr, wrapper)
                        continue
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                patches.append((mod, key, original))
                                setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def totals(spans: list[Span], first: int = 0, last: int | None = None) -> dict:
    """Sums over spans[first:last], keyed by kind and name; the range must
    hold whole span trees."""
    last = len(spans) if last is None else last
    child = defaultdict(float)
    for i in range(first, last):
        span = spans[i]
        if span.parent >= first:
            child[span.parent] += span.end - span.start
    sums = defaultdict(float)
    for i in range(first, last):
        span = spans[i]
        layer = span.name.split(".", 1)[0]
        duration = span.end - span.start
        own = duration - child[i]
        if layer == "bench":
            sums["unattributed"] += own
            continue
        sums["layer", layer] += own
        sums["incl", span.name] += duration
        sums["self", span.name] += own
        sums["calls", span.name] += 1
        sums["rows", span.name] += span.rows
        for key, value in (span.counts or {}).items():
            sums["count", key] += value
        parent = spans[span.parent].name if span.parent >= 0 else ""
        if span.name in MLP_FORWARD + MLP_NESTED and not parent.startswith("mlp."):
            sums["mlp_calls"] += 1
            sums["mlp_rows"] += span.rows
        if span.name == "sampling.sample_uniform" and parent == "sampling.rejection_sample_label":
            sums["rejection_drawn"] += span.rows
    return sums


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict, overhead_frac: float) -> dict:
    """The per-layer metrics, as {name: (value, unit)}."""
    def incl(*names):
        return sum(t["incl", n] for n in names)

    def own(*names):
        return sum(t["self", n] for n in names)

    def calls(*names):
        return sum(t["calls", n] for n in names)

    def rows(*names):
        return sum(t["rows", n] for n in names)

    filter_names = ("controller.filter_batch", "controller.filter_input")
    return {
        "mlp.activation_s": (own(*MLP_ACTIVATIONS), "s"),
        "mlp.forward_s": (own(*MLP_FORWARD), "s"),
        "mlp.nested_grad_s": (own(*MLP_NESTED), "s"),
        "mlp.adam_s": (own("mlp.adam_step"), "s"),
        "mlp.calls": (t["mlp_calls"], "count"),
        "mlp.rows_per_call": (_ratio(t["mlp_rows"], t["mlp_calls"]), "rows/call"),
        "certificate.loss_grad_s": (incl("certificate.total_loss_and_gradient"), "s"),
        "certificate.loss_eval_s": (incl("certificate.total_loss",
                                         "certificate.loss_components"), "s"),
        "certificate.score_s": (incl("certificate.score_states"), "s"),
        "certificate.states_scored": (rows("certificate.score_states"), "count"),
        "controller.calls": (calls(*filter_names), "count"),
        "controller.rows_per_call": (_ratio(rows(*filter_names), calls(*filter_names)),
                                     "rows/call"),
        "controller.self_s": (t["layer", "controller"], "s"),
        "controller.active_ratio": (_ratio(t["count", "active"],
                                           rows("controller.filter_batch")), "ratio"),
        "controller.infeasible_ratio": (_ratio(t["count", "infeasible"],
                                               rows("controller.filter_batch")), "ratio"),
        "simulator.steps": (calls("simulator.rk4_step"), "count"),
        "simulator.rk4_s": (incl("simulator.rk4_step"), "s"),
        "simulator.rollout_self_s": (own("simulator.rollout"), "s"),
        "simulator.levelset_self_s": (own("simulator.levelset_grid"), "s"),
        "special.beta_calls": (calls("special.regularized_incomplete_beta"), "count"),
        "special.self_s": (t["layer", "special"], "s"),
        "sampling.rows_drawn": (rows("sampling.sample_uniform"), "count"),
        "sampling.accept_ratio": (_ratio(rows("sampling.rejection_sample_label"),
                                         t["rejection_drawn"]), "ratio"),
        "sampling.self_s": (t["layer", "sampling"], "s"),
        "dynamics.field_calls": (calls("dynamics.closed_loop_field", "dynamics.f",
                                       "dynamics.g"), "count"),
        "dynamics.label_rows": (rows("dynamics.label_batch"), "count"),
        "dynamics.self_s": (t["layer", "dynamics"], "s"),
        "trainer.epochs": (t["count", "epochs"], "count"),
        "trainer.rounds": (calls("trainer.train_phase"), "count"),
        "trainer.self_s": (t["layer", "trainer"], "s"),
        "cli.self_s": (t["layer", "cli"], "s"),
        "trace.unattributed_s": (t["unattributed"], "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }


def aggregate_run(tracer: Tracer, setup_end: int, cycle_ranges: list,
                  untraced_walls: list, traced_walls: list) -> dict:
    """Per-layer metrics for one traced set-up plus one average traced cycle.

    The overhead is the traced cycles' wall time over the untraced ones'
    (the run alternates them), minus one.
    """
    combined = totals(tracer.spans, 0, setup_end)
    for first, last in cycle_ranges:
        for key, value in totals(tracer.spans, first, last).items():
            combined[key] += value / len(cycle_ranges)
    overhead = sum(traced_walls) / sum(untraced_walls) - 1.0 if untraced_walls else 0.0
    return layer_metrics(combined, overhead)
