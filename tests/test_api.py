"""The public API: every exported name resolves, and the one-state
functions are views of the batch paths, bit for bit."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cbfcert
from cbfcert import mlp
from cbfcert.controller import (InfeasibleFilterError, SafetyFilter, filter_batch,
                                filter_input)
from cbfcert.dynamics import dubins_system, quadruped_system
from cbfcert.sampling import sample_uniform

_SYSTEMS = [(dubins_system, [3, 10, 1]), (quadruped_system, [8, 32, 32, 1])]
_ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    for name in cbfcert.__all__:
        assert getattr(cbfcert, name) is not None, name
    assert len(set(cbfcert.__all__)) == len(cbfcert.__all__)


def _top_level_names(node) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    the plain names a constant is assigned to (dunders aside)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def test_every_definition_has_a_caller():
    # a top-level function, class or constant of the package must be used
    # by package code, exported in cbfcert.__all__, or named in bench/,
    # whose tracer wraps package functions by name; a name counts as used
    # where it is read, not where it is assigned
    trees = [ast.parse(path.read_text())
             for path in sorted((_ROOT / "src" / "cbfcert").glob("*.py"))]
    used = set(cbfcert.__all__)
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    for path in (_ROOT / "bench").glob("*.py"):
        used.update(re.findall(r"\w+", path.read_text()))
    unused = [name for tree in trees for node in tree.body
              for name in _top_level_names(node) if name not in used]
    assert unused == []


def test_generators_are_seeded_only_where_streams_are_made():
    # every np.random call of the package, by the function it sits in: a
    # seeded draw goes through sampling.stream and its table
    calls = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("np.random."):
            calls.append((where, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((_ROOT / "src" / "cbfcert").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sorted(calls) == [("mlp.init_certificate", "np.random.default_rng"),
                             ("sampling.sample_uniform", "np.random.default_rng"),
                             ("sampling.stream", "np.random.default_rng")]


def test_only_the_cli_writes_files():
    # every file-writing call of the package, by the function it sits in,
    # and every csv import: the library computes, the command writes its
    # artifacts (a certificate also through mlp.save_certificate)
    writes, csv_importers = [], set()

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("open", "write_text", "write_bytes")):
                writes.append(where)
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) else [])
        if "csv" in names:
            csv_importers.add(where.split(".")[0])
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((_ROOT / "src" / "cbfcert").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert "cli" in {where.split(".")[0] for where in writes}
    assert [w for w in writes
            if w.split(".")[0] != "cli" and w != "mlp.save_certificate"] == []
    assert csv_importers == {"cli"}


def test_import_loads_only_the_stdlib_numpy_and_cbfcert():
    # against a bare interpreter, so modules that site and .pth files load
    # are discounted
    env = {**os.environ, "PYTHONPATH": str(Path(cbfcert.__file__).parents[1])}

    def modules(code):
        out = subprocess.run([sys.executable, "-c", code + "\nprint(*sys.modules)"],
                             env=env, capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    loaded = modules("import sys, cbfcert") - modules("import sys")
    allowed = sys.stdlib_module_names | {"numpy", "cbfcert"}
    assert "cbfcert.trainer" in loaded
    assert sorted(m for m in loaded if m.split(".")[0] not in allowed) == []


@pytest.mark.parametrize("system, layers", _SYSTEMS, ids=["dubins", "quadruped"])
def test_filter_input_is_filter_batch_row_zero(system, layers):
    sys_ = system()
    cert = mlp.init_certificate(layers, seed=11)
    xs = sample_uniform(sys_.state_bounds, 200, seed=8)
    raised = returned = 0
    for bounds in (False, True):
        filt = SafetyFilter(certificate=cert, system=sys_, respect_input_bounds=bounds)
        for x in xs:
            one = filter_batch(filt, x[None])
            if one.feasible[0]:
                assert np.array_equal(filter_input(filt, x), one.inputs[0])
                returned += 1
            else:
                with pytest.raises(InfeasibleFilterError):
                    filter_input(filt, x)
                raised += 1
    assert raised > 0 and returned > 0


@pytest.mark.parametrize("system, layers", _SYSTEMS, ids=["dubins", "quadruped"])
def test_input_gradient_is_the_one_state_batch(system, layers):
    sys_ = system()
    cert = mlp.init_certificate(layers, seed=5)
    for x in sample_uniform(sys_.state_bounds, 100, seed=9):
        _, grads = mlp.values_and_input_gradients(cert, x[None])
        grad = mlp.input_gradient(cert, x)
        assert grad.shape == (sys_.n,)
        assert np.array_equal(grad, grads[0])
