"""The benchmark's own tests, at tiny smoke sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import operations
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_one_command_emits_every_metric_with_its_unit():
    proc = _bench("--workload", "all", "--seed", "0", "--seconds", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, workload in result["workloads"].items():
        assert workload["correct"], name
        assert _units(workload["metrics"]) == want, name
        for metric in want:
            assert f"\n{metric} " in proc.stdout
    assert "\nerror_rate " in proc.stdout

    traced = _bench("--workload", "train_dubins", "--seed", "0", "--seconds", "0",
                    "--smoke", "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    layers = json.loads(traced.stdout.strip().splitlines()[-1])["metrics"]
    assert _units(layers) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers["simulator.steps"]["value"] > 0
    assert layers["trace.unattributed_s"]["value"] > 0


def _smoke_run(name: str):
    workload = workloads.smoke_workload(workloads.WORKLOADS[name])
    return workloads.run_workload(workload, seed=0, seconds=0, traced=False,
                                  root=ROOT)["run"]


def test_corrupted_output_counts_in_error_rate(monkeypatch):
    clean = _smoke_run("train_dubins")
    assert clean.failed == 0, clean.errors

    op_verify = operations.op_verify

    def corrupted(*args):
        outcome = op_verify(*args)
        report = json.loads(outcome.out["report_text"])
        report["quantile"] += 1e-3
        outcome.out["report_text"] = json.dumps(report)
        return outcome

    monkeypatch.setattr(operations, "op_verify", corrupted)
    bad = _smoke_run("train_dubins")
    assert bad.attempted == clean.attempted
    assert bad.failed == 1
    assert "verify check" in bad.errors[0]


def test_tracing_skips_a_missing_name_and_patches_names_imported_elsewhere():
    from cbfcert import certificate, mlp

    original = mlp.forward_batch
    tracer = Tracer()
    wanted = {"mlp": ("forward_batch", "no_such_function"),
              "no_such_module": ("anything",),
              "dynamics": ("NoSuchClass.method",)}
    with tracer.installed(wanted):
        assert certificate.forward_batch is not original
        cert = mlp.init_certificate((3, 4, 1), seed=0)
        certificate.forward_batch(cert, [[0.0, 0.0, 0.0]])
    assert certificate.forward_batch is original and mlp.forward_batch is original
    assert tracer.skipped == ["mlp.no_such_function", "no_such_module.anything",
                              "dynamics.NoSuchClass.method"]
    assert [s.name for s in tracer.spans] == ["mlp.forward_batch"]
    assert tracer.spans[0].rows == 1


def test_fails_without_printing_a_result_where_only_the_benchmark_is(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                  "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_kernel_sheet_times_every_kernel(capsys, monkeypatch):
    import kernels
    import run

    monkeypatch.chdir(ROOT)
    for var in run.THREAD_VARS:  # restored after the test
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(kernels, "REPEAT", 1)
    monkeypatch.setattr(kernels, "MIN_BATCH_S", 0.001)
    assert kernels.main() == 0
    sheet = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(sheet["kernels"]) == {
        "activation_pair_768x64", "nested_grad_dubins_batch_768", "box_qp_decide_b1",
        "rk4_step_dubins", "score_states_20k", "epsilon_for_n20k"}
    assert all(k["median_us"] > 0 for k in sheet["kernels"].values())


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
