import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cbfcert.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO_ROOT / "docs" / "schemas"


def validate_schema(doc, schema):
    """Minimal JSON-Schema subset checker: type / required / properties / items."""
    kind = schema.get("type")
    if kind == "object":
        assert isinstance(doc, dict), f"expected object, got {type(doc)}"
        for key in schema.get("required", []):
            assert key in doc, f"missing required key {key}"
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                validate_schema(doc[key], sub)
    elif kind == "array":
        assert isinstance(doc, list), f"expected array, got {type(doc)}"
        if "items" in schema:
            for item in doc:
                validate_schema(item, schema["items"])
    elif kind == "integer":
        assert isinstance(doc, int) and not isinstance(doc, bool), doc
    elif kind == "number":
        assert isinstance(doc, (int, float)) and not isinstance(doc, bool), doc
    elif kind == "string":
        assert isinstance(doc, str), doc
    elif kind == "boolean":
        assert isinstance(doc, bool), doc


def check_against(name, path):
    schema = json.loads((SCHEMA_DIR / name).read_text())
    doc = json.loads(Path(path).read_text())
    validate_schema(doc, schema)
    return doc


def tiny_dubins_config(tmp_path, **overrides) -> Path:
    doc = {
        "system": "dubins",
        "hidden_layers": [16],
        "epochs": 8,
        "batch_size": 256,
        "n_safe": 600,
        "n_unsafe": 600,
        "n_domain": 600,
        "conformal_samples": 2000,
        "alpha": 0.05,
        "beta": 1e-3,
        "max_refinements": 1,
        "seed": 3,
        "simulation": {"n_rollouts": 3, "horizon_steps": 50, "dt": 0.02},
        "levelset": {"free_axes": [0, 1], "resolution": 2},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_train_smoke_emits_all_artifacts(tmp_path):
    config = tiny_dubins_config(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--config", str(config), "--out", str(out)])
    assert code in (0, 2)
    check_against("certificate.schema.json", out / "certificate.json")
    check_against("history.schema.json", out / "history.json")
    report = check_against("report.schema.json", out / "report.json")
    check_against("run_config.schema.json", out / "run_config.json")
    assert (out / "losses.csv").read_text().startswith("phase,epoch,loss")
    status = (out / "STATUS").read_text().strip()
    assert status in ("certified", "budget_exhausted")
    assert (code == 0) == (status == "certified")
    assert report["n_samples"] == 2000


def test_train_invalid_quantile_config_fails_before_outputs(tmp_path):
    config = tiny_dubins_config(tmp_path, alpha=0.001, conformal_samples=100)
    out = tmp_path / "run"
    code = main(["train", "--config", str(config), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_train_validation_error_names_field(tmp_path, capsys):
    config = tiny_dubins_config(tmp_path, alpha=0.001, conformal_samples=100)
    code = main(["train", "--config", str(config), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert "alpha" in captured.err


def test_train_deterministic_certificates(tmp_path):
    config = tiny_dubins_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(config), "--out", str(out1)]) in (0, 2)
    assert main(["train", "--config", str(config), "--out", str(out2)]) in (0, 2)
    h1 = hashlib.sha256((out1 / "certificate.json").read_bytes()).hexdigest()
    h2 = hashlib.sha256((out2 / "certificate.json").read_bytes()).hexdigest()
    assert h1 == h2


def test_verify_constant_positive_cert_reports_positive_quantile(tmp_path):
    # constant positive barrier scores q2 > 0 inside the unsafe box; with
    # alpha below the box measure the quantile must be positive
    from cbfcert import mlp

    cert = mlp.MlpCertificate((3, 2, 1),
                              (np.zeros((2, 3)), np.zeros((1, 2))),
                              (np.zeros(2), np.array([0.5])))
    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(cert, cert_path)
    config = tiny_dubins_config(tmp_path, alpha=0.005, conformal_samples=4000)
    out = tmp_path / "verify"
    code = main(["verify", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(out)])
    assert code == 0
    report = check_against("report.schema.json", out / "report.json")
    assert report["quantile"] > 0
    # report round-trips through JSON
    from cbfcert.certificate import ConformalReport
    back = ConformalReport.from_dict(report)
    assert back.quantile == report["quantile"]


def test_verify_missing_certificate_exits_1(tmp_path):
    config = tiny_dubins_config(tmp_path)
    code = main(["verify", "--config", str(config), "--cert",
                 str(tmp_path / "nope.json"), "--out", str(tmp_path / "v")])
    assert code == 1


def test_simulate_single_rollout_emits_trajectory(tmp_path):
    from cbfcert import mlp

    cert = mlp.init_certificate([3, 8, 1], seed=0)
    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(cert, cert_path)
    config = tiny_dubins_config(
        tmp_path, simulation={"n_rollouts": 1, "horizon_steps": 30, "dt": 0.02})
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(out)])
    assert code == 0
    summary = check_against("summary.schema.json", out / "summary.json")
    assert 0.0 <= summary["rate"] <= 1.0
    assert (out / "trajectory_0000.csv").exists()
    # recount the rate from the per-rollout status lines
    lines = (out / "rollout_statuses.csv").read_text().strip().splitlines()[1:]
    statuses = [line.split(",")[1] for line in lines]
    failures = sum(s in ("entered_unsafe", "filter_infeasible") for s in statuses)
    assert summary["rate"] == pytest.approx(1.0 - failures / len(statuses))


def test_levelset_resolution_two_gives_four_nodes(tmp_path):
    from cbfcert import mlp

    cert = mlp.init_certificate([3, 8, 1], seed=1)
    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(cert, cert_path)
    config = tiny_dubins_config(
        tmp_path, levelset={"free_axes": [0, 1], "resolution": 2,
                            "fixed_values": [0.0, 0.0, 0.0]})
    out = tmp_path / "lvl"
    code = main(["levelset", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(out)])
    assert code == 0
    rows = (out / "levelset.csv").read_text().strip().splitlines()
    assert len(rows) == 3   # header + 2 grid rows
    values = [float(v) for row in rows[1:] for v in row.split(",")[1:]]
    assert len(values) == 4
    # corner equals a direct barrier evaluation
    corner = mlp.forward(cert, np.array([-2.0, -2.0, 0.0]))
    assert values[0] == corner
    sidecar = check_against("sidecar.schema.json", out / "levelset.json")
    assert sidecar["fixed_values"] == [0.0, 0.0, 0.0]
    assert sidecar["axes"] == [0, 1]


def test_curve_rows_and_diagonal_trend(tmp_path):
    out = tmp_path / "curve"
    code = main(["curve", "--n", "500", "--n", "5000", "--beta", "1e-3",
                 "--alpha-min", "0.02", "--alpha-max", "0.1",
                 "--alpha-count", "5", "--out", str(out)])
    assert code == 0
    rows = [r.split(",") for r in
            (out / "curve.csv").read_text().strip().splitlines()[1:]]
    assert len(rows) == 10
    by_n = {}
    for n, beta, alpha, eps, err in rows:
        assert err == ""
        by_n.setdefault(int(n), []).append((float(alpha), float(eps)))
    # larger N lies closer to the diagonal eps = alpha
    for (a_small, e_small), (a_big, e_big) in zip(by_n[500], by_n[5000]):
        assert e_big - a_big <= e_small - a_small + 1e-12


def test_curve_empty_alpha_range_header_only(tmp_path):
    out = tmp_path / "curve"
    code = main(["curve", "--n", "100", "--beta", "0.5", "--alpha-min", "0.1",
                 "--alpha-max", "0.2", "--alpha-count", "0", "--out", str(out)])
    assert code == 0
    assert (out / "curve.csv").read_text().strip() == "n_samples,beta,alpha,epsilon,error"


def test_curve_invalid_beta_exits_1(tmp_path):
    code = main(["curve", "--n", "100", "--beta", "0.0",
                 "--out", str(tmp_path / "c")])
    assert code == 1


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CBFCERT_OUT", str(tmp_path / "root"))
    code = main(["curve", "--n", "100", "--beta", "0.5", "--alpha-min", "0.05",
                 "--alpha-max", "0.1", "--alpha-count", "2"])
    assert code == 0
    assert (tmp_path / "root" / "curve" / "curve.csv").exists()


def test_train_writes_per_round_checkpoints(tmp_path):
    config = tiny_dubins_config(tmp_path)
    out = tmp_path / "ckpt"
    assert main(["train", "--config", str(config), "--out", str(out)]) in (0, 2)
    from cbfcert import mlp

    rounds = sorted(out.glob("certificate_round_*.json"))
    assert rounds, "no per-round checkpoints written"
    for path in rounds:
        mlp.load_certificate(path)


def test_verify_emit_scores_recounts_to_quantile(tmp_path):
    from cbfcert import mlp
    from cbfcert.certificate import conformal_quantile

    cert = mlp.init_certificate([3, 8, 1], seed=5)
    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(cert, cert_path)
    config = tiny_dubins_config(tmp_path)
    out = tmp_path / "scores"
    code = main(["verify", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(out), "--emit-scores", "--seed", "9"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    rows = (out / "scores.csv").read_text().strip().splitlines()[1:]
    scores = np.array([float(r.split(",")[1]) for r in rows])
    assert len(scores) == report["n_samples"]
    assert conformal_quantile(scores, report["alpha"]) == report["quantile"]


def test_quadruped_system_params_flow_through_config(tmp_path):
    doc = {
        "system": "quadruped",
        "system_params": {"k1": 0.2, "k2": -0.1, "kr": 0.0, "margin": 0.3},
        "hidden_layers": [16],
        "epochs": 2,
        "n_safe": 200, "n_unsafe": 200, "n_domain": 200,
        "conformal_samples": 500, "alpha": 0.05, "beta": 1e-3,
        "max_refinements": 1, "seed": 0,
    }
    config = tmp_path / "quad.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "quad_out"
    code = main(["train", "--config", str(config), "--out", str(out)])
    assert code in (0, 2)
    echoed = json.loads((out / "run_config.json").read_text())
    assert echoed["system_params"] == doc["system_params"]


def test_unknown_simulation_key_rejected(tmp_path):
    config = tiny_dubins_config(tmp_path, simulation={"rollouts": 5})
    code = main(["train", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("limit", [-1, 2.5, True])
def test_trajectory_limit_must_be_a_non_negative_integer(tmp_path, capsys, limit):
    from cbfcert import mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=1), cert_path)
    config = tiny_dubins_config(
        tmp_path, simulation={"n_rollouts": 3, "horizon_steps": 5,
                              "max_trajectory_files": limit})
    code = main(["simulate", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert not (tmp_path / "x").exists()
    assert "simulation.max_trajectory_files" in capsys.readouterr().err


def test_levelset_axes_outside_state_dimension_rejected(tmp_path, capsys):
    from cbfcert import mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=1), cert_path)
    config = tiny_dubins_config(tmp_path, levelset={"free_axes": [0, 5],
                                                    "resolution": 2})
    code = main(["levelset", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert not (tmp_path / "x").exists()
    assert capsys.readouterr().err.startswith("error: levelset.free_axes")


_BAD_CONFIG_VALUES = [
    ("levelset", "resolution", "21"),
    ("levelset", "resolution", 20.5),
    ("levelset", "resolution", True),
    ("levelset", "free_axes", 1),
    ("levelset", "free_axes", "01"),
    ("levelset", "free_axes", [0, 1.7]),
    ("levelset", "free_axes", [0, True]),
    ("levelset", "fixed_values", ["a", 0.0, 0.0]),
    ("levelset", "fixed_values", [float("nan"), 0.0, 0.0]),
    ("levelset", "fixed_values", [0.0, float("inf"), 0.0]),
    ("levelset", "fixed_values", [0.0, 0.0, False]),
    ("levelset", "fixed_values", 0.0),
    ("simulation", "n_rollouts", "3"),
    ("simulation", "n_rollouts", 2.5),
    ("simulation", "n_rollouts", True),
    ("simulation", "horizon_steps", "50"),
    ("simulation", "horizon_steps", 50.0),
    ("simulation", "dt", "0.02"),
    ("simulation", "dt", float("nan")),
    ("simulation", "dt", True),
    *[("simulation", key, value)
      for key in ("respect_input_bounds", "emit_trajectories")
      for value in ("false", 0, 1, None)],
    # top-level fields, section None
    (None, "system_params", {"bogus": 1}),
    (None, "hidden_layers", "64"),
    (None, "hidden_layers", [64.5]),
    (None, "hidden_layers", [True]),
    (None, "learning_rate", "0.001"),
    (None, "learning_rate", True),
    (None, "learning_rate", float("nan")),
    (None, "kappa_gain", "1"),
    (None, "correction_cap", -1.0),
    (None, "correction_cap", 0.0),
    (None, "correction_cap", "abc"),
    (None, "correction_cap", float("inf")),
]


@pytest.mark.parametrize("command", ["train", "verify", "levelset", "simulate"])
@pytest.mark.parametrize("section, key, value", _BAD_CONFIG_VALUES)
def test_mistyped_config_value_rejected_before_outputs(tmp_path, capsys, command,
                                                       section, key, value):
    from cbfcert import mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=1), cert_path)
    base = {"simulation": {"n_rollouts": 3, "horizon_steps": 5},
            "levelset": {"free_axes": [0, 1], "resolution": 2}}
    if section is None:
        base[key] = value
    else:
        base[section][key] = value
    config = tiny_dubins_config(tmp_path, **base)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "x")]
    if command != "train":
        argv += ["--cert", str(cert_path)]
    assert main(argv) == 1
    assert not (tmp_path / "x").exists()
    path = key if section is None else f"{section}.{key}"
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("command", ["train", "levelset", "simulate"])
@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_training_bounds_flag_must_be_true_or_false(tmp_path, capsys, command,
                                                    value):
    from cbfcert import mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=1), cert_path)
    config = tiny_dubins_config(tmp_path, respect_input_bounds_training=value)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "x")]
    if command != "train":
        argv += ["--cert", str(cert_path)]
    assert main(argv) == 1
    assert not (tmp_path / "x").exists()
    assert capsys.readouterr().err == (
        "error: respect_input_bounds_training: must be true or false\n")


def test_simulate_honours_false_booleans(tmp_path, monkeypatch):
    from cbfcert import cli, mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=1), cert_path)
    config = tiny_dubins_config(
        tmp_path, simulation={"n_rollouts": 2, "horizon_steps": 5,
                              "respect_input_bounds": False,
                              "emit_trajectories": False})
    deployed = []
    real_rate = cli.empirical_safety_rate

    def spy(system, filt, *args, **kwargs):
        deployed.append(filt.respect_input_bounds)
        return real_rate(system, filt, *args, **kwargs)

    monkeypatch.setattr(cli, "empirical_safety_rate", spy)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(out)]) == 0
    assert deployed == [False]
    assert not list(out.glob("trajectory_*.csv"))


def test_verify_scores_the_sample_once(tmp_path, monkeypatch):
    from cbfcert import certificate, mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=5), cert_path)
    config = tiny_dubins_config(tmp_path)
    calls = []
    real_score = certificate.score_states

    def counted(*args):
        calls.append(len(args[3]))
        return real_score(*args)

    monkeypatch.setattr(certificate, "score_states", counted)
    reports = []
    for extra in ([], ["--emit-scores"]):
        out = tmp_path / f"v{len(extra)}"
        calls.clear()
        assert main(["verify", "--config", str(config), "--cert", str(cert_path),
                     "--out", str(out), "--seed", "9", *extra]) == 0
        assert calls == [2000]
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert (tmp_path / "v1" / "scores.csv").exists()
