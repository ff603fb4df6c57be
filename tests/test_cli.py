import base64
import hashlib
import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from cbfcert.cli import _load_config, main
from cbfcert.simulator import SimulationConfig, SliceSpec
from cbfcert.trainer import ConfigError, TrainConfig, parse_section

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO_ROOT / "docs" / "schemas"


def validate_schema(doc, schema):
    """Minimal JSON-Schema subset checker: type (one or a list) / required /
    properties / items / enum / pattern / anyOf."""
    if isinstance(schema.get("type"), list):
        return validate_schema(doc, {"anyOf": [{**schema, "type": kind}
                                               for kind in schema["type"]]})
    if "anyOf" in schema:
        failures = []
        for branch in schema["anyOf"]:
            try:
                validate_schema(doc, branch)
                break
            except AssertionError as exc:
                failures.append(str(exc))
        else:
            raise AssertionError(f"no anyOf branch matches: {failures}")
    if "enum" in schema:
        assert any(type(doc) is type(e) and doc == e for e in schema["enum"]), doc
    if "pattern" in schema:
        assert isinstance(doc, str) and re.search(schema["pattern"], doc), doc
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
    elif kind == "null":
        assert doc is None, doc


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


# the filter spec of tiny_dubins_config's run file without overrides
DEFAULT_SPEC = {"kappa_gain": 1.0, "respect_input_bounds": False, "correction_cap": None}


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


def test_certificate_schema_takes_both_format_versions():
    schema = json.loads((SCHEMA_DIR / "certificate.schema.json").read_text())
    for text in (_cert_text(version=1), _cert_text(version=2),
                 _cert_text(version=2, filter=DEFAULT_SPEC)):
        validate_schema(json.loads(text), schema)
    for bad in [_cert_text(version=2, biases=[_B0.rstrip("="), _B1]),
                _cert_text(version=2, weights=[_W0[:128] + "!" + _W0[128:], _W1]),
                _cert_text(format_version=3),
                _cert_text(version=2, filter={**DEFAULT_SPEC, "kappa_gain": "1.0"}),
                _cert_text(version=2, filter={**DEFAULT_SPEC, "correction_cap": "none"})]:
        with pytest.raises(AssertionError):
            validate_schema(json.loads(bad), schema)


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


@pytest.mark.parametrize("system,failing", [
    ("dubins", ("entered_unsafe", "filter_infeasible")),
    ("planar_aerial", ("entered_unsafe", "filter_infeasible", "exited_domain"))])
def test_simulate_states_the_failure_bound_of_its_rate(tmp_path, system, failing):
    # an untrained barrier: on dubins 32 of 40 rollouts fail and 6 exit the
    # domain harmlessly; on planar_aerial a domain exit fails too, and all
    # 40 fail, where the bound is 1.0
    from cbfcert import mlp
    from cbfcert.certificate import failure_bound
    from cbfcert.dynamics import make_system

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([make_system(system).n, 8, 1], seed=2),
                         cert_path)
    config = tiny_dubins_config(
        tmp_path, system=system, beta=0.01,
        simulation={"n_rollouts": 40, "horizon_steps": 40, "dt": 0.05,
                    "emit_trajectories": False})
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(out)]) == 0
    summary = check_against("summary.schema.json", out / "summary.json")
    lines = (out / "rollout_statuses.csv").read_text().strip().splitlines()[1:]
    failures = sum(line.split(",")[1] in failing for line in lines)
    assert summary["rate"] == 1.0 - failures / 40
    assert summary["beta"] == 0.01
    assert summary["failure_bound"] == failure_bound(failures, 40, 0.01)
    assert 1.0 - summary["rate"] <= summary["failure_bound"] <= 1.0


@pytest.mark.parametrize("bounded_training", [False, True])
def test_simulate_records_the_deployed_against_the_certified_filter(
        tmp_path, capsys, bounded_training):
    # simulate deploys a box-bounded filter; only a certificate trained and
    # scored under the bounds was certified for it
    from cbfcert import mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=0), cert_path)
    config = tiny_dubins_config(
        tmp_path, kappa_gain=2.0, respect_input_bounds_training=bounded_training,
        simulation={"n_rollouts": 2, "horizon_steps": 10, "dt": 0.02})
    out = tmp_path / "sim"
    capsys.readouterr()
    assert main(["simulate", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(out)]) == 0
    summary = check_against("summary.schema.json", out / "summary.json")
    assert summary["certified_spec"] == {"kappa_gain": 2.0,
                                         "respect_input_bounds": bounded_training,
                                         "correction_cap": None}
    assert summary["deployed_spec"] == {"kappa_gain": 2.0, "respect_input_bounds": True,
                                        "correction_cap": None}
    assert summary["certified_filter"] is bounded_training
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: ")]
    assert len(warnings) == (0 if bounded_training else 1)


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


@pytest.mark.parametrize("bounds", [("0.01", "inf"), ("nan", "0.1")])
def test_curve_non_finite_alpha_exits_1_before_any_output(tmp_path, capsys, bounds):
    out = tmp_path / "c"
    code = main(["curve", "--n", "100", "--alpha-min", bounds[0],
                 "--alpha-max", bounds[1], "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --alpha-") and "finite" in err[0]
    assert not out.exists()


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CBFCERT_OUT", str(tmp_path / "root"))
    code = main(["curve", "--n", "100", "--beta", "0.5", "--alpha-min", "0.05",
                 "--alpha-max", "0.1", "--alpha-count", "2"])
    assert code == 0
    assert (tmp_path / "root" / "curve" / "curve.csv").exists()


def test_train_writes_per_round_checkpoints(tmp_path):
    # each certificate records the filter refine scored it under, and
    # train's and verify's reports the filter their draws were scored under
    config = tiny_dubins_config(tmp_path)
    out = tmp_path / "ckpt"
    assert main(["train", "--config", str(config), "--out", str(out)]) in (0, 2)
    from cbfcert import mlp

    rounds = sorted(out.glob("certificate_round_*.json"))
    assert rounds, "no per-round checkpoints written"
    for path in [*rounds, out / "certificate.json"]:
        mlp.load_certificate(path)
        assert json.loads(path.read_text())["filter"] == DEFAULT_SPEC
    trained = check_against("report.schema.json", out / "report.json")
    assert trained["filter"] == DEFAULT_SPEC
    assert main(["verify", "--config", str(config), "--cert", str(out / "certificate.json"),
                 "--out", str(tmp_path / "verify")]) == 0
    report = check_against("report.schema.json", tmp_path / "verify" / "report.json")
    assert report["filter"] == DEFAULT_SPEC
    # each report records the one draw it was calibrated on
    for doc in (trained, report):
        (draw,) = doc["draws"]
        assert doc["format_version"] == 2 and draw["stream"] == "calibration"
        assert draw["seed"] == doc["seed"] and draw["n_samples"] == doc["n_samples"] == 2000
    assert report["seed"] == 3


def test_box_bounded_certificate_verifies_under_the_spec_it_records(tmp_path):
    from cbfcert import mlp
    from cbfcert.certificate import verification_scores
    from cbfcert.controller import SafetyFilter

    spec = {"kappa_gain": 2.0, "respect_input_bounds": True, "correction_cap": None}
    config = tiny_dubins_config(tmp_path, kappa_gain=2.0, respect_input_bounds_training=True)
    out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(out)]) in (0, 2)
    cert_path = out / "certificate.json"
    assert json.loads(cert_path.read_text())["filter"] == spec
    assert main(["verify", "--config", str(config), "--cert", str(cert_path),
                 "--out", str(tmp_path / "verify"), "--seed", "5", "--emit-scores"]) == 0
    assert json.loads((tmp_path / "verify" / "report.json").read_text())["filter"] == spec
    # the draw was scored under the bounded filter, whose scores differ
    # from the unbounded filter's on this certificate
    rows = (tmp_path / "verify" / "scores.csv").read_text().strip().splitlines()[1:]
    emitted = np.array([float(row.split(",")[1]) for row in rows])
    train_config, _, _, sys_ = _load_config(str(config), 5)
    cert = mlp.load_certificate(cert_path)
    bounded, unbounded = (
        verification_scores(cert, sys_, SafetyFilter(cert, sys_, 2.0, bounds), 2000, 5,
                            train_config.loss_weights()) for bounds in (True, False))
    assert np.array_equal(emitted, bounded) and not np.array_equal(emitted, unbounded)


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
    # the draw's counts are those of the emitted scores
    (draw,) = report["draws"]
    assert draw["seed"] == 9 and draw["positive"] == int(np.sum(scores > 0)) > 0


def test_report_is_strict_json_when_the_score_sum_overflows(tmp_path):
    # finite scores near 1e306, whose plain sum overflows to -inf
    from cbfcert import mlp

    cert = mlp.init_certificate([3, 8, 1], seed=5)
    scaled = mlp.MlpCertificate(cert.layer_sizes, (cert.weights[0], cert.weights[1] * 1e306),
                                (cert.biases[0], cert.biases[1] * 1e306))
    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(scaled, cert_path)
    out = tmp_path / "v"
    assert main(["verify", "--config", str(tiny_dubins_config(tmp_path)), "--cert",
                 str(cert_path), "--out", str(out), "--emit-scores"]) == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    rows = (out / "scores.csv").read_text().strip().splitlines()[1:]
    scores = np.array([float(row.split(",")[1]) for row in rows])
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(scores)) and not np.isfinite(scores.sum())
    assert report["score_mean"] == float(np.sum(scores / scores.size))
    validate_schema(report, json.loads((SCHEMA_DIR / "report.schema.json").read_text()))


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


@pytest.mark.parametrize("command", ["train", "verify", "levelset", "simulate"])
@pytest.mark.parametrize("params, culprit", [
    ({"k1": "a"}, "f"),
    ({"nominal_speed": "a"}, "label_batch"),
    ({"margin": "a"}, "label_batch"),
    ({"nominal_speed": [1.0, 2.0]}, "label_batch"),
    ({"kr": float("nan")}, "f"),
])
def test_bad_system_param_value_rejected_before_outputs(tmp_path, capsys, command,
                                                        params, culprit):
    # the builder only stores these; evaluating the built system once at
    # load is what catches them
    from cbfcert import mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([8, 8, 1], seed=1), cert_path)
    config = tiny_dubins_config(tmp_path, system="quadruped", system_params=params)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "x")]
    if command != "train":
        argv += ["--cert", str(cert_path)]
    assert main(argv) == 1
    assert not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: system_params: quadruped: {culprit} "), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "verify", "levelset", "simulate"])
@pytest.mark.parametrize("params, key", [
    ({"margin": float("nan")}, "margin"),
    ({"margin": float("inf")}, "margin"),
    ({"k1": 0.2, "nominal_speed": float("nan")}, "nominal_speed"),
])
def test_non_finite_system_param_rejected_before_outputs(tmp_path, capsys, command,
                                                         params, key):
    # JSON as Python reads it takes NaN and Infinity; the built system
    # evaluates at the box midpoint, where a labeler parameter's NaN shows
    # nowhere, so the numbers are checked themselves
    from cbfcert import mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([8, 8, 1], seed=1), cert_path)
    config = tiny_dubins_config(tmp_path, system="quadruped", system_params=params)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "x")]
    if command != "train":
        argv += ["--cert", str(cert_path)]
    assert main(argv) == 1
    assert not (tmp_path / "x").exists()
    assert capsys.readouterr().err == f"error: system_params: {key}: must be finite\n"


@pytest.mark.parametrize("command, message", [
    ("verify", "non-finite score while sampling the state space"),
    ("simulate", "non-finite barrier at rollout 0, step 0"),
    ("levelset", "non-finite barrier at level-set node (0, 0)"),
])
def test_non_finite_barrier_exits_1_before_outputs(tmp_path, capsys, command, message):
    # finite parameters: two hidden units of 1000 meet output weights of
    # +-1e308, so the barrier is inf - inf = NaN everywhere
    from cbfcert import mlp

    cert = mlp.MlpCertificate((3, 2, 1), (np.zeros((2, 3)), np.array([[1e308, -1e308]])),
                              (np.full(2, 1000.0), np.zeros(1)))
    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(cert, cert_path)
    out = tmp_path / "x"
    assert main([command, "--config", str(tiny_dubins_config(tmp_path)), "--cert",
                 str(cert_path), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: certificate: {message}\n"


def test_unknown_simulation_key_rejected(tmp_path):
    config = tiny_dubins_config(tmp_path, simulation={"rollouts": 5})
    code = main(["train", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["train", "verify", "simulate", "levelset"])
@pytest.mark.parametrize("section", ["simulation", "levelset"])
@pytest.mark.parametrize("value", [5, "ab", False, [], 0, None, [{"dt": 0.1}]])
def test_config_section_must_be_an_object(tmp_path, capsys, command, section, value):
    from cbfcert import mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=1), cert_path)
    config = tiny_dubins_config(tmp_path, **{section: value})
    argv = [command, "--config", str(config), "--out", str(tmp_path / "x")]
    if command != "train":
        argv += ["--cert", str(cert_path)]
    assert main(argv) == 1
    assert not (tmp_path / "x").exists()
    assert capsys.readouterr().err == f"error: {section}: must be an object\n"


def test_absent_config_sections_mean_their_defaults(tmp_path):
    config = tiny_dubins_config(tmp_path)
    doc = json.loads(config.read_text())
    del doc["simulation"], doc["levelset"]
    config.write_text(json.dumps(doc))
    _, sim, spec, _ = _load_config(str(config))
    assert sim == SimulationConfig() and spec == SliceSpec()


def test_echoed_run_config_loads_back_to_the_same_sections(tmp_path):
    from dataclasses import replace

    # ints where floats belong and a reordered slice: the echo is typed
    config = tiny_dubins_config(
        tmp_path, learning_rate=1, correction_cap=None,
        simulation={"n_rollouts": 3, "horizon_steps": 50, "dt": 1,
                    "respect_input_bounds": False, "max_trajectory_files": 0},
        levelset={"free_axes": [2, 0], "fixed_values": [0, 1, 0], "resolution": 7})
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out),
                 "--seed", "4"]) in (0, 2)
    train, sim, spec, _ = _load_config(str(config))
    echoed = _load_config(str(out / "run_config.json"))
    assert echoed[:3] == (replace(train, seed=4), sim, spec)
    doc = json.loads((out / "run_config.json").read_text())
    assert doc["simulation"]["dt"] == 1.0 and isinstance(doc["simulation"]["dt"], float)
    assert doc["levelset"]["fixed_values"] == [0.0, 1.0, 0.0]
    assert all(isinstance(v, float) for v in doc["levelset"]["fixed_values"])


_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string",
               dict: "object"}


def _schema_of(kind) -> dict:
    """The JSON-Schema type (and item type) of a section field's annotation."""
    args = typing.get_args(kind)
    if type(None) in args:
        inner = _schema_of(args[0])
        return {**inner, "type": [inner["type"], "null"]}
    if typing.get_origin(kind) is tuple:
        return {"type": "array", "items": _schema_of(args[0])}
    return {"type": _JSON_TYPES[kind]}


def test_run_config_schema_requires_every_section_field():
    from dataclasses import fields

    schema = json.loads((SCHEMA_DIR / "run_config.schema.json").read_text())
    sections = {"simulation": SimulationConfig, "levelset": SliceSpec}
    top = {f.name for f in fields(TrainConfig)} | set(sections)
    assert set(schema["required"]) == set(schema["properties"]) == top
    for section, cls in sections.items():
        part = schema["properties"][section]
        assert set(part["required"]) == set(part["properties"]) == {
            f.name for f in fields(cls)}, section
    # each field's JSON type follows its annotation, as check_types reads it
    for section, cls in [(None, TrainConfig), *sections.items()]:
        part = schema if section is None else schema["properties"][section]
        for name, kind in typing.get_type_hints(cls).items():
            prop = part["properties"][name]
            got = {key: prop[key] for key in ("type", "items") if key in prop}
            assert got == _schema_of(kind), (section, name)


def test_section_built_in_python_equals_the_run_file_one():
    built = TrainConfig(hidden_layers=[64], learning_rate=1)
    assert built == TrainConfig.from_dict({"hidden_layers": [64], "learning_rate": 1})
    assert built.hidden_layers == (64,) and type(built.learning_rate) is float
    for cls, values in [(SliceSpec, {"free_axes": [0, 1], "fixed_values": [0, 0, 0]}),
                        (SimulationConfig, {"dt": 1})]:
        built = cls(**values)
        read = parse_section(cls, json.loads(json.dumps(values)), "section")
        assert built == read and hash(built) == hash(read), cls
    spec = SliceSpec(free_axes=[0, 1], fixed_values=[0, 0, 0])
    assert spec.free_axes == (0, 1) and spec.fixed_values == (0.0, 0.0, 0.0)
    assert all(type(v) is float for v in spec.fixed_values)
    assert type(SimulationConfig(dt=1).dt) is float


@pytest.mark.parametrize("section, cls, key, value", [
    ("simulation", SimulationConfig, "dt", "x"),
    ("levelset", SliceSpec, "resolution", True),
])
def test_section_built_in_python_refuses_like_the_run_file(tmp_path, section, cls,
                                                           key, value):
    config = tiny_dubins_config(tmp_path, **{section: {key: value}})
    with pytest.raises(ConfigError) as from_file:
        _load_config(str(config))
    with pytest.raises(ConfigError) as built:
        cls(**{key: value})
    assert from_file.value.messages == [f"{section}.{m}" for m in built.value.messages]


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
    (None, "epochs", 8.0),
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
    (None, "n_unsafe", 2),  # fewer rows than the 3 mini-batches of 600 safe rows
    (None, "seed", 2**32),  # numpy would split it into the key [0, 1]
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


@pytest.mark.parametrize("command, flag", [
    *[(command, False) for command in ("train", "verify", "simulate", "levelset")],
    *[(command, True) for command in ("train", "verify", "simulate")],
])
def test_negative_seed_exits_1_before_outputs(tmp_path, capsys, command, flag):
    # a --seed override is checked like the seed in the file
    from cbfcert import mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=1), cert_path)
    config = tiny_dubins_config(tmp_path, **({} if flag else {"seed": -1}))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "x")]
    if command != "train":
        argv += ["--cert", str(cert_path)]
    if flag:
        argv += ["--seed", "-1"]
    assert main(argv) == 1
    assert not (tmp_path / "x").exists()
    assert capsys.readouterr().err == "error: seed: must be non-negative\n"


@pytest.mark.parametrize("command", ["train", "verify", "simulate"])
def test_seed_flag_of_2_to_the_32_exits_1_before_outputs(tmp_path, capsys, command):
    from cbfcert import mlp

    cert_path = tmp_path / "cert.json"
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=1), cert_path)
    argv = [command, "--config", str(tiny_dubins_config(tmp_path)), "--out",
            str(tmp_path / "x"), "--seed", str(2**32)]
    if command != "train":
        argv += ["--cert", str(cert_path)]
    assert main(argv) == 1
    assert not (tmp_path / "x").exists()
    assert capsys.readouterr().err == "error: seed: must be below 2**32\n"


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
    rows = []
    real_filter = certificate.filter_batch

    def counted(filt, states, workspace):
        rows.append(len(states))
        return real_filter(filt, states, workspace)

    # the filter sees the 2000 states once, block by block
    monkeypatch.setattr(certificate, "filter_batch", counted)
    reports = []
    for extra in ([], ["--emit-scores"]):
        out = tmp_path / f"v{len(extra)}"
        rows.clear()
        assert main(["verify", "--config", str(config), "--cert", str(cert_path),
                     "--out", str(out), "--seed", "9", *extra]) == 0
        assert sum(rows) == 2000
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert (tmp_path / "v1" / "scores.csv").exists()


def _cert_text(drop=None, version=1, **changes) -> str:
    """A [3, 8, 1] certificate document in format_version 1 (number lists)
    or 2 (base64), with keys changed or dropped."""
    from cbfcert import mlp

    cert = mlp.init_certificate([3, 8, 1], seed=1)
    doc = json.loads(mlp.certificate_to_json(cert))
    if version == 1:
        doc.update(weights=[w.tolist() for w in cert.weights],
                   biases=[b.tolist() for b in cert.biases], format_version=1)
    doc.update(changes)
    doc.pop(drop, None)
    return json.dumps(doc)


def _base64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


_W0 = _base64(np.full((8, 3), 0.5))    # 192 bytes, no padding
_W1 = _base64(np.full((1, 8), 0.5))
_B0 = _base64(np.zeros(8))             # 64 bytes: 88 characters, two of them "="
_B1 = _base64(np.zeros(1))

_MALFORMED_CERTIFICATES = {
    "array": "[]",
    "string": '"x"',
    "truncated": '{"layer_sizes": [3, 8, 1]',
    "binary": "\udcff",
    "sizes-null": _cert_text(layer_sizes=None),
    "sizes-text": _cert_text(layer_sizes=["a", 8, 1]),
    "sizes-fraction": _cert_text(layer_sizes=[3.7, 8, 1]),
    "sizes-float": _cert_text(layer_sizes=[3, 8.0, 1]),
    "sizes-bool": _cert_text(layer_sizes=[3, 8, True]),
    "sizes-string": _cert_text(layer_sizes=[3, "8", 1]),
    "sizes-mismatch": _cert_text(layer_sizes=[3, 9, 1]),
    "weights-number": _cert_text(weights=5),
    "weights-objects": _cert_text(weights=[{}, {}]),
    "weights-ragged": _cert_text(weights=[[[1.0], [1.0, 2.0]], [[0.0]]]),
    "biases-missing": _cert_text(drop="biases"),
    "biases-null": _cert_text(biases=[[None] * 8, [0.0]]),
    "biases-nan": _cert_text(biases=[[float("nan")] * 8, [0.0]]),
    "version": _cert_text(format_version=99),
    "version-bool": _cert_text(format_version=True),
    "version-float": _cert_text(format_version=1.0),
    "weights-string": _cert_text(weights=[[["0.5", 0.1, 0.2]] + [[0.1] * 3] * 7, [[0.5] * 8]]),
    "weights-bool": _cert_text(weights=[[[True] * 3] * 8, [[0.5] * 8]]),
    "v1-base64": _cert_text(weights=[_W0, _W1]),
    "v2-sizes-mismatch": _cert_text(version=2, layer_sizes=[3, 9, 1]),
    "v2-not-base64": _cert_text(version=2, weights=[_W0[:128] + "!" + _W0[128:], _W1]),
    "v2-no-padding": _cert_text(version=2, biases=[_B0.rstrip("="), _B1]),
    "v2-byte-count": _cert_text(version=2, weights=[_base64(np.zeros(23)), _W1]),
    "v2-list": _cert_text(version=2, weights=[[[0.5] * 3] * 8, _W1]),
    "v2-one-string": _cert_text(version=2, biases=_B0),
    "v2-extra-layer": _cert_text(version=2, weights=[_W0, _W1, _W1]),
    "v2-nan": _cert_text(version=2, biases=[_base64(np.full(8, np.nan)), _B1]),
    "v2-inf": _cert_text(version=2, weights=[_W0, _base64(np.full((1, 8), -np.inf))]),
}


@pytest.mark.parametrize("command", ["verify", "simulate", "levelset"])
def test_format_versions_1_and_2_give_byte_identical_outputs(tmp_path, command):
    # a certificate that records no filter runs under the run file's, as
    # one that records the run file's filter does
    outputs = []
    for name, text in [("v1", _cert_text(version=1)), ("v2", _cert_text(version=2)),
                       ("v2-filter", _cert_text(version=2, filter=DEFAULT_SPEC))]:
        cert_path = tmp_path / f"cert_{name}.json"
        cert_path.write_text(text)
        out = tmp_path / f"out_{name}"
        extra = ["--emit-scores"] if command == "verify" else []
        assert main([command, "--config", str(tiny_dubins_config(tmp_path)), "--cert",
                     str(cert_path), "--out", str(out), *extra]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) > 1 and outputs[0] == outputs[1] == outputs[2]
    if command == "verify":
        assert json.loads(outputs[0]["report.json"])["filter"] == DEFAULT_SPEC


@pytest.mark.parametrize("command", ["verify", "simulate", "levelset"])
@pytest.mark.parametrize("recorded, overrides", [
    (DEFAULT_SPEC, {"kappa_gain": 3.0}),
    (DEFAULT_SPEC, {"respect_input_bounds_training": True}),
    ({**DEFAULT_SPEC, "kappa_gain": 3.0}, {}),
    # a malformed record fails the comparison
    ({**DEFAULT_SPEC, "kappa_gain": "1.0"}, {}),
    ({"kappa_gain": 1.0, "respect_input_bounds": False}, {}),
    ({**DEFAULT_SPEC, "eta": None}, {}),
    ("x", {}),
], ids=["kappa", "bounds", "recorded-kappa", "recorded-text", "recorded-two-keys",
        "recorded-extra-key", "recorded-string"])
def test_certificate_of_another_filter_exits_1_before_outputs(tmp_path, capsys, command,
                                                              recorded, overrides):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(_cert_text(version=2, filter=recorded))
    config = tiny_dubins_config(tmp_path, **overrides)
    out = tmp_path / "x"
    assert main([command, "--config", str(config), "--cert", str(cert_path),
                 "--out", str(out)]) == 1
    assert not out.exists()
    described = {**DEFAULT_SPEC, **{k.removesuffix("_training"): v
                                    for k, v in overrides.items()}}
    assert capsys.readouterr().err == (f"error: certificate: certified under filter "
                                       f"{recorded}; the run file describes {described}\n")


@pytest.mark.parametrize("command", ["verify", "simulate", "levelset"])
@pytest.mark.parametrize("text", list(_MALFORMED_CERTIFICATES.values()),
                         ids=list(_MALFORMED_CERTIFICATES))
def test_malformed_certificate_exits_1_before_outputs(tmp_path, capsys, command, text):
    cert_path = tmp_path / "cert.json"
    cert_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    config = tiny_dubins_config(tmp_path)
    out = tmp_path / "x"
    assert main([command, "--config", str(config), "--cert", str(cert_path),
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable certificate: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command, flag", [
    ("train", "--config"), *[(command, flag) for command in ("verify", "simulate", "levelset")
                             for flag in ("--config", "--cert")]])
def test_directory_for_an_input_file_exits_1_before_outputs(tmp_path, capsys, command,
                                                            flag):
    from cbfcert import mlp

    paths = {"--config": str(tiny_dubins_config(tmp_path)),
             "--cert": str(tmp_path / "cert.json")}
    mlp.save_certificate(mlp.init_certificate([3, 8, 1], seed=1), paths["--cert"])
    paths[flag] = str(tmp_path)
    argv = [command, "--config", paths["--config"], "--out", str(tmp_path / "x")]
    if command != "train":
        argv += ["--cert", paths["--cert"]]
    assert main(argv) == 1
    assert not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{tmp_path}: Is a directory" in err


@pytest.mark.parametrize("command", ["train", "verify", "simulate", "levelset"])
def test_unreadable_config_exits_1_before_outputs(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{")
    argv = [command, "--config", str(config), "--out", str(tmp_path / "x")]
    if command != "train":
        argv += ["--cert", str(tmp_path / "cert.json")]
    assert main(argv) == 1
    assert not (tmp_path / "x").exists()
    assert capsys.readouterr().err.startswith("error: config: invalid JSON: ")
