"""Pipeline driver: config validation, command plumbing, determinism,
exit-code contract."""

import fnmatch
import json
import math
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from miscuq import misc
from miscuq.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_ORACLE,
    ConfigError,
    cmd_build,
    cmd_calibrate,
    cmd_forward,
    cmd_report,
    load_config,
    main,
)
from miscuq.oracle import ExternalProcessModel

BASE_CONFIG = {
    "seed": 77,
    "output_dir": "out",
    "oracle": {"builtin": "beam-analog"},
    "parameters": [
        {"name": "activation_temperature", "distribution": "uniform", "lo": 1130.0, "hi": 1450.0},
        {"name": "log_powder_convection", "distribution": "uniform", "lo": -5.0, "hi": 0.0},
    ],
    "calibration": {
        "qois": ["u_1", "u_2", "u_3", "e_40", "e_80"],
        "observations": "obs.csv",
        "n_starts": 6,
        "budget": {"max_work": 60.0},
    },
    "forward": {
        "qois": {"prefix": "e_", "start": 1, "count": 8},
        "samples": 400,
        "budget": {"max_work": 10.0},
        "densities": ["e_1"],
    },
}


NULL = object()  # an override value written as a YAML null; None removes the key

# the smallest artifacts `report` reads without error
REPORT_INPUTS = {
    "build_report.json": {"work_spent": 1.0, "evaluations_total": 5,
                          "surrogate_points_by_fidelity": {"1": 1}},
    "posterior.json": {"parameters": ["a", "b"], "mean": [0.0, 0.0],
                       "covariance": [1.0, 0.0, 0.0, 1.0], "sigma_meas": 1.0},
    "reduction.json": {"reduction_percent": 50.0, "prior_extrapolated_fraction": 0.0,
                       "posterior_extrapolated_fraction": 0.0},
}


def write_config(tmp_path, overrides=None, name="cfg.yaml"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["output_dir"] = str(tmp_path / "out")
    for dotted, value in (overrides or {}).items():
        node = doc
        *parents, last = dotted.split(".")
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if value is None:
            node.pop(last, None)
        else:
            node[last] = None if value is NULL else value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def make_observations(cfg, v_star=(1386.0, -0.15)):
    surrogate = misc.deserialize(cfg.out_dir / "surrogate.json")
    values = surrogate.evaluate(np.asarray(v_star))
    lines = ["qoi,value"]
    lines += [f"{n},{repr(float(v))}" for n, v in zip(surrogate.qoi_names, values)]
    cfg.observations.write_text("\n".join(lines) + "\n")


def run_pipeline(cfg):
    build = cmd_build(cfg)
    make_observations(cfg)
    cal = cmd_calibrate(cfg)
    fwd = cmd_forward(cfg)
    rep = cmd_report(cfg)
    return build, cal, fwd, rep


def assert_config_exit(caplog, argv, needle=""):
    """``main(argv)`` exits 2 with one ERROR record, holding ``needle``, and
    logs no traceback."""
    caplog.clear()
    assert main(argv) == EXIT_CONFIG
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and needle in errors[0], errors
    assert all(r.exc_info is None for r in caplog.records)


class TestConfigLoading:
    def test_happy_path(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.space.dim == 2
        assert cfg.forward_qois == tuple(f"e_{j}" for j in range(1, 9))
        assert len(cfg.config_hash) == 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.yaml")

    def test_missing_key(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, {"seed": None}))

    def test_unknown_distribution(self, tmp_path):
        path = write_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["parameters"][0]["distribution"] = "triangular"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="triangular"):
            load_config(path)

    def test_bad_budget_key(self, tmp_path):
        with pytest.raises(ConfigError, match="max_wrk"):
            load_config(write_config(tmp_path, {"calibration.budget": {"max_wrk": 5}}))

    def test_density_outside_forward_qois(self, tmp_path):
        with pytest.raises(ConfigError, match="e_99"):
            load_config(write_config(tmp_path, {"forward.densities": ["e_99"]}))

    def test_overrides_change_hash(self, tmp_path):
        path = write_config(tmp_path)
        a = load_config(path)
        b = load_config(path, seed=1234)
        assert a.config_hash != b.config_hash
        assert b.seed == 1234

    def test_oracle_must_be_builtin_or_command(self, tmp_path):
        with pytest.raises(ConfigError, match="builtin"):
            load_config(write_config(tmp_path, {"oracle": {"lanes": 2}}))

    @pytest.mark.parametrize("key, value", [
        ("seed", "abc"),
        ("forward.samples", "many"),
        ("forward.bandwidth", "wide"),
        ("forward.qois", {"prefix": "e_", "count": "eight"}),
        ("calibration.n_starts", "six"),
        ("calibration.budget", {"max_work": "lots"}),
        ("oracle", {"builtin": "beam-analog", "lanes": "two"}),
        ("calibration.n_starts", 0),
        ("calibration.n_starts", -3),
        ("parameters.0.lo", [1130.0]),
        ("oracle", {"builtin": "beam-analog", "lanes": 0}),
        ("calibration.budget", 5),
        ("calibration.budget", {"max_work": -5.0}),
        ("calibration.budget", {"max_work": float("nan")}),
        ("calibration.budget", {"max_candidates": 0}),
        ("calibration.budget", {"profit_floor": -1e-3}),
        ("forward.budget", {"max_work": -5.0}),
        ("forward.budget", {"max_candidates": 0}),
        ("forward.budget", {"profit_floor": -1e-3}),
        ("forward.bandwidth", 0.0),
        ("forward.bandwidth", -1.0),
        ("seed", -1),
        ("oracle", "beam-analog"),
        ("forward.qois", []),
        ("calibration.qois", []),
        ("forward.qois", {"prefix": "e_", "count": 0}),
        ("calibration.qois", {"prefix": "u_", "count": -2}),
        ("calibration", 5),
        ("forward", 5),
        ("parameters", 5),
        ("parameters", [5]),
        ("forward.densities", 5),
        ("parameters.0.hi", float("inf")),
        ("parameters.0.lo", float("-inf")),
        ("seed", 1.5),
        ("calibration.n_starts", 2.7),
        ("forward.samples", 400.5),
        ("oracle", {"builtin": "beam-analog", "lanes": 1.5}),
        ("forward.qois", {"prefix": "e_", "count": 8.5}),
        ("calibration.budget", {"max_candidates": 2.5}),
        ("seed", float("inf")),
        ("forward.bandwidth", float("inf")),
        ("oracle", {"builtin": "no-such-model"}),
        ("forward.qois", {"prefix": "e_", "count": 121}),
        ("calibration.qois", ["u_1", "zz_9"]),
        ("output_dir", NULL),
        ("parameters.0.name", NULL),
        ("calibration.observations", NULL),
        ("calibration.n_start", 5),
        ("forward.sample", 100),
        ("oracle", {"builtin": "beam-analog", "lane": 4}),
        ("parameters.0.high", 1450.0),
        ("seeds", 5),
        ("oracle", {"builtin": "beam-analog", "fidelities": [{"alpha": 1, "cost_weight": 1.0}]}),
        ("seed", True),
        ("calibration.n_starts", True),
        ("oracle", {"builtin": "beam-analog", "lanes": True}),
        ("output_dir", [1]),
        ("parameters.0.name", False),
    ])
    def test_bad_scalar_is_config_error(self, tmp_path, caplog, key, value):
        path = write_config(tmp_path, {key: value})
        with pytest.raises(ConfigError, match=key.split(".")[0]):
            load_config(path)
        for stage in ("build", "calibrate", "forward", "report"):
            assert_config_exit(caplog, [stage, "--config", str(path), "--quiet"])

    @pytest.mark.parametrize("qois", [[], {"prefix": "e_", "count": 0}])
    def test_empty_forward_qois_is_config_error(self, tmp_path, qois):
        # no densities: listing one would fail against the empty QoI list
        path = write_config(tmp_path, {"forward.qois": qois, "forward.densities": None})
        with pytest.raises(ConfigError, match="forward.qois"):
            load_config(path)


class TestBuild:
    def test_artifacts_and_bookkeeping(self, tmp_path):
        from miscuq.oracle import EvalCache

        cfg = load_config(write_config(tmp_path))
        cmd_build(cfg)
        report = json.loads((cfg.out_dir / "build_report.json").read_text())
        assert report["config_hash"] == cfg.config_hash
        assert (cfg.out_dir / "surrogate.json").exists()
        assert sum(report["evaluations_by_fidelity"].values()) == report["evaluations_total"]
        # on a fresh run the reported evaluations are exactly the cache content
        cache = EvalCache(cfg.out_dir / "cache.jsonl")
        assert report["evaluations_by_fidelity"] == {
            str(a): len(points) * len(cfg.calibration_qois)
            for a, points in sorted(cache.points_by_alpha().items())}
        assert report["evaluations_total"] == len(cache)
        surrogate = misc.deserialize(cfg.out_dir / "surrogate.json")
        assert surrogate.config_hash == cfg.config_hash

    def test_zero_budget_gives_minimal_set(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"calibration.budget": {"max_work": 0.0}}))
        cmd_build(cfg)
        report = json.loads((cfg.out_dir / "build_report.json").read_text())
        assert report["index_set"] == [{"alpha": 1, "beta": [1, 1], "coeff": 1}]

    def test_torn_cache_tail_is_repaired(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        first = cmd_build(cfg)
        cache = cfg.out_dir / "cache.jsonl"
        cache.write_bytes(cache.read_bytes()[:-40])
        assert cmd_build(cfg)["report"] == first["report"]
        rerun = cmd_build(cfg)
        assert rerun["backend_points"] == {}
        assert rerun["report"] == first["report"]

    def test_rerun_hits_cache(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        first = cmd_build(cfg)
        assert first["backend_points"]
        second = cmd_build(cfg)
        assert second["backend_points"] == {}
        assert second["report"] == first["report"]


class TestCalibrateAndForward:
    def test_full_pipeline_artifacts(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        _, cal, fwd, rep = run_pipeline(cfg)
        posterior = cal["posterior"]
        assert np.abs(posterior.mean - [1386.0, -0.15]).max() < 5.0
        assert fwd["reduction"] > 0.0
        for name in ("posterior.json", "calibration_table.csv", "bands_prior.csv",
                     "bands_posterior.csv", "reduction.json", "report.txt",
                     "report_summary.csv", "densities/e_1_prior.csv",
                     "densities/e_1_posterior.csv"):
            assert (cfg.out_dir / name).exists(), name

    def test_outputs_carry_config_hash(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run_pipeline(cfg)
        for name in ("bands_prior.csv", "calibration_table.csv", "report_summary.csv"):
            assert cfg.config_hash in (cfg.out_dir / name).read_text().splitlines()[0]
        for name in ("posterior.json", "reduction.json", "build_report.json"):
            assert json.loads((cfg.out_dir / name).read_text())["config_hash"] == cfg.config_hash

    def test_calibration_table_shape(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        cmd_build(cfg)
        make_observations(cfg)
        cmd_calibrate(cfg)
        rows = [line.split(",") for line in
                (cfg.out_dir / "calibration_table.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        assert rows[0] == ["stage", "parameter", "mean", "std", "cov",
                           "interval_lo", "interval_hi"]
        prior = [r for r in rows[1:] if r[0] == "prior"]
        post = [r for r in rows[1:] if r[0] == "posterior"]
        assert len(prior) == 2 and len(post) == 2
        # uniform prior row: mean, std, CoV, interval
        mean, std, cov = float(prior[0][2]), float(prior[0][3]), float(prior[0][4])
        assert mean == 1290.0
        assert std == pytest.approx(320.0 / np.sqrt(12.0))
        assert cov == pytest.approx(std / mean)
        assert [float(prior[0][5]), float(prior[0][6])] == [1130.0, 1450.0]
        # posterior interval is mean +/- 3 std
        pm, ps = float(post[0][2]), float(post[0][3])
        assert float(post[0][5]) == pytest.approx(pm - 3 * ps)
        assert float(post[0][6]) == pytest.approx(pm + 3 * ps)

    def test_calibrate_without_surrogate_fails(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        cfg.observations.write_text("qoi,value\nu_1,0.1\n")
        with pytest.raises(ConfigError, match="build"):
            cmd_calibrate(cfg)

    def test_unknown_observation_qoi_fails(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        cmd_build(cfg)
        cfg.observations.write_text("qoi,value\nnope,1.0\n")
        with pytest.raises(ConfigError, match="nope"):
            cmd_calibrate(cfg)

    @pytest.mark.parametrize("row, match", [("u_1", "no value column"),
                                            ("u_1,nan", "non-finite")],
                             ids=["no_value", "nan"])
    def test_bad_observation_row_exits_with_config_code(self, tmp_path, caplog, row, match):
        path = write_config(tmp_path)
        cfg = load_config(path)
        cmd_build(cfg)
        cfg.observations.write_text(f"qoi,value\nu_2,0.1\n{row}\n")
        assert main(["calibrate", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        assert match in caplog.text
        assert not (cfg.out_dir / "posterior.json").exists()

    def test_forward_without_posterior_fails(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="calibrate"):
            cmd_forward(cfg)

    def test_report_on_empty_dir_fails(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="missing artifacts"):
            cmd_report(cfg)

    def test_forward_estimates_each_band_column_once(self, tmp_path, monkeypatch):
        from miscuq import forward

        cfg = load_config(write_config(tmp_path, {"forward.densities": ["e_1", "e_5"]}))
        cmd_build(cfg)
        make_observations(cfg)
        cmd_calibrate(cfg)
        calls = []
        original = forward.kde
        monkeypatch.setattr(forward, "kde", lambda *a, **k: calls.append(1) or original(*a, **k))
        cmd_forward(cfg)
        assert len(calls) == 2 * len(cfg.forward_qois)  # prior and posterior bands
        for name in ("e_1_prior", "e_1_posterior", "e_5_prior", "e_5_posterior"):
            assert (cfg.out_dir / "densities" / f"{name}.csv").exists()

    def test_band_rows_cover_all_prediction_qois(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run_pipeline(cfg)
        rows = [line for line in (cfg.out_dir / "bands_posterior.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        assert len(rows) == 1 + 8


class TestDeterminism:
    def test_rerun_is_byte_identical_with_zero_backend_calls(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run_pipeline(cfg)
        snapshot = {p.relative_to(cfg.out_dir): p.read_bytes()
                    for p in sorted(cfg.out_dir.rglob("*")) if p.is_file()}
        build2 = cmd_build(cfg)
        cal2 = cmd_calibrate(cfg)
        fwd2 = cmd_forward(cfg)
        cmd_report(cfg)
        assert build2["backend_points"] == {}
        assert fwd2["backend_points"] == {}
        after = {p.relative_to(cfg.out_dir): p.read_bytes()
                 for p in sorted(cfg.out_dir.rglob("*")) if p.is_file()}
        assert snapshot.keys() == after.keys()
        for name in snapshot:
            assert snapshot[name] == after[name], name


class TestExternalOracleConfig:
    def test_external_echo_pipeline_builds(self, tmp_path):
        script = tmp_path / "echo_oracle.py"
        script.write_text(textwrap.dedent("""\
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                x = req["params"][0] + 0.1 * req["params"][1] * req["fidelity"]
                print(json.dumps({"id": req["id"],
                                  "values": [x * (i + 1) for i in range(len(req["qois"]))]}),
                      flush=True)
        """))
        overrides = {
            "oracle": {
                "command": f"{sys.executable} {script}",
                "lanes": 2,
                "fidelities": [{"alpha": 1, "cost_weight": 1.0},
                               {"alpha": 2, "cost_weight": 4.0}],
            },
            "calibration.qois": ["q_a", "q_b"],
        }
        cfg = load_config(write_config(tmp_path, overrides))
        result = cmd_build(cfg)
        assert result["backend_points"][1] > 0
        surrogate = misc.deserialize(cfg.out_dir / "surrogate.json")
        v = np.array([1200.0, -2.0])
        out = surrogate.evaluate(v)
        assert out[1] == pytest.approx(2.0 * out[0], rel=1e-9)

    def test_load_starts_no_process(self, tmp_path):
        oracle = {"command": f"{sys.executable} -c pass", "lanes": 2,
                  "fidelities": [{"alpha": 1, "cost_weight": 1.0}]}
        cfg = load_config(write_config(tmp_path, {"oracle": oracle}))
        assert isinstance(cfg.backend, ExternalProcessModel)
        assert cfg.backend._lanes == []


class TestMainExitCodes:
    def test_success(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["build", "--config", str(path), "--quiet"]) == EXIT_OK

    def test_config_error(self, tmp_path):
        assert main(["build", "--config", str(tmp_path / "nope.yaml"), "--quiet"]) == EXIT_CONFIG

    def test_oracle_error(self, tmp_path):
        overrides = {
            "oracle": {
                "command": f"{sys.executable} -c 'import sys; sys.exit(9)'",
                "fidelities": [{"alpha": 1, "cost_weight": 1.0}],
            },
        }
        path = write_config(tmp_path, overrides)
        assert main(["build", "--config", str(path), "--quiet"]) == EXIT_ORACLE

    def test_numerical_error_on_degenerate_prior_bands(self, tmp_path):
        # zero forward budget -> constant prediction surrogate -> zero-width
        # prior bands -> the reduction metric cannot be formed
        path = write_config(tmp_path, {"forward.budget": {"max_work": 0.0}})
        cfg = load_config(path)
        cmd_build(cfg)
        make_observations(cfg)
        cmd_calibrate(cfg)
        assert main(["forward", "--config", str(path), "--quiet"]) == EXIT_NUMERICAL

    @pytest.mark.parametrize("setting", [
        {"timeout": "abc"},
        {"domain": [{"lo": "a", "hi": 1.0}, {"lo": 0.0, "hi": 1.0}]},
        {"timeout": -1},
        {"timeout": 0},
        {"timeout": float("nan")},
        {"timeout": float("inf")},
        {"fidelities": [{"alpha": 1.5, "cost_weight": 1.0}]},
        {"fidelities": [{"alpha": 1, "cost_weight": 4.0}, {"alpha": 2, "cost_weight": 1.0}]},
        {"command": ""},
        {"command": 'python "x'},
        {"fidelities": [{"alpha": 1, "cost_weight": float("inf")}]},
        {"fidelities": [{"alpha": 1, "cost_weight": 1.0}, {"alpha": 1, "cost_weight": 4.0}]},
        {"builtin": "beam-analog"},
        {"domain": [{"lo": 810.0, "hi": 1770.0}]},
        {"domain": [{"lo": 1770.0, "hi": 810.0}, {"lo": -10.0, "hi": 5.0}]},
        {"domain": [{"lo": float("nan"), "hi": 1770.0}, {"lo": -10.0, "hi": 5.0}]},
        {"workdir": None},
        {"command": None},
        {"timeout": True},
        {"command": ["python3", "sim.py"]},
        {"lane": 4},
        {"fidelities": [{"alpha": 1, "cost_weight": 1.0, "cost": 2.0}]},
        {"domain": [{"lo": 810.0, "hi": 1770.0, "mid": 0.0}, {"lo": -10.0, "hi": 5.0}]},
    ])
    def test_bad_external_oracle_setting_exits_with_config_code(self, tmp_path, caplog,
                                                                setting):
        oracle = {"command": f"{sys.executable} -c 'pass'",
                  "fidelities": [{"alpha": 1, "cost_weight": 1.0}], **setting}
        path = write_config(tmp_path, {"oracle": oracle})
        assert_config_exit(caplog, ["build", "--config", str(path), "--quiet"], "oracle")

    @pytest.mark.parametrize("key, value", [("calibration.qois", ["u_1", None]),
                                            ("forward.qois", {"prefix": None, "count": 2})])
    def test_null_qoi_name_exits_with_config_code(self, tmp_path, caplog, key, value):
        # an external oracle declares no QoI names, so no name check catches a null
        oracle = {"command": f"{sys.executable} -c 'pass'",
                  "fidelities": [{"alpha": 1, "cost_weight": 1.0}]}
        path = write_config(tmp_path, {"oracle": oracle, key: value, "forward.densities": None})
        assert_config_exit(caplog, ["build", "--config", str(path), "--quiet"], key)

    @pytest.mark.parametrize("stage, key", [("calibrate", "calibration.observations"),
                                            ("build", "output_dir"), ("forward", None)],
                             ids=["observations_is_a_directory", "output_dir_is_a_file",
                                  "densities_is_a_file"])
    def test_unusable_path_exits_with_config_code(self, tmp_path, caplog, stage, key):
        taken = tmp_path / "taken"
        if stage == "calibrate":
            cmd_build(load_config(write_config(tmp_path)))
            taken.mkdir()
        elif stage == "forward":
            cfg = load_config(write_config(tmp_path))
            cmd_build(cfg)
            make_observations(cfg)
            cmd_calibrate(cfg)
            taken = cfg.out_dir / "densities"
            taken.write_text("")
        else:
            taken.write_text("")
        path = write_config(tmp_path, {key: str(taken)} if key else None)
        assert_config_exit(caplog, [stage, "--config", str(path), "--quiet"], str(taken))

    @pytest.mark.parametrize("stage, name, text", [
        ("report", "build_report.json", "{not json"),
        ("report", "reduction.json", json.dumps({"prior_extrapolated_fraction": 0.0,
                                                 "posterior_extrapolated_fraction": 0.0})),
        ("forward", "posterior.json", "[1, 2]"),
        ("report", "posterior.json", "[1, 2]"),
        ("report", "reduction.json", json.dumps(["reduction_percent", "prior_extrapolated_fraction",
                                                 "posterior_extrapolated_fraction"])),
        ("report", "posterior.json", json.dumps({"parameters": ["a", "b"], "mean": "abc",
                                                 "covariance": [1.0], "sigma_meas": 1.0})),
        ("report", "posterior.json", json.dumps({"parameters": ["a", "b"], "mean": [0.0, 0.0],
                                                 "covariance": [1.0], "sigma_meas": 1.0})),
        ("report", "posterior.json", json.dumps({"parameters": ["a"], "mean": [[0.0]],
                                                 "covariance": [1.0], "sigma_meas": 1.0})),
        ("report", "posterior.json", json.dumps({"parameters": "ab", "mean": [0.0, 0.0],
                                                 "covariance": [1.0, 0.0, 0.0, 1.0],
                                                 "sigma_meas": 1.0})),
        ("report", "build_report.json", json.dumps({"work_spent": 1.0, "evaluations_total": 5,
                                                    "surrogate_points_by_fidelity": []})),
    ], ids=["build_report_not_json", "reduction_lacks_key", "forward_posterior_list",
            "report_posterior_list", "reduction_list_of_keys", "posterior_mean_not_numbers",
            "posterior_covariance_too_short", "posterior_mean_nested", "parameters_not_a_list",
            "points_by_fidelity_not_a_mapping"])
    def test_malformed_stage_artifact_exits_with_config_code(self, tmp_path, caplog,
                                                             stage, name, text):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        for artifact, doc in REPORT_INPUTS.items():
            (out / artifact).write_text(json.dumps(doc))
        assert main(["report", "--config", str(path), "--quiet"]) == EXIT_OK
        (out / name).write_text(text)
        assert_config_exit(caplog, [stage, "--config", str(path), "--quiet"], name)

    def test_negative_budget_exits_with_config_code(self, tmp_path):
        path = write_config(tmp_path, {"calibration.budget": {"max_work": -5.0}})
        assert main(["build", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_non_numeric_seed_exits_with_config_code(self, tmp_path):
        path = write_config(tmp_path, {"seed": "abc"})
        assert main(["build", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_negative_seed_override_exits_with_config_code(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["build", "--config", str(path), "--seed", "-1", "--quiet"]) == EXIT_CONFIG

    def test_surrogate_qoi_width_mismatch_exits_with_numerical_code(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        cmd_build(cfg)
        make_observations(cfg)
        surrogate_path = cfg.out_dir / "surrogate.json"
        doc = json.loads(surrogate_path.read_text())
        doc["qois"].append("e_120")
        surrogate_path.write_text(json.dumps(doc))
        assert main(["calibrate", "--config", str(path), "--quiet"]) == EXIT_NUMERICAL

    def test_module_entry_point(self, tmp_path):
        import subprocess
        path = write_config(tmp_path)
        proc = subprocess.run([sys.executable, "-m", "miscuq", "build",
                               "--config", str(path), "--quiet"],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr


def test_cli_import_leaves_scipy_unloaded():
    # every stage process pays the CLI's imports; scipy loads only where used
    import subprocess
    code = "import sys, miscuq.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


def test_bare_package_import_loads_no_numpy():
    # the package re-exports nothing, so importing it loads none of its modules
    import subprocess
    code = ("import sys, miscuq\n"
            "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'\n"
            "                or m.startswith('miscuq.')) or None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_stage_processes_leave_scipy_unloaded(tmp_path):
    # no stage loads scipy; the test suite alone uses it, as a reference
    import subprocess
    path = write_config(tmp_path)
    code = ("import sys\nfrom miscuq.cli import main\nrc = main(sys.argv[1:])\n"
            "print('scipy' in sys.modules)\nsys.exit(rc)")
    for stage in ("build", "calibrate", "forward", "report"):
        if stage == "calibrate":
            make_observations(load_config(path))
        proc = subprocess.run([sys.executable, "-c", code, stage, "--config", str(path),
                               "--quiet"], capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "False", f"{stage} imported scipy"


DEMO_CONFIG = Path(__file__).resolve().parent.parent / "docs" / "demo_config.yaml"
EXTERNAL_ORACLE = {
    "command": "python3 sim.py", "workdir": "sim", "lanes": 2, "timeout": 60.0,
    "fidelities": [{"alpha": 1, "cost_weight": 1.0}, {"alpha": 2, "cost_weight": 36.0}],
    "domain": [{"lo": 810.0, "hi": 1770.0}, {"lo": -10.0, "hi": 5.0}],
}
DROP = object()  # a mutation that removes the key or list item
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # libyaml's, where present, is faster


def nodes(node, path=()):
    """(path, value) of every key and list item below ``node``, parents first."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from nodes(value, path + (key,))


def mutations(value):
    """(name, replacement) of each malformation that fits ``value``."""
    yield "drop", DROP
    yield "null", None
    if isinstance(value, (int, float)):
        yield from [("text", "abc"), ("bool", True), ("list", [value]), ("nan", math.nan),
                    ("inf", math.inf), ("-inf", -math.inf), ("negative", -abs(value) - 1),
                    ("non_integral", value + 0.5)]
    elif isinstance(value, str):
        yield from [("bool", False), ("list", [value]), ("mapping", {value: 1})]
    elif isinstance(value, list):
        yield from [("scalar", "x"), ("mapping", {"x": 1}), ("empty", [])]
    else:
        yield "unknown_key", {**value, "bogus": 1}


def sweep_cases():
    """(id, top-level key it touches, mutated config) over every node of the
    demo config and of an external oracle section, plus an unknown top-level key."""
    demo = yaml.safe_load(DEMO_CONFIG.read_text(encoding="utf-8"))
    external = {**demo, "oracle": EXTERNAL_ORACLE}
    yield "unknown_key", "bogus", {**demo, "bogus": 1}
    for tag, base, root in (("", demo, demo), ("external:", external, {"oracle": EXTERNAL_ORACLE})):
        for path, value in nodes(root):
            for name, new in mutations(value):
                doc = json.loads(json.dumps(base))
                node = doc
                for key in path[:-1]:
                    node = node[key]
                if new is DROP:
                    del node[path[-1]]
                else:
                    node[path[-1]] = new
                yield f"{tag}{'.'.join(map(str, path))}-{name}", path[0], doc


# the only mutations that still load: dropping an optional key or list
# item, a number that stays in range, and anything in the unread `transform`
SWEEP_LOADS = [
    "oracle.lanes-drop", "calibration.qois.*-drop", "calibration.observations-drop",
    "calibration.n_starts-drop", "calibration.budget-drop", "calibration.budget.max_work-drop",
    "forward.qois.start-drop", "forward.samples-drop", "forward.budget-drop",
    "forward.budget.max_work-drop", "forward.densities-drop", "forward.densities.*-drop",
    "forward.densities-empty", "parameters.1.transform-*",
    "parameters.0.lo-negative", "parameters.1.lo-negative", "parameters.1.hi-negative",
    "parameters.*.*-non_integral", "*.budget.max_work-non_integral",
    "external:oracle.lanes-drop", "external:oracle.workdir-drop", "external:oracle.timeout-drop",
    "external:oracle.domain-drop", "external:oracle.timeout-non_integral",
    # a table without level 1 loads; the build then exits 3
    "external:oracle.fidelities.[01]-drop",
    "external:oracle.fidelities.*.cost_weight-non_integral",
    "external:oracle.domain.*.*-non_integral", "external:oracle.domain.*.lo-negative",
    "external:oracle.domain.1.hi-negative",
]


def test_malformed_config_sweep(tmp_path, caplog):
    # each mutation runs `report` on artifacts it can read, so a config that
    # loads exits 0; every other one must exit 2 with one message naming its
    # section and no traceback
    for name, doc in REPORT_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    path = tmp_path / "cfg.yaml"
    wrong = []
    for case, section, doc in sweep_cases():
        if doc.get("output_dir") == "demo_out":
            doc["output_dir"] = str(tmp_path)
        path.write_text(yaml.dump(doc, Dumper=DUMPER))
        caplog.clear()
        code = main(["report", "--config", str(path), "--quiet"])
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        if any(fnmatch.fnmatchcase(case, pattern) for pattern in SWEEP_LOADS):
            fine = code == EXIT_OK
        else:
            fine = (code == EXIT_CONFIG and len(errors) == 1 and section in errors[0]
                    and all(r.exc_info is None for r in caplog.records))
        if not fine:
            wrong.append((case, code, errors))
    assert not wrong, wrong


class TornFile:
    """A file whose first write stores half the text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


class TestAtomicArtifacts:
    # (stage, artifact whose write fails), covering every artifact writer
    TEARS = [
        (cmd_build, "surrogate.json"),
        (cmd_build, "build_report.json"),
        (cmd_calibrate, "posterior.json"),
        (cmd_calibrate, "calibration_table.csv"),
        (cmd_forward, "surrogate_forward_prior.json"),
        (cmd_forward, "bands_prior.csv"),
        (cmd_forward, "reduction.json"),
        (cmd_forward, "e_1_posterior.csv"),
        (cmd_report, "report.txt"),
        (cmd_report, "report_summary.csv"),
    ]

    def test_failed_rewrite_keeps_previous_artifacts(self, tmp_path, monkeypatch):
        from miscuq import artifacts
        cfg = load_config(write_config(tmp_path))
        run_pipeline(cfg)
        snapshot = {p.relative_to(cfg.out_dir): p.read_bytes()
                    for p in sorted(cfg.out_dir.rglob("*")) if p.is_file()}
        for stage, name in self.TEARS:
            def torn_open(file, *args, _name=name, **kwargs):
                fh = open(file, *args, **kwargs)
                return TornFile(fh) if file.name.startswith(f".{_name}.") else fh

            monkeypatch.setattr(artifacts, "open", torn_open, raising=False)
            with pytest.raises(OSError, match="No space left"):
                stage(cfg)
            monkeypatch.undo()
            after = {p.relative_to(cfg.out_dir): p.read_bytes()
                     for p in sorted(cfg.out_dir.rglob("*")) if p.is_file()}
            assert after.keys() == snapshot.keys(), name
            for rel in snapshot:
                assert after[rel] == snapshot[rel], (name, rel)
