"""Pipeline driver: config validation, command plumbing, determinism,
exit-code contract."""

import datetime
import fnmatch
import gc
import json
import math
import os
import re
import shlex
import shutil
import sys
import textwrap
import tracemalloc
import weakref
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from miscuq import artifacts, bayes, cli, forward, interp, misc, oracle
from miscuq.cli import (
    _STAGES,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_ORACLE,
    ConfigError,
    _posterior_from_json,
    _stage_seed,
    _UniqueKeyLoader,
    _warn_unheld_observations,
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
        "budget": {"max_work": 45.0},
        "densities": ["e_1"],
    },
}


# libyaml's emitter where present, which is faster; it quotes each string
# the config loader would read as another type, such as 1e3
DUMPER = type("Dumper", (getattr(yaml, "CSafeDumper", yaml.SafeDumper),),
              {"yaml_implicit_resolvers": _UniqueKeyLoader.yaml_implicit_resolvers})
NULL = object()  # an override value written as a YAML null; None removes the key
DEEP = "[" * 100_000 + "]" * 100_000  # nested beyond the recursion limit, in JSON and YAML

# the smallest observations file that `calibrate` and `forward` read without error
ONE_OBSERVATION = "qoi,value\nu_1,1.0\n"
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
    path.write_text(yaml.dump(doc, Dumper=DUMPER))
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


def assert_exit(caplog, argv, code, *needles):
    """``main(argv)`` exits ``code`` with one ERROR record, holding each of
    ``needles``, and logs no traceback."""
    caplog.clear()
    assert main(argv) == code
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and all(n in errors[0] for n in needles), errors
    assert all(r.exc_info is None for r in caplog.records)


def assert_config_exit(caplog, argv, *needles):
    assert_exit(caplog, argv, EXIT_CONFIG, *needles)


def throw(exc):
    raise exc


def failing_stage(fail):
    """A ``_STAGES`` function that calls ``fail``, which raises."""
    def stage(cfg):
        """Fail on purpose."""
        fail()
    return stage


STAGES = ("build", "calibrate", "forward", "report")


def snapshot(out):
    """Every file under ``out``, by relative path, with its bytes."""
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class CountingOpen:
    """``open`` for the ``artifacts`` and ``oracle`` modules: it counts the
    opens that write (mode ``w`` or ``a``), and the ``fail_at``-th one raises."""

    def __init__(self, fail_at=None):
        self.writes = 0
        self.fail_at = fail_at

    def __call__(self, file, mode="r", *args, **kwargs):
        if mode[0] in "wa":
            self.writes += 1
            if self.writes == self.fail_at:
                raise OSError(28, "No space left on device")
        return open(file, mode, *args, **kwargs)


def counting_writes(mp, fail_at=None):
    """A ``CountingOpen`` patched into ``artifacts`` and ``oracle`` through ``mp``."""
    opener = CountingOpen(fail_at)
    for module in (artifacts, oracle):
        mp.setattr(module, "open", opener, raising=False)
    return opener


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A config whose observations exist before its build (so every file
    carries one hash), and what the four stages leave when run through
    ``main``: the files after each stage (``files[0]`` before the first), the
    final snapshot, and the number of writes."""
    tmp = tmp_path_factory.mktemp("clean_run")
    path = write_config(tmp)
    out = tmp / "out"
    assert main(["build", "--config", str(path), "--quiet"]) == EXIT_OK
    make_observations(load_config(path))
    shutil.rmtree(out)
    files = [set()]
    with pytest.MonkeyPatch.context() as mp:
        opener = counting_writes(mp)
        for stage in STAGES:
            assert main([stage, "--config", str(path), "--quiet"]) == EXIT_OK
            files.append({p.name for p in out.iterdir()})
    return SimpleNamespace(config=path, out=out, files=files, snapshot=snapshot(out),
                           writes=opener.writes)


class TestConfigLoading:
    def test_happy_path(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.space.dim == 2
        assert cfg.forward_qois == tuple(f"e_{j}" for j in range(1, 9))
        assert len(cfg.config_hash) == 16
        unset = load_config(write_config(tmp_path, {"forward.samples": None}, name="unset.yaml"))
        assert unset.forward_samples == 10_000

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

    def test_out_override_keeps_hash(self, tmp_path):
        path = write_config(tmp_path)
        a = load_config(path)
        b = load_config(path, out=tmp_path / "elsewhere")
        assert a.config_hash == b.config_hash
        assert b.out_dir == tmp_path / "elsewhere"

    def test_hash_covers_observation_bytes_not_lanes(self, tmp_path):
        path = write_config(tmp_path)
        before = load_config(path).config_hash
        (tmp_path / "obs.csv").write_text(ONE_OBSERVATION)
        written = load_config(path).config_hash
        (tmp_path / "obs.csv").write_text("qoi,value\nu_1,2.0\n")
        edited = load_config(path).config_hash
        assert len({before, written, edited}) == 3
        lanes = write_config(tmp_path, {"oracle.lanes": 4}, name="lanes.yaml")
        assert load_config(lanes).config_hash == edited

    def test_oracle_must_be_builtin_or_command(self, tmp_path):
        with pytest.raises(ConfigError, match="builtin"):
            load_config(write_config(tmp_path, {"oracle": {"lanes": 2}}))

    @pytest.mark.parametrize("key, bound", [
        ("calibration.n_starts", 10_000), ("forward.samples", 1_000_000),
        ("forward.qois.count", 100_000), ("oracle.lanes", 64)])
    def test_count_bound(self, tmp_path, key, bound):
        # an external oracle declares no QoI names, so a pattern of any count
        # loads; loading starts no lane
        def config(value, name):
            oracle = {"command": f"{sys.executable} -c pass",
                      "fidelities": [{"alpha": 1, "cost_weight": 1.0}]}
            return write_config(tmp_path, {"oracle": oracle, "forward.qois": {
                "prefix": "e_", "count": 8}, key: value}, name=name)

        cfg = load_config(config(bound, "at.yaml"))
        assert {"calibration.n_starts": cfg.n_starts, "forward.samples": cfg.forward_samples,
                "forward.qois.count": len(cfg.forward_qois),
                "oracle.lanes": cfg.backend.n_lanes}[key] == bound
        assert cfg.backend._lanes == []
        with pytest.raises(ConfigError, match=rf"^{key} must be <= {bound}, got {bound + 1}$"):
            load_config(config(bound + 1, "over.yaml"))

    @pytest.mark.parametrize("key", ["calibration.n_starts", "forward.samples"])
    @pytest.mark.parametrize("value", [2**70, 1.0e308, 10**400], ids=["2**70", "1e308", "10**400"])
    def test_huge_count_is_config_error(self, tmp_path, key, value):
        # numpy refuses an array that long; an integer beyond the float range
        # is refused by its bound too, not by an OverflowError
        got = re.escape(str(value))
        with pytest.raises(ConfigError, match=rf"^{key} must be <= \d+, got {got}$"):
            load_config(write_config(tmp_path, {key: value}))

    @pytest.mark.parametrize("line, number, read, value", [
        ("samples: 400", "1e4", lambda cfg: cfg.forward_samples, 10_000),
        ("max_work: 60.0", "4.5e1", lambda cfg: cfg.build_work, 45.0),
        ("lo: 1130.0", "1.13E3", lambda cfg: cfg.space.params[0].distribution.lo, 1130.0),
        ("hi: 1450.0", ".145e+4", lambda cfg: cfg.space.params[0].distribution.hi, 1450.0),
    ], ids=["forward.samples", "calibration.budget.max_work", "parameters.0.lo",
            "parameters.0.hi"])
    def test_number_in_exponent_form_loads(self, tmp_path, line, number, read, value):
        # YAML 1.1 alone reads these plain scalars as text
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(line, f"{line.split(':')[0]}: {number}", 1))
        got = read(load_config(path))
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("key, value, where", [
        ("parameters.0.lo", "1130.0", "parameters[0].lo"),
        ("forward.samples", " 1_000 ", "forward.samples"),
        ("calibration.n_starts", "1e3", "calibration.n_starts")])
    def test_quoted_number_is_config_error(self, tmp_path, caplog, key, value, where):
        # a number is written plain; quoted, it is text
        path = write_config(tmp_path, {key: value})
        assert f"'{value}'" in path.read_text()
        assert_config_exit(caplog, ["report", "--config", str(path), "--quiet"],
                           f"{where}: expected a number, got {value!r}")

    @pytest.mark.parametrize("key, plain, where, read", [
        ("output_dir", "010", "output_dir", 8),
        ("parameters.0.name", "1_000", "parameters[0].name", 1000),
        ("parameters.1.name", "1e3", "parameters[1].name", 1000.0),
        ("calibration.qois", "2", "calibration.qois[0]", 2)])
    def test_plain_number_for_a_name_is_config_error(self, tmp_path, caplog, key, plain, where,
                                                     read):
        # YAML reads each plain scalar as a number, whose text is another name: 010 is 8
        value = "PLAIN" if key != "calibration.qois" else ["PLAIN", "u_2", "u_3"]
        path = write_config(tmp_path, {key: value})
        path.write_text(path.read_text().replace("PLAIN", plain, 1))
        assert_config_exit(caplog, ["report", "--config", str(path), "--quiet"],
                           f"{where}: expected text, got the number {read!r}; quote a name")

    def test_empty_parameter_name_is_config_error(self, tmp_path):
        # each name keys a posterior row of the report: '' would write posterior_mean_
        path = write_config(tmp_path, {"parameters.1.name": ""})
        with pytest.raises(ConfigError, match=r"^parameters\[1\]\.name: expected a non-empty"):
            load_config(path)

    def test_hash_leaves_out_oracle_timeout(self, tmp_path):
        # a timeout decides no number, like the lane count
        def config_hash(**setting):
            oracle = {"command": f"{sys.executable} -c pass",
                      "fidelities": [{"alpha": 1, "cost_weight": 1.0}], **setting}
            return load_config(write_config(tmp_path, {"oracle": oracle})).config_hash

        assert len({config_hash(), config_hash(timeout=30), config_hash(timeout=90),
                    config_hash(lanes=2, timeout=30.0), config_hash(lanes=4)}) == 1
        assert config_hash() != config_hash(command=f"{sys.executable} -c 'pass'")

    @pytest.mark.parametrize("key, value", [
        ("seed", "abc"),
        ("forward.samples", "many"),
        ("forward.samples", 1),
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
        ("calibration.budget", {"max_work": True}),
        ("calibration.budget", {"max_work": float("inf")}),
        ("forward.budget", {"max_work": -5.0}),
        ("forward.budget", {"max_work": "lots"}),
        ("forward.budget", {"max_work": float("nan")}),
        ("forward.samples", float("nan")),
        ("calibration.n_starts", float("inf")),
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
        ("calibration.budget", {"max_work": [60.0]}),
        ("seed", float("inf")),
        ("forward.budget", 5),
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
        ("parameters.1.transform", datetime.date(2026, 1, 1)),
    ])
    def test_bad_scalar_is_config_error(self, tmp_path, caplog, key, value):
        path = write_config(tmp_path, {key: value})
        with pytest.raises(ConfigError, match=key.split(".")[0]):
            load_config(path)
        for stage in ("build", "calibrate", "forward", "report"):
            assert_config_exit(caplog, [stage, "--config", str(path), "--quiet"])

    @pytest.mark.parametrize("section, key, override", [
        ("forward", "bandwidth", {"forward.bandwidth": 0.1}),
        ("calibration.budget", "max_candidates",
         {"calibration.budget": {"max_work": 60.0, "max_candidates": 3}}),
        ("forward.budget", "profit_floor",
         {"forward.budget": {"max_work": 10.0, "profit_floor": 1.0e-6}}),
    ], ids=["forward.bandwidth", "calibration.budget.max_candidates",
            "forward.budget.profit_floor"])
    def test_fixed_setting_is_unknown_key(self, tmp_path, caplog, section, key, override):
        # the KDE bandwidth, the candidate cap and the profit floor are fixed:
        # a valid value of one is an unknown key in every stage
        path = write_config(tmp_path, override)
        for stage in ("build", "calibrate", "forward", "report"):
            assert_config_exit(caplog, [stage, "--config", str(path), "--quiet"],
                               f"{section}: unknown keys ['{key}']")

    @pytest.mark.parametrize("key, value, repeated", [
        ("calibration.qois", ["u_1", "u_1", "u_2", "u_3", "e_40", "e_80"], ["u_1"]),
        ("forward.qois", ["e_1", "e_1", "e_1", "e_60"], ["e_1"]),
        ("forward.densities", ["e_2", "e_1", "e_2"], ["e_2"]),
    ], ids=["calibration.qois", "forward.qois", "forward.densities"])
    def test_repeated_qoi_name_is_config_error(self, tmp_path, caplog, key, value, repeated):
        # a repeated name would be counted twice in the build report and the
        # reduction mean, and written twice to each bands file
        path = write_config(tmp_path, {key: value})
        for stage in ("build", "calibrate", "forward", "report"):
            assert_config_exit(caplog, [stage, "--config", str(path), "--quiet"],
                               f"{key} repeats QoI names {repeated}")

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
        # on a fresh run the reported evaluations are exactly the cached points
        # x calibration QoIs; each point also holds the forward QoIs, which
        # its one request asked for as well
        cache = EvalCache(cfg.out_dir / "cache.jsonl")
        assert report["evaluations_by_fidelity"] == {
            str(a): len(points) * len(cfg.calibration_qois)
            for a, points in sorted(cache.points_by_alpha().items())}
        points = sum(map(len, cache.points_by_alpha().values()))
        assert len(cache) == points * len(dict.fromkeys(cfg.calibration_qois + cfg.forward_qois))
        stamped = json.loads((cfg.out_dir / "surrogate.json").read_text())
        assert stamped["config_hash"] == cfg.config_hash

    # the demo's budget, and the converge workload's: |I| = 51, 20 nonzero weights
    @pytest.mark.parametrize("max_work, size, pinned", [
        (None, 8, {"1": 15, "2": 1}), (5000.0, 51, {"1": 97, "2": 61})],
        ids=["demo", "converge"])
    def test_surrogate_points_by_fidelity_on_demo(self, tmp_path, max_work, size, pinned):
        from miscuq.interp import build_grid
        from miscuq.oracle import EvalCache, point_key

        doc = yaml.safe_load(DEMO_CONFIG.read_text())
        if max_work is not None:
            doc["calibration"]["budget"]["max_work"] = max_work
        path = tmp_path / "cfg.yaml"
        path.write_text(json.dumps(doc))
        cfg = load_config(path, out=tmp_path / "out")
        cmd_build(cfg)
        report = json.loads((cfg.out_dir / "build_report.json").read_text())
        surrogate = misc.deserialize(cfg.out_dir / "surrogate.json")
        assert len(surrogate.index_set) == size
        keys: dict[int, set] = {}
        for entry in surrogate.coefficients:  # the nonzero-weight entries
            keys.setdefault(entry.alpha, set()).update(
                map(point_key, build_grid(entry.beta, surrogate.families).points))
        counts = {str(a): len(k) for a, k in sorted(keys.items())}
        assert report["surrogate_points_by_fidelity"] == counts == pinned
        cached = EvalCache(cfg.out_dir / "cache.jsonl").points_by_alpha()
        assert all(n <= len(cached[int(a)]) for a, n in counts.items())

    def test_builds_no_grid_of_its_own(self, tmp_path, monkeypatch):
        # misc binds its own build_grid, so adapt's grids are not counted here
        calls = []
        real = interp.build_grid
        monkeypatch.setattr(interp, "build_grid", lambda *a: calls.append(a) or real(*a))
        cmd_build(load_config(write_config(tmp_path)))
        assert calls == []

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

    def test_each_point_is_simulated_once(self, tmp_path):
        # build asks every point for the forward QoIs too, so forward finds
        # the prior's points cached and no (fidelity, point) is sent twice
        cfg = load_config(write_config(tmp_path))
        build, _, fwd, _ = run_pipeline(cfg)
        lines = (cfg.out_dir / "cache.jsonl").read_text().splitlines()
        keys = {(rec["alpha"], tuple(rec["point"])) for rec in map(json.loads, lines)}
        sent = sum(build["backend_points"].values()) + sum(fwd["backend_points"].values())
        assert sent == len(keys) == len(lines)

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

    def test_gaussian_prior_pipeline(self, tmp_path):
        path = write_config(tmp_path, {
            "parameters.1.distribution": "gaussian", "parameters.1.lo": None,
            "parameters.1.hi": None, "parameters.1.mean": -2.5, "parameters.1.std": 0.8})
        argv = ["--config", str(path), "--quiet"]
        assert main(["build", *argv]) == EXIT_OK
        make_observations(load_config(path))
        for stage in ("calibrate", "forward", "report"):
            assert main([stage, *argv]) == EXIT_OK
        rows = [line.split(",") for line in
                (tmp_path / "out" / "calibration_table.csv").read_text().splitlines()
                if line.startswith("prior,log_powder_convection,")]
        assert len(rows) == 1
        mean, std, _, lo, hi = map(float, rows[0][2:])
        assert (mean, std, lo, hi) == (-2.5, 0.8, -2.5 - 3 * 0.8, -2.5 + 3 * 0.8)

    def test_map_outside_the_surrogate_domain_warns(self, tmp_path, caplog):
        # a prior widened after the demo build moves the MAP past the
        # surrogate's temperature range: calibrate still exits 0, with one
        # warning naming the coordinate, the range and the stage to rerun
        demo = yaml.safe_load(DEMO_CONFIG.read_text(encoding="utf-8"))
        demo["calibration"]["observations"] = str(
            DEMO_CONFIG.parent / demo["calibration"]["observations"])
        demo["parameters"][0]["hi"] = 1700.0
        (tmp_path / "widened.yaml").write_text(yaml.dump(demo, Dumper=DUMPER))
        out = ["--out", str(tmp_path / "out"), "--quiet"]
        assert main(["build", "--config", str(DEMO_CONFIG), *out]) == EXIT_OK
        caplog.clear()
        assert main(["calibrate", "--config", str(DEMO_CONFIG), *out]) == EXIT_OK
        assert not [r for r in caplog.records if "surrogate's domain" in r.getMessage()]
        caplog.clear()
        assert main(["calibrate", "--config", str(tmp_path / "widened.yaml"), *out]) == EXIT_OK
        assert [r.getMessage() for r in caplog.records if "surrogate's domain" in r.getMessage()
                ] == ["calibrate: the MAP lies outside the surrogate's domain, so the posterior "
                      "describes the surrogate's extrapolation: activation_temperature = 1612.92 "
                      "outside [1130, 1450]; rerun build over the current prior"]

    def test_unknown_observation_qoi_fails(self, tmp_path, caplog, clean_run):
        # the one error line names the observations file and the surrogate
        path = write_config(tmp_path)
        cfg = load_config(path)
        shutil.copytree(clean_run.out, cfg.out_dir)
        (cfg.out_dir / "posterior.json").unlink()
        cfg.observations.write_text("qoi,value\nu_2,0.1\nnope,1.0\n")
        assert_config_exit(caplog, ["calibrate", "--config", str(path), "--quiet"],
                           f"calibration.observations: {cfg.observations} ",
                           f"surrogate {cfg.out_dir / 'surrogate.json'}: ['nope']")
        assert not (cfg.out_dir / "posterior.json").exists()

    @pytest.mark.parametrize("row, match", [("u_1", "no value column"),
                                            ("u_1,nan", "non-finite"),
                                            ("u_1," + "1" * 200_000, "field larger"),
                                            ("u_1,abc", "could not convert string to float"),
                                            ("u_2,0.1", "repeated QoI name 'u_2'"),
                                            ("u_2,0.3", "repeated QoI name 'u_2'")],
                             ids=["no_value", "nan", "oversized_field", "unparsable_value",
                                  "repeated_verbatim", "repeated_with_another_value"])
    def test_bad_observation_row_exits_with_config_code(self, tmp_path, caplog, clean_run,
                                                        row, match):
        # the one error line names the file and the line of the faulty row
        path = write_config(tmp_path)
        cfg = load_config(path)
        shutil.copytree(clean_run.out, cfg.out_dir)
        (cfg.out_dir / "posterior.json").unlink()
        cfg.observations.write_text(f"qoi,value\nu_2,0.1\n{row}\n")
        assert_config_exit(caplog, ["calibrate", "--config", str(path), "--quiet"],
                           f"{cfg.observations}, line 3: ", match)
        assert not (cfg.out_dir / "posterior.json").exists()

    @pytest.mark.parametrize("observations", [None, "missing.csv"], ids=["unset", "missing"])
    def test_observations_input_exits_with_config_code(self, tmp_path, caplog, clean_run,
                                                       observations):
        # an unset key is named, and so is the path of a missing file
        path = write_config(tmp_path, {"calibration.observations": observations})
        shutil.copytree(clean_run.out, tmp_path / "out")
        assert_config_exit(caplog, ["calibrate", "--config", str(path), "--quiet"],
                           "calibration.observations is required" if observations is None
                           else str(tmp_path / observations))

    def test_forward_estimates_each_band_column_once(self, tmp_path, monkeypatch):
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

    def test_forward_frees_each_push_before_the_next(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(tmp_path))
        cmd_build(cfg)
        make_observations(cfg)
        cmd_calibrate(cfg)
        pushes = []
        original = forward.push_samples

        def tracked(*args):
            gc.collect()
            assert all(ref() is None for ref in pushes), "an earlier push is still alive"
            pushes.append(weakref.ref(result := original(*args)))
            return result

        monkeypatch.setattr(forward, "push_samples", tracked)
        cmd_forward(cfg)
        assert len(pushes) == 2

    def test_warm_demo_forward_memory_peak(self, tmp_path):
        # each of the demo's pushes is (10 000, 120), 9.6 MB; forward holds
        # one draws' basis over 15 or 9 grid points and one column at a time
        cfg = load_config(DEMO_CONFIG, out=tmp_path / "out")
        cmd_build(cfg)
        cmd_calibrate(cfg)
        cmd_forward(cfg)
        tracemalloc.start()
        try:
            cmd_forward(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, peak

    def test_forward_removes_density_files_of_unlisted_names(self, tmp_path):
        # a file of a name no longer listed would carry the older config hash
        run_pipeline(load_config(write_config(tmp_path)))
        ddir = tmp_path / "out" / "densities"
        assert sorted(p.name for p in ddir.iterdir()) == ["e_1_posterior.csv", "e_1_prior.csv"]
        for listed in (["e_2"], []):
            cfg = load_config(write_config(tmp_path, {"forward.densities": listed}))
            cmd_forward(cfg)
            assert sorted(p.name for p in ddir.iterdir()) == sorted(
                f"{q}_{tag}.csv" for q in listed for tag in ("prior", "posterior"))
            assert all(f"config {cfg.config_hash}" in p.read_text() for p in ddir.iterdir())

    def test_band_rows_cover_all_prediction_qois(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run_pipeline(cfg)
        rows = [line for line in (cfg.out_dir / "bands_posterior.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        assert len(rows) == 1 + 8


def flat_top_warnings(caplog) -> list[str]:
    """The warnings that a surrogate's top fidelity varies along too few parameters."""
    return [r.getMessage() for r in caplog.records
            if r.levelname == "WARNING" and "the lower fidelities; raise" in r.getMessage()]


class TestFlatTopFidelityWarning:
    def test_demo_warns_for_each_surrogate(self, tmp_path, caplog):
        # the demo's budgets commit fidelity 2 at beta = (1, 1) alone, or not at all
        argv = ["--config", str(DEMO_CONFIG), "--out", str(tmp_path / "out"), "--quiet"]
        assert [main([stage, *argv]) for stage in STAGES[:3]] == [EXIT_OK] * 3
        both = "['activation_temperature', 'log_powder_convection']"
        assert flat_top_warnings(caplog) == [
            f"build: the calibration surrogate has no fidelity-2 entry that varies along {both}, "
            "so the posterior follows the lower fidelities; raise calibration.budget.max_work",
            "forward: the prior surrogate has no fidelity-2 entry, so the prior bands follow "
            "the lower fidelities; raise forward.budget.max_work",
            f"forward: the posterior surrogate has no fidelity-2 entry that varies along {both}, "
            "so the posterior bands follow the lower fidelities; raise forward.budget.max_work"]

    def test_converge_budget_build_warns_not(self, tmp_path, caplog):
        path = write_config(tmp_path, {"calibration.budget": {"max_work": 5000.0}})
        assert main(["build", "--config", str(path), "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "build_report.json").read_text())
        top = [e["beta"] for e in report["index_set"] if e["alpha"] == 2]
        assert max(b[0] for b in top) > 1 and max(b[1] for b in top) > 1
        assert flat_top_warnings(caplog) == []

    def test_one_fidelity_pipeline_warns_not(self, tmp_path, caplog):
        # the builtin model's fidelity 1 served as an external simulator's only one
        script = tmp_path / "fidelity_1.py"
        script.write_text(textwrap.dedent(f"""\
            import json, sys
            sys.path.insert(0, {str(Path(artifacts.__file__).resolve().parents[1])!r})
            from miscuq.oracle import BeamAnalogModel
            model = BeamAnalogModel()
            for line in sys.stdin:
                req = json.loads(line)
                values = model.evaluate(req["fidelity"], req["params"], req["qois"])
                print(json.dumps({{"id": req["id"], "values": values}}), flush=True)
            """))
        oracle = {"command": shlex.join([sys.executable, str(script)]),
                  "fidelities": [{"alpha": 1, "cost_weight": 1.0}]}
        path = write_config(tmp_path, {"oracle": oracle})
        argv = ["--config", str(path), "--quiet"]
        assert main(["build", *argv]) == EXIT_OK
        make_observations(load_config(path))
        assert [main([stage, *argv]) for stage in STAGES[1:3]] == [EXIT_OK] * 2
        # a zero budget leaves beta = (1, 1) alone, the top fidelity's only entry
        root = write_config(tmp_path, {"oracle": oracle, "calibration.budget": {"max_work": 0.0}},
                            name="root.yaml")
        assert main(["build", "--config", str(root), "--out", str(tmp_path / "root"),
                     "--quiet"]) == EXIT_OK
        assert flat_top_warnings(caplog) == []


UNHELD_TAIL = (". The calibration and forward surrogates disagree there, or the model does "
               "not fit the data")


def unheld_observation_warnings(caplog) -> list[str]:
    """The warnings that an observation lies outside its posterior band."""
    return [r.getMessage() for r in caplog.records
            if r.levelname == "WARNING" and r.getMessage().startswith("forward: observed ")]


class TestObservationBandCheck:
    def test_demo_warns_for_each_strain(self, tmp_path, caplog):
        # the demo's observations come from the calibration surrogate, which
        # the fine-model forward surrogates do not follow at the MAP
        argv = ["--config", str(DEMO_CONFIG), "--out", str(tmp_path / "out"), "--quiet"]
        assert [main([stage, *argv]) for stage in STAGES[:3]] == [EXIT_OK] * 3
        assert unheld_observation_warnings(caplog) == [
            "forward: observed e_40 = 0.00142362 lies 3.93 posterior band widths above the "
            "posterior band [0.00130808, 0.00133149]; the prior band [0.000870576, 0.00135645] "
            "misses it too" + UNHELD_TAIL,
            "forward: observed e_80 = 0.000905977 lies 3.94 posterior band widths above the "
            "posterior band [0.000832413, 0.000847315]; the prior band [0.000554003, "
            "0.000863197] misses it too" + UNHELD_TAIL]

    def test_converge_fine_model_observations_warn_not(self, tmp_path, caplog, monkeypatch):
        from test_golden import load_run
        run = load_run(monkeypatch)
        base = yaml.safe_load(DEMO_CONFIG.read_text())
        observations = tmp_path / "obs.csv"
        run.write_observations(observations, base["calibration"]["qois"])
        path = tmp_path / "converge.yaml"
        path.write_text(json.dumps(run.workload_config("converge", base, observations, None,
                                                       small=False)))
        argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
        assert [main([stage, *argv]) for stage in STAGES[:3]] == [EXIT_OK] * 3
        assert "e_40" in load_config(path).forward_qois
        assert unheld_observation_warnings(caplog) == []

    def test_observations_outside_forward_qois_warn_not(self, tmp_path, caplog):
        # the observed strains e_40 and e_80 are not among forward's e_1 ... e_8
        cfg = load_config(write_config(tmp_path))
        run_pipeline(cfg)
        assert not {"e_40", "e_80"} & set(cfg.forward_qois)
        assert unheld_observation_warnings(caplog) == []

    def test_warning_gives_widths_side_and_prior_band(self, caplog):
        # posterior bands [4, 6] (a, b, c) and [1, 1] (d) in prior bands [0, 10]
        def bands(lo, hi):
            return forward.BandSummary(tuple("abcd"), np.zeros(4), np.array(lo, dtype=float),
                                       np.array(hi, dtype=float), np.zeros(4))

        obs = bayes.ObservationSet.from_pairs([("a", 5.0), ("b", 3.0), ("c", 12.0), ("d", 2.0)])
        _warn_unheld_observations(obs, bands([0] * 4, [10] * 4), bands([4, 4, 4, 1], [6, 6, 6, 1]))
        assert unheld_observation_warnings(caplog) == [
            "forward: observed b = 3 lies 0.5 posterior band widths below the posterior band "
            "[4, 6]; the prior band [0, 10] holds it" + UNHELD_TAIL,
            "forward: observed c = 12 lies 3 posterior band widths above the posterior band "
            "[4, 6]; the prior band [0, 10] misses it too" + UNHELD_TAIL,
            "forward: observed d = 2 lies inf posterior band widths above the posterior band "
            "[1, 1]; the prior band [0, 10] holds it" + UNHELD_TAIL]

    def test_missing_observations_file_exits_before_forward_writes(self, tmp_path, caplog):
        path = write_config(tmp_path)
        argv = ["--config", str(path), "--quiet"]
        assert main(["build", *argv]) == EXIT_OK
        cfg = load_config(path)
        make_observations(cfg)
        assert main(["calibrate", *argv]) == EXIT_OK
        cfg.observations.unlink()
        before = snapshot(cfg.out_dir)
        assert_config_exit(caplog, ["forward", *argv], "calibration.observations: ",
                           str(cfg.observations))
        assert snapshot(cfg.out_dir) == before


class TestBasisBound:
    """``TensorInterpolant.basis`` refuses a basis above ``interp.MAX_BASIS``
    doubles before forming it, whichever stage asks; the bound is patched
    down on the demo, so nothing large is held."""

    def demo_argv(self, tmp_path):
        return ["--config", str(DEMO_CONFIG), "--out", str(tmp_path / "out"), "--quiet"]

    def test_demo_stays_below_the_bound(self, tmp_path, monkeypatch):
        sizes = []  # rows x grid points of every basis formed
        basis = interp.TensorInterpolant.basis

        def recording(self, points):
            sizes.append(len(np.atleast_2d(points)) * len(self.grid))
            return basis(self, points)

        monkeypatch.setattr(interp.TensorInterpolant, "basis", recording)
        argv = self.demo_argv(tmp_path)
        assert [main([stage, *argv]) for stage in STAGES[:3]] == [EXIT_OK] * 3
        assert max(sizes) == 150_000 < interp.MAX_BASIS  # the prior push, 10 000 x 15

    def test_forward_refuses_before_the_push(self, tmp_path, caplog, monkeypatch):
        argv = self.demo_argv(tmp_path)
        assert [main([stage, *argv]) for stage in STAGES[:2]] == [EXIT_OK] * 2
        monkeypatch.setattr(interp, "MAX_BASIS", 10_000)
        monkeypatch.setattr(forward, "summarize_bands",
                            lambda *a: throw(AssertionError("summarize_bands was called")))
        assert_exit(caplog, ["forward", *argv], EXIT_NUMERICAL,
                    "a basis of 10000 rows x 15 grid points in 2 dimensions is above the "
                    "bound of 10000 doubles")
        assert not (tmp_path / "out" / "reduction.json").exists()

    def test_calibrate_refuses_before_the_map_search(self, tmp_path, caplog, monkeypatch):
        # the refusal is the MAP search's first call: the starts' first simplices
        argv = self.demo_argv(tmp_path)
        assert main(["build", *argv]) == EXIT_OK
        monkeypatch.setattr(interp, "MAX_BASIS", 1_000)
        assert_exit(caplog, ["calibrate", *argv], EXIT_NUMERICAL,
                    "a basis of 60 rows x 35 grid points in 2 dimensions is above the "
                    "bound of 1000 doubles")
        assert not (tmp_path / "out" / "posterior.json").exists()


class TestHeadlineAgainstFineModel:
    """``reduction_percent`` against the fine model pushed through the
    pipeline's own draws and posterior, on fine-model observations.  At
    2 000 draws, over the demo seed and seeds 1-5, 1600 / 800 budgets
    missed by 0.013-0.044 points and 400 / 200 by 4.95-5.27."""

    SAMPLES = 2_000

    def reduction_and_reference(self, tmp_path, monkeypatch, calibration_work, forward_work):
        from test_golden import load_run
        doc = yaml.safe_load(DEMO_CONFIG.read_text())
        observations = tmp_path / "obs.csv"
        load_run(monkeypatch).write_observations(observations, doc["calibration"]["qois"])
        doc["output_dir"] = str(tmp_path / "out")
        doc["calibration"].update(observations=str(observations),
                                  budget={"max_work": calibration_work})
        doc["forward"].update(samples=self.SAMPLES, budget={"max_work": forward_work},
                              densities=[])
        path = tmp_path / "cfg.yaml"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        cmd_build(cfg)
        cmd_calibrate(cfg)
        reduction = cmd_forward(cfg)["reduction"]
        posterior = json.loads((cfg.out_dir / "posterior.json").read_text())
        posterior = bayes.GaussianPosterior(*_posterior_from_json(posterior, cfg.space.dim),
                                            posterior["sigma_meas"])
        model = oracle.BeamAnalogModel()
        widths = []
        for dist, stage in ((cfg.space, 2), (posterior, 3)):
            draws = dist.sample(self.SAMPLES, _stage_seed(cfg.seed, stage))
            q05, q95 = forward.quantiles([model.evaluate(2, v, cfg.forward_qois) for v in draws],
                                         [0.05, 0.95])
            widths.append(q95 - q05)
        return reduction, float(100.0 * np.mean((widths[0] - widths[1]) / widths[0]))

    def test_converged_budgets_match_the_fine_model(self, tmp_path, monkeypatch):
        reduction, reference = self.reduction_and_reference(tmp_path, monkeypatch, 1600.0, 800.0)
        assert abs(reduction - reference) <= 0.1, (reduction, reference)

    def test_small_budgets_miss_the_fine_model(self, tmp_path, monkeypatch):
        # the check shows what it guards: these surrogates miss by about 5 points
        reduction, reference = self.reduction_and_reference(tmp_path, monkeypatch, 400.0, 200.0)
        assert abs(reduction - reference) > 1.0, (reduction, reference)


class TestDeterminism:
    def test_rerun_is_byte_identical_with_zero_backend_calls(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        run_pipeline(cfg)
        before = snapshot(cfg.out_dir)
        build2 = cmd_build(cfg)
        cal2 = cmd_calibrate(cfg)
        fwd2 = cmd_forward(cfg)
        cmd_report(cfg)
        assert build2["backend_points"] == {}
        assert fwd2["backend_points"] == {}
        after = snapshot(cfg.out_dir)
        assert before.keys() == after.keys()
        for name in before:
            assert before[name] == after[name], name


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

    @pytest.mark.parametrize("data", [b"seed: [1, 2\n", b"seed: 1\n  bad: indent\n",
                                      b"seed: &a 1\nother: *b\n", b"\tseed: 1\n",
                                      b"seed: 1\n\xff\xfe\n",
                                      pytest.param(b"seed: " + DEEP.encode() + b"\n", id="deep")])
    def test_unparsable_config(self, tmp_path, caplog, data):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(data)
        assert_config_exit(caplog, ["build", "--config", str(path), "--quiet"], "cannot parse")

    @pytest.mark.parametrize("fail, code, needle", [
        (partial(throw, ConfigError("bad setting")), EXIT_CONFIG, "bad setting"),
        (partial(throw, artifacts.ArtifactError("cannot write x")), EXIT_CONFIG, "cannot write x"),
        (partial(throw, oracle.OracleError("lane died")), EXIT_ORACLE, "lane died"),
        (partial(throw, misc.BuildError([(1, (0.5,), "boom")])), EXIT_ORACLE, "v=(0.5,): boom"),
        (partial(throw, artifacts.NumericalError("no result")), EXIT_NUMERICAL, "no result"),
        (partial(throw, misc.SurrogateFormatError("corrupt")), EXIT_NUMERICAL, "corrupt"),
        (partial(throw, bayes.CalibrationError("unconstrained")), EXIT_NUMERICAL,
         "unconstrained"),
        (partial(interp._barycentric_weights, np.array([0.0, 1.0, 1.0])), EXIT_NUMERICAL,
         "coincident knots"),
        (partial(forward.uncertainty_reduction, *[SimpleNamespace(
            qoi_names=("e_1",), widths=lambda: np.zeros(1))] * 2), EXIT_NUMERICAL,
         "prior band width must be positive"),
    ], ids=["config", "artifact", "oracle", "build", "numerical", "surrogate_format",
            "calibration", "coincident_knots", "zero_width_band"])
    def test_exit_code_of_each_error_class(self, tmp_path, caplog, monkeypatch, fail, code,
                                           needle):
        # the stage raises it: main exits with its code and one error line
        monkeypatch.setitem(_STAGES, "build", (failing_stage(fail), (), ()))
        assert_exit(caplog, ["build", "--config", str(write_config(tmp_path)), "--quiet"], code,
                    needle)

    def test_plain_value_error_is_not_a_numerical_failure(self, tmp_path, monkeypatch):
        # NumericalError is a ValueError, but a plain one is a bug: it propagates
        monkeypatch.setitem(_STAGES, "build",
                            (failing_stage(partial(throw, ValueError("a bug"))), (), ()))
        with pytest.raises(ValueError, match="a bug"):
            main(["build", "--config", str(write_config(tmp_path)), "--quiet"])

    @pytest.mark.parametrize("key, value, where", [
        ("output_dir", "o\0ut", "output_dir"),
        ("calibration.observations", "obs\0.csv", "calibration.observations"),
        ("oracle", {"command": "python3 sim.py", "workdir": "si\0m",
                    "fidelities": [{"alpha": 1, "cost_weight": 1.0}]}, "oracle.workdir"),
        ("oracle", {"command": "python3 si\0m.py",
                    "fidelities": [{"alpha": 1, "cost_weight": 1.0}]}, "oracle.command"),
    ], ids=["output_dir", "observations", "workdir", "command"])
    def test_nul_in_config_text_exits_with_config_code(self, tmp_path, caplog, key, value, where):
        # the OS refuses a path or command with a NUL with a ValueError
        path = write_config(tmp_path, {key: value})
        assert_config_exit(caplog, ["build", "--config", str(path), "--quiet"],
                           f"{where}: contains a NUL character")

    @pytest.mark.parametrize("mode", ["a", "r+b"], ids=["append", "drop_torn_record"])
    def test_unwritable_cache_is_oracle_error(self, tmp_path, caplog, monkeypatch, mode):
        # a failed cache append, or a failed drop of a torn last record, exits
        # 3 with one line naming the cache
        path = write_config(tmp_path)
        cache = tmp_path / "out" / "cache.jsonl"
        if mode == "r+b":
            assert main(["build", "--config", str(path), "--quiet"]) == EXIT_OK
            with open(cache, "a", encoding="utf-8") as fh:
                fh.write('{"alpha": 1')

        def full_disk(file, file_mode="r", *args, **kwargs):
            if file_mode == mode:
                raise OSError(28, "No space left on device")
            return open(file, file_mode, *args, **kwargs)

        monkeypatch.setattr(oracle, "open", full_disk, raising=False)
        assert_exit(caplog, ["build", "--config", str(path), "--quiet"], EXIT_ORACLE, str(cache))

    @pytest.mark.parametrize("old, new, key", [
        ("seed: 77\n", "seed: 77\nseed: 78\n", "seed"),
        ("  samples: 400\n", "  samples: 400\n  samples: 7\n", "samples"),
    ], ids=["top_level", "nested"])
    def test_repeated_key_exits_with_config_code(self, tmp_path, caplog, old, new, key):
        path = write_config(tmp_path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        for stage in ("build", "report"):
            assert_config_exit(caplog, [stage, "--config", str(path), "--quiet"],
                               f"found duplicate key {key!r}")

    @pytest.mark.parametrize("stage, name, provider", [
        ("calibrate", "surrogate.json", "build"),
        ("forward", "posterior.json", "calibrate"),
        ("report", "build_report.json", "build"),
        ("report", "posterior.json", "calibrate"),
        ("report", "reduction.json", "forward"),
    ])
    def test_missing_read_exits_with_config_code(self, tmp_path, caplog, clean_run,
                                                 stage, name, provider):
        # after a full run, each file a stage reads is deleted in turn: the
        # stage exits 2 and names the file and the stage that writes it
        out = tmp_path / "out"
        shutil.copytree(clean_run.out, out)
        (out / name).unlink()
        assert_config_exit(
            caplog, [stage, "--config", str(clean_run.config), "--out", str(out), "--quiet"],
            f"{stage}: missing artifacts [{name!r}] in {out}; run '{provider}' first")

    def test_config_path_is_a_directory(self, tmp_path, caplog):
        assert_config_exit(caplog, ["build", "--config", str(tmp_path), "--quiet"],
                           "cannot parse")

    def test_oracle_error(self, tmp_path):
        overrides = {
            "oracle": {
                "command": f"{sys.executable} -c 'import sys; sys.exit(9)'",
                "fidelities": [{"alpha": 1, "cost_weight": 1.0}],
            },
        }
        path = write_config(tmp_path, overrides)
        assert main(["build", "--config", str(path), "--quiet"]) == EXIT_ORACLE

    def test_failed_evaluations_are_oracle_error(self, tmp_path, caplog):
        # a simulator that fails every point fails the build's root entry
        script = tmp_path / "failing_oracle.py"
        script.write_text("import json, sys\nfor line in sys.stdin:\n    print(json.dumps("
                          "{'id': json.loads(line)['id'], 'error': 'boom'}), flush=True)\n")
        path = write_config(tmp_path, {"oracle": {
            "command": f"{sys.executable} {script}",
            "fidelities": [{"alpha": 1, "cost_weight": 1.0}]}})
        assert_exit(caplog, ["build", "--config", str(path), "--quiet"], EXIT_ORACLE,
                    "oracle evaluation(s) failed")

    def test_numerical_error_on_degenerate_prior_bands(self, tmp_path):
        # zero forward budget -> prediction surrogates of one grid point,
        # constants whose zero-width bands give no reduction metric
        path = write_config(tmp_path, {"forward.budget": {"max_work": 0.0}})
        cfg = load_config(path)
        cmd_build(cfg)
        make_observations(cfg)
        cmd_calibrate(cfg)
        assert main(["forward", "--config", str(path), "--quiet"]) == EXIT_NUMERICAL

    def test_constant_posterior_surrogate_exits_with_numerical_code(self, tmp_path, caplog):
        # every knot of so wide a posterior but its center leaves the oracle's
        # domain, so the posterior surrogate is one grid point: a constant
        # whose zero-width bands would read as a 100% reduction
        path = write_config(tmp_path)
        out = tmp_path / "out"
        (tmp_path / "obs.csv").write_text(ONE_OBSERVATION)
        out.mkdir()
        (out / "posterior.json").write_text(json.dumps(
            {"mean": [1290.0, -2.5], "covariance": [1e6, 0.0, 0.0, 100.0], "sigma_meas": 1.0}))
        assert_exit(caplog, ["forward", "--config", str(path), "--quiet"], EXIT_NUMERICAL,
                    "posterior surrogate is one grid point", "adapt stopped on",
                    "outside the oracle domain")
        assert not (out / "reduction.json").exists()

    def test_constant_calibration_surrogate_exits_with_numerical_code(self, tmp_path, caplog):
        # a zero build budget leaves a surrogate of one grid point: a constant
        # that no observation constrains, refused before the MAP search
        path = write_config(tmp_path, {"calibration.budget": {"max_work": 0.0}})
        cfg = load_config(path)
        cmd_build(cfg)
        make_observations(cfg)
        assert_exit(caplog, ["calibrate", "--config", str(path), "--quiet"], EXIT_NUMERICAL,
                    f"the surrogate {cfg.out_dir / 'surrogate.json'} is one grid point",
                    "rebuild it with a larger calibration.budget.max_work")
        assert not any("competing minimum" in r.getMessage() for r in caplog.records)
        assert not (cfg.out_dir / "posterior.json").exists()

    def test_displacement_only_calibration_exits_with_numerical_code(self, tmp_path, caplog):
        # the builtin displacements are mutually proportional, so alone they
        # leave one parameter direction unconstrained
        argv = ["--config", str(displacement_only_config(tmp_path)),
                "--out", str(tmp_path / "out"), "--quiet"]
        assert main(["build", *argv]) == EXIT_OK
        assert_exit(caplog, ["calibrate", *argv], EXIT_NUMERICAL,
                    "the observations leave parameter direction(s) [0.999692, -0.024803] "
                    "unconstrained")
        assert not (tmp_path / "out" / "posterior.json").exists()

    def test_refused_calibration_leaves_no_posterior_behind(self, tmp_path, caplog):
        # after a full demo pipeline, a refused calibrate takes the earlier
        # posterior with it, so forward and report ask for calibrate again
        out = ["--out", str(tmp_path / "out"), "--quiet"]
        demo = ["--config", str(DEMO_CONFIG), *out]
        assert [main([stage, *demo]) for stage in STAGES] == [EXIT_OK] * 4
        assert main(["calibrate", "--config", str(displacement_only_config(tmp_path)),
                     *out]) == EXIT_NUMERICAL
        assert not (tmp_path / "out" / "posterior.json").exists()
        for stage in ("forward", "report"):
            assert_config_exit(caplog, [stage, *demo], f"{stage}: missing artifacts",
                               "'posterior.json'", "run 'calibrate' first")

    @pytest.mark.parametrize("stage, after", [("build", "calibrate"), ("calibrate", "forward"),
                                              ("forward", "report")])
    def test_failed_stage_leaves_no_input_of_a_later_stage(self, tmp_path, caplog, clean_run,
                                                           stage, after):
        # after a full run, the stage's first write fails: none of its outputs
        # that a later stage reads is left, and the next stage names it
        out = tmp_path / "out"
        shutil.copytree(clean_run.out, out)
        argv = ["--config", str(clean_run.config), "--out", str(out), "--quiet"]
        with pytest.MonkeyPatch.context() as mp:
            counting_writes(mp, fail_at=1)
            assert main([stage, *argv]) == EXIT_CONFIG
        assert not [name for name in _STAGES[stage][2] if (out / name).exists()]
        assert_config_exit(caplog, [after, *argv], f"{after}: missing artifacts",
                           f"run '{stage}' first")

    @pytest.mark.parametrize("stage", ["calibrate", "forward"])
    def test_each_failed_write_leaves_no_input_of_a_later_stage(self, tmp_path, clean_run,
                                                                stage):
        # after a full run, the stage's k-th write fails, for every k: none
        # of its outputs that a later stage reads is left, since it writes
        # them last
        def rerun(fail_at):
            out = tmp_path / f"fail_at_{fail_at}"
            shutil.copytree(clean_run.out, out)
            with pytest.MonkeyPatch.context() as mp:
                opener = counting_writes(mp, fail_at=fail_at)
                code = main([stage, "--config", str(clean_run.config), "--out", str(out),
                             "--quiet"])
            return code, opener.writes, out

        code, writes, _ = rerun(None)
        assert code == EXIT_OK and writes > 1
        for k in range(1, writes + 1):
            code, reached, out = rerun(k)
            assert code in (EXIT_CONFIG, EXIT_ORACLE) and reached == k, (k, code)
            assert not [name for name in _STAGES[stage][2] if (out / name).exists()], k

    def test_densities_path_that_is_a_file_leaves_no_reduction(self, tmp_path, caplog, clean_run):
        # forward makes its densities directory before it writes anything
        out = tmp_path / "out"
        shutil.copytree(clean_run.out, out)
        shutil.rmtree(out / "densities")
        (out / "densities").write_text("")
        argv = ["--config", str(clean_run.config), "--out", str(out), "--quiet"]
        assert_config_exit(caplog, ["forward", *argv], "cannot create densities directory")
        assert not (out / "reduction.json").exists()
        assert_config_exit(caplog, ["report", *argv], "run 'forward' first")

    def test_zero_variance_posterior_fails_before_any_simulator_call(self, tmp_path, caplog):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        (tmp_path / "obs.csv").write_text(ONE_OBSERVATION)
        out.mkdir()
        (out / "posterior.json").write_text(json.dumps(
            {"mean": [1290.0, -2.5], "covariance": [1.0, 0.0, 0.0, 0.0], "sigma_meas": 1.0}))
        assert main(["forward", "--config", str(path), "--quiet"]) == EXIT_NUMERICAL
        assert "zero-variance" in caplog.text
        assert not (out / "cache.jsonl").exists()

    @pytest.mark.parametrize("edit", [
        {"mean": [math.nan, -2.5]}, {"mean": [1290.0, math.inf]}, {"mean": ["1290", -2.5]},
        {"covariance": [1.0, 0.0, 0.0, math.nan]}, {"covariance": [True, 0.0, 0.0, 1.0]},
        {"sigma_meas": math.inf}, {"sigma_meas": True}, {"sigma_meas": 0.0},
        {"sigma_meas": "1.0"},
        {"mean": [1290.0, -2.5, 1.0], "covariance": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]},
    ], ids=["mean_nan", "mean_inf", "mean_text", "covariance_nan", "covariance_bool",
            "sigma_inf", "sigma_bool", "sigma_zero", "sigma_text", "mean_of_another_dim"])
    def test_mistyped_posterior_fails_before_any_simulator_call(self, tmp_path, caplog, edit):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        (tmp_path / "obs.csv").write_text(ONE_OBSERVATION)
        out.mkdir()
        doc = {"mean": [1290.0, -2.5], "covariance": [1.0, 0.0, 0.0, 1.0], "sigma_meas": 1.0}
        (out / "posterior.json").write_text(json.dumps({**doc, **edit}))
        assert main(["forward", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        assert f"{next(iter(edit))}: expected" in caplog.text
        assert not (out / "cache.jsonl").exists()

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
        {"fidelities": [{"alpha": 2, "cost_weight": 36.0}]},
        {"fidelities": [{"alpha": 1, "cost_weight": 1.0}, {"alpha": 3, "cost_weight": 36.0}]},
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
        # integers beyond the float range
        ("report", "build_report.json", json.dumps({**REPORT_INPUTS["build_report.json"],
                                                    "work_spent": 10**400})),
        ("forward", "posterior.json", json.dumps({**REPORT_INPUTS["posterior.json"],
                                                  "sigma_meas": 10**400})),
    ], ids=["build_report_not_json", "reduction_lacks_key", "forward_posterior_list",
            "report_posterior_list", "reduction_list_of_keys", "posterior_mean_not_numbers",
            "posterior_covariance_too_short", "posterior_mean_nested", "parameters_not_a_list",
            "points_by_fidelity_not_a_mapping", "work_spent_out_of_range",
            "sigma_meas_out_of_range"])
    def test_malformed_stage_artifact_exits_with_config_code(self, tmp_path, caplog,
                                                             stage, name, text):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        (tmp_path / "obs.csv").write_text(ONE_OBSERVATION)
        out.mkdir()
        for artifact, doc in REPORT_INPUTS.items():
            (out / artifact).write_text(json.dumps(doc))
        assert main(["report", "--config", str(path), "--quiet"]) == EXIT_OK
        (out / name).write_text(text)
        assert_config_exit(caplog, [stage, "--config", str(path), "--quiet"], name)

    @pytest.mark.parametrize("covariance, needle", [
        ([1.0, 0.5, 0.0, 1.0], "covariance must be symmetric"),
        ([1.0, 2.0, 2.0, 1.0], "covariance is not positive semi-definite"),
        ([1e308, 0.0, 0.0, 1e308], "covariance trace overflows the float range (inf)"),
    ], ids=["asymmetric", "indefinite", "overflowing_trace"])
    def test_report_rejects_invalid_covariance(self, tmp_path, caplog, covariance, needle):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        for artifact, doc in REPORT_INPUTS.items():
            (out / artifact).write_text(json.dumps(doc))
        (out / "posterior.json").write_text(json.dumps(
            {**REPORT_INPUTS["posterior.json"], "covariance": covariance}))
        assert_config_exit(caplog, ["report", "--config", str(path), "--quiet"], needle)
        assert not (out / "report.txt").exists()

    def write_report_inputs(self, tmp_path, counts):
        out = tmp_path / "out"
        out.mkdir()
        for artifact, doc in REPORT_INPUTS.items():
            (out / artifact).write_text(json.dumps(doc))
        (out / "build_report.json").write_text(json.dumps({
            **REPORT_INPUTS["build_report.json"], "surrogate_points_by_fidelity": counts}))
        return write_config(tmp_path), out

    def test_report_orders_fidelity_rows_by_level(self, tmp_path):
        path, out = self.write_report_inputs(tmp_path, {"1": 15, "2": 1, "10": 3})
        assert main(["report", "--config", str(path), "--quiet"]) == EXIT_OK
        rows = [line for line in (out / "report.txt").read_text().splitlines()
                if line.startswith("surrogate_points_alpha_")]
        assert rows == ["surrogate_points_alpha_1: 15", "surrogate_points_alpha_2: 1",
                        "surrogate_points_alpha_10: 3"]

    @pytest.mark.parametrize("key", ["x", "0", "-1", "01", " 1", "1_0"])
    def test_report_refuses_a_key_that_is_not_a_level(self, tmp_path, caplog, key):
        path, out = self.write_report_inputs(tmp_path, {"1": 15, key: 3})
        assert_config_exit(caplog, ["report", "--config", str(path), "--quiet"],
                           "build_report.json", f"[{key!r}] are not fidelity levels")
        assert not (out / "report.txt").exists()

    def test_forward_rejects_overflowing_covariance_trace(self, tmp_path, caplog):
        # finite and positive definite, but 1e308 + 1e308 overflows the trace
        path = write_config(tmp_path)
        out = tmp_path / "out"
        (tmp_path / "obs.csv").write_text(ONE_OBSERVATION)
        out.mkdir()
        (out / "posterior.json").write_text(json.dumps(
            {**REPORT_INPUTS["posterior.json"], "covariance": [1e308, 0.0, 0.0, 1e308]}))
        assert_config_exit(caplog, ["forward", "--config", str(path), "--quiet"],
                           "covariance trace overflows the float range (inf)")
        assert not (out / "cache.jsonl").exists()

    @pytest.mark.parametrize("stage, override", [
        ("build", {"parameters.0.lo": 1290.0, "parameters.0.hi": 1290.0 + 1e-12}),
        ("build", {"parameters.0.distribution": "gaussian", "parameters.0.lo": None,
                   "parameters.0.hi": None, "parameters.0.mean": 1290.0,
                   "parameters.0.std": 1e-12}),
        ("forward", None),
    ], ids=["uniform_width_1e-12", "gaussian_std_1e-12", "posterior_variance_1e-24"])
    def test_coincident_knots_exit_with_numerical_code(self, tmp_path, caplog, stage, override):
        # a prior or posterior this narrow places knots that round to one value
        path = write_config(tmp_path, override)
        out = tmp_path / "out"
        (tmp_path / "obs.csv").write_text(ONE_OBSERVATION)
        out.mkdir()
        (out / "posterior.json").write_text(json.dumps(
            {"mean": [1290.0, -2.5], "covariance": [1e-24, 0.0, 0.0, 1e-24], "sigma_meas": 1.0}))
        assert_exit(caplog, [stage, "--config", str(path), "--quiet"], EXIT_NUMERICAL,
                    "coincident knots")

    def test_surrogate_path_is_a_directory(self, tmp_path, caplog):
        path = write_config(tmp_path)
        (tmp_path / "obs.csv").write_text(ONE_OBSERVATION)
        (tmp_path / "out" / "surrogate.json").mkdir(parents=True)
        assert_exit(caplog, ["calibrate", "--config", str(path), "--quiet"], EXIT_NUMERICAL,
                    "surrogate.json")

    def test_cache_path_is_a_directory(self, tmp_path, caplog):
        path = write_config(tmp_path)
        (tmp_path / "out" / "cache.jsonl").mkdir(parents=True)
        assert_exit(caplog, ["build", "--config", str(path), "--quiet"], EXIT_ORACLE,
                    "cache.jsonl")

    def test_artifact_path_is_a_directory(self, tmp_path, caplog):
        path = write_config(tmp_path)
        cfg = load_config(path)
        run_pipeline(cfg)
        for stage, name in [("report", "report.txt"), ("forward", "bands_prior.csv"),
                            ("build", "surrogate.json")]:
            taken = cfg.out_dir / name
            taken.unlink()
            taken.mkdir()
            assert_config_exit(caplog, [stage, "--config", str(path), "--quiet"], str(taken))
            assert not [p for p in cfg.out_dir.rglob("*") if p.name.endswith(".tmp")], name
            taken.rmdir()

    @pytest.mark.parametrize("name", ["../../escape", "sub/x"])
    def test_pathlike_density_name_exits_with_config_code(self, tmp_path, caplog, name):
        # an external oracle declares no QoI names, so any name reaches the check
        oracle = {"command": f"{sys.executable} -c 'pass'",
                  "fidelities": [{"alpha": 1, "cost_weight": 1.0}]}
        path = write_config(tmp_path, {"oracle": oracle, "forward.qois": [name],
                                       "forward.densities": [name]})
        before = sorted(tmp_path.rglob("*"))
        for stage in ("build", "report"):
            assert_config_exit(caplog, [stage, "--config", str(path), "--quiet"], name)
        assert sorted(tmp_path.rglob("*")) == before

    def test_negative_budget_exits_with_config_code(self, tmp_path):
        path = write_config(tmp_path, {"calibration.budget": {"max_work": -5.0}})
        assert main(["build", "--config", str(path), "--quiet"]) == EXIT_CONFIG

    def test_non_numeric_seed_exits_with_config_code(self, tmp_path):
        path = write_config(tmp_path, {"seed": "abc"})
        assert main(["build", "--config", str(path), "--quiet"]) == EXIT_CONFIG

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

    def test_infinite_surrogate_dimension_exits_with_numerical_code(self, tmp_path, caplog):
        path = write_config(tmp_path)
        cfg = load_config(path)
        cmd_build(cfg)
        make_observations(cfg)
        surrogate_path = cfg.out_dir / "surrogate.json"
        doc = json.loads(surrogate_path.read_text())
        doc["dim"] = math.inf
        surrogate_path.write_text(json.dumps(doc))
        caplog.clear()
        assert main(["calibrate", "--config", str(path), "--quiet"]) == EXIT_NUMERICAL
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "surrogate.json" in errors[0], errors
        assert all(r.exc_info is None for r in caplog.records)

    @pytest.mark.parametrize("edit, needle", [
        (lambda doc: [rec.update(values=[repr(float.fromhex(h)) for h in rec["values"]])
                      for rec in doc["entries"] if "values" in rec],
         "entries[0].values: expected a hex float at [0]"),
        (lambda doc: doc["families"][0].update(hi="1450.0"),
         "hi: expected a hex float, got '1450.0'"),
    ], ids=["values_decimal_text", "family_hi_decimal_text"])
    def test_decimal_text_surrogate_exits_with_numerical_code(self, tmp_path, caplog, edit,
                                                             needle):
        # float.fromhex reads "1450.0" as 0x1450, that is 5200
        path = write_config(tmp_path)
        cfg = load_config(path)
        cmd_build(cfg)
        make_observations(cfg)
        surrogate_path = cfg.out_dir / "surrogate.json"
        doc = json.loads(surrogate_path.read_text())
        edit(doc)
        surrogate_path.write_text(json.dumps(doc))
        assert_exit(caplog, ["calibrate", "--config", str(path), "--quiet"], EXIT_NUMERICAL,
                    str(surrogate_path), needle)
        assert not (cfg.out_dir / "posterior.json").exists()

    def test_decimal_text_cache_value_exits_with_oracle_code(self, tmp_path, caplog):
        path = write_config(tmp_path)
        cfg = load_config(path)
        cmd_build(cfg)
        cache_path = cfg.out_dir / "cache.jsonl"
        first, *rest = cache_path.read_text().splitlines(keepends=True)
        rec = json.loads(first)
        qoi, value = next(iter(rec["values"].items()))
        rec["values"][qoi] = repr(float.fromhex(value))
        cache_path.write_text("".join([json.dumps(rec) + "\n", *rest]))
        assert_exit(caplog, ["build", "--config", str(path), "--quiet"], EXIT_ORACLE,
                    f"{cache_path}:1", f"values: expected a hex float at [{qoi!r}]")
        assert not (cfg.out_dir / "surrogate.json").exists()

    @pytest.mark.parametrize("stage, overrides, posterior, code, line", [
        ("build", {}, None, EXIT_OK, None),
        ("build", {"seed": -1}, None, EXIT_CONFIG, "config error: seed must be >= 0"),
        ("build", {"oracle": {"command": f"{sys.executable} -c 'import sys; sys.exit(9)'",
                              "fidelities": [{"alpha": 1, "cost_weight": 1.0}]}},
         None, EXIT_ORACLE, "oracle error: oracle process exited (code 9)"),
        ("forward", {}, [1.0, 0.0, 0.0, 0.0], EXIT_NUMERICAL,
         "numerical failure: posterior has a zero-variance direction"),
    ], ids=["ok", "config", "oracle", "numerical"])
    def test_module_entry_point(self, tmp_path, stage, overrides, posterior, code, line):
        # the process exits with main's code, and its one error line, logged
        # before the exit that skips finalization, reaches the captured stderr
        import subprocess
        path = write_config(tmp_path, overrides)
        if posterior is not None:
            (tmp_path / "obs.csv").write_text(ONE_OBSERVATION)
            (tmp_path / "out").mkdir()
            (tmp_path / "out" / "posterior.json").write_text(json.dumps(
                {"mean": [1290.0, -2.5], "covariance": posterior, "sigma_meas": 1.0}))
        proc = subprocess.run([sys.executable, "-m", "miscuq", stage,
                               "--config", str(path), "--quiet"],
                              capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        errors = [t for t in proc.stderr.splitlines() if " ERROR " in t]
        assert len(errors) == (line is not None) and all(line in e for e in errors), proc.stderr
        assert proc.stdout == ""

    def test_module_entry_point_with_stdout_closed(self, tmp_path):
        # a process started with descriptor 1 closed has no sys.stdout
        import shlex
        import subprocess
        argv = [sys.executable, "-m", "miscuq", "build", "--config", str(write_config(tmp_path))]
        proc = subprocess.run(f"{shlex.join(argv)} >&-", shell=True, capture_output=True,
                              text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "build:" in proc.stderr

    def test_module_entry_point_usage_error_exits_normally(self):
        # argparse's SystemExit escapes main and takes the normal exit
        import subprocess
        proc = subprocess.run([sys.executable, "-m", "miscuq", "build"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "the following arguments are required: --config" in proc.stderr

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states")
    def test_module_entry_point_leaves_no_lane_running(self, tmp_path):
        # each lane records its pid and, at the end of its input, lingers a
        # moment: the stage closes its lanes, so none outlives the process
        import subprocess
        pids = tmp_path / "pids"
        pids.mkdir()
        script = tmp_path / "pid_oracle.py"
        script.write_text(textwrap.dedent(f"""\
            import json, os, sys, time
            open(os.path.join({str(pids)!r}, str(os.getpid())), "w").close()
            for line in sys.stdin:
                req = json.loads(line)
                x = req["params"][0] + 0.1 * req["params"][1] * req["fidelity"]
                print(json.dumps({{"id": req["id"],
                                  "values": [x * (i + 1) for i in range(len(req["qois"]))]}}),
                      flush=True)
            time.sleep(0.3)
        """))
        path = write_config(tmp_path, {
            "oracle": {"command": f"{sys.executable} {script}", "lanes": 2,
                       "fidelities": [{"alpha": 1, "cost_weight": 1.0},
                                      {"alpha": 2, "cost_weight": 4.0}]},
            "calibration.qois": ["q_a", "q_b"]})
        # the lanes inherit stderr: into a file, not a pipe that run would
        # read until the last lane closes it
        with open(tmp_path / "stderr.txt", "w") as err:
            proc = subprocess.run([sys.executable, "-m", "miscuq", "build",
                                   "--config", str(path), "--quiet"], stderr=err)
        assert proc.returncode == EXIT_OK, (tmp_path / "stderr.txt").read_text()
        lanes = [int(p.name) for p in pids.iterdir()]
        assert len(lanes) == 2
        assert [pid for pid in lanes if process_running(pid)] == []


def process_running(pid):
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def displacement_only_config(tmp_path):
    """The demo config calibrated on u_1, u_2 and u_3 alone, with its
    observations cut to the displacements, under ``tmp_path``."""
    doc = yaml.safe_load(DEMO_CONFIG.read_text())
    doc["calibration"]["qois"] = ["u_1", "u_2", "u_3"]
    (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(doc))
    lines = (DEMO_CONFIG.parent / doc["calibration"]["observations"]).read_text().splitlines()
    (tmp_path / doc["calibration"]["observations"]).write_text(
        "".join(f"{line}\n" for line in lines if not line.startswith("e_")))
    return tmp_path / "cfg.yaml"


# the modules that only a stage which computes loads: each pulls in numpy
NUMERICAL_MODULES = {"numpy", "miscuq.leja", "miscuq.interp", "miscuq.misc", "miscuq.bayes",
                     "miscuq.forward"}
# the modules only an external oracle needs
PROCESS_MODULES = {"subprocess", "select"}


def loaded_modules(code, *args):
    """The names in ``sys.modules`` after a fresh interpreter runs ``code``
    with ``args``, and the finished process, whose exit code is the ``rc``
    that ``code`` sets."""
    import subprocess
    code += "\nimport json\nprint(json.dumps(sorted(sys.modules)))\nsys.exit(rc)"
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True)
    assert proc.stdout.strip(), proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1])), proc


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # every stage process pays the CLI's imports and the config check; they
    # load no scipy, no numpy and no numerical module
    loaded, proc = loaded_modules(
        "import sys, miscuq.cli as c\nc.load_config(sys.argv[1])\nrc = 0", write_config(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "scipy" not in loaded, "scipy was imported"
    assert not loaded & NUMERICAL_MODULES, sorted(loaded & NUMERICAL_MODULES)
    assert not loaded & PROCESS_MODULES, sorted(loaded & PROCESS_MODULES)


def test_bare_package_import_loads_no_numpy():
    # the package re-exports nothing, so importing it loads none of its modules
    import subprocess
    code = ("import sys, miscuq\n"
            "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'\n"
            "                or m.startswith('miscuq.')) or None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_stage_processes_leave_scipy_unloaded(tmp_path):
    # no stage loads scipy; the test suite alone uses it, as a reference.
    # No stage loads numpy.ma either (np.quantile would, through np.unique).
    # With the builtin oracle no stage loads the process modules, and
    # report, which only reads and writes files, loads no numerical module.
    path = write_config(tmp_path)
    code = "import sys\nfrom miscuq.cli import main\nrc = main(sys.argv[1:])"
    for stage in ("build", "calibrate", "forward", "report"):
        if stage == "calibrate":
            make_observations(load_config(path))
        loaded, proc = loaded_modules(code, stage, "--config", path, "--quiet")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "scipy" not in loaded, f"{stage} imported scipy"
        assert "numpy.ma" not in loaded, f"{stage} imported numpy.ma"
        assert not loaded & PROCESS_MODULES, (stage, sorted(loaded & PROCESS_MODULES))
        if stage == "report":
            assert not loaded & NUMERICAL_MODULES, sorted(loaded & NUMERICAL_MODULES)


def test_error_exit_loads_no_numerical_module(tmp_path):
    # classifying an error imports nothing: report on an empty output
    # directory exits 2 and still loads no numpy
    code = "import sys\nfrom miscuq.cli import main\nrc = main(sys.argv[1:])"
    loaded, proc = loaded_modules(code, "report", "--config", write_config(tmp_path), "--quiet")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "missing artifacts" in proc.stderr
    assert not loaded & NUMERICAL_MODULES, sorted(loaded & NUMERICAL_MODULES)


@pytest.mark.skipif(not Path("/proc/self/status").exists() or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/status and two cores, where OpenBLAS would "
                           "start a second thread")
def test_stage_process_loads_numpy_with_one_blas_thread(tmp_path):
    # a build process started with OPENBLAS_NUM_THREADS=2 ends with one
    # thread, and with the variable as it started
    import subprocess
    code = ("import os, sys\nfrom miscuq.cli import main\nrc = main(sys.argv[1:])\n"
            "threads = [int(line.split()[1]) for line in open('/proc/self/status')\n"
            "           if line.startswith('Threads:')]\n"
            "print(rc, threads, repr(os.environ.get('OPENBLAS_NUM_THREADS')))")
    proc = subprocess.run([sys.executable, "-c", code, "build", "--config", str(DEMO_CONFIG),
                           "--out", str(tmp_path / "out"), "--quiet"],
                          capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert proc.stdout.split() == ["0", "[1]", "'2'"], proc.stderr


@pytest.mark.parametrize("value", ["3", None], ids=["set", "unset"])
def test_oracle_lanes_get_the_users_blas_threads(tmp_path, value):
    # the stage loads numpy with one OpenBLAS thread, but the simulator
    # lanes it starts see OPENBLAS_NUM_THREADS as the user set it, or unset
    import subprocess
    sim = tmp_path / "sim"
    sim.mkdir()
    oracle = {**EXTERNAL_ORACLE, "workdir": str(sim),
              "command": shlex.join([sys.executable, str(Path(__file__).parent / "env_sim.py")])}
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    # the lanes run in the workdir, where a relative PYTHONPATH finds nothing
    env["PYTHONPATH"] = str(Path(artifacts.__file__).resolve().parents[1])
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    proc = subprocess.run([sys.executable, "-m", "miscuq", "build", "--quiet", "--config",
                           str(write_config(tmp_path, {"oracle": oracle}))],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    seen = [json.loads(p.read_text()) for p in sim.glob("openblas-*.json")]
    assert seen and seen == [value] * len(seen), seen


DEMO_CONFIG = Path(__file__).resolve().parent.parent / "docs" / "demo_config.yaml"
EXTERNAL_ORACLE = {
    "command": "python3 sim.py", "workdir": "sim", "lanes": 2, "timeout": 60.0,
    "fidelities": [{"alpha": 1, "cost_weight": 1.0}, {"alpha": 2, "cost_weight": 36.0}],
    "domain": [{"lo": 810.0, "hi": 1770.0}, {"lo": -10.0, "hi": 5.0}],
}
DROP = object()  # a mutation that removes the key or list item


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
    yield from [("pair", [1, 2]), ("one_key", {"a": 1})]
    if isinstance(value, (int, float)):
        yield from [("text", "abc"), ("bool", True), ("list", [value]), ("nan", math.nan),
                    ("inf", math.inf), ("-inf", -math.inf), ("negative", -abs(value) - 1),
                    ("non_integral", value + 0.5), ("zero", 0), ("half", 0.5), ("two", 2),
                    ("minus_one", -1), ("1e308", 1e308), ("-1e308", -1e308), ("2**70", 2**70),
                    ("quoted_1e3", "1e3")]
    elif isinstance(value, str):
        yield from [("bool", False), ("number", 10), ("list", [value]), ("mapping", {value: 1})]
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
# item (the unread `transform` included), a number for the free text of
# `transform`, and a number that stays in range
SWEEP_LOADS = [
    "oracle.lanes-drop", "calibration.qois.*-drop", "calibration.observations-drop",
    "calibration.n_starts-drop", "calibration.budget-drop", "calibration.budget.max_work-drop",
    "forward.qois.start-drop", "forward.samples-drop", "forward.budget-drop",
    "forward.budget.max_work-drop", "forward.densities-drop", "forward.densities.*-drop",
    "forward.densities-empty", "parameters.1.transform-drop", "parameters.1.transform-number",
    "parameters.0.lo-negative", "parameters.1.lo-negative", "parameters.1.hi-negative",
    "parameters.*.*-non_integral", "*.budget.max_work-non_integral",
    "external:oracle.lanes-drop", "external:oracle.workdir-drop", "external:oracle.timeout-drop",
    "external:oracle.domain-drop", "external:oracle.timeout-non_integral",
    # a one-level table is valid
    "external:oracle.fidelities.1-drop",
    "external:oracle.fidelities.*.cost_weight-non_integral",
    "external:oracle.domain.*.*-non_integral", "external:oracle.domain.*.lo-negative",
    "external:oracle.domain.1.hi-negative",
    # and each odd number that stays in its key's range, however large
    *(f"{key}-{name}" for key, names in {
        "seed": "zero two 1e308 2**70", "*oracle.lanes": "two", "calibration.n_starts": "two",
        "forward.samples": "two", "*.budget.max_work": "zero half two 1e308 2**70",
        "parameters.0.lo": "zero half two minus_one -1e308", "parameters.1.lo": "minus_one -1e308",
        "parameters.1.hi": "zero half two minus_one", "parameters.*.hi": "1e308 2**70",
        "external:oracle.timeout": "half two 1e308 2**70",
        "external:oracle.fidelities.0.cost_weight": "half two",
        "external:oracle.fidelities.1.alpha": "two",
        "external:oracle.fidelities.1.cost_weight": "two 1e308 2**70",
        "external:oracle.domain.*.lo": "zero half two minus_one -1e308",
        "external:oracle.domain.1.hi": "zero half two minus_one",
        "external:oracle.domain.*.hi": "1e308 2**70",
    }.items() for name in names.split()),
]
# the stage that first reads each demo key: a demo case that loads runs it
SWEEP_STAGES = [("seed-*", "calibrate"), ("calibration.observations-*", "calibrate"),
                ("calibration.n_starts-*", "calibrate"), ("forward.*", "forward"), ("*", "build")]
# the child that runs them: under an address-space cap, so a count that
# escapes its bound fails fast, it builds and calibrates the demo, then runs
# each case it reads from stdin on a copy of those artifacts and prints each
# case's exit code (or the exception that escaped ``main``) and ERROR lines
SWEEP_CHILD = """
import json, logging, resource, shutil, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from miscuq.cli import load_config, main

class Records(logging.Handler):
    def emit(self, record):
        records.append(record)

records = []
logging.getLogger().addHandler(Records())  # so main adds no stderr handler
base = sys.argv[1]
assert all(main([stage, "--config", base, "--quiet"]) == 0 for stage in ("build", "calibrate"))
base_out, results = load_config(base).out_dir, {}
for line in sys.stdin:
    case, stage, config = line.rstrip("\\n").split("\\t")
    shutil.copytree(base_out, load_config(config).out_dir)
    records.clear()
    try:
        code = main([stage, "--config", config, "--quiet"])
    except Exception as exc:
        code = repr(exc)
    results[case] = (code, [r.getMessage() for r in records if r.levelno >= logging.ERROR],
                     any(r.exc_info for r in records))
print(json.dumps(results))
"""


def test_malformed_config_sweep(tmp_path, caplog):
    # each mutation runs `report` on artifacts it can read, so a config that
    # loads exits 0; every other one must exit 2 with one message naming its
    # section and no traceback.  A demo case that loads also runs, in a child
    # process, the stage that reads its key: exit 0, 2, 3 or 4, with at most
    # one ERROR line and no traceback.  External cases only load, so no lane
    # starts.
    import subprocess
    for name, doc in REPORT_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    runs = tmp_path / "runs"
    runs.mkdir()
    shutil.copy(DEMO_CONFIG.parent / "demo_observations.csv", runs)
    demo = yaml.safe_load(DEMO_CONFIG.read_text(encoding="utf-8"))
    (runs / "base.yaml").write_text(yaml.dump({**demo, "output_dir": str(runs / "base")},
                                              Dumper=DUMPER))
    path = tmp_path / "cfg.yaml"
    wrong, staged = [], []
    with subprocess.Popen([sys.executable, "-c", SWEEP_CHILD, str(runs / "base.yaml")],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as child:
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
            if code == EXIT_OK and not case.startswith("external:"):
                config = runs / f"{len(staged)}.yaml"
                config.write_text(yaml.dump({**doc, "output_dir": str(runs / str(len(staged)))},
                                            Dumper=DUMPER))
                stage = next(s for p, s in SWEEP_STAGES if fnmatch.fnmatchcase(case, p))
                child.stdin.write(f"{case}\t{stage}\t{config}\n")
                child.stdin.flush()
                staged.append(case)
        out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    results = json.loads(out)
    assert sorted(results) == sorted(staged)
    wrong += [(case, code, errors) for case, (code, errors, traced) in results.items()
              if code not in (EXIT_OK, EXIT_CONFIG, EXIT_ORACLE, EXIT_NUMERICAL)
              or len(errors) > 1 or traced]
    assert not wrong, wrong


# the keys each stage requires of each artifact it reads, and the exit code
# of a malformed one
ARTIFACT_INPUTS = [
    ("calibrate", "surrogate.json", ("format", "version", "dim", "qois", "families", "entries"),
     EXIT_NUMERICAL),
    ("forward", "posterior.json", ("mean", "covariance", "sigma_meas"), EXIT_CONFIG),
    ("report", "posterior.json", ("parameters", "mean", "covariance", "sigma_meas"), EXIT_CONFIG),
    ("report", "build_report.json",
     ("work_spent", "evaluations_total", "surrogate_points_by_fidelity"), EXIT_CONFIG),
    ("report", "reduction.json",
     ("reduction_percent", "prior_extrapolated_fraction", "posterior_extrapolated_fraction"),
     EXIT_CONFIG),
]


# each value of the wrong type that replaces a required key
WRONG_VALUES = [("text", "x"), ("null", None), ("bool", True), ("inf", math.inf),
                ("list", []), ("mapping", {})]
# the only replacements that still load: a value of the right type
ARTIFACT_LOADS = ["report:build_report.json-surrogate_points_by_fidelity_mapping"]


def artifact_cases(out):
    """(id, stage, file, malformed text, expected exit code) over the real
    artifacts under ``out``: each JSON file cut at half, replaced whole,
    missing a required key or with that key's value replaced, a posterior
    with a NaN entry, each file and the cache's first record nested beyond
    the recursion limit, and the cache with one record replaced or missing a
    field."""
    for stage, name, keys, code in ARTIFACT_INPUTS:
        text = (out / name).read_text()
        yield f"{stage}:{name}-half", stage, name, text[: len(text) // 2], code
        for tag, doc in (("list", []), ("null", None), ("text", "x")):
            yield f"{stage}:{name}-{tag}", stage, name, json.dumps(doc), code
        yield f"{stage}:{name}-deep", stage, name, DEEP, code
        edits = [(f"drop_{key}", lambda doc, key=key: doc.pop(key)) for key in keys]
        edits += [(f"{key}_{tag}", lambda doc, key=key, value=value: doc.update({key: value}))
                  for key in keys for tag, value in WRONG_VALUES]
        if name == "posterior.json":
            edits += [(f"{key}0_nan", lambda doc, key=key: doc[key].__setitem__(0, math.nan))
                      for key in ("mean", "covariance")]
        if name == "surrogate.json":  # text iterates like a list of the right length
            edits += [("qois_chars", lambda doc: doc.update(qois="abcde")),
                      ("qois_numbers", lambda doc: doc.update(qois=[1, 2, 3, 4, 5])),
                      ("values_text", lambda doc: [rec.update(values="1" * len(rec["values"]))
                                                   for rec in doc["entries"] if "values" in rec])]
        for tag, edit in edits:
            doc = json.loads(text)
            edit(doc)
            case = f"{stage}:{name}-{tag}"
            yield case, stage, name, json.dumps(doc), EXIT_OK if case in ARTIFACT_LOADS else code
    first, *rest = (out / "cache.jsonl").read_text().splitlines(keepends=True)
    yield "build:cache.jsonl-deep", "build", "cache.jsonl", "".join([DEEP + "\n", *rest]), \
        EXIT_ORACLE
    records = [("list", []), ("null", None), ("text", "x"), ("empty", {})]
    for key in ("alpha", "point", "values"):
        rec = json.loads(first)
        del rec[key]
        records.append((f"drop_{key}", rec))
    for tag, rec in records:
        yield f"build:cache.jsonl-{tag}", "build", "cache.jsonl", "".join(
            [json.dumps(rec) + "\n", *rest]), EXIT_ORACLE


def test_malformed_artifact_sweep(tmp_path, caplog):
    # every malformed stage input exits with its code, one ERROR record and
    # no traceback; each case starts from the full run's files, since a
    # stage removes its outputs that a later stage reads
    path = write_config(tmp_path)
    run_pipeline(load_config(path))
    out = tmp_path / "out"
    good = snapshot(out)
    wrong = []
    for case, stage, name, text, expected in artifact_cases(out):
        (out / name).write_text(text)
        caplog.clear()
        code = main([stage, "--config", str(path), "--quiet"])
        for rel, data in good.items():
            (out / rel).write_bytes(data)
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        if not (code == expected and len(errors) == (expected != EXIT_OK)
                and all(r.exc_info is None for r in caplog.records)):
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
        cfg = load_config(write_config(tmp_path))
        run_pipeline(cfg)
        before = snapshot(cfg.out_dir)
        for stage, name in self.TEARS:
            def torn_open(file, *args, _name=name, **kwargs):
                fh = open(file, *args, **kwargs)
                return TornFile(fh) if file.name.startswith(f".{_name}.") else fh

            monkeypatch.setattr(artifacts, "open", torn_open, raising=False)
            with pytest.raises(OSError, match="No space left"):
                stage(cfg)
            monkeypatch.undo()
            after = snapshot(cfg.out_dir)
            assert after.keys() == before.keys(), name
            for rel in before:
                assert after[rel] == before[rel], (name, rel)


def test_stage_table_reads_what_earlier_stages_provide(clean_run):
    # the table lists the stages in pipeline order; each stage reads only
    # files an earlier stage provides, and in a real run each stage writes
    # the files it provides, which were absent before it
    assert tuple(_STAGES) == STAGES
    provided = set()
    for (stage, (_, reads, provides)), before, after in zip(
            _STAGES.items(), clean_run.files, clean_run.files[1:]):
        assert set(reads) <= provided, stage
        assert not set(provides) & before and set(provides) <= after, stage
        provided |= set(provides)


CRASH_WRITES = 30  # artifact writes and cache appends in a clean run of the four stages


@pytest.mark.parametrize("k", range(1, CRASH_WRITES + 1))
def test_rerun_after_failed_write_matches_clean_run(tmp_path, monkeypatch, clean_run, k):
    # the k-th write of the pipeline fails and its stage exits with an error;
    # the four stages then run again without the fault and leave every file,
    # the cache included, byte for byte as a clean run leaves it
    assert clean_run.writes == CRASH_WRITES
    argv = ["--config", str(clean_run.config), "--out", str(tmp_path / "out"), "--quiet"]
    with monkeypatch.context() as mp:
        opener = counting_writes(mp, fail_at=k)
        codes = []
        for stage in STAGES:
            codes.append(main([stage, *argv]))
            if codes[-1] != EXIT_OK:
                break
    assert opener.writes == k and codes[-1] in (EXIT_CONFIG, EXIT_ORACLE), codes
    assert [main([stage, *argv]) for stage in STAGES] == [EXIT_OK] * 4
    after = snapshot(tmp_path / "out")
    assert after.keys() == clean_run.snapshot.keys()
    assert [rel for rel in after if after[rel] != clean_run.snapshot[rel]] == []
