"""Oracle boundary: builtin model closed forms, cache behaviour, and the
external-process line protocol (echo, crash, per-point error, latency)."""

import json
import math
import sys
import textwrap
import time
from contextlib import closing
from types import SimpleNamespace

import numpy as np
import pytest

from miscuq.cli import cmd_build, load_config
from miscuq.oracle import (
    BeamAnalogModel,
    CachedOracle,
    EvalCache,
    EvalResult,
    ExternalProcessModel,
    FidelitySpec,
    OracleError,
    OracleProtocolError,
    builtin_model,
    point_key,
)
from test_cli import write_config

PY = sys.executable


def write_script(tmp_path, name, body) -> str:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return f"{PY} {path}"


ECHO_SCRIPT = """\
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps({"id": req["id"],
                          "values": [req["params"][0]] * len(req["qois"])}), flush=True)
"""

CRASH_ON_HIGH_SCRIPT = """\
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        if req["fidelity"] == 2:
            sys.exit(13)
        print(json.dumps({"id": req["id"],
                          "values": [0.0] * len(req["qois"])}), flush=True)
"""

NEGATIVE_FAILS_SCRIPT = """\
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        if req["params"][0] < 0:
            print(json.dumps({"id": req["id"], "error": "negative input"}), flush=True)
        else:
            print(json.dumps({"id": req["id"], "values": [1.0] * len(req["qois"])}), flush=True)
"""

SLOW_SCRIPT = """\
    import json, sys, time
    for line in sys.stdin:
        req = json.loads(line)
        time.sleep(0.1)
        print(json.dumps({"id": req["id"], "values": [0.0] * len(req["qois"])}), flush=True)
"""

CRASH_ON_THREE_SCRIPT = """\
    import json, sys, time
    for line in sys.stdin:
        with open(sys.argv[1], "a") as served:
            served.write(line)
        req = json.loads(line)
        if req["params"][0] == 3.0:
            sys.exit(13)
        time.sleep(0.05)
        print(json.dumps({"id": req["id"], "values": [0.0] * len(req["qois"])}), flush=True)
"""

DOUBLE_ANSWER_SCRIPT = """\
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        if req["id"] == 0:  # two answers in one write, then silence
            answer = json.dumps({"id": 0, "values": [0.0] * len(req["qois"])})
            sys.stdout.write(answer + "\\n" + answer + "\\n")
            sys.stdout.flush()
"""

HUNG_SCRIPT = """\
    import sys, time
    for line in sys.stdin:
        time.sleep(30)
"""

NON_FINITE_SCRIPT = """\
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        vals = [1.0] * len(req["qois"])
        if req["params"][0] < 0:
            vals[-1] = float(sys.argv[1])
        print(json.dumps({"id": req["id"], "values": vals}), flush=True)
"""

CLOSE_THEN_EXIT_SCRIPT = """\
    import os, sys, time
    sys.stdin.readline()
    os.close(1)
    time.sleep(0.2)
    sys.exit(7)
"""

GARBAGE_SCRIPT = """\
    import sys
    for line in sys.stdin:
        print("not json at all", flush=True)
"""


def external(command, lanes=1, fidelities=(FidelitySpec(1, 1.0), FidelitySpec(2, 36.0)),
             timeout=10.0):
    """A backend whose lanes are closed on leaving the ``with`` block."""
    return closing(ExternalProcessModel(command, dim=1, fidelities=fidelities, lanes=lanes,
                                        timeout=timeout))


class TestBeamAnalogModel:
    def test_registry(self):
        assert builtin_model("beam-analog").name == "beam-analog"
        with pytest.raises(OracleError, match=r"known: \['beam-analog'\]"):
            builtin_model("no-such-model")

    def test_center_displacement(self):
        model = BeamAnalogModel()
        assert model.exact((1290.0, -2.5), ["u_3"])[0] == pytest.approx(0.3, abs=1e-15)

    def test_center_strain(self):
        model = BeamAnalogModel()
        assert model.exact((1290.0, -2.5), ["e_120"])[0] == pytest.approx(3.0e-4, rel=1e-12)

    def test_fidelity_formula_closed_form(self):
        model = BeamAnalogModel()
        ta, lh = 1290.0, -2.5
        exact = model.exact((ta, lh), ["u_2"])[0]
        expected = exact * (1.0 + (0.05 / 36.0) * math.cos(ta / 200.0) * math.cos(lh))
        assert model.evaluate(2, (ta, lh), ["u_2"])[0] == pytest.approx(expected, rel=1e-14)

    def test_bias_gap_identity(self):
        model = BeamAnalogModel()
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = (rng.uniform(1130, 1450), rng.uniform(-5, 0))
            f1 = model.evaluate(1, v, ["e_7"])[0]
            f2 = model.evaluate(2, v, ["e_7"])[0]
            exact = model.exact(v, ["e_7"])[0]
            gap = exact * (0.05 / 36.0 - 0.05) * math.cos(v[0] / 200.0) * math.cos(v[1])
            assert f2 - f1 == pytest.approx(gap, rel=1e-10, abs=1e-18)

    def test_bias_shrinks_by_cost_ratio(self):
        model = BeamAnalogModel()
        v = (1200.0, -1.0)
        exact = model.exact(v, ["u_1"])[0]
        b1 = abs(model.evaluate(1, v, ["u_1"])[0] - exact)
        b2 = abs(model.evaluate(2, v, ["u_1"])[0] - exact)
        assert b1 / b2 == pytest.approx(36.0, rel=1e-9)

    def test_unknown_qoi_rejected(self):
        for qois, unknown in ((["u_9"], "u_9"), (["u_1", "e_121"], "e_121"), (["e_0"], "e_0"),
                              (["x_1"], "x_1")):
            with pytest.raises(OracleError, match=f"^unknown QoI '{unknown}'$"):
                BeamAnalogModel().exact((1290.0, -2.5), qois)

    def test_array_closed_forms_match_scalar_ones_bit_for_bit(self):
        # at the domain's and the nominal box's corners and at random points,
        # every declared QoI at both fidelities
        model = BeamAnalogModel()
        (t_lo, t_hi), (l_lo, l_hi) = model.domain
        rng = np.random.default_rng(11)
        points = [(t, h) for t in (t_lo, 1130.0, 1290.0, 1450.0, t_hi)
                  for h in (l_lo, -5.0, -2.5, 0.0, l_hi)]
        points += list(zip(rng.uniform(t_lo, t_hi, 200).tolist(),
                           rng.uniform(l_lo, l_hi, 200).tolist()))
        for v in points:
            assert hexes(model.exact(v, model.qoi_names)) == hexes(
                scalar_exact(v, model.qoi_names)), v
            for alpha in (1, 2):
                got = model.evaluate(alpha, v, model.qoi_names)
                assert all(type(x) is float for x in got)
                assert hexes(got) == hexes(scalar_evaluate(alpha, v, model.qoi_names)), (alpha, v)

    def test_any_qoi_subset_in_any_order(self):
        model = BeamAnalogModel()
        rng = np.random.default_rng(12)
        for n in (1, 5, 17, 125):
            qois = [str(q) for q in rng.choice(model.qoi_names, n, replace=False)]
            qois.append(qois[0])  # a name asked for twice is answered twice
            v = (rng.uniform(1130, 1450), rng.uniform(-5, 0))
            assert hexes(model.exact(v, qois)) == hexes(scalar_exact(v, qois))
            assert hexes(model.evaluate(1, v, qois)) == hexes(scalar_evaluate(1, v, qois))
        assert model.exact((1290.0, -2.5), []).shape == (0,)


def hexes(values):
    return [float(x).hex() for x in values]


def scalar_exact(v, qois):
    """The closed forms of ``BeamAnalogModel`` one QoI at a time in scalars,
    the reference for its array evaluation."""
    t, logh = float(v[0]), float(v[1])
    s = math.tanh((t - 1290.0) / 160.0)
    out = []
    for q in qois:
        kind, _, num = q.partition("_")
        k = int(num)
        if kind == "u":
            out.append(0.1 * k * (1.0 + 0.3 * s) * (1.0 + 0.15 * (logh + 2.5) / 2.5))
        else:
            out.append((1.5 - 0.01 * k) * 1e-3 *
                       (1.0 + 0.2 * s + 0.1 * math.sin(math.pi * (logh + 2.5) / 5.0)))
    return out


def scalar_evaluate(alpha, v, qois):
    t, logh = float(v[0]), float(v[1])
    bias = 1.0 + BeamAnalogModel.BIAS[alpha] * math.cos(t / 200.0) * math.cos(logh)
    return [x * bias for x in scalar_exact(v, qois)]


class TestEvalCache:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvalCache(path)
        key = point_key((1290.0, -2.5 + 1e-17))
        cache.put_many([(1, key, {"u_1": 0.1 + 0.2, "e_3": -1e-300})])
        reloaded = EvalCache(path)
        assert reloaded.get(1, key) == {"u_1": 0.1 + 0.2, "e_3": -1e-300}
        assert len(reloaded) == 2
        assert len(path.read_text().splitlines()) == 1

    def test_later_record_adds_qois_to_its_point(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = point_key((1.0,))
        EvalCache(path).put_many([(1, key, {"u_1": 1.0, "u_2": 2.0})])
        EvalCache(path).put_many([(1, key, {"u_2": 3.0, "e_1": 4.0}), (2, key, {"u_1": 5.0})])
        reloaded = EvalCache(path)
        assert reloaded.get(1, key) == {"u_1": 1.0, "u_2": 3.0, "e_1": 4.0}
        assert reloaded.get(2, key) == {"u_1": 5.0}
        assert reloaded.get(1, point_key((2.0,))) == {}
        assert len(reloaded) == 4
        assert reloaded.points_by_alpha() == {1: {key}, 2: {key}}

    def test_distinguishes_signed_zero(self):
        assert point_key((0.0,)) != point_key((-0.0,))

    def test_corrupt_record_rejected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"alpha": 1, "point": ["0x0.0p+0"], "qoi": "u_1"}\n')
        with pytest.raises(OracleError):
            EvalCache(path)

    @pytest.mark.parametrize("rec", [
        {"alpha": 1, "point": ["0x0.0p+0"], "qoi": "u_1", "value": "0x1.0p+0"},
        {"alpha": 1, "point": ["0x0.0p+0"], "values": ["0x1.0p+0"]},
        *[{"alpha": alpha, "point": ["0x0.0p+0"], "values": {"u_1": "0x1.0p+0"}}
          for alpha in (1.5, True, "1", -1)],
        *[{"alpha": 1, "point": point, "values": {"u_1": "0x1.0p+0"}}
          for point in ("x", {}, [1.0, 2.0], ["zz", "zz"])],
        {"alpha": 1, "point": ["0x0.0p+0"], "values": {"u_1": "0x1p+2000"}},
        {"alpha": 1, "point": ["0x1p+2000"], "values": {"u_1": "0x1.0p+0"}},
        {"alpha": 1, "point": ["0x0.0p+0"], "values": {"u_1": "0.09604988664165479"}},
        {"alpha": 1, "point": ["0x0.0p+0"], "values": {"u_1": "1"}},
    ], ids=["per_qoi_layout", "values_not_a_mapping", "alpha_float", "alpha_bool",
            "alpha_text", "alpha_negative", "point_text", "point_mapping", "point_numbers",
            "point_not_hex", "value_out_of_range", "point_out_of_range", "value_decimal_text",
            "value_digit_text"])
    def test_record_of_another_layout_rejected(self, tmp_path, rec):
        path = tmp_path / "cache.jsonl"
        EvalCache(path).put_many([(1, point_key((1.0,)), {"u_1": 1.0})])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        with pytest.raises(OracleError, match=r'cache.jsonl:2 \(expected \{"alpha", "point", '
                                              r'"values": \{qoi: hex\}\}\)'):
            EvalCache(path)

    def test_torn_last_record_dropped_and_truncated(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = EvalCache(path)
        cache.put_many([(1, point_key((float(i),)), {"u_1": float(i), "u_2": -float(i)})
                        for i in range(3)])
        good = path.read_bytes()
        path.write_bytes(good + good.splitlines(keepends=True)[0][:17])
        with caplog.at_level("WARNING", logger="miscuq.oracle"):
            reloaded = EvalCache(path)
        assert len(reloaded) == 6
        assert "torn" in caplog.text
        assert path.read_bytes() == good
        reloaded.put_many([(1, point_key((9.0,)), {"u_1": 9.0})])
        assert EvalCache(path).get(1, point_key((9.0,))) == {"u_1": 9.0}

    def test_corrupt_middle_record_rejected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvalCache(path)
        cache.put_many([(1, point_key((0.0,)), {"u_1": 0.0})])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"alpha": 1, "point": ["0x0.0p+0"], "val\n')
        cache.put_many([(1, point_key((1.0,)), {"u_1": 1.0})])
        with pytest.raises(OracleError, match=":2"):
            EvalCache(path)

    def test_non_finite_cached_value_rejected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        rec = {"alpha": 1, "point": list(point_key((0.0,))),
               "values": {"u_1": "0x1.0p+0", "u_2": float("nan").hex()}}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(OracleError, match="non-finite"):
            EvalCache(path)


class TestCachedOracle:
    def test_repeat_batch_hits_cache(self):
        oracle = CachedOracle(BeamAnalogModel())
        pts = [(1290.0, -2.5), (1450.0, 0.0)]
        first = oracle.eval_batch(1, pts, ["u_1", "e_3"])
        assert oracle.backend_points == {1: 2}
        second = oracle.eval_batch(1, pts, ["u_1", "e_3"])
        assert oracle.backend_points == {1: 2}
        assert first == second

    def test_partial_qoi_miss_dispatches_point_again(self):
        oracle = CachedOracle(BeamAnalogModel())
        oracle.eval_batch(1, [(1290.0, -2.5)], ["u_1"])
        oracle.eval_batch(1, [(1290.0, -2.5)], ["u_1", "u_2"])
        assert oracle.backend_points == {1: 2}
        # cached value untouched by the second dispatch
        a = oracle.eval_batch(1, [(1290.0, -2.5)], ["u_1"])[0]
        assert a.ok

    def test_session_qois_ride_along_with_each_request(self):
        model = BeamAnalogModel()
        oracle = CachedOracle(model, qois=("u_1", "e_3"))
        point = (1290.0, -2.5)
        first = oracle.eval_batch(1, [point], ["u_1"])[0]
        second = oracle.eval_batch(1, [point], ["e_3"])[0]
        assert oracle.backend_points == {1: 1}
        assert first.values == model.evaluate(1, point, ["u_1"])
        assert second.values == model.evaluate(1, point, ["e_3"])

    def test_session_qois_skip_what_the_point_has(self):
        sent = []

        class Recording(BeamAnalogModel):
            def dispatch(self, requests):
                sent.extend(r.qois for r in requests)
                return super().dispatch(requests)

        oracle = CachedOracle(Recording(), qois=("u_2", "u_1", "e_3"))
        oracle.eval_batch(1, [(1290.0, -2.5)], ["e_3"])
        oracle.cache.put_many([(2, point_key((1290.0, -2.5)), {"u_1": 1.0})])
        oracle.eval_batch(2, [(1290.0, -2.5)], ["u_3"])
        assert sent == [("e_3", "u_2", "u_1"), ("u_3", "u_2", "e_3")]

    def test_unknown_session_qoi_rejected(self):
        with pytest.raises(OracleError, match="u_77"):
            CachedOracle(BeamAnalogModel(), qois=("u_1", "u_77"))

    @pytest.mark.parametrize("point", [(1290.0,), (1290.0, -2.5, 0.0)])
    def test_point_of_another_dimension_rejected(self, point):
        oracle = CachedOracle(BeamAnalogModel())
        with pytest.raises(OracleError, match="coordinates"):
            oracle.eval_batch(1, [point], ["u_1"])
        assert oracle.backend_points == {} and len(oracle.cache) == 0

    def test_out_of_domain_point_fails_alone(self):
        oracle = CachedOracle(BeamAnalogModel())
        results = oracle.eval_batch(1, [(1290.0, -2.5), (1290.0, 99.0)], ["u_1"])
        assert results[0].ok and not results[1].ok
        assert "domain" in results[1].error

    def test_out_of_domain_error_prints_plain_floats(self):
        [result] = CachedOracle(BeamAnalogModel()).eval_batch(1, [(1290.0, -25.0)], ["u_1"])
        assert result.error == "point (1290.0, -25.0) outside the oracle domain"

    def test_unregistered_fidelity_rejected(self):
        oracle = CachedOracle(BeamAnalogModel())
        with pytest.raises(OracleError):
            oracle.eval_batch(3, [(1290.0, -2.5)], ["u_1"])

    def test_unknown_qoi_rejected(self):
        oracle = CachedOracle(BeamAnalogModel())
        with pytest.raises(OracleError):
            oracle.eval_batch(1, [(1290.0, -2.5)], ["u_77"])

    def test_persisted_cache_reused_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = CachedOracle(BeamAnalogModel(), EvalCache(path))
        res_a = first.eval_batch(2, [(1200.0, -1.0)], ["u_1"])
        second = CachedOracle(BeamAnalogModel(), EvalCache(path))
        res_b = second.eval_batch(2, [(1200.0, -1.0)], ["u_1"])
        assert second.backend_points == {}
        assert res_a == res_b

    @pytest.mark.parametrize("table", [
        (FidelitySpec(1, 2.0), FidelitySpec(2, 2.0)),
        (FidelitySpec(1, 1.0), FidelitySpec(1, 2.0)),
        (FidelitySpec(2, 36.0),),
        (FidelitySpec(1, 1.0), FidelitySpec(3, 36.0)),
    ], ids=["flat", "duplicate_level", "no_level_1", "gap"])
    @pytest.mark.parametrize("make", [
        lambda table: CachedOracle(SimpleNamespace(fidelities=table, dim=1)),
        lambda table: ExternalProcessModel("sim", dim=1, fidelities=table),
    ], ids=["cached", "external"])
    def test_cost_weights_must_increase(self, make, table):
        with pytest.raises(ValueError):
            make(table)

    @pytest.mark.parametrize("n_qois", [1, 120])
    def test_cold_batch_looks_each_point_up_at_most_twice(self, monkeypatch, n_qois):
        gets = []
        original = EvalCache.get
        monkeypatch.setattr(EvalCache, "get",
                            lambda self, *args: gets.append(args) or original(self, *args))
        oracle = CachedOracle(BeamAnalogModel())
        pts = [(1130.0 + 10.0 * i, -2.5) for i in range(7)]
        qois = [f"e_{j}" for j in range(1, n_qois + 1)]
        results = oracle.eval_batch(1, pts, qois)
        assert all(r.ok and len(r.values) == n_qois for r in results)
        assert oracle.backend_points == {1: len(pts)}
        assert len(gets) <= 2 * len(pts)

    def test_cold_build_writes_one_cache_line_per_backend_request(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        build = cmd_build(cfg)
        lines = (cfg.out_dir / "cache.jsonl").read_text().splitlines()
        assert len(lines) == sum(build["backend_points"].values()) > 0


class TestExternalOracle:
    def test_echo_identity(self, tmp_path):
        cmd = write_script(tmp_path, "echo.py", ECHO_SCRIPT)
        with external(cmd) as backend:
            oracle = CachedOracle(backend)
            results = oracle.eval_batch(1, [(3.5,), (-2.0,)], ["q_a", "q_b"])
        assert results[0].values == (3.5, 3.5)
        assert results[1].values == (-2.0, -2.0)

    def test_crash_aborts_with_request_attached(self, tmp_path):
        cmd = write_script(tmp_path, "crash.py", CRASH_ON_HIGH_SCRIPT)
        with external(cmd) as backend:
            oracle = CachedOracle(backend)
            assert oracle.eval_batch(1, [(1.0,)], ["q"])[0].ok
            with pytest.raises(OracleProtocolError) as err:
                oracle.eval_batch(2, [(1.0,)], ["q"])
            assert "fidelity\": 2" in str(err.value).replace("'", "\"")

    def test_per_point_error_does_not_abort(self, tmp_path):
        cmd = write_script(tmp_path, "neg.py", NEGATIVE_FAILS_SCRIPT)
        with external(cmd) as backend:
            oracle = CachedOracle(backend)
            results = oracle.eval_batch(1, [(1.0,), (-1.0,), (2.0,)], ["q"])
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error == "negative input"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_fails_point_and_is_not_cached(self, tmp_path, bad):
        cmd = write_script(tmp_path, "nonfinite.py", NON_FINITE_SCRIPT) + f" {bad}"
        cache = EvalCache(tmp_path / "cache.jsonl")
        with external(cmd) as backend:
            oracle = CachedOracle(backend, cache)
            results = oracle.eval_batch(1, [(1.0,), (-1.0,)], ["q_a", "q_b"])
        assert results[0].values == (1.0, 1.0)
        assert not results[1].ok and "non-finite" in results[1].error
        assert len(EvalCache(tmp_path / "cache.jsonl")) == 2

    def test_non_numeric_value_is_protocol_error(self, tmp_path):
        cmd = write_script(tmp_path, "text.py", ECHO_SCRIPT.replace(
            '[req["params"][0]]', '["abc"]'))
        with external(cmd) as backend:
            oracle = CachedOracle(backend)
            with pytest.raises(OracleProtocolError, match="non-numeric"):
                oracle.eval_batch(1, [(1.0,)], ["q"])

    @pytest.mark.parametrize("value", ["True", '"0.5"', "None"])
    def test_non_number_value_is_protocol_error(self, tmp_path, value):
        # each value must be a JSON number: no boolean, text or null
        cmd = write_script(tmp_path, "typed.py", ECHO_SCRIPT.replace(
            '[req["params"][0]]', f"[{value}]"))
        with external(cmd) as backend:
            oracle = CachedOracle(backend)
            with pytest.raises(OracleProtocolError, match="non-numeric"):
                oracle.eval_batch(1, [(1.0,)], ["q"])

    def test_malformed_line_is_protocol_error(self, tmp_path):
        cmd = write_script(tmp_path, "garbage.py", GARBAGE_SCRIPT)
        with external(cmd) as backend:
            oracle = CachedOracle(backend)
            with pytest.raises(OracleProtocolError):
                oracle.eval_batch(1, [(1.0,)], ["q"])

    def test_missing_executable_is_oracle_error(self):
        with external("/no/such/binary --flag") as backend:
            oracle = CachedOracle(backend)
            with pytest.raises(OracleError, match="cannot start"):
                oracle.eval_batch(1, [(1.0,)], ["q"])

    def test_timeout_is_protocol_error(self, tmp_path):
        cmd = write_script(tmp_path, "slow.py", SLOW_SCRIPT)
        with external(cmd, timeout=0.02) as backend:
            oracle = CachedOracle(backend)
            with pytest.raises(OracleProtocolError) as err:
                oracle.eval_batch(1, [(1.0,)], ["q"])
            assert "timed out" in str(err.value)

    def test_concurrent_lanes_cut_wall_time(self, tmp_path):
        # 17 points at 100 ms each: serial needs 1.7 s, 8 lanes about 0.3 s.
        cmd = write_script(tmp_path, "slow.py", SLOW_SCRIPT)
        pts = [(float(i),) for i in range(17)]
        with external(cmd, lanes=8) as backend:
            oracle = CachedOracle(backend)
            start = time.monotonic()
            results = oracle.eval_batch(1, pts, ["q"])
            wall = time.monotonic() - start
        assert all(r.ok for r in results)
        assert wall < 1.2

    def test_results_in_request_order(self, tmp_path):
        cmd = write_script(tmp_path, "echo.py", ECHO_SCRIPT)
        pts = [(float(i),) for i in range(12)]
        with external(cmd, lanes=4) as backend:
            oracle = CachedOracle(backend)
            results = oracle.eval_batch(1, pts, ["q"])
        assert [r.values[0] for r in results] == [float(i) for i in range(12)]

    def test_lane_crash_stops_the_batch(self, tmp_path):
        # point 3 kills its lane: the other lane must not go on serving the
        # batch, so at most one more request per lane reaches a simulator
        served = tmp_path / "served.log"
        cmd = write_script(tmp_path, "crash3.py", CRASH_ON_THREE_SCRIPT) + f" {served}"
        pts = [(float(i),) for i in range(40)]
        with external(cmd, lanes=2) as backend:
            with pytest.raises(OracleProtocolError, match="exited"):
                CachedOracle(backend).eval_batch(1, pts, ["q"])
        assert len(served.read_text().splitlines()) <= 3 + 2

    def test_aborted_batch_keeps_its_answers(self, tmp_path):
        # one lane answers points 0, 1 and 2, then dies on point 3
        served = tmp_path / "served.log"
        cmd = write_script(tmp_path, "crash3.py", CRASH_ON_THREE_SCRIPT) + f" {served}"
        pts = [(float(i),) for i in range(6)]
        path = tmp_path / "cache.jsonl"
        with external(cmd) as backend:
            oracle = CachedOracle(backend, EvalCache(path))
            with pytest.raises(OracleProtocolError, match="exited"):
                oracle.eval_batch(1, pts, ["q"])
        assert oracle.backend_points == {1: 3}
        assert EvalCache(path).points_by_alpha() == {1: {point_key(p) for p in pts[:3]}}
        with external(write_script(tmp_path, "echo.py", ECHO_SCRIPT)) as backend:
            rerun = CachedOracle(backend, EvalCache(path))
            results = rerun.eval_batch(1, pts, ["q"])
        assert rerun.backend_points == {1: 3}
        assert [r.values for r in results] == [(0.0,)] * 3 + [(3.0,), (4.0,), (5.0,)]

    def test_dead_lane_reports_its_exit_code(self, tmp_path):
        # the child closes its output before it exits
        cmd = write_script(tmp_path, "close.py", CLOSE_THEN_EXIT_SCRIPT)
        with external(cmd) as backend:
            with pytest.raises(OracleProtocolError, match=r"exited \(code 7\)"):
                CachedOracle(backend).eval_batch(1, [(1.0,)], ["q"])

    def test_hung_lanes_stop_together(self, tmp_path):
        # four children that never answer share one 2 s grace before they are
        # killed; a grace per lane took the timeout plus about 8 s
        cmd = write_script(tmp_path, "hung.py", HUNG_SCRIPT)
        with external(cmd, lanes=4, timeout=0.5) as backend:
            start = time.monotonic()
            with pytest.raises(OracleProtocolError, match="timed out"):
                CachedOracle(backend).eval_batch(1, [(float(i),) for i in range(4)], ["q"])
            assert time.monotonic() - start < 4.0

    def test_buffered_extra_answer_is_id_mismatch_not_timeout(self, tmp_path):
        cmd = write_script(tmp_path, "double.py", DOUBLE_ANSWER_SCRIPT)
        with external(cmd, timeout=5.0) as backend:
            start = time.monotonic()
            with pytest.raises(OracleProtocolError, match="id mismatch"):
                CachedOracle(backend).eval_batch(1, [(1.0,), (2.0,)], ["q"])
            assert time.monotonic() - start < 4.0
