"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest -q perfbench
The smoke runs take about two minutes on 2 vCPUs.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_union_of_children():
    # root 0-10 has children 1-4 and 3-6 (overlapping: union 1-6) and a
    # grandchild 2-3 under the first child; a child reaching past its parent
    # is clipped to it
    tree = [
        [0, "root", 0.0, 10.0, None, {}],
        [1, "a", 1.0, 4.0, 0, {}],
        [2, "b", 3.0, 6.0, 0, {}],
        [3, "c", 2.0, 3.0, 1, {}],
        [4, "late", 9.0, 11.0, 0, {}],
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    agg = spans.aggregate([tree, tree])
    assert agg["root"]["calls"] == 2
    assert agg["root"]["self_s"] == pytest.approx(8.0)
    assert agg["c"]["by_parent"] == {"a": 2}
    assert spans.root_time(tree) == pytest.approx(10.0)


def test_recorder_nests_spans_and_keeps_them_on_error():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1)

    def boom():
        raise ValueError("boom")

    outer = rec.wrap("outer", lambda: inner(1) + inner(2))
    failing = rec.wrap("failing", boom)
    assert outer() == 5
    with pytest.raises(ValueError):
        failing()
    names = [(s[1], s[4]) for s in rec.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0), ("failing", None)]
    assert all(s[3] is not None for s in rec.spans)


def test_metric_names_and_units_follow_the_charset():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_backend_points_and_sim_cost_from_cache(tmp_path):
    p, q = ["0x1.0p+0", "0x1.0p+1"], ["0x1.8p+0", "0x1.0p+1"]
    lines = [(1, p, "u_1"), (1, p, "u_2"), (1, q, "u_1"), (1, q, "u_2"), (2, p, "u_1"),
             (2, p, "u_2"),
             # a later request for the same point, asking for QoIs it lacked
             (1, p, "e_1")]
    (tmp_path / "cache.jsonl").write_text("".join(
        json.dumps({"alpha": a, "point": pt, "qoi": qoi, "value": "0x0.0p+0"}) + "\n"
        for a, pt, qoi in lines))
    records = run.cache_records(tmp_path)
    assert len(set(records)) == 3
    per_alpha = run.backend_requests(records)
    assert per_alpha == {1: 3, 2: 1}
    assert run.sim_cost(per_alpha) == 3 * 1.0 + 1 * 36.0
    # counted stage by stage, a request straddling no boundary is counted once
    assert run.add_counts(run.backend_requests(records[:6]),
                          run.backend_requests(records[6:])) == per_alpha
    assert run.cache_records(tmp_path / "missing") == []


def test_simulator_matches_builtin_model_bit_for_bit(tmp_path):
    command = f"{sys.executable} -S {BENCH / 'beam_sim.py'} --count-dir {tmp_path}"
    assert run.check_simulator(command, tmp_path, tmp_path / "sim.log")
    assert run.sim_served(tmp_path) == 0  # the check clears its own count


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    out = run.run_workload(workload, seed=1, seconds=0, trace=False, small=True)
    result = out["result"]
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric():
    result = run.run_workload("external", seed=2, seconds=0, trace=True, small=True)["result"]
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["oracle.dispatch.calls"] > 0
    assert metrics["misc.adapt.iterations"] > 0
    assert metrics["forward.kde.kernel_evals"] == metrics["forward.kde.calls"] * 200 * 512
