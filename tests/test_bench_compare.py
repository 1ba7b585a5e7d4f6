"""The verdicts of ``tools/bench_compare.py``, on synthetic records: no
benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

LOWER = {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "band_coverage", "unit": "fraction", "better": "higher", "bound": 0.1}
# a parent demo pipeline_s: median 1.58 s, interquartile range about 0.1 s
PARENT = [1.53, 1.58, 1.65, 1.49, 1.60, 1.55, 1.71, 1.52, 1.62, 1.57]


def entry(metric, parent, change):
    sides = {"parent": bench_compare.summary(parent), "change": bench_compare.summary(change)}
    return bench_compare.metric_entry(metric, sides)


@pytest.mark.parametrize("metric, parent, change, verdict", [
    # every pair won, medians 0.87 apart against a parent spread of 0.08
    ({**LOWER, "name": "peak_rss_mb", "unit": "MB", "bound": 0.1},
     [61.1, 61.2, 61.1, 61.2, 61.0, 61.1, 61.3, 61.1, 61.2, 61.1],
     [53.0, 53.1, 52.9, 53.0, 53.1, 53.0, 53.2, 52.9, 53.0, 53.1], "gain"),
    # a ratio of 0.999 with half the pairs won: a claim that cannot be told from noise
    (LOWER, PARENT, [p - 0.002 * (-1) ** i for i, p in enumerate(PARENT)], "unresolved"),
    # nine pairs won, but by less than the parent's interquartile range
    (LOWER, PARENT, [p - 0.02 for p in PARENT[:9]] + [PARENT[9] + 0.01], "unresolved"),
    # a large median cut with only eight pairs won
    (LOWER, PARENT, [p - 0.5 for p in PARENT[:8]] + [p + 0.5 for p in PARENT[8:]], "unresolved"),
    # nine pairs won and one tie, which counts for neither side
    (LOWER, PARENT, [p - 0.5 for p in PARENT[:9]] + PARENT[9:], "gain"),
    (LOWER, PARENT, [1.3 * p for p in PARENT], "regression"),
    (LOWER, PARENT, [1.2 * p for p in PARENT], "unresolved"),
    ({**LOWER, "name": "backend_points", "unit": "count", "bound": 0.05},
     [44] * 10, [44] * 10, "no change"),
    (HIGHER, [1.0] * 10, [0.85] * 10, "regression"),
    (HIGHER, [0.9] * 10, [1.0] * 10, "gain"),
])
def test_verdict(metric, parent, change, verdict):
    assert entry(metric, parent, change)["verdict"] == verdict


def test_regression_from_a_zero_parent():
    # any worsening of a metric the parent reads as zero exceeds the bound
    assert entry(LOWER, [0.0] * 10, [0.0] * 9 + [1.0])["verdict"] == "no change"
    assert entry(LOWER, [0.0] * 10, [1.0] * 10)["verdict"] == "regression"


def test_entry_keeps_its_fields():
    e = entry(LOWER, PARENT, [p - 0.5 for p in PARENT])
    assert e["pairs_won_by_change"] == 10
    assert e["change_over_parent"] == pytest.approx(1.075 / 1.575)
    assert (e["unit"], e["better"], e["bound"]) == ("s", "lower", 0.25)
    assert e["parent"]["values"] == PARENT


def checks(failed, attempted):
    """The ``failed`` and ``attempted`` fields of a workload's record."""
    return {"failed": failed, "attempted": attempted}


def test_verdict_table_has_one_row_per_entry():
    clean = checks({"parent": [0] * 10, "change": [0] * 10},
                   {"parent": [54] * 10, "change": [54] * 10})
    record = {"workloads": {
        "demo": {**clean,
                 "metrics": {"pipeline_s": entry(LOWER, PARENT, [1.3 * p for p in PARENT])}},
        "converge": {**clean, "metrics": {
            "pipeline_s": entry(LOWER, PARENT, PARENT),
            "band_coverage": entry(HIGHER, [0.9] * 10, [1.0] * 10)}},
    }}
    header, *rows = bench_compare.verdict_table(record).splitlines()
    assert header.split()[-1] == "verdict"
    metric_rows = [r for r in rows if r.split()[1] != "failed/checks"]
    assert [r.split()[:2] + [r.split(maxsplit=7)[-1]] for r in metric_rows] == [
        ["demo", "pipeline_s", "regression"],
        ["converge", "pipeline_s", "no change"],
        ["converge", "band_coverage", "gain"],
    ]
    assert "1.300" in metric_rows[0] and "0/10" in metric_rows[0]
    # the parent's interquartile range, the margin a gain must clear
    parent = bench_compare.summary(PARENT)
    assert [r.split()[4] for r in metric_rows] == [
        format(parent["q3"] - parent["q1"], ".6g")] * 2 + ["0"]


def test_verdict_table_counts_checks_per_side():
    # failed over attempted checks, summed over each side's runs
    record = {"workloads": {"demo": {
        **checks({"parent": [0] * 10, "change": [0] * 9 + [2]},
                 {"parent": [54, 45] * 5, "change": [54] * 10}),
        "metrics": {"pipeline_s": entry(LOWER, PARENT, PARENT)}}}}
    rows = bench_compare.verdict_table(record).splitlines()[1:]
    assert [r.split() for r in rows if r.split()[1] == "failed/checks"] == [
        ["demo", "failed/checks", "0/495", "2/540"]]
