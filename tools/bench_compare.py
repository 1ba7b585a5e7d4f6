"""Before/after benchmark record of two checkouts of this repository.

Usage (from the repository root):

    python3 tools/bench_compare.py --parent ../old --change . --label NAME [--seed 31]

For every workload of ``BENCHMARK.json`` the two checkouts run

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

(``T`` is the benchmark's ``run_seconds``) one after the other, ``PAIRS``
(10) times: a claimed gain must win at least nine of ten pairs.  Pair ``i``
uses seed ``S + i`` on both sides, and the side that runs first alternates
from pair to pair so that a slow drift of the machine loads both sides
alike.  Before the first pair, ``src`` and ``perfbench`` of both checkouts
are byte-compiled (``python3 -m compileall -q``), so no stage process pays
for recompiling a module whose ``__pycache__`` entry is stale, as each
would under ``PYTHONDONTWRITEBYTECODE=1``.  The record,
``BENCH_<label>.json`` at the root of this repository, holds per workload
and end-to-end metric (the ``end_to_end`` list of ``BENCHMARK.json``) the
median, the quartiles and the number of runs of each side, the ratio of
the medians, the number of pairs the change won (ties count for neither
side), every run's value, the failed-check counts, and per side the
environment line that ``perfbench/run.py`` printed for its first run.

Each (workload, end-to-end metric) entry also carries a ``verdict``, and the
tool prints the table of verdicts to stderr:

* ``gain``: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound``, a fraction of the parent's median;
* ``no change``: the two medians are equal;
* ``unresolved``: anything else, a difference the runs cannot tell from
  noise.

Each side is identified by its ``HEAD`` commit (null outside git) and by
the git tree ids of the directories a run reads (``src``, ``perfbench``,
``docs``), hashed from the files on disk, so a record made from an export
or an uncommitted tree can still be matched to a commit:
``git rev-parse <commit>:src`` gives the same id for the same code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("parent", "change")
RUN_DIRS = ("src", "perfbench", "docs")
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run; returns its environment and result objects."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def compile_bytecode(checkout: Path) -> None:
    """Refresh the bytecode of the code a run imports."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=checkout, check=True)


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def identity(checkout: Path) -> dict:
    """HEAD commit (None outside git) and the git tree id of each of RUN_DIRS
    as it is on disk (files the checkout's .gitignore names are left out)."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    with tempfile.TemporaryDirectory() as git_dir:
        git = ["git", f"--git-dir={git_dir}", f"--work-tree={checkout}"]
        subprocess.run(["git", "init", "-q", "--bare", git_dir], check=True)
        subprocess.run(git + ["add", "-A", "--", *RUN_DIRS], cwd=checkout, check=True)
        trees = {d: subprocess.run(git + ["write-tree", f"--prefix={d}/"], check=True,
                                   capture_output=True, text=True).stdout.strip()
                 for d in RUN_DIRS}
    return {"head": head.stdout.strip() if head.returncode == 0 else None, "trees": trees}


def compare(checkouts: dict, seed: int) -> dict:
    record = {"command": f"python3 perfbench/run.py --workload W --seed S "
                         f"--seconds {BENCHMARK['run_seconds']} --trace 0",
              "commits": {side: identity(path) for side, path in checkouts.items()},
              "pairs": PAIRS, "seeds": [seed + i for i in range(PAIRS)],
              "order": "alternating: the parent runs first in even-numbered pairs",
              "environment": {}, "workloads": {}}
    for path in checkouts.values():
        compile_bytecode(path)
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                out = run_once(checkouts[side], workload, seed + i)
                runs[side].append(out["result"])
                record["environment"].setdefault(side, out["environment"])
                print(f"{workload} pair {i} {side}: "
                      f"{out['result']['metrics'].get('pipeline_s', {}).get('value')}",
                      file=sys.stderr)
        entry = {"failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
                 "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
                 "metrics": {}}
        for m in BENCHMARK["end_to_end"]:
            sides = {side: summary([r["metrics"][m["name"]]["value"] for r in runs[side]])
                     for side in SIDES if all(m["name"] in r["metrics"] for r in runs[side])}
            if len(sides) == 2:
                entry["metrics"][m["name"]] = metric_entry(m, sides)
        record["workloads"][workload] = entry
    return record


def metric_entry(metric: dict, sides: dict) -> dict:
    """The record of one end-to-end ``metric`` (an ``end_to_end`` item of
    ``BENCHMARK.json``) from the ``summary`` of each side's runs."""
    parent, change = sides["parent"], sides["change"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (after - before) > 0
               for before, after in zip(parent["values"], change["values"]))
    p, c = parent["median"], change["median"]
    better_by = sign * (c - p)
    if 10 * wins >= 9 * len(change["values"]) and better_by > parent["q3"] - parent["q1"]:
        verdict = "gain"
    elif -better_by > metric["bound"] * abs(p):
        verdict = "regression"
    else:
        verdict = "no change" if better_by == 0 else "unresolved"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **sides, "change_over_parent": c / p if p else None,
            "pairs_won_by_change": wins, "verdict": verdict}


def verdict_table(record: dict) -> str:
    """One line per (workload, end-to-end metric): the two medians, the
    parent's interquartile range (the margin a gain must clear), the ratio of
    the medians, the pairs won and the verdict; and per workload a line with
    each side's failed and attempted correctness checks, summed over its runs."""
    lines = [f"{'workload':<10} {'metric':<15} {'parent':>12} {'change':>12} {'parent IQR':>12} "
             f"{'ratio':>7} {'won':>5}  verdict"]
    for workload, entry in record["workloads"].items():
        checks = [f"{sum(entry['failed'][side])}/{sum(entry['attempted'][side])}"
                  for side in SIDES]
        lines.append(f"{workload:<10} {'failed/checks':<15} {checks[0]:>12} {checks[1]:>12}")
        for name, m in entry["metrics"].items():
            ratio = m["change_over_parent"]
            lines.append(f"{workload:<10} {name:<15} {m['parent']['median']:>12.6g} "
                         f"{m['change']['median']:>12.6g} "
                         f"{m['parent']['q3'] - m['parent']['q1']:>12.6g} "
                         f"{'-' if ratio is None else format(ratio, '.3f'):>7} "
                         f"{m['pairs_won_by_change']:>2}/{len(m['change']['values']):<2}  "
                         f"{m['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout before the change")
    parser.add_argument("--change", required=True, type=Path, help="checkout with the change")
    parser.add_argument("--label", required=True, help="names the record BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=31)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = compare(checkouts, args.seed)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(verdict_table(record), file=sys.stderr)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
