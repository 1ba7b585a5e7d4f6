"""Benchmark of the miscuq build -> calibrate -> forward -> report pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo --seed 1 --seconds 10 --trace 0

Each workload runs the real CLI, one ``python3 -m miscuq <stage>`` process
per stage, as a closed loop: stages run one after another from this single
process.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
the workload once untraced and once with spans recorded around the public
functions of every module (see ``spans.py``) and reports the per-layer
metrics.  The last line of standard output is the result object; the line
before it records the environment.  See ``NOTES.md`` for the workloads and
the layer-to-end-to-end map.

The stages run at the config's own seed in every run, so every run times
the same work: the calibrate stage's cost moves by about a fifth between
pipeline seeds (multistart Nelder-Mead).  ``--seed`` picks the test points
of ``surrogate_err``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans as spanlib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEMO_CONFIG = ROOT / "docs" / "demo_config.yaml"
WORK = BENCH / "work"

STAGES = ("build", "calibrate", "forward", "report")
DEMO_TRUTH = (1386.0, -0.15)      # parameters the demo observations were generated at
SETUP_REPEATS = 3
STAGE_TIMEOUT_S = 170.0
ERR_POINTS = 10000                # surrogate_err test points drawn from the seed
COVERAGE_MIN = 0.9
NOISE_STREAM = 104                # observation noise of converge and external
# max |surrogate - fine model| / max |model| allowed per workload: about 1.5
# times the value measured when this benchmark was added (0.0685, 6.98e-6 and
# 0.0079; the test points move with the seed, the surrogate does not)
SURROGATE_ERR_TOL = {"demo": 0.1, "converge": 1.5e-5, "external": 0.012}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program source)."""


# ---------------------------------------------------------------- workloads

def cost_weights() -> dict[int, float]:
    """Cost weight per fidelity, as BeamAnalogModel declares them."""
    from miscuq.oracle import BeamAnalogModel

    return {f.alpha: f.cost_weight for f in BeamAnalogModel().fidelities}


def prior_box(base: dict) -> tuple:
    """(lo, hi) per parameter of the demo config: the box the surrogates cover."""
    return tuple((float(p["lo"]), float(p["hi"])) for p in base["parameters"])


def write_observations(path: Path, qois) -> None:
    """Fine-fidelity model values at DEMO_TRUTH plus the demo's noise levels
    (std 3e-5 on displacements, 5e-6 on strains) from a fixed stream."""
    import numpy as np
    from miscuq.oracle import BeamAnalogModel

    values = np.asarray(BeamAnalogModel().evaluate(2, DEMO_TRUTH, qois))
    std = np.array([3e-5 if q.startswith("u_") else 5e-6 for q in qois])
    values = values + std * np.random.default_rng(NOISE_STREAM).standard_normal(len(qois))
    rows = "".join(f"{q},{float(v)!r}\n" for q, v in zip(qois, values))
    path.write_text(f"# fine model at {DEMO_TRUTH} plus noise (stream {NOISE_STREAM})\n"
                    f"qoi,value\n{rows}", encoding="utf-8")


def workload_config(name: str, base: dict, observations: Path, sim_command: str | None,
                    small: bool) -> dict:
    """The pipeline configuration of a workload, derived from the demo's.

    ``small`` shrinks the inverse and forward steps for the benchmark's own
    smoke tests; the build is the workload's own.
    """
    doc = json.loads(json.dumps(base))
    calib, fwd = doc["calibration"], doc["forward"]
    calib["observations"] = str(observations)
    if name != "demo":
        # the inverse and forward steps stay in the pass, at a small share of
        # the demo's work, so every stage metric exists while build dominates
        calib["n_starts"] = 1
        fwd["samples"] = 500
    if name == "converge":
        calib["budget"]["max_work"] = 5000.0
    elif name == "external":
        from miscuq.oracle import BeamAnalogModel

        model = BeamAnalogModel()
        calib["budget"]["max_work"] = 800.0
        doc["oracle"] = {
            "command": sim_command,
            "lanes": 2,
            "fidelities": [{"alpha": f.alpha, "cost_weight": f.cost_weight}
                           for f in model.fidelities],
            "domain": [{"lo": lo, "hi": hi} for lo, hi in model.domain],
        }
    elif name != "demo":
        raise ValueError(f"unknown workload {name!r}")
    if small:
        calib["n_starts"] = 1
        fwd["samples"] = 200
        fwd["densities"] = []
    return doc


WORKLOADS = ("demo", "converge", "external")


# ------------------------------------------------------------ measurements

@dataclass
class StageRun:
    wall_s: float
    rss_mb: float
    returncode: int
    spans: list | None = None


@dataclass
class Checks:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_process(argv, log_path: Path, env: dict) -> tuple[float, float, int]:
    """Run to completion; (wall seconds, peak RSS in MB, exit code).

    A process still running after STAGE_TIMEOUT_S is killed and reported
    with exit code -9.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_stage(stage: str, cfg: Path, out: Path, log: Path, spans_path: Path | None):
    args = [stage, "--config", str(cfg), "--out", str(out), "--quiet"]
    if spans_path is None:
        argv = [sys.executable, "-m", "miscuq", *args]
    else:
        argv = [sys.executable, str(BENCH / "traced_stage.py"), str(spans_path), *args]
    wall, rss, rc = run_process(argv, log, stage_env())
    spans = None
    if spans_path is not None and spans_path.exists():
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
    return StageRun(wall, rss, rc, spans)


def measure_setup(cfg: Path, log: Path) -> float:
    """Median wall time of a fresh interpreter importing the CLI and loading
    the workload's config: the fixed cost every stage process pays."""
    code = "import sys, miscuq.cli as c; c.load_config(sys.argv[1])"
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _, rc = run_process([sys.executable, "-c", code, str(cfg)], log, stage_env())
        if rc != 0:
            raise SetupError(f"importing miscuq.cli failed (exit {rc}); see {log}")
        times.append(wall)
    return statistics.median(times)


def snapshot(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def cache_records(out: Path) -> list:
    """(fidelity, point) of every record in the evaluation cache, in file order."""
    path = out / "cache.jsonl"
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [(int(rec["alpha"]), tuple(rec["point"]))
                for rec in map(json.loads, filter(str.strip, fh))]


def backend_requests(records) -> dict[int, int]:
    """Simulator requests per fidelity in a stretch of cache records.

    One backend request appends one record per QoI of one point, so the
    requests are the runs of consecutive records with the same key.  A
    point can be requested again later for QoIs it lacks (the forward stage
    asks for strains the build did not), so this can exceed the number of
    distinct keys.  Count one stage's stretch at a time.
    """
    per_alpha: dict[int, int] = {}
    for i, key in enumerate(records):
        if i == 0 or records[i - 1] != key:
            per_alpha[key[0]] = per_alpha.get(key[0], 0) + 1
    return per_alpha


def sim_cost(per_alpha: dict) -> float:
    weight = cost_weights()
    return sum(weight[a] * n for a, n in per_alpha.items())


def add_counts(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in sorted(set(a) | set(b))}


def sim_served(count_dir: Path) -> int:
    """Requests the simulator lanes served since the last call (then reset)."""
    total = 0
    for path in sorted(count_dir.glob("lane-*.count")):
        total += int(path.read_text(encoding="utf-8"))
        path.unlink()
    return total


def band_coverage(out: Path) -> float:
    """Share of predicted strains whose exact value at the truth lies in the
    posterior 5-95% band."""
    from miscuq.forward import read_bands_csv
    from miscuq.oracle import BeamAnalogModel

    bands = read_bands_csv(out / "bands_posterior.csv")
    exact = BeamAnalogModel().exact(DEMO_TRUTH, bands.qoi_names)
    inside = (bands.q05 <= exact) & (exact <= bands.q95)
    return float(inside.mean())


def surrogate_err(out: Path, seed: int, box) -> float:
    """max |surrogate - fine-fidelity model| over the seed's test points in
    ``box``, divided by max |model|."""
    import numpy as np
    from miscuq.misc import deserialize
    from miscuq.oracle import BeamAnalogModel

    surrogate = deserialize(out / "surrogate.json")
    lo, hi = np.array(box).T
    points = lo + np.random.default_rng([seed, 2]).random((ERR_POINTS, 2)) * (hi - lo)
    model = BeamAnalogModel()
    exact = np.array([model.evaluate(2, p, surrogate.qoi_names) for p in points])
    return float(np.abs(surrogate.evaluate_many(points) - exact).max() / np.abs(exact).max())


def probe_waste(out: Path, evaluated: set) -> float:
    """Cost-weighted share of the build's evaluated points that lie outside
    every nonzero-coefficient grid of the final surrogate."""
    from miscuq.interp import build_grid
    from miscuq.misc import deserialize
    from miscuq.oracle import point_key

    surrogate = deserialize(out / "surrogate.json")
    used = set()
    for entry in surrogate.coefficients:
        used.update((entry.alpha, point_key(p))
                    for p in build_grid(entry.beta, surrogate.families).points)
    weight = cost_weights()
    wasted = sum(weight[a] for a, p in evaluated if (a, p) not in used)
    total = sum(weight[a] for a, _ in evaluated)
    return wasted / total if total else 0.0


def check_simulator(sim_command: str, count_dir: Path, log: Path) -> bool:
    """Query the benchmark's simulator at a few points of both fidelities and
    compare against BeamAnalogModel.evaluate bit for bit."""
    import numpy as np
    from miscuq.oracle import BeamAnalogModel

    model = BeamAnalogModel()
    lo, hi = np.array(model.domain).T
    points = [tuple(map(float, p))
              for p in lo + np.random.default_rng(0).random((8, model.dim)) * (hi - lo)]
    requests = [{"id": i, "fidelity": alpha, "params": list(p), "qois": list(model.qoi_names)}
                for i, (alpha, p) in enumerate((a, p) for a in (1, 2) for p in points)]
    with open(log, "ab") as err:
        done = subprocess.run(shlex.split(sim_command), cwd=ROOT, text=True, timeout=60,
                              input="".join(json.dumps(r) + "\n" for r in requests),
                              stdout=subprocess.PIPE, stderr=err)
    replies = [json.loads(line) for line in done.stdout.splitlines()]
    sim_served(count_dir)
    if done.returncode != 0 or len(replies) != len(requests):
        return False
    return all(
        [float(v).hex() for v in rep.get("values", ())] ==
        [float(v).hex() for v in model.evaluate(req["fidelity"], req["params"], req["qois"])]
        for req, rep in zip(requests, replies))


# ------------------------------------------------------------------ passes

@dataclass
class PassResult:
    stages: dict          # stage label -> StageRun
    metrics: dict         # end-to-end values
    requests: dict        # simulator requests per fidelity, whole pass
    build_keys: set       # distinct (fidelity, point) keys after the cold build
    out: Path


def run_pass(name: str, cfg: Path, pass_dir: Path, seed: int, box, checks: Checks,
             count_dir: Path | None, traced: bool = False) -> PassResult:
    """Cold build, warm rebuild, calibrate, forward, report, then checks."""
    out = pass_dir / "out"
    log = pass_dir / "stages.log"
    pass_dir.mkdir(parents=True)
    stages: dict[str, StageRun] = {}
    requests: dict[int, int] = {}
    seen = 0  # records in out/cache.jsonl before the current stage

    def stage(label: str, cmd: str) -> bool:
        """Run one stage process on ``out`` and check it: its exit code, on
        external that the simulator served what the new cache records show,
        and for the warm rebuild that no file under ``out`` changed."""
        nonlocal requests, seen
        spans_path = pass_dir / f"spans-{label}.json" if traced else None
        before = snapshot(out) if label == "rerun" else None
        run = stages[label] = run_stage(cmd, cfg, out, log, spans_path)
        records = cache_records(out)
        new = backend_requests(records[seen:])
        seen = len(records)
        requests = add_counts(requests, new)
        if count_dir is not None:
            served = sim_served(count_dir)
            checks.check(served == sum(new.values()),
                         f"{name}: {label}: simulator served {served} requests, cache "
                         f"records show {sum(new.values())}")
        if label == "rerun":
            # byte-identical output includes cache.jsonl: no new evaluations
            checks.check(snapshot(out) == before,
                         f"{name}: warm rebuild changed files under the output dir")
        return checks.check(run.returncode == 0, f"{name}: {label} exited {run.returncode}")

    metrics: dict[str, float] = {}
    build_keys: set = set()
    if stage("build", "build"):
        build_keys = set(cache_records(out))
        err = surrogate_err(out, seed, box)
        metrics["surrogate_err"] = err
        checks.check(err <= SURROGATE_ERR_TOL[name],
                     f"{name}: surrogate_err {err:.3g} above {SURROGATE_ERR_TOL[name]:.3g}")
        stage("rerun", "build")
    for label in STAGES[1:]:
        if not stage(label, label):
            break
    else:
        coverage = band_coverage(out)
        metrics["band_coverage"] = coverage
        checks.check(coverage >= COVERAGE_MIN,
                     f"{name}: band coverage {coverage:.3f} below {COVERAGE_MIN}")
        reduction = json.loads((out / "reduction.json").read_text())["reduction_percent"]
        checks.check(reduction > 0.0, f"{name}: reduction {reduction:.3g}% not positive")

    metrics["backend_points"] = float(sum(requests.values()))
    metrics["sim_cost"] = sim_cost(requests)
    metrics["pipeline_s"] = sum(run.wall_s for run in stages.values())
    metrics["peak_rss_mb"] = max(run.rss_mb for run in stages.values())
    return PassResult(stages, metrics, requests, build_keys, out)


# ---------------------------------------------------------------- metrics

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "backend_points": "count", "sim_cost": "work",
    "peak_rss_mb": "MB", "band_coverage": "fraction", "surrogate_err": "relative",
}


def layer_metrics(p: PassResult, untraced: PassResult) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced pass (and its untraced twin)."""
    lists = [run.spans for run in p.stages.values() if run.spans]
    agg = spanlib.aggregate(lists)

    def get(name, key="calls"):
        return float(agg.get(name, {}).get(key, 0))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["cli.load_config.self_s"] = (get("cli.load_config", "self_s"), "s")
    m["cli.artifacts.bytes"] = (float(sum(f.stat().st_size for f in p.out.rglob("*")
                                          if f.is_file() and f.name != "cache.jsonl")), "bytes")
    for layer, keys in (
            ("params.sample", ("calls", "self_s")),
            ("leja.knots", ("calls", "self_s")),
            ("interp.build_grid", ("calls", "self_s")),
            ("interp.init", ("calls", "self_s")),
            ("interp.evaluate_many", ("calls", "points", "self_s")),
            ("multiindex.combination_coefficients", ("calls", "self_s")),
            ("multiindex.reduced_margin", ("calls", "self_s")),
            ("misc.build", ("calls", "self_s")),
            ("misc.committed_points", ("calls", "self_s")),
            ("misc.evaluate_many", ("calls", "points", "self_s")),
            ("misc.serialize", ("self_s", "bytes")),
            ("misc.deserialize", ("self_s",)),
            ("oracle.eval_batch", ("calls", "points", "self_s")),
            ("oracle.dispatch", ("calls", "self_s")),
            ("oracle.cache.put_many", ("calls", "self_s")),
            ("bayes.find_map", ("self_s", "surrogate_evals")),
            ("bayes.nelder_mead", ("calls", "iterations")),
            ("bayes.laplace_covariance", ("self_s",)),
            ("forward.push_samples", ("calls", "self_s")),
            ("forward.kde", ("calls", "self_s", "kernel_evals")),
            ("forward.quantiles", ("calls", "self_s")),
            ("forward.summarize_bands", ("self_s",))):
        for key in keys:
            unit = "s" if key.endswith("_s") else ("bytes" if key == "bytes" else "count")
            m[f"{layer}.{key}"] = (get(layer, key), unit)

    m["interp.us_per_point"] = (ratio(get("interp.evaluate_many", "total_s"),
                                      get("interp.evaluate_many", "points"), 1e6), "us")
    m["misc.us_per_point"] = (ratio(get("misc.evaluate_many", "total_s"),
                                    get("misc.evaluate_many", "points"), 1e6), "us")
    adapt = agg.get("misc.adapt", {})
    iterations = float(agg.get("multiindex.reduced_margin", {})
                       .get("by_parent", {}).get("misc.adapt", 0))
    probes = float(agg.get("misc.build", {}).get("by_parent", {}).get("misc.adapt", 0))
    m["misc.adapt.iterations"] = (iterations, "count")
    m["misc.adapt.probes"] = (probes, "count")
    m["misc.adapt.total_s"] = (float(adapt.get("total_s", 0.0)), "s")
    m["misc.adapt.s_per_iteration"] = (ratio(adapt.get("total_s", 0.0), iterations), "s")
    m["misc.adapt.commit_ratio"] = (ratio(adapt.get("commits", 0), probes), "fraction")
    m["misc.adapt.probe_waste_ratio"] = (probe_waste(p.out, p.build_keys), "fraction")

    requested = get("oracle.eval_batch", "points")
    m["oracle.cache.hit_ratio"] = (1.0 - ratio(get("oracle.eval_batch", "backend"), requested)
                                   if requested else 0.0, "fraction")
    for alpha in sorted(cost_weights()):
        m[f"oracle.backend_points.alpha_{alpha}"] = (float(p.requests.get(alpha, 0)), "count")
    dispatched = get("oracle.dispatch", "points")
    m["oracle.dispatch.points_per_call"] = (ratio(dispatched, get("oracle.dispatch")), "count")
    m["oracle.dispatch.s_per_point"] = (ratio(get("oracle.dispatch", "total_s"), dispatched), "s")
    m["oracle.cache.load_s"] = (get("oracle.cache.load", "total_s"), "s")
    cache = p.out / "cache.jsonl"
    m["oracle.cache.bytes"] = (float(cache.stat().st_size if cache.exists() else 0), "bytes")
    m["forward.kde.ns_per_kernel_eval"] = (ratio(get("forward.kde", "self_s"),
                                                 get("forward.kde", "kernel_evals"), 1e9), "ns")

    for label, run in untraced.stages.items():
        m[f"cli.{label}_s"] = (run.wall_s, "s")
    for label, run in p.stages.items():
        inside = spanlib.root_time(run.spans) if run.spans else 0.0
        m[f"{label}.untraced_s"] = (run.wall_s - inside, "s")
    m["trace.overhead_s"] = (sum(run.wall_s for run in p.stages.values())
                             - sum(run.wall_s for run in untraced.stages.values()), "s")
    return m


# -------------------------------------------------------------------- main

def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "inputs": {"seed": seed, "picks": f"{ERR_POINTS} surrogate_err test points",
                   "pipeline_seed": "the config's own, the same in every run",
                   "adaptive_build": "no random input"},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "blas_threads": {v: stage_env()[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    if not (SRC / "miscuq" / "cli.py").is_file() or not DEMO_CONFIG.is_file():
        raise SetupError(f"no miscuq source under {SRC} or no {DEMO_CONFIG}")
    sys.path.insert(0, str(SRC))
    import yaml

    env_record = environment(seed)
    # smoke runs keep clear of the records of real runs
    run_dir = (WORK / "smoke" if small else WORK) / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    checks = Checks()
    count_dir = sim_command = None
    if name == "external":
        count_dir = run_dir / "sim-counts"
        count_dir.mkdir()
        sim_command = shlex.join([sys.executable, "-S", str(BENCH / "beam_sim.py"),
                                  "--count-dir", str(count_dir)])
    base = yaml.safe_load(DEMO_CONFIG.read_text(encoding="utf-8"))
    box = prior_box(base)
    # the demo keeps its shipped observations, which were made from the demo
    # surrogate; the more accurate surrogates of the other workloads get
    # observations of the model itself
    observations = DEMO_CONFIG.parent / base["calibration"]["observations"]
    if name != "demo":
        observations = run_dir / "observations.csv"
        write_observations(observations, base["calibration"]["qois"])
    cfg = run_dir / f"{name}.yaml"
    cfg.write_text(json.dumps(workload_config(name, base, observations, sim_command, small),
                              indent=1), encoding="utf-8")
    if sim_command is not None:
        checks.check(check_simulator(sim_command, count_dir, run_dir / "setup.log"),
                     "external: simulator values differ from BeamAnalogModel.evaluate")
    setup_s = measure_setup(cfg, run_dir / "setup.log")

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(name, cfg, run_dir / f"pass{len(passes)}", seed, box, checks,
                               count_dir))
        if trace or time.perf_counter() - start >= seconds:
            break
    if trace:
        traced = run_pass(name, cfg, run_dir / "traced", seed, box, checks, count_dir,
                          traced=True)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in layer_metrics(traced, passes[0]).items()}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for key, unit in END_TO_END_UNITS.items():
            values = [p.metrics[key] for p in passes if key in p.metrics]
            if values:
                metrics[key] = {"value": statistics.median(values), "unit": unit}
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": metrics}
    record = {"workload": name, "seed": seed, "trace": trace, "passes": len(passes),
              "environment": env_record, "failures": checks.failures, **result}
    if trace:
        record["layers_by_stage"] = {label: spanlib.aggregate([run.spans])
                                     for label, run in traced.stages.items() if run.spans}
        record["stage_s"] = {label: run.wall_s for label, run in traced.stages.items()}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {"environment": env_record, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": out["environment"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
