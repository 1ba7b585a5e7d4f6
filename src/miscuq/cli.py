"""Batch pipeline driver: build a surrogate over the prior, calibrate it
against observations, run the data-informed forward analysis, and report.

Exit codes: 0 success, 2 configuration error, 3 oracle error, 4 numerical
failure.  All output files carry the provenance hash of the effective
configuration; anything time-dependent goes to the log on stderr only, so
reruns with identical config and seeds are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import artifacts, bayes, forward, misc
from .bayes import GaussianPosterior, ObservationSet
from .interp import build_grid
from .leja import SymmetricLeja, WeightedGaussianLeja
from .misc import AdaptStop
from .oracle import (BeamAnalogModel, CachedOracle, EvalCache, ExternalProcessModel, FidelitySpec,
                     OracleError, builtin_model)
from .params import Gaussian, ParamSpace, ParamSpec, Uniform

__all__ = ["main", "load_config", "cmd_build", "cmd_calibrate", "cmd_forward", "cmd_report",
           "ConfigError", "NumericalError", "PipelineConfig"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_NUMERICAL = 4

SURROGATE_FILE = "surrogate.json"
BUILD_REPORT_FILE = "build_report.json"
POSTERIOR_FILE = "posterior.json"
CALIBRATION_TABLE_FILE = "calibration_table.csv"
PRIOR_BANDS_FILE = "bands_prior.csv"
POST_BANDS_FILE = "bands_posterior.csv"
REDUCTION_FILE = "reduction.json"
REPORT_FILE = "report.txt"
REPORT_SUMMARY_FILE = "report_summary.csv"
CACHE_FILE = "cache.jsonl"
FORWARD_PRIOR_SURROGATE = "surrogate_forward_prior.json"
FORWARD_POST_SURROGATE = "surrogate_forward_posterior.json"


class ConfigError(Exception):
    """The configuration file is missing, malformed, or inconsistent."""


class NumericalError(Exception):
    """A numerical step produced an unusable result."""


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"missing key {key!r} in {where}")
    return doc[key]


def _typed(value, kind, where: str):
    """``value`` if it is a ``kind`` (dict or list), else ConfigError."""
    if not isinstance(value, kind):
        raise ConfigError(f"{where}: expected a {'mapping' if kind is dict else kind.__name__}, "
                          f"got {value!r}")
    return value


def _mapping(value, where: str, keys) -> dict:
    """``value`` if it is a mapping with no key outside ``keys``, else ConfigError."""
    unknown = set(_typed(value, dict, where)) - set(keys)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(map(str, unknown))}")
    return value


def _text(value, where: str) -> str:
    """``str(value)`` of a string or a number; null, a boolean (YAML 1.1 reads
    unquoted yes/no/on/off as one), a list or a mapping is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{where}: expected text, got {value!r}")
    return str(value)


def _number(cast, value, where: str, minimum=None):
    """``cast(value)`` if it is finite, with parse and range failures as ConfigError."""
    if isinstance(value, bool):  # int(True) is 1
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        x = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from exc
    if cast is int and isinstance(value, float) and x != value:  # int(1.5) is 1
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {x}")
    if minimum is not None and not x >= minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {x}")
    return x


def _expand_qois(spec, where: str) -> tuple[str, ...]:
    """QoI lists are either explicit or {prefix, count[, start]} patterns."""
    if isinstance(spec, list) and spec:
        return tuple(_text(q, f"{where}[{i}]") for i, q in enumerate(spec))
    if isinstance(spec, dict) and "prefix" in spec and "count" in spec:
        _mapping(spec, where, ("prefix", "start", "count"))
        prefix = _text(spec["prefix"], f"{where}.prefix")
        start = _number(int, spec.get("start", 1), f"{where}.start")
        count = _number(int, spec["count"], f"{where}.count", minimum=1)
        return tuple(f"{prefix}{i}" for i in range(start, start + count))
    raise ConfigError(f"{where}: expected a non-empty QoI list or a prefix/count pattern, "
                      f"got {spec!r}")


def _parse_stop(section: dict, where: str) -> AdaptStop:
    """The ``budget`` of a section; a section without one stops at work 50."""
    if "budget" not in section:
        return AdaptStop(max_work=50.0)
    # (cast, minimum); a zero max_work is allowed and builds the root entry only
    limits = {"max_work": (float, 0.0), "max_candidates": (int, 1), "profit_floor": (float, 0.0)}
    return AdaptStop(**{k: _number(limits[k][0], v, f"{where}.{k}", minimum=limits[k][1])
                        for k, v in _mapping(section["budget"], where, limits).items()})


def _parse_space(docs) -> ParamSpace:
    specs = []
    for i, doc in enumerate(_typed(docs, list, "parameters")):
        where = f"parameters[{i}]"
        _typed(doc, dict, where)
        name = _text(_require(doc, "name", where), f"{where}.name")
        kind = _text(_require(doc, "distribution", where), f"{where}.distribution").lower()
        bounds = {"uniform": ("lo", "hi"), "gaussian": ("mean", "std")}.get(kind)
        if bounds is None:
            raise ConfigError(f"{where}: unknown distribution {kind!r}")
        _mapping(doc, where, ("name", "distribution", "transform") + bounds)
        args = [_number(float, _require(doc, k, where), f"{where}.{k}") for k in bounds]
        try:
            dist = Uniform(*args) if kind == "uniform" else Gaussian(*args)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        specs.append(ParamSpec(name, dist))
    try:
        return ParamSpace(specs)
    except ValueError as exc:
        raise ConfigError(f"parameters: {exc}") from exc


def _records(docs, where: str, fields: dict) -> list[tuple]:
    """Each mapping in the list ``docs`` as the tuple of its ``fields``, each
    read as a number of the field's type."""
    out = []
    for i, doc in enumerate(_typed(docs, list, where)):
        at = f"{where}[{i}]"
        _mapping(doc, at, fields)
        out.append(tuple(_number(cast, _require(doc, k, at), f"{at}.{k}")
                         for k, cast in fields.items()))
    return out


def _parse_backend(doc: dict, dim: int, base: Path):
    """The backend the ``oracle`` section describes; a relative ``workdir``
    is taken from ``base``.  Lanes start on the first dispatch, not here."""
    if ("builtin" in doc) == ("command" in doc):
        raise ConfigError("oracle: need exactly one of 'builtin: <name>' and 'command: <line>'")
    _mapping(doc, "oracle", ("builtin", "lanes") if "builtin" in doc else
             ("command", "fidelities", "workdir", "domain", "timeout", "lanes"))
    lanes = _number(int, doc.get("lanes", 1), "oracle.lanes", minimum=1)
    try:
        if "builtin" in doc:
            backend = builtin_model(_text(doc["builtin"], "oracle.builtin"))
        else:
            backend = ExternalProcessModel(
                _text(doc["command"], "oracle.command"),
                base / _text(doc["workdir"], "oracle.workdir") if "workdir" in doc else None,
                dim=dim, lanes=lanes,
                timeout=_number(float, doc.get("timeout", 60.0), "oracle.timeout"),
                fidelities=[FidelitySpec(*f) for f in _records(
                    doc.get("fidelities", []), "oracle.fidelities",
                    {"alpha": int, "cost_weight": float})],
                domain=(_records(doc["domain"], "oracle.domain", {"lo": float, "hi": float})
                        if "domain" in doc else None))
    except (ValueError, OracleError) as exc:
        raise ConfigError(f"bad oracle section: {exc}") from exc
    if backend.dim != dim:
        raise ConfigError(f"builtin model {backend.name!r} has dimension {backend.dim}, "
                          f"config declares {dim} parameters")
    return backend


@dataclass
class PipelineConfig:
    seed: int
    out_dir: Path
    space: ParamSpace
    backend: BeamAnalogModel | ExternalProcessModel
    calibration_qois: tuple[str, ...]
    observations: Path | None
    n_starts: int
    build_stop: AdaptStop
    forward_qois: tuple[str, ...]
    forward_samples: int
    forward_stop: AdaptStop
    density_qois: tuple[str, ...]
    kde_bandwidth: float | None
    config_hash: str


def load_config(path: str | Path, *, seed=None, out=None, lanes=None) -> PipelineConfig:
    """Parse and validate the YAML pipeline configuration.

    ``seed``, ``out`` and ``lanes`` are command-line overrides; the
    provenance hash covers the effective (post-override) configuration.
    Relative ``observations`` and ``oracle.workdir`` paths are taken from
    the config file's directory.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    _mapping(doc, f"{path} top level", ("seed", "output_dir", "oracle", "parameters",
                                        "calibration", "forward"))

    if seed is not None:
        doc["seed"] = _number(int, seed, "--seed", minimum=0)
    if out is not None:
        doc["output_dir"] = str(out)
    oracle_doc = _typed(_require(doc, "oracle", "config"), dict, "oracle")
    if lanes is not None:
        oracle_doc["lanes"] = _number(int, lanes, "--lanes")
    doc["oracle"] = oracle_doc

    base = path.resolve().parent
    calib = _mapping(_require(doc, "calibration", "config"), "calibration",
                     ("qois", "observations", "n_starts", "budget"))
    fwd = _mapping(_require(doc, "forward", "config"), "forward",
                   ("qois", "samples", "budget", "densities", "bandwidth"))
    space = _parse_space(_require(doc, "parameters", "config"))
    cfg = PipelineConfig(
        seed=_number(int, _require(doc, "seed", "config"), "seed", minimum=0),
        out_dir=Path(_text(_require(doc, "output_dir", "config"), "output_dir")),
        space=space,
        backend=_parse_backend(oracle_doc, space.dim, base),
        calibration_qois=_expand_qois(_require(calib, "qois", "calibration"), "calibration.qois"),
        observations=(base / _text(calib["observations"], "calibration.observations")
                      if "observations" in calib else None),
        n_starts=_number(int, calib.get("n_starts", 20), "calibration.n_starts", minimum=1),
        build_stop=_parse_stop(calib, "calibration.budget"),
        forward_qois=_expand_qois(_require(fwd, "qois", "forward"), "forward.qois"),
        forward_samples=_number(int, fwd.get("samples", forward.DEFAULT_SAMPLES),
                                "forward.samples", minimum=2),
        forward_stop=_parse_stop(fwd, "forward.budget"),
        density_qois=tuple(_text(q, f"forward.densities[{i}]") for i, q in
                           enumerate(_typed(fwd.get("densities", []), list, "forward.densities"))),
        kde_bandwidth=(_number(float, fwd["bandwidth"], "forward.bandwidth")
                       if "bandwidth" in fwd else None),
        config_hash="",
    )
    if cfg.kde_bandwidth is not None and not cfg.kde_bandwidth > 0.0:
        raise ConfigError(f"forward.bandwidth must be positive, got {cfg.kde_bandwidth}")
    declared = getattr(cfg.backend, "qoi_names", None)  # an external backend declares none
    for where, qois in (("calibration.qois", cfg.calibration_qois),
                        ("forward.qois", cfg.forward_qois)):
        unknown = [q for q in qois if declared is not None and q not in declared]
        if unknown:
            raise ConfigError(f"{where} lists QoIs the oracle does not declare: {unknown}")
    unknown = [q for q in cfg.density_qois if q not in cfg.forward_qois]
    if unknown:
        raise ConfigError(f"forward.densities lists QoIs outside forward.qois: {unknown}")
    cfg.config_hash = _config_hash(doc)
    return cfg


def _prior_families(space: ParamSpace):
    fams = []
    for spec in space.params:
        dist = spec.distribution
        if isinstance(dist, Uniform):
            fams.append(SymmetricLeja(dist.lo, dist.hi))
        else:
            fams.append(WeightedGaussianLeja(dist.mean, dist.std))
    return tuple(fams)


def _posterior_families(posterior: GaussianPosterior):
    stds = posterior.marginal_std()
    if np.any(stds <= 0.0):
        raise NumericalError("posterior has a zero-variance direction; "
                             "cannot place Gaussian knots")
    return tuple(WeightedGaussianLeja(float(m), float(s))
                 for m, s in zip(posterior.mean, stds))


def _stage_seed(base: int, stage: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=base, spawn_key=(stage,))


def _adaptive_surrogate(cfg, oracle, families, qois, stop):
    state = misc.init_adapt(oracle, families, qois, config_hash=cfg.config_hash)
    misc.adapt(state, oracle, stop)
    return state


def _read_artifact(path: Path, keys, parse=None):
    """The JSON mapping an earlier stage wrote to ``path``, passed through
    ``parse`` if given.  A file that cannot be read, is not a mapping, lacks
    one of ``keys`` or fails ``parse`` is a ConfigError naming it."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON mapping, got {type(doc).__name__}")
        missing = [k for k in keys if k not in doc]
        if missing:
            raise ValueError(f"missing keys {missing}")
        return doc if parse is None else parse(doc)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _write_json(path: Path, doc: dict) -> None:
    artifacts.write_text(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def cmd_build(cfg: PipelineConfig) -> dict:
    """Adaptive build of the calibration surrogate over the prior space."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    oracle = CachedOracle(cfg.backend, EvalCache(cfg.out_dir / CACHE_FILE))
    try:
        state = _adaptive_surrogate(cfg, oracle, _prior_families(cfg.space),
                                    cfg.calibration_qois, cfg.build_stop)
        misc.serialize(state.surrogate, cfg.out_dir / SURROGATE_FILE)
        points_sets: dict[int, set] = {}
        for entry in state.surrogate.values:
            points_sets.setdefault(entry.alpha, set()).update(
                map(tuple, build_grid(entry.beta, state.surrogate.families).points.tolist()))
        points_by_alpha = {a: len(keys) for a, keys in sorted(points_sets.items())}
        # evaluation counts derive from the adaptive trajectory (the kept,
        # charged entries' new points x QoIs), not from the shared cache, so
        # reruns against a warm cache report identical numbers
        evals_by_alpha: dict[int, int] = {}
        for e in sorted(state.entry_values):
            n = misc._new_points(e.beta) * len(cfg.calibration_qois)
            evals_by_alpha[e.alpha] = evals_by_alpha.get(e.alpha, 0) + n
        report = {
            "config_hash": cfg.config_hash,
            "qois": list(cfg.calibration_qois),
            "index_set": [{"alpha": e.alpha, "beta": list(e.beta),
                           "coeff": state.surrogate.coefficients.get(e, 0)}
                          for e in state.index_set],
            "committed": [{"alpha": e.alpha, "beta": list(e.beta), "profit": p}
                          for e, p in state.committed],
            "surrogate_points_by_fidelity": points_by_alpha,
            "work_spent": state.work_spent,
            "work_by_fidelity": {str(a): w for a, w in sorted(state.work_by_alpha.items())},
            "evaluations_by_fidelity": {str(a): n for a, n in sorted(evals_by_alpha.items())},
            "evaluations_total": sum(evals_by_alpha.values()),
        }
        _write_json(cfg.out_dir / BUILD_REPORT_FILE, report)
        log.info("build: %d entries, work %.1f, backend calls %s",
                 len(state.index_set), state.work_spent, oracle.backend_points)
        return {"report": report, "backend_points": dict(oracle.backend_points)}
    finally:
        oracle.close()


def _posterior_to_json(posterior: GaussianPosterior, cfg) -> dict:
    return {
        "config_hash": cfg.config_hash,
        "parameters": list(cfg.space.names),
        "mean": [float(x) for x in posterior.mean],
        "covariance": [float(x) for x in posterior.covariance.reshape(-1)],
        "sigma_meas": float(posterior.sigma_meas),
        "sigma_floored": posterior.sigma_floored,
        "warnings": list(posterior.warnings),
        "multistart": [
            {"start": list(r.start), "point": list(r.point), "misfit": r.misfit,
             "objective": r.objective, "iterations": r.iterations}
            for r in posterior.multistart
        ],
    }


def _posterior_from_json(doc: dict) -> GaussianPosterior:
    mean = np.asarray(doc["mean"], dtype=float)
    if mean.ndim != 1:
        raise ValueError(f"mean must be a list of numbers, got {doc['mean']!r}")
    cov = np.asarray(doc["covariance"], dtype=float).reshape(mean.size, mean.size)
    return GaussianPosterior(mean, cov, float(doc["sigma_meas"]),
                             sigma_floored=bool(doc.get("sigma_floored", False)),
                             warnings=tuple(doc.get("warnings", ())))


def cmd_calibrate(cfg: PipelineConfig) -> dict:
    """MAP + Laplace posterior from the built surrogate and observations."""
    if cfg.observations is None:
        raise ConfigError("calibration.observations is required for the calibrate step")
    if not cfg.observations.exists():
        raise ConfigError(f"observations file {cfg.observations} does not exist")
    surrogate_path = cfg.out_dir / SURROGATE_FILE
    if not surrogate_path.exists():
        raise ConfigError(f"surrogate file {surrogate_path} not found; run 'build' first")
    surrogate = misc.deserialize(surrogate_path, expect_dim=cfg.space.dim)
    try:
        obs = ObservationSet.from_csv(cfg.observations)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"calibration.observations: {exc}") from exc
    missing = [n for n in obs.names if n not in surrogate.qoi_names]
    if missing:
        raise ConfigError(f"observations reference QoIs missing from the surrogate: {missing}")

    posterior = bayes.calibrate(surrogate, obs, cfg.space, cfg.n_starts,
                                _stage_seed(cfg.seed, 1))
    if posterior.warnings:
        for w in posterior.warnings:
            log.warning("calibrate: %s", w)
    _write_json(cfg.out_dir / POSTERIOR_FILE, _posterior_to_json(posterior, cfg))

    stds = posterior.marginal_std()
    rows = []
    for spec in cfg.space.params:
        dist = spec.distribution
        mean, std = dist.center, dist.std
        cv = std / abs(mean) if mean != 0.0 else math.inf
        rows.append(["prior", spec.name] + [repr(float(x)) for x in
                                            (mean, std, cv, *dist.bounds())])
    for n, name in enumerate(cfg.space.names):
        mean, std = float(posterior.mean[n]), float(stds[n])
        cv = std / abs(mean) if mean != 0.0 else math.inf
        rows.append(["posterior", name] + [repr(float(x)) for x in
                                           (mean, std, cv, mean - 3 * std, mean + 3 * std)])
    artifacts.write_csv(cfg.out_dir / CALIBRATION_TABLE_FILE,
                        ["stage", "parameter", "mean", "std", "cov", "interval_lo", "interval_hi"],
                        rows, f"config {cfg.config_hash}")
    log.info("calibrate: MAP %s, sigma %.3g", np.round(posterior.mean, 6), posterior.sigma_meas)
    return {"posterior": posterior}


def cmd_forward(cfg: PipelineConfig) -> dict:
    """Prior- and posterior-based forward analyses for the prediction QoIs.

    The posterior push uses a surrogate rebuilt on Gaussian knots centered
    at the posterior marginals (the posterior usually overflows the prior
    box); the prior push uses knots on the original prior ranges.
    """
    posterior_path = cfg.out_dir / POSTERIOR_FILE
    if not posterior_path.exists():
        raise ConfigError(f"posterior file {posterior_path} not found; run 'calibrate' first")
    posterior = _read_artifact(posterior_path, ("mean", "covariance", "sigma_meas"),
                               _posterior_from_json)

    oracle = CachedOracle(cfg.backend, EvalCache(cfg.out_dir / CACHE_FILE))
    try:
        prior_state = _adaptive_surrogate(cfg, oracle, _prior_families(cfg.space),
                                          cfg.forward_qois, cfg.forward_stop)
        misc.serialize(prior_state.surrogate, cfg.out_dir / FORWARD_PRIOR_SURROGATE)
        post_state = _adaptive_surrogate(cfg, oracle, _posterior_families(posterior),
                                         cfg.forward_qois, cfg.forward_stop)
        misc.serialize(post_state.surrogate, cfg.out_dir / FORWARD_POST_SURROGATE)
        backend_points = dict(oracle.backend_points)
    finally:
        oracle.close()

    prior_push = forward.push_samples(prior_state.surrogate, cfg.space,
                                      cfg.forward_samples, _stage_seed(cfg.seed, 2))
    post_push = forward.push_samples(post_state.surrogate, posterior,
                                     cfg.forward_samples, _stage_seed(cfg.seed, 3))
    prior_bands = forward.summarize_bands(prior_push, cfg.kde_bandwidth, cfg.density_qois)
    post_bands = forward.summarize_bands(post_push, cfg.kde_bandwidth, cfg.density_qois)
    comment = f"config {cfg.config_hash}"
    forward.write_bands_csv(prior_bands, cfg.out_dir / PRIOR_BANDS_FILE, comment)
    forward.write_bands_csv(post_bands, cfg.out_dir / POST_BANDS_FILE, comment)

    try:
        reduction = forward.uncertainty_reduction(prior_bands, post_bands)
    except ValueError as exc:
        raise NumericalError(str(exc)) from exc
    _write_json(cfg.out_dir / REDUCTION_FILE, {
        "config_hash": cfg.config_hash,
        "reduction_percent": reduction,
        "prior_extrapolated_fraction": prior_push.extrapolated_fraction,
        "posterior_extrapolated_fraction": post_push.extrapolated_fraction,
        "samples": cfg.forward_samples,
    })

    if cfg.density_qois:
        ddir = cfg.out_dir / "densities"
        try:
            ddir.mkdir(exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create densities directory {ddir}: {exc}") from exc
        for name in cfg.density_qois:
            for tag, bands in (("prior", prior_bands), ("posterior", post_bands)):
                forward.write_density_csv(bands.densities[name], ddir / f"{name}_{tag}.csv",
                                          comment)

    if prior_push.extrapolated_fraction > 0 or post_push.extrapolated_fraction > 0:
        log.warning("forward: extrapolated sample fraction prior=%.3g posterior=%.3g",
                    prior_push.extrapolated_fraction, post_push.extrapolated_fraction)
    log.info("forward: reduction %.2f%%", reduction)
    return {"reduction": reduction, "prior_bands": prior_bands, "post_bands": post_bands,
            "backend_points": backend_points}


def cmd_report(cfg: PipelineConfig) -> dict:
    """Consolidate the build/calibrate/forward artifacts into one summary."""
    out = cfg.out_dir
    missing = [f for f in (BUILD_REPORT_FILE, POSTERIOR_FILE, REDUCTION_FILE)
               if not (out / f).exists()]
    if missing:
        raise ConfigError(f"cannot report: missing artifacts {missing} in {out}")
    build_report = _read_artifact(out / BUILD_REPORT_FILE, (
        "work_spent", "evaluations_total", "surrogate_points_by_fidelity"))
    _typed(build_report["surrogate_points_by_fidelity"], dict,
           f"{out / BUILD_REPORT_FILE}: surrogate_points_by_fidelity")
    names, posterior = _read_artifact(out / POSTERIOR_FILE, (
        "parameters", "mean", "covariance", "sigma_meas"),
        lambda doc: (doc["parameters"], _posterior_from_json(doc)))
    _typed(names, list, f"{out / POSTERIOR_FILE}: parameters")
    reduction_doc = _read_artifact(out / REDUCTION_FILE, (
        "reduction_percent", "prior_extrapolated_fraction", "posterior_extrapolated_fraction"))

    rows = [("config_hash", cfg.config_hash),
            ("work_spent", build_report["work_spent"]),
            ("evaluations_total", build_report["evaluations_total"])]
    for a, n in sorted(build_report["surrogate_points_by_fidelity"].items()):
        rows.append((f"surrogate_points_alpha_{a}", n))
    for name, m in zip(names, posterior.mean):
        rows.append((f"posterior_mean_{name}", float(m)))
    for name, std in zip(names, posterior.marginal_std()):
        rows.append((f"posterior_std_{name}", float(std)))
    rows.append(("sigma_meas", posterior.sigma_meas))
    rows.append(("reduction_percent", reduction_doc["reduction_percent"]))
    rows.append(("prior_extrapolated_fraction", reduction_doc["prior_extrapolated_fraction"]))
    rows.append(("posterior_extrapolated_fraction",
                 reduction_doc["posterior_extrapolated_fraction"]))

    lines = [f"# pipeline summary (config {cfg.config_hash})"]
    lines += [f"{k}: {v}" for k, v in rows]
    artifacts.write_text(out / REPORT_FILE, "\n".join(lines) + "\n")
    artifacts.write_csv(out / REPORT_SUMMARY_FILE, ["key", "value"], rows,
                        f"config {cfg.config_hash}")
    return {"rows": rows}


_COMMANDS = {"build": cmd_build, "calibrate": cmd_calibrate,
             "forward": cmd_forward, "report": cmd_report}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="miscuq",
                                     description="Multi-fidelity surrogate UQ pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", required=True, help="pipeline configuration file (YAML)")
        p.add_argument("--out", help="override the configured output directory")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--lanes", type=int, help="override oracle concurrency")
        p.add_argument("--quiet", action="store_true", help="only log warnings")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out, lanes=args.lanes)
        _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except (OracleError, misc.BuildError) as exc:
        log.error("oracle error: %s", exc)
        return EXIT_ORACLE
    except (NumericalError, np.linalg.LinAlgError, misc.SurrogateFormatError,
            bayes.CalibrationError) as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
