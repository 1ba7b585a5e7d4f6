"""Batch pipeline driver: build a surrogate over the prior, calibrate it
against observations, run the data-informed forward analysis, and report.

Exit codes: 0 success, 2 configuration error, 3 oracle error, 4 numerical
failure.  All output files carry the provenance hash (``_config_hash``) of
the config document, without ``output_dir``, ``oracle.lanes`` and
``oracle.timeout``, plus the observations file's bytes; anything
time-dependent goes to the log on stderr only, so reruns with identical
config and seeds are byte-identical.

``_STAGES`` lists the stages in order, with the artifacts each reads and
those of its outputs that a later stage reads.  ``main`` removes those
outputs before it runs a stage, and ``calibrate`` and ``forward`` write
theirs last, so a failed ``calibrate`` or ``forward`` leaves none of them
for a later stage to read.  ``build`` keeps one gap: if its
``build_report.json`` write fails, its fresh ``surrogate.json`` stays and
``report`` asks for ``build``; the reverse order would let ``report`` pair
a fresh ``build_report.json`` with an older ``posterior.json``.  ``main``
refuses a stage whose inputs are missing and names the stage to run first.

Each stage process loads only what it runs: this module and ``load_config``
need the standard library, yaml and the numpy-free ``artifacts``, ``params``
and ``oracle``; each ``cmd_*`` imports the numerical modules it calls, and
``report`` imports none, so it never loads numpy.  ``main`` loads numpy
for the other stages with a one-thread OpenBLAS pool (``_load_numpy``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import re
import sys
from collections import Counter
from collections.abc import Hashable
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from . import artifacts
from .artifacts import NumericalError
from .oracle import (BeamAnalogModel, CachedOracle, EvalCache, ExternalProcessModel, FidelitySpec,
                     OracleError, builtin_model)
from .params import Gaussian, ParamSpace, ParamSpec, Uniform, check_covariance

__all__ = ["main", "entry", "load_config", "cmd_build", "cmd_calibrate", "cmd_forward",
           "cmd_report", "ConfigError", "PipelineConfig"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_NUMERICAL = 4

SURROGATE_FILE = "surrogate.json"
BUILD_REPORT_FILE = "build_report.json"
POSTERIOR_FILE = "posterior.json"
CALIBRATION_TABLE_FILE = "calibration_table.csv"
REDUCTION_FILE = "reduction.json"
REPORT_FILE = "report.txt"
REPORT_SUMMARY_FILE = "report_summary.csv"
CACHE_FILE = "cache.jsonl"
DEFAULT_SAMPLES = 10_000  # forward.samples when the config sets none
MAX_STARTS = 10_000       # calibration.n_starts: the MAP search moves a simplex per start
MAX_SAMPLES = 1_000_000   # forward.samples: a push holds samples x (grid points + 1) doubles
MAX_QOIS = 100_000        # a QoI pattern's count: each name is built when the config loads
MAX_LANES = 64            # oracle.lanes: each lane is a simulator process


class ConfigError(Exception):
    """The configuration file is missing, malformed, or inconsistent."""


class _UniqueKeyLoader(yaml.SafeLoader):
    """The safe loader, refusing a key repeated in one mapping (PyYAML keeps
    the last); an unhashable key is left to PyYAML's own error."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":  # a << merge may override
                continue
            key = self.construct_object(key_node, deep=deep)
            if isinstance(key, Hashable):
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


# YAML 1.1 reads a plain number with an exponent but no dot, or with an
# unsigned exponent (1e4, 1.0e3, 1E-3), as text, where JSON and YAML 1.2 read
# a number.  Added after PyYAML's own resolvers, which keep integers and
# dotted floats.
_UniqueKeyLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _config_hash(doc: dict, observations: Path | None) -> str:
    """The provenance hash: the config document without the settings that
    change no number (``output_dir``, ``oracle.lanes``, ``oracle.timeout``),
    plus the sha256 of the observations file's bytes (null when no file is there)."""
    kept = {k: v for k, v in doc.items() if k != "output_dir"}
    kept["oracle"] = {k: v for k, v in doc["oracle"].items() if k not in ("lanes", "timeout")}
    kept["observations_sha256"] = None
    if observations is not None:
        try:
            kept["observations_sha256"] = hashlib.sha256(observations.read_bytes()).hexdigest()
        except OSError:  # no readable file there; calibrate and forward report that
            pass
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()[:16]


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


def _text(value, where: str, *, number: bool = False) -> str:
    """``value`` of a string, or ``str(value)`` of a number where ``number``
    allows one (free text that no stage reads).  A number where a name is due
    is a ConfigError, since YAML reads a plain 010 as 8 and 1e3 as 1000.0; so
    are null, a boolean (YAML 1.1 reads unquoted yes/no/on/off as one), a
    list, a mapping and a NUL."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{where}: expected text, got {value!r}")
    if not (number or isinstance(value, str)):
        raise ConfigError(f"{where}: expected text, got the number {value!r}; "
                          f"quote a name that looks like a number")
    if "\0" in str(value):
        raise ConfigError(f"{where}: contains a NUL character")
    return str(value)


def _number(cast, value, where: str, minimum=None, maximum=None):
    """``cast(value)`` of a number if it is finite, with type and range failures
    as ConfigError; the loader reads every plain number, so text was quoted."""
    if isinstance(value, (bool, str)):  # int(True) is 1
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        x = cast(value)
    except artifacts.MALFORMED as exc:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from exc
    if cast is int and isinstance(value, float) and x != value:  # int(1.5) is 1
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if cast is float and not math.isfinite(x):  # an int of any size is finite
        raise ConfigError(f"{where} must be finite, got {x}")
    if minimum is not None and not x >= minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {x}")
    if maximum is not None and not x <= maximum:
        raise ConfigError(f"{where} must be <= {maximum}, got {value}")
    return x


def _expand_qois(spec, where: str) -> tuple[str, ...]:
    """QoI lists are either explicit or {prefix, count[, start]} patterns."""
    if isinstance(spec, list) and spec:
        return tuple(_text(q, f"{where}[{i}]") for i, q in enumerate(spec))
    if isinstance(spec, dict) and "prefix" in spec and "count" in spec:
        _mapping(spec, where, ("prefix", "start", "count"))
        prefix = _text(spec["prefix"], f"{where}.prefix")
        start = _number(int, spec.get("start", 1), f"{where}.start")
        count = _number(int, spec["count"], f"{where}.count", minimum=1, maximum=MAX_QOIS)
        return tuple(f"{prefix}{i}" for i in range(start, start + count))
    raise ConfigError(f"{where}: expected a non-empty QoI list or a prefix/count pattern, "
                      f"got {spec!r}")


def _max_work(section: dict, where: str) -> float | None:
    """The ``budget.max_work`` of a section: 50 without a budget, None (no
    work limit) for a budget without one."""
    if "budget" not in section:
        return 50.0
    budget = _mapping(section["budget"], where, ("max_work",))
    # a zero max_work is allowed and builds the root entry only
    return (_number(float, budget["max_work"], f"{where}.max_work", minimum=0.0)
            if "max_work" in budget else None)


def _parse_space(docs) -> ParamSpace:
    specs = []
    for i, doc in enumerate(_typed(docs, list, "parameters")):
        where = f"parameters[{i}]"
        _typed(doc, dict, where)
        name = _text(_require(doc, "name", where), f"{where}.name")
        if not name:  # each name keys the posterior rows of the report
            raise ConfigError(f"{where}.name: expected a non-empty name")
        kind = _text(_require(doc, "distribution", where), f"{where}.distribution").lower()
        bounds = {"uniform": ("lo", "hi"), "gaussian": ("mean", "std")}.get(kind)
        if bounds is None:
            raise ConfigError(f"{where}: unknown distribution {kind!r}")
        _mapping(doc, where, ("name", "distribution", "transform") + bounds)
        if "transform" in doc:  # free text that no stage reads
            _text(doc["transform"], f"{where}.transform", number=True)
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
    lanes = _number(int, doc.get("lanes", 1), "oracle.lanes", minimum=1, maximum=MAX_LANES)
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
    build_work: float | None
    forward_qois: tuple[str, ...]
    forward_samples: int
    forward_work: float | None
    density_qois: tuple[str, ...]
    config_hash: str


def load_config(path: str | Path, *, out=None) -> PipelineConfig:
    """Parse and validate the YAML pipeline configuration.

    ``out`` (the ``--out`` flag) overrides ``output_dir``; every other
    setting comes from the file alone.  Relative ``observations`` and
    ``oracle.workdir`` paths are taken from the config file's directory.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = yaml.load(path.read_text(encoding="utf-8"), Loader=_UniqueKeyLoader)
    except (OSError, yaml.YAMLError, *artifacts.MALFORMED) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    _mapping(doc, f"{path} top level", ("seed", "output_dir", "oracle", "parameters",
                                        "calibration", "forward"))

    base = path.resolve().parent
    calib = _mapping(_require(doc, "calibration", "config"), "calibration",
                     ("qois", "observations", "n_starts", "budget"))
    fwd = _mapping(_require(doc, "forward", "config"), "forward",
                   ("qois", "samples", "budget", "densities"))
    space = _parse_space(_require(doc, "parameters", "config"))
    cfg = PipelineConfig(
        seed=_number(int, _require(doc, "seed", "config"), "seed", minimum=0),
        out_dir=Path(out if out is not None else
                     _text(_require(doc, "output_dir", "config"), "output_dir")),
        space=space,
        backend=_parse_backend(_typed(_require(doc, "oracle", "config"), dict, "oracle"),
                               space.dim, base),
        calibration_qois=_expand_qois(_require(calib, "qois", "calibration"), "calibration.qois"),
        observations=(base / _text(calib["observations"], "calibration.observations")
                      if "observations" in calib else None),
        n_starts=_number(int, calib.get("n_starts", 20), "calibration.n_starts", minimum=1,
                         maximum=MAX_STARTS),
        build_work=_max_work(calib, "calibration.budget"),
        forward_qois=_expand_qois(_require(fwd, "qois", "forward"), "forward.qois"),
        forward_samples=_number(int, fwd.get("samples", DEFAULT_SAMPLES), "forward.samples",
                                minimum=2, maximum=MAX_SAMPLES),
        forward_work=_max_work(fwd, "forward.budget"),
        density_qois=tuple(_text(q, f"forward.densities[{i}]") for i, q in
                           enumerate(_typed(fwd.get("densities", []), list, "forward.densities"))),
        config_hash="",
    )
    for where, qois in (("calibration.qois", cfg.calibration_qois),
                        ("forward.qois", cfg.forward_qois),
                        ("forward.densities", cfg.density_qois)):
        repeated = sorted(q for q, n in Counter(qois).items() if n > 1)
        if repeated:
            raise ConfigError(f"{where} repeats QoI names {repeated}")
    declared = getattr(cfg.backend, "qoi_names", None)  # an external backend declares none
    for where, qois in (("calibration.qois", cfg.calibration_qois),
                        ("forward.qois", cfg.forward_qois)):
        unknown = [q for q in qois if declared is not None and q not in declared]
        if unknown:
            raise ConfigError(f"{where} lists QoIs the oracle does not declare: {unknown}")
    unknown = [q for q in cfg.density_qois if q not in cfg.forward_qois]
    if unknown:
        raise ConfigError(f"forward.densities lists QoIs outside forward.qois: {unknown}")
    # each name becomes a file name under the densities directory
    pathlike = [q for q in cfg.density_qois if "/" in q or (os.altsep and os.altsep in q)]
    if pathlike:
        raise ConfigError(f"forward.densities names must be plain file names, got {pathlike}")
    cfg.config_hash = _config_hash(doc, cfg.observations)
    return cfg


def _posterior_families(posterior):
    stds = posterior.marginal_std()
    if (stds <= 0.0).any():
        raise NumericalError("posterior has a zero-variance direction; "
                             "cannot place Gaussian knots")
    return tuple(Gaussian(float(m), float(s)) for m, s in zip(posterior.mean, stds))


def _stage_seed(base: int, stage: int):
    import numpy as np
    return np.random.SeedSequence(entropy=base, spawn_key=(stage,))


def _adaptive_surrogates(cfg, qois, max_work, *family_sets):
    """One cached-oracle session: the adapted state for each tuple of knot
    families, in order, and the backend points the session spent.  Each
    backend request asks for every QoI the pipeline reads, so a point that
    build evaluated is a cache hit in forward."""
    from . import misc
    oracle = CachedOracle(cfg.backend, EvalCache(cfg.out_dir / CACHE_FILE),
                          cfg.calibration_qois + cfg.forward_qois)
    try:
        states = [misc.adapt(misc.init_adapt(oracle, families, qois), oracle,
                             misc.AdaptStop(max_work=max_work))
                  for families in family_sets]
        return states, dict(oracle.backend_points)
    finally:
        oracle.close()


def _warn_flat_top(cfg, state, surrogate: str, result: str, key: str) -> None:
    """Warn when the oracle has several fidelities and no committed top-fidelity
    entry refines some parameter (beta_d > 1): along it ``result`` the lower ones."""
    top = len(cfg.backend.fidelities)
    betas = [e.beta for e in state.index_set if e.alpha == top]
    flat = [n for d, n in enumerate(cfg.space.names) if all(b[d] == 1 for b in betas)]
    if top > 1 and flat:
        log.warning("%s has no fidelity-%d entry%s, so %s the lower fidelities; raise %s",
                    surrogate, top, f" that varies along {flat}" if betas else "", result, key)


_POSTERIOR_FIELDS = {"mean": "a list of finite numbers", "covariance": "a list of finite numbers",
                     "sigma_meas": "a positive finite number"}
_REDUCTION_FIELDS = dict.fromkeys(("reduction_percent", "prior_extrapolated_fraction",
                                   "posterior_extrapolated_fraction"), "a finite number")


def _read_artifact(path: Path, kinds: dict, parse=None):
    """The values under ``kinds``' keys of the JSON mapping an earlier stage
    wrote to ``path`` (see ``artifacts.check``), passed through ``parse`` if
    given.  A file that cannot be read or fails the check or ``parse`` is a
    ConfigError naming it."""
    try:
        doc = artifacts.check(json.loads(path.read_text(encoding="utf-8")), kinds)
        return doc if parse is None else parse(doc)
    except (OSError, *artifacts.MALFORMED) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _remove(path: Path) -> None:
    try:
        path.unlink()
    except OSError as exc:
        raise ConfigError(f"cannot remove {path}: {exc.strerror or exc}") from exc


def _write_json(path: Path, doc: dict) -> None:
    artifacts.write_text(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def cmd_build(cfg: PipelineConfig) -> dict:
    """Adaptive build of the calibration surrogate over the prior space."""
    from . import misc
    from .interp import build_grid
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    [state], backend_points = _adaptive_surrogates(cfg, cfg.calibration_qois, cfg.build_work,
                                                   tuple(p.distribution for p in cfg.space.params))
    _warn_flat_top(cfg, state, "build: the calibration surrogate", "the posterior follows",
                   "calibration.budget.max_work")
    misc.serialize(state.surrogate, cfg.out_dir / SURROGATE_FILE, cfg.config_hash)
    points_sets: dict[int, set] = {}
    for entry in state.surrogate.values:
        points_sets.setdefault(entry.alpha, set()).update(
            map(tuple, build_grid(entry.beta, state.surrogate.families).points.tolist()))
    points_by_alpha = {a: len(keys) for a, keys in sorted(points_sets.items())}
    evals_by_alpha = {a: n * len(cfg.calibration_qois)
                      for a, n in sorted(state.points_by_alpha.items())}
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
        "evaluations_by_fidelity": {str(a): n for a, n in evals_by_alpha.items()},
        "evaluations_total": sum(evals_by_alpha.values()),
    }
    _write_json(cfg.out_dir / BUILD_REPORT_FILE, report)
    log.info("build: %d entries, work %.1f, backend calls %s",
             len(state.index_set), state.work_spent, backend_points)
    return {"report": report, "backend_points": backend_points}


def _posterior_to_json(posterior, cfg) -> dict:
    return {
        "config_hash": cfg.config_hash,
        "parameters": list(cfg.space.names),
        "mean": [float(x) for x in posterior.mean],
        "covariance": [float(x) for x in posterior.covariance.reshape(-1)],
        "sigma_meas": float(posterior.sigma_meas),
        "sigma_floored": posterior.sigma_floored,
        "multistart": [asdict(r) for r in posterior.multistart],
    }


def _posterior_from_json(doc: dict, dim: int) -> tuple[list, list]:
    """The mean and the covariance rows of a mapping whose keys hold
    ``_POSTERIOR_FIELDS``, over ``dim`` parameters; the covariance passes
    ``check_covariance``.  Plain lists, so ``report`` loads no numpy."""
    mean, flat = doc["mean"], doc["covariance"]
    if len(mean) != dim:
        raise ValueError(f"mean: expected one entry per parameter ({dim}), got {mean!r}")
    if len(flat) != dim * dim:
        raise ValueError(f"covariance: expected {dim * dim} entries, got {flat!r}")
    rows = [flat[i * dim:(i + 1) * dim] for i in range(dim)]
    check_covariance(rows)
    return mean, rows


def _read_observations(cfg: PipelineConfig):
    """The ``ObservationSet`` in ``calibration.observations``; an unset key or
    a file that cannot be read is a ConfigError."""
    from .bayes import ObservationSet
    if cfg.observations is None:
        raise ConfigError("calibration.observations is required for calibrate and forward")
    try:
        return ObservationSet.from_csv(cfg.observations)
    except (OSError, *artifacts.MALFORMED) as exc:
        raise ConfigError(f"calibration.observations: {exc}") from exc


def cmd_calibrate(cfg: PipelineConfig) -> dict:
    """MAP + Laplace posterior from the built surrogate and observations."""
    from . import bayes, misc
    obs = _read_observations(cfg)
    surrogate = misc.deserialize(cfg.out_dir / SURROGATE_FILE, expect_dim=cfg.space.dim)
    missing = [n for n in obs.names if n not in surrogate.qoi_names]
    if missing:
        raise ConfigError(f"calibration.observations: {cfg.observations} references QoIs "
                          f"missing from the surrogate {cfg.out_dir / SURROGATE_FILE}: {missing}")
    if len(surrogate.compiled.grid) == 1:
        raise NumericalError(f"the surrogate {cfg.out_dir / SURROGATE_FILE} is one grid point, "
                             "a constant: rebuild it with a larger calibration.budget.max_work")

    posterior = bayes.calibrate(surrogate, obs, cfg.space, cfg.n_starts,
                                _stage_seed(cfg.seed, 1))
    outside = [f"{name} = {x:.6g} outside [{lo:.6g}, {hi:.6g}]" for name, x, (lo, hi)
               in zip(cfg.space.names, posterior.mean.tolist(), surrogate.domain)
               if not lo <= x <= hi]
    if outside:  # the same test as surrogate.extrapolation_mask
        log.warning("calibrate: the MAP lies outside the surrogate's domain, so the posterior "
                    "describes the surrogate's extrapolation: %s; rerun build over the "
                    "current prior", "; ".join(outside))
    # (stage, parameter, mean, std, interval_lo, interval_hi) of each marginal
    stats = [("prior", spec.name, spec.distribution.center, spec.distribution.std,
              *spec.distribution.bounds()) for spec in cfg.space.params]
    for name, m, s in zip(cfg.space.names, map(float, posterior.mean),
                          map(float, posterior.marginal_std())):
        stats.append(("posterior", name, m, s, m - 3 * s, m + 3 * s))
    rows = [[stage, name] + [repr(float(x)) for x in
                             (mean, std, std / abs(mean) if mean != 0.0 else math.inf, lo, hi)]
            for stage, name, mean, std, lo, hi in stats]
    artifacts.write_csv(cfg.out_dir / CALIBRATION_TABLE_FILE,
                        ["stage", "parameter", "mean", "std", "cov", "interval_lo", "interval_hi"],
                        rows, f"config {cfg.config_hash}")
    _write_json(cfg.out_dir / POSTERIOR_FILE, _posterior_to_json(posterior, cfg))  # last
    log.info("calibrate: MAP %s, sigma %.3g", posterior.mean.round(6), posterior.sigma_meas)
    return {"posterior": posterior}


def cmd_forward(cfg: PipelineConfig) -> dict:
    """Prior- and posterior-based forward analyses for the prediction QoIs.

    The posterior push uses a surrogate rebuilt on Gaussian knots centered
    at the posterior marginals (the posterior usually overflows the prior
    box); the prior push uses knots on the original prior ranges.  A
    surrogate of one grid point predicts a constant, whose zero-width bands
    mean nothing: that is a NumericalError naming the analysis.  The
    observations are read first; each one outside its posterior band is
    logged as a warning.
    """
    from . import forward, misc
    from .bayes import GaussianPosterior
    obs = _read_observations(cfg)
    posterior = _read_artifact(cfg.out_dir / POSTERIOR_FILE, _POSTERIOR_FIELDS, lambda doc: (
        GaussianPosterior(*_posterior_from_json(doc, cfg.space.dim), float(doc["sigma_meas"]))))

    # (tag, input distribution, seed stage) of each analysis
    analyses = (("prior", cfg.space, 2), ("posterior", posterior, 3))
    states, backend_points = _adaptive_surrogates(
        cfg, cfg.forward_qois, cfg.forward_work,
        tuple(p.distribution for p in cfg.space.params), _posterior_families(posterior))
    for (tag, _, _), state in zip(analyses, states):
        if len(state.surrogate.compiled.grid) == 1:
            failed = f"; first failed candidate: {state.skipped[0][1]}" if state.skipped else ""
            raise NumericalError(f"the {tag} surrogate is one grid point, a constant: "
                                 f"adapt stopped on {state.stop_reason}{failed}")
        _warn_flat_top(cfg, state, f"forward: the {tag} surrogate", f"the {tag} bands follow",
                       "forward.budget.max_work")
    ddir = cfg.out_dir / "densities"
    if cfg.density_qois:
        try:
            ddir.mkdir(exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create densities directory {ddir}: {exc}") from exc
    comment = f"config {cfg.config_hash}"
    bands = []
    for (tag, dist, stage), state in zip(analyses, states):
        misc.serialize(state.surrogate, cfg.out_dir / f"surrogate_forward_{tag}.json",
                       cfg.config_hash)
        # no name holds the push: it is freed once summarized, before the next one
        bands.append(forward.summarize_bands(
            forward.push_samples(state.surrogate, dist, cfg.forward_samples,
                                 _stage_seed(cfg.seed, stage)),
            cfg.density_qois))
        forward.write_bands_csv(bands[-1], cfg.out_dir / f"bands_{tag}.csv", comment)
        for path in ddir.glob(f"*_{tag}.csv"):  # a name no longer listed carries an older hash
            if path.name.removesuffix(f"_{tag}.csv") not in cfg.density_qois:
                _remove(path)
        for name in cfg.density_qois:
            forward.write_density_csv(bands[-1].densities[name], ddir / f"{name}_{tag}.csv",
                                      comment)
    extrapolated = [float(b.extrapolated_fraction[0]) for b in bands]
    reduction = forward.uncertainty_reduction(*bands)
    _write_json(cfg.out_dir / REDUCTION_FILE, {  # last: report reads it
        "config_hash": cfg.config_hash,
        "reduction_percent": reduction,
        "prior_extrapolated_fraction": extrapolated[0],
        "posterior_extrapolated_fraction": extrapolated[1],
        "samples": cfg.forward_samples,
    })
    if any(extrapolated):
        log.warning("forward: extrapolated sample fraction prior=%.3g posterior=%.3g",
                    *extrapolated)
    _warn_unheld_observations(obs, *bands)
    log.info("forward: reduction %.2f%%", reduction)
    return {"reduction": reduction, "prior_bands": bands[0], "post_bands": bands[1],
            "backend_points": backend_points}


def _warn_unheld_observations(obs, prior, post) -> None:
    """Warn for each observed QoI of the bands that lies outside its
    posterior [q05, q95] band, by how many band widths and on which side."""
    observed = dict(obs.entries)
    for j, name in enumerate(post.qoi_names):
        value, lo, hi = observed.get(name), float(post.q05[j]), float(post.q95[j])
        if value is None or lo <= value <= hi:
            continue
        side, gap = ("above", value - hi) if value > hi else ("below", lo - value)
        held = "holds it" if prior.q05[j] <= value <= prior.q95[j] else "misses it too"
        log.warning("forward: observed %s = %.6g lies %.3g posterior band widths %s the "
                    "posterior band [%.6g, %.6g]; the prior band [%.6g, %.6g] %s. The "
                    "calibration and forward surrogates disagree there, or the model does "
                    "not fit the data", name, value, gap / (hi - lo) if hi > lo else math.inf,
                    side, lo, hi, prior.q05[j], prior.q95[j], held)


def cmd_report(cfg: PipelineConfig) -> dict:
    """Consolidate the build/calibrate/forward artifacts into one summary."""
    out = cfg.out_dir
    build_report = _read_artifact(out / BUILD_REPORT_FILE, {
        "work_spent": "a finite number", "evaluations_total": "an integer",
        "surrogate_points_by_fidelity": "a mapping of integers"})
    names, sigma_meas, (mean, cov) = _read_artifact(
        out / POSTERIOR_FILE, {"parameters": "a list of names", **_POSTERIOR_FIELDS},
        lambda doc: (doc["parameters"], float(doc["sigma_meas"]),
                     _posterior_from_json(doc, cfg.space.dim)))
    if len(names) != len(mean):
        raise ConfigError(f"cannot read {out / POSTERIOR_FILE}: parameters: expected one name "
                          f"per mean entry, got {names!r}")
    reduction = _read_artifact(out / REDUCTION_FILE, _REDUCTION_FIELDS)

    rows = [("config_hash", cfg.config_hash),
            ("work_spent", build_report["work_spent"]),
            ("evaluations_total", build_report["evaluations_total"])]
    for a, n in sorted(build_report["surrogate_points_by_fidelity"].items()):
        rows.append((f"surrogate_points_alpha_{a}", n))
    for name, m in zip(names, mean):
        rows.append((f"posterior_mean_{name}", float(m)))
    for i, name in enumerate(names):
        rows.append((f"posterior_std_{name}", math.sqrt(max(cov[i][i], 0.0))))
    rows += [("sigma_meas", sigma_meas), *reduction.items()]

    lines = [f"# pipeline summary (config {cfg.config_hash})"]
    lines += [f"{k}: {v}" for k, v in rows]
    artifacts.write_text(out / REPORT_FILE, "\n".join(lines) + "\n")
    artifacts.write_csv(out / REPORT_SUMMARY_FILE, ["key", "value"], rows,
                        f"config {cfg.config_hash}")
    return {"rows": rows}


# in pipeline order: (function, artifacts it reads, outputs a later stage reads)
_STAGES = {
    "build": (cmd_build, (), (SURROGATE_FILE, BUILD_REPORT_FILE)),
    "calibrate": (cmd_calibrate, (SURROGATE_FILE,), (POSTERIOR_FILE,)),
    "forward": (cmd_forward, (POSTERIOR_FILE,), (REDUCTION_FILE,)),
    "report": (cmd_report, (BUILD_REPORT_FILE, POSTERIOR_FILE, REDUCTION_FILE), ()),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="miscuq",
                                     description="Multi-fidelity surrogate UQ pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, _, _) in _STAGES.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", required=True, help="pipeline configuration file (YAML)")
        p.add_argument("--out", help="override the configured output directory")
        p.add_argument("--quiet", action="store_true", help="only log warnings")
    return parser


def _load_numpy() -> None:
    """Import numpy with ``OPENBLAS_NUM_THREADS=1``, then put the variable
    back as it was: removed if it was unset, else the user's value.

    OpenBLAS reads the variable once, as numpy loads it, and starts a pool
    of that many threads, one per core if unset: on two vCPUs ``import
    numpy`` takes 97-99 ms with two threads and 48-53 ms with one (medians
    of 9).  No stage calls BLAS or LAPACK
    (``tests/test_host_kernels.py`` refuses a new call), so one thread moves
    no output byte.  External-oracle lanes inherit ``os.environ``, so a
    user's simulator keeps the user's value.  Once numpy is loaded (library
    use, in-process tests) this does nothing.
    """
    if "numpy" in sys.modules:
        return
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config, out=args.out)
        run, reads, outputs = _STAGES[args.command]
        for path in (cfg.out_dir / name for name in outputs):
            if path.is_file():
                _remove(path)
        missing = [f for f in reads if not (cfg.out_dir / f).exists()]
        if missing:
            first = next(n for n, (*_, provides) in _STAGES.items() if set(provides) & set(missing))
            raise ConfigError(f"{args.command}: missing artifacts {missing} in {cfg.out_dir}; "
                              f"run '{first}' first")
        if args.command != "report":
            _load_numpy()
        run(cfg)
    except Exception as exc:
        for code, what, kinds in (
                (EXIT_CONFIG, "config error", (ConfigError, artifacts.ArtifactError)),
                (EXIT_ORACLE, "oracle error", OracleError),
                (EXIT_NUMERICAL, "numerical failure", NumericalError)):
            if isinstance(exc, kinds):
                log.error("%s: %s", what, exc)
                return code
        raise
    return EXIT_OK


def entry() -> None:
    """The process entry of ``python -m miscuq`` and the ``miscuq`` script:
    ``main``, then, once the log and the standard streams are flushed, an
    exit that skips interpreter finalization (``os._exit``).  An exception
    that escapes ``main``, argparse's ``SystemExit`` included, takes the
    normal exit.  Skipping finalization loses nothing, because

    - every artifact write is closed, through ``artifacts.write_text`` or a
      ``with`` block;
    - every oracle lane is closed, in the ``finally`` of
      ``_adaptive_surrogates`` and in ``ExternalProcessModel.dispatch``'s
      error path;
    - the package registers no ``atexit`` hook or finalizer.
    """
    code = main()
    logging.shutdown()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started with the descriptor closed
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
