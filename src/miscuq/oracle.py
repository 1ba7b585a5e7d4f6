"""The model boundary: builtin analytic multi-fidelity models, an external
process protocol for real simulators, and a persistent evaluation cache.

Wire protocol for external oracles (newline-delimited JSON, UTF-8):

    request:  {"id": <int>, "fidelity": <int>, "params": [<real>...],
               "qois": ["<name>", ...]}
    response: {"id": <int>, "values": [<real>...]}
              or {"id": <int>, "error": "<message>"}

Requests arrive on the child's standard input, responses leave on standard
output, anything on standard error is treated as free-form logging.  The
lanes (child processes) are driven from the calling thread; the first failure
on any lane closes every lane and aborts the batch, losing at most one
in-flight request per lane.  The answers received before the abort are cached.
A pipeline stage's request asks for every QoI the pipeline reads, not only
those of the call that sent it, so a simulator runs once per (fidelity, point).

The cache file is an append-only JSON-lines log with one record per answered
request, ``{"alpha": <int>, "point": [<hex>...], "values": {<qoi>: <hex>}}``;
a later record for the same point adds its QoIs.  Point coordinates and
values are hex-encoded binary doubles so a cache hit is bit-identical to the
original evaluation; text in another form, decimal text included, makes
the record corrupt.  Only finite values are cached: a non-finite value
fails its point.  A last line without its newline (an append cut short by a
crash) is dropped on load; any other unreadable record, a record of another
layout included, is an error.

Importing this module, or building a backend, loads no numpy; the process
modules (``subprocess``, ``select``, ``shlex``) load only where an external
backend uses them, so a builtin-oracle stage never loads them.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

from . import artifacts

__all__ = [
    "OracleError",
    "OracleProtocolError",
    "FidelitySpec",
    "EvalRequest",
    "EvalResult",
    "EvalCache",
    "point_key",
    "BeamAnalogModel",
    "builtin_model",
    "ExternalProcessModel",
    "CachedOracle",
]

log = logging.getLogger(__name__)


class OracleError(Exception):
    """The backend could not serve a request batch."""


class OracleProtocolError(OracleError):
    """An external backend broke the line protocol; the batch is aborted."""


@dataclass(frozen=True)
class FidelitySpec:
    alpha: int
    cost_weight: float

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError(f"fidelity level must be >= 1, got {self.alpha}")
        if not 0.0 < self.cost_weight < math.inf:
            raise ValueError(f"cost weight must be positive and finite, got {self.cost_weight}")


def _fidelity_table(fidelities) -> tuple[FidelitySpec, ...]:
    """``fidelities`` sorted by level: a non-empty table of the levels
    1, 2, ..., L whose cost weights rise strictly with the level."""
    table = tuple(sorted(fidelities, key=lambda f: f.alpha))
    if not table or [f.alpha for f in table] != list(range(1, len(table) + 1)) or any(
            b.cost_weight <= a.cost_weight for a, b in zip(table, table[1:])):
        raise ValueError(f"fidelities need the levels 1, 2, ..., L and cost weights rising "
                         f"strictly with the level, got {table}")
    return table


@dataclass(frozen=True)
class EvalRequest:
    id: int
    alpha: int
    params: tuple[float, ...]
    qois: tuple[str, ...]

    def to_wire(self) -> str:
        return json.dumps({"id": self.id, "fidelity": self.alpha,
                           "params": list(self.params), "qois": list(self.qois)})


@dataclass(frozen=True)
class EvalResult:
    values: tuple[float, ...] | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def point_key(v) -> tuple[str, ...]:
    """Canonical cache key: the exact binary image of the coordinates."""
    return tuple(float(x).hex() for x in v)


# the kinds (``artifacts.KINDS``) of a cache record's keys
_RECORD = {"alpha": "an integer >= 1", "point": "a list of hex floats as float.hex writes them",
           "values": "a mapping of hex floats"}


class EvalCache:
    """Map (fidelity, point) -> {qoi: value}, persisted as an append-only log."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._store: dict[tuple[int, tuple[str, ...]], dict[str, float]] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
            end = data.rfind(b"\n") + 1
            if end < len(data):
                # Every record is written with its newline, so a last line without
                # one is an append cut short by a crash.  Drop it from the file as
                # well, or the next append would extend it into mid-file garbage.
                log.warning("dropping a torn last record (%d bytes) from %s",
                            len(data) - end, self.path)
                with open(self.path, "r+b") as fh:
                    fh.truncate(end)
        except OSError as exc:  # a directory, say, or a read-only file with a torn record
            raise OracleError(f"cannot load evaluation cache {self.path}: {exc}") from exc
        for lineno, line in enumerate(data[:end].splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = artifacts.check(json.loads(line), _RECORD)
                key = (rec["alpha"], tuple(rec["point"]))
                self._store.setdefault(key, {}).update(rec["values"])
            except artifacts.MALFORMED as exc:
                raise OracleError(f"corrupt cache record at {self.path}:{lineno} (expected "
                                  f'{{"alpha", "point", "values": {{qoi: hex}}}}): {exc}') from exc

    def get(self, alpha: int, key: tuple[str, ...]) -> dict[str, float]:
        return self._store.get((alpha, key), {})

    def put_many(self, records) -> None:
        """records: iterable of (alpha, point key, {qoi: value}), one per
        answered request; appends one line each to disk."""
        records = list(records)
        for alpha, key, values in records:
            self._store.setdefault((alpha, key), {}).update((q, float(v)) for q, v in values.items())
        if self.path is not None and records:
            try:
                with open(self.path, "a", encoding="utf-8") as fh:
                    for alpha, key, values in records:
                        fh.write(json.dumps({"alpha": alpha, "point": list(key), "values": {
                            q: float(v).hex() for q, v in values.items()}}) + "\n")
            except OSError as exc:  # a full disk, say
                raise OracleError(f"cannot append to evaluation cache {self.path}: {exc}") from exc

    def __len__(self) -> int:
        return sum(map(len, self._store.values()))

    def points_by_alpha(self) -> dict[int, set[tuple[str, ...]]]:
        out: dict[int, set[tuple[str, ...]]] = {}
        for alpha, key in self._store:
            out.setdefault(alpha, set()).add(key)
        return out


class BeamAnalogModel:
    """Synthetic two-fidelity stand-in for an expensive thermomechanical code.

    Two inputs: an activation temperature ``T`` (nominal box [1130, 1450])
    and the log10 of a powder convection coefficient ``L`` (nominal box
    [-5, 0]).  Outputs are five "ridge displacements" u_1..u_5 and 120
    "residual strains" e_1..e_120:

        u_k = 0.1 k (1 + 0.3 tanh((T-1290)/160)) (1 + 0.15 (L+2.5)/2.5)
        e_j = (1.5 - 0.01 j) 1e-3 (1 + 0.2 tanh((T-1290)/160)
                                      + 0.1 sin(pi (L+2.5)/5))

    Fidelity alpha returns the exact value times a smooth multiplicative
    bias ``1 + delta_alpha cos(T/200) cos(L)`` with delta_1 = 0.05 and
    delta_2 = 0.05/36, so the bias shrinks by the same factor 36 by which
    the evaluation cost grows.  Every constant here is invented; the model
    exists to give the multi-fidelity machinery realistic structure, not to
    describe any physical process.

    The declared domain is the nominal box inflated by one box-width on each
    side; the closed forms stay tame there, which leaves headroom for
    surrogates rebuilt around data-informed (Gaussian) parameter ranges.
    """

    name = "beam-analog"
    dim = 2
    DISPLACEMENTS = 5
    STRAINS = 120
    BIAS = {1: 0.05, 2: 0.05 / 36.0}

    def __init__(self):
        self.fidelities = (FidelitySpec(1, 1.0), FidelitySpec(2, 36.0))
        self.domain = ((810.0, 1770.0), (-10.0, 5.0))
        self.qoi_names = tuple(f"u_{k}" for k in range(1, self.DISPLACEMENTS + 1)) + \
            tuple(f"e_{j}" for j in range(1, self.STRAINS + 1))
        # each QoI's place among the values of all QoIs that exact computes
        self._position = {q: i for i, q in enumerate(self.qoi_names)}

    @functools.cached_property
    def _factors(self):
        """The factors of u_k and e_k that depend on k alone, over k; built
        on the first evaluation, so building the model loads no numpy."""
        import numpy as np
        return (np.array([0.1 * k for k in range(1, self.DISPLACEMENTS + 1)]),
                np.array([(1.5 - 0.01 * k) * 1e-3 for k in range(1, self.STRAINS + 1)]))

    def exact(self, v, qois) -> np.ndarray:
        """The closed forms over arrays.  Each value takes the operations in
        the order the formulas above give them, so it is bit for bit the
        formula evaluated in scalars."""
        import numpy as np
        try:
            at = [self._position[q] for q in qois]
        except KeyError as exc:
            raise OracleError(f"unknown QoI {exc.args[0]!r}") from None
        t, logh = float(v[0]), float(v[1])
        s = math.tanh((t - 1290.0) / 160.0)
        u_factor, e_factor = self._factors
        u = u_factor * (1.0 + 0.3 * s) * (1.0 + 0.15 * (logh + 2.5) / 2.5)
        e = e_factor * (1.0 + 0.2 * s + 0.1 * math.sin(math.pi * (logh + 2.5) / 5.0))
        return np.concatenate((u, e))[at]

    def evaluate(self, alpha: int, v, qois) -> tuple[float, ...]:
        if alpha not in self.BIAS:
            raise OracleError(f"unknown fidelity {alpha}")
        t, logh = float(v[0]), float(v[1])
        bias = 1.0 + self.BIAS[alpha] * math.cos(t / 200.0) * math.cos(logh)
        return tuple((self.exact(v, qois) * bias).tolist())

    def dispatch(self, requests) -> dict[int, EvalResult]:
        out = {}
        for req in requests:
            out[req.id] = EvalResult(values=self.evaluate(req.alpha, req.params, req.qois))
        return out

    def close(self) -> None:
        pass


def builtin_model(name: str):
    """Instantiate a builtin model by name."""
    if name != BeamAnalogModel.name:
        raise OracleError(f"unknown builtin model {name!r}; known: {[BeamAnalogModel.name]}")
    return BeamAnalogModel()


class _Lane:
    """One subprocess speaking the line protocol, one request in flight."""

    def __init__(self, argv, cwd):
        import subprocess
        self.proc = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=None, bufsize=0)
        self._buf = b""

    def send(self, request: EvalRequest) -> None:
        try:
            self.proc.stdin.write((request.to_wire() + "\n").encode("utf-8"))
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise OracleProtocolError(
                f"oracle process died while receiving {request.to_wire()}: {exc}") from exc

    def fileno(self) -> int:
        return self.proc.stdout.fileno()

    def has_line(self) -> bool:
        return b"\n" in self._buf

    def reply(self, request: EvalRequest) -> dict | None:
        """The answer to ``request``, or None while its line is incomplete.
        Reads the pipe at most once: call it when a line is buffered or readable."""
        if not self.has_line():
            chunk = self.proc.stdout.read(65536)
            if not chunk:
                import subprocess
                try:  # end of output comes before the child is reaped
                    code = self.proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    code = None  # still running with its output closed
                raise OracleProtocolError(f"oracle process exited (code {code}) "
                                          f"before answering {request.to_wire()}")
            self._buf += chunk
            if not self.has_line():
                return None
        line, self._buf = self._buf.split(b"\n", 1)
        try:
            reply = json.loads(line)  # bytes: invalid UTF-8 is a ValueError too
        except artifacts.MALFORMED as exc:
            text = line.decode("utf-8", "replace")
            raise OracleProtocolError(
                f"malformed oracle response {text!r} for {request.to_wire()}") from exc
        if not isinstance(reply, dict) or reply.get("id") != request.id:
            raise OracleProtocolError(
                f"oracle response id mismatch: sent {request.id}, got {reply!r}")
        return reply


def _parse_reply(request: EvalRequest, reply: dict) -> EvalResult:
    """One protocol response as a result; a non-finite value fails only its
    point, a malformed response raises OracleProtocolError."""
    if "error" in reply:
        return EvalResult(error=str(reply["error"]))
    raw = reply.get("values")
    if not isinstance(raw, list):
        raise OracleProtocolError(f"oracle response {reply!r} has neither values nor error")
    if not all(type(x) in (int, float) for x in raw):  # a boolean is no JSON number
        raise OracleProtocolError(
            f"oracle returned non-numeric values {raw!r} on {request.to_wire()}")
    try:
        vals = tuple(float(x) for x in raw)
    except OverflowError as exc:  # an integer beyond the float range
        raise OracleProtocolError(
            f"oracle returned out-of-range values {raw!r} on {request.to_wire()}") from exc
    if len(vals) != len(request.qois):
        raise OracleProtocolError(f"oracle returned {len(vals)} values for {len(request.qois)} "
                                  f"QoIs on {request.to_wire()}")
    bad = [q for q, v in zip(request.qois, vals) if not math.isfinite(v)]
    if bad:
        return EvalResult(error=f"non-finite values for {bad}")
    return EvalResult(values=vals)


class ExternalProcessModel:
    """Backend that evaluates points by talking to a user-supplied executable.

    ``command`` is a shell-style command line; ``lanes`` child processes are
    spawned on the first dispatch and driven from the calling thread, each
    taking the next request as soon as it answers.  The first failure on any
    lane closes every lane and aborts the batch, losing at most one in-flight
    request per lane; the exception carries the answers received before it
    as ``results``, which ``CachedOracle`` caches.
    """

    def __init__(self, command: str, workdir: str | Path | None = None, *, dim: int,
                 fidelities, domain=None, lanes: int = 1,
                 timeout: float = 60.0):
        import shlex
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self._argv = shlex.split(command)
        if not self._argv:
            raise ValueError("the oracle command is empty")
        self.command = command
        self.workdir = str(workdir) if workdir is not None else None
        self.dim = int(dim)
        self.fidelities = _fidelity_table(fidelities)
        self.domain = tuple(domain) if domain is not None else None
        if self.domain is not None and (len(self.domain) != self.dim or not all(
                -math.inf < lo < hi < math.inf for lo, hi in self.domain)):
            raise ValueError(f"domain needs one finite lo < hi per parameter, got {domain}")
        self.n_lanes = int(lanes)
        self.timeout = float(timeout)
        if not 0.0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, got {timeout}")
        self._lanes: list[_Lane] = []

    def dispatch(self, requests) -> dict[int, EvalResult]:
        import select
        waiting = list(requests)[::-1]  # popped from the end, so in request order
        if not waiting:
            return {}
        try:
            self._lanes = self._lanes or [_Lane(self._argv, self.workdir)
                                          for _ in range(self.n_lanes)]
        except OSError as exc:
            raise OracleError(f"cannot start oracle command {self.command!r}: {exc}") from exc
        idle = self._lanes[::-1]
        busy: dict[_Lane, tuple[EvalRequest, float]] = {}  # lane -> (request, deadline)
        results: dict[int, EvalResult] = {}
        try:
            while waiting or busy:
                while idle and waiting:
                    lane, req = idle.pop(), waiting.pop()
                    lane.send(req)
                    busy[lane] = (req, time.monotonic() + self.timeout)
                # a line already buffered is read before waiting for more
                ready = [lane for lane in busy if lane.has_line()]
                if not ready:
                    wait = min(deadline for _, deadline in busy.values()) - time.monotonic()
                    ready = select.select(list(busy), [], [], max(wait, 0.0))[0]
                for lane in ready:
                    reply = lane.reply(busy[lane][0])
                    if reply is not None:
                        req, _ = busy.pop(lane)
                        results[req.id] = _parse_reply(req, reply)
                        idle.append(lane)
                late = [req for req, deadline in busy.values() if deadline <= time.monotonic()]
                if late:
                    raise OracleProtocolError(
                        f"oracle timed out after {self.timeout} s on {late[0].to_wire()}")
        except BaseException as exc:
            self.close()
            exc.results = results
            raise
        return results

    def close(self) -> None:
        """End every lane's input, give all children one shared 2 s to exit,
        kill the rest and close their pipes."""
        import subprocess
        for lane in self._lanes:
            lane.proc.stdin.close()  # end of input: a well-behaved child exits
        deadline = time.monotonic() + 2.0
        for lane in self._lanes:
            try:
                lane.proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                lane.proc.kill()
                lane.proc.wait()
            lane.proc.stdout.close()
        self._lanes = []


class CachedOracle:
    """Front door for model evaluations: cache first, backend for misses.

    Results are returned in request order regardless of backend completion
    order; per-point backend failures are reported in that point's result
    without aborting the batch.  Failed points are never cached; a batch the
    backend aborts keeps the answers it received before the abort.

    A point is sent to the backend when it lacks a QoI the call asks for;
    its request then also asks for the ``qois`` given here that the point
    lacks, so a session that names every QoI it will read simulates each
    (fidelity, point) once.  A point whose length is not the backend's
    ``dim`` is refused.
    """

    def __init__(self, backend, cache: EvalCache | None = None, qois=()):
        self.backend = backend
        self.cache = cache if cache is not None else EvalCache()
        self.qois = tuple(qois)
        known = self.qoi_names
        missing = [] if known is None else [q for q in self.qois if q not in known]
        if missing:
            raise OracleError(f"unknown QoIs {missing}")
        self.backend_points: dict[int, int] = {}
        self._fidelities = {f.alpha: f for f in _fidelity_table(backend.fidelities)}
        self._next_id = 0

    @property
    def fidelities(self):
        return self.backend.fidelities

    @property
    def qoi_names(self):
        return getattr(self.backend, "qoi_names", None)

    def cost_weight(self, alpha: int) -> float:
        return self._fidelities[alpha].cost_weight

    def _in_domain(self, v) -> bool:
        domain = getattr(self.backend, "domain", None)
        if domain is None:
            return True
        return all(lo <= x <= hi for x, (lo, hi) in zip(v, domain))

    def eval_batch(self, alpha: int, points, qois) -> list[EvalResult]:
        import numpy as np
        if alpha not in self._fidelities:
            raise OracleError(f"fidelity {alpha} is not registered "
                              f"(known: {sorted(self._fidelities)})")
        qois = tuple(qois)
        known = self.qoi_names
        if known is not None:
            missing = [q for q in qois if q not in known]
            if missing:
                raise OracleError(f"unknown QoIs {missing}")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.backend.dim:
            raise OracleError(f"points have {points.shape[1]} coordinates, the oracle "
                              f"takes {self.backend.dim}")
        keys = [point_key(p) for p in points]

        requests: list[EvalRequest] = []
        request_for_point: dict[int, EvalRequest] = {}
        errors: dict[int, str] = {}
        for i, (p, key) in enumerate(zip(points, keys)):
            if not self._in_domain(p):
                errors[i] = f"point {tuple(p.tolist())} outside the oracle domain"
                continue
            cached = self.cache.get(alpha, key)
            if any(q not in cached for q in qois):
                needed = tuple(q for q in dict.fromkeys(qois + self.qois) if q not in cached)
                req = EvalRequest(self._next_id, alpha, tuple(float(x) for x in p), needed)
                self._next_id += 1
                requests.append(req)
                request_for_point[i] = req

        try:
            replies = self.backend.dispatch(requests) if requests else {}
        except OracleError as exc:  # keep what the backend answered before it failed
            self._keep(alpha, keys, request_for_point, getattr(exc, "results", {}))
            raise
        missing_ids = [r.id for r in requests if r.id not in replies]
        if missing_ids:
            raise OracleProtocolError(f"backend returned no answer for ids {missing_ids}")
        errors.update(self._keep(alpha, keys, request_for_point, replies))

        out: list[EvalResult] = []
        for i, key in enumerate(keys):
            if i in errors:
                out.append(EvalResult(error=errors[i]))
            else:
                cached = self.cache.get(alpha, key)
                out.append(EvalResult(values=tuple(cached[q] for q in qois)))
        return out

    def _keep(self, alpha: int, keys, request_for_point, replies) -> dict[int, str]:
        """Count the answered requests in ``backend_points`` and cache the
        successful answers in request order; returns the others' errors by
        point index."""
        answered = {i: replies[req.id] for i, req in request_for_point.items()
                    if req.id in replies}
        if answered:
            self.backend_points[alpha] = self.backend_points.get(alpha, 0) + len(answered)
        self.cache.put_many((alpha, keys[i], dict(zip(request_for_point[i].qois, rep.values)))
                            for i, rep in answered.items() if rep.ok)
        return {i: rep.error for i, rep in answered.items() if not rep.ok}

    def close(self) -> None:
        self.backend.close()
