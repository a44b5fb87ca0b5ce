"""Closed-loop load for ``cluster_mixed``.

Request ``i`` of a run is a pure function of ``(seed, i)``
(:meth:`RequestMix.request`), so a seed fixes the whole sequence; how
far into it a run gets depends only on how fast the server answers.
Two closed loops, each an asyncio task with one keep-alive
:class:`repro.service.loadgen.HttpClient` connection, send their next
request only when the previous one has been answered.  The load runs
in short windows with a host-speed calibration between them, and every
latency is scaled to the reference host speed (:mod:`hostclock`).
Every response is checked against the spec the request was built from.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaign import RunSpec
from repro.config import ExperimentScale, MachineConfig, Protocol
from repro.experiments.figures import figure_points
from repro.service.loadgen import _LABEL_RE, _SAMPLE_RE, HttpClient
from repro.sync.reductions import REDUCTION_KINDS

import hostclock
from layers import RID_PARAM

HOST = "127.0.0.1"

#: the figure whose specs are prefilled into the cache at set-up:
#: 36 specs over machine sizes 1..32, about 1.5 s to simulate
PREFILL_FIGURE = "fig14"
PREFILL_SCALE = 0.01

#: never-seen specs: a 4-node reduction of a few milliseconds, with
#: seed-derived kind, protocol and workload seed, so every one is a new
#: cache key of about the same cost
_MISS_PROCS = 4
_MISS_ITERATIONS = 8
_MISS_PROTOCOLS = (Protocol.WI, Protocol.PU, Protocol.CU)

#: requests are dealt in blocks; each block holds a fixed number of
#: each kind in a seeded order, so every run sees the same mix
BLOCK = 25


def prefill_specs() -> List[RunSpec]:
    scale = ExperimentScale.scaled(PREFILL_SCALE)
    return [pt.spec for pt in figure_points(PREFILL_FIGURE, scale=scale)]


def prefill_body() -> bytes:
    return json.dumps({"figure": PREFILL_FIGURE,
                       "scale": PREFILL_SCALE}).encode()


@dataclass(frozen=True)
class Request:
    index: int
    kind: str                  # "hit" | "miss" | "sweep"
    path: str
    body: bytes
    specs: Tuple[RunSpec, ...]
    keys: Tuple[str, ...]


class RequestMix:
    """The seeded request sequence of one run.

    Each block of :data:`BLOCK` requests holds ``misses`` ``/v1/run``
    requests for a never-seen spec, ``sweeps`` ``/v1/sweep`` requests
    over three cached specs and one new one, and ``/v1/run`` requests
    for cached specs in the rest, in a seeded order.  Cached specs are
    requested in seeded permutations, each spec once per cycle.
    """

    def __init__(self, seed: int, cached: List[RunSpec],
                 misses: int, sweeps: int) -> None:
        if misses + sweeps >= BLOCK:
            raise ValueError("a block needs room for cached requests")
        self.seed = seed
        self.cached = cached
        self._cached_keys = [spec.key for spec in cached]
        self._cached_bodies = [json.dumps(spec.to_jsonable())
                               for spec in cached]
        self._kinds = (["miss"] * misses + ["sweep"] * sweeps
                       + ["hit"] * (BLOCK - misses - sweeps))
        self._hits_per_block = BLOCK - misses - sweeps

    def _new_spec(self, rng: random.Random, index: int,
                  slot: int) -> RunSpec:
        config = MachineConfig(num_procs=_MISS_PROCS,
                               protocol=rng.choice(_MISS_PROTOCOLS))
        return RunSpec.make(
            "reduction", config, kind=rng.choice(REDUCTION_KINDS),
            iterations=_MISS_ITERATIONS,
            seed=(self.seed * 1_000_003 + index) * 2 + slot)

    def _kind(self, index: int) -> Tuple[str, int]:
        """The kind of request ``index`` and, for a cached request, its
        ordinal among the cached requests."""
        block, pos = divmod(index, BLOCK)
        order = list(self._kinds)
        random.Random(f"{self.seed}/block/{block}").shuffle(order)
        hit = block * self._hits_per_block + order[:pos].count("hit")
        return order[pos], hit

    def _cached_index(self, hit: int) -> int:
        cycle, j = divmod(hit, len(self.cached))
        perm = list(range(len(self.cached)))
        random.Random(f"{self.seed}/cycle/{cycle}").shuffle(perm)
        return perm[j]

    def request(self, index: int) -> Request:
        kind, hit = self._kind(index)
        rng = random.Random(f"{self.seed}/{index}")
        if kind == "sweep":
            picks = [rng.randrange(len(self.cached)) for _ in range(3)]
            fresh = self._new_spec(rng, index, 1)
            specs = tuple(self.cached[i] for i in picks) + (fresh,)
            body = ('{"specs": ['
                    + ", ".join([self._cached_bodies[i] for i in picks]
                                + [json.dumps(fresh.to_jsonable())])
                    + "]}").encode()
            return Request(index, "sweep", "/v1/sweep", body, specs,
                           tuple(s.key for s in specs))
        if kind == "miss":
            spec = self._new_spec(rng, index, 0)
            return Request(index, "miss", "/v1/run",
                           json.dumps(spec.to_jsonable()).encode(),
                           (spec,), (spec.key,))
        i = self._cached_index(hit)
        return Request(index, "hit", "/v1/run",
                       self._cached_bodies[i].encode(),
                       (self.cached[i],), (self._cached_keys[i],))


def check_response(req: Request, status: int,
                   data: bytes) -> Tuple[Optional[str], Dict[str, dict]]:
    """``(error or None, {key: served record})`` for one response."""
    if status != 200:
        return f"HTTP {status}: {data[:200]!r}", {}
    if req.kind == "sweep":
        events = [json.loads(line) for line in data.splitlines() if line]
        specs = [e for e in events if e.get("event") == "spec"]
        done = [e for e in events if e.get("event") == "done"]
        if len(specs) != len(req.keys) or not done or not done[-1]["ok"]:
            return "incomplete sweep stream", {}
        for event in specs:
            if event["key"] != req.keys[event["index"]] or not event["ok"]:
                return f"sweep spec {event['index']} wrong or failed", {}
        return None, {}
    body = json.loads(data)
    if body.get("key") != req.keys[0]:
        return "response key differs from the request spec's key", {}
    if not body["record"]["ok"]:
        return "record not ok", {}
    if req.kind == "hit" and not body["cached"]:
        return "prefilled spec was not served from the cache", {}
    return None, {req.keys[0]: body["record"]}


@dataclass
class LoadResult:
    #: latencies of the successful requests at the reference host speed
    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    by_kind: Dict[str, int] = field(default_factory=dict)
    positions: int = 0            # spec positions requested
    served: Dict[str, dict] = field(default_factory=dict)
    specs: Dict[str, RunSpec] = field(default_factory=dict)
    #: time under load (calibration pauses left out), measured and at
    #: the reference host speed
    raw_elapsed_s: float = 0.0
    elapsed_s: float = 0.0
    calibrations: int = 0
    #: summed latency of the successful requests of each kind
    latency_by_kind: Dict[str, float] = field(default_factory=dict)


_CONN_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError)

#: seconds of load between two calibration pauses
WINDOW_S = 0.5


class _Gate:
    """Opens the closed loops for one window at a time."""

    def __init__(self) -> None:
        self.open = asyncio.Event()
        self.idle = asyncio.Event()
        self.busy = 0
        self.window = 0
        self.done = False


async def _closed_loops(port: int, mix: RequestMix, seconds: float,
                        clients: int, answers: list, windows: list,
                        cpus: hostclock.BothCPUs) -> None:
    """The load runs in windows of :data:`WINDOW_S`.  Between two, the
    clients wait until no request is in flight, and the calibration loop
    runs on both CPUs while the servers are idle, so the servers' own
    load never reads as a slower host."""
    indices = itertools.count()
    gate = _Gate()

    async def loop() -> None:
        client = HttpClient(HOST, port)
        try:
            while True:
                await gate.open.wait()
                if gate.done:
                    break
                if not gate.open.is_set():
                    continue
                index = next(indices)
                req = mix.request(index)
                gate.busy += 1
                window = gate.window
                t0 = time.monotonic()
                try:
                    status, _headers, data = await client.request(
                        "POST", f"{req.path}?{RID_PARAM}={index}", req.body)
                except _CONN_ERRORS as exc:
                    await client.close()
                    status, data = None, repr(exc).encode()
                answers.append((index, status, data,
                                time.monotonic() - t0, window))
                gate.busy -= 1
                if not gate.busy and not gate.open.is_set():
                    gate.idle.set()
        finally:
            await client.close()

    async def coordinate() -> None:
        cal = cpus.calibrate()
        for window in range(max(1, round(seconds / WINDOW_S))):
            gate.window = window
            gate.idle.clear()
            t0 = time.monotonic()
            gate.open.set()
            await asyncio.sleep(WINDOW_S)
            gate.open.clear()
            if gate.busy:
                await gate.idle.wait()
            t1 = time.monotonic()
            after = cpus.calibrate()
            windows.append((t1 - t0, hostclock.factor(cal, after)))
            cal = after
        gate.done = True
        gate.open.set()

    await asyncio.gather(coordinate(),
                         *(loop() for _ in range(clients)))


def run_load(port: int, mix: RequestMix, seconds: float,
             cpus: hostclock.BothCPUs, clients: int = 2) -> LoadResult:
    """Drive ``clients`` closed loops, as asyncio tasks on keep-alive
    :class:`HttpClient` connections, for ``seconds`` of load; requests
    started in a window are answered and counted.  Responses are
    checked after the timed phase, so checking costs the server no CPU
    while it is measured."""
    answers: List[tuple] = []
    windows: List[Tuple[float, float]] = []
    try:
        asyncio.run(asyncio.wait_for(
            _closed_loops(port, mix, seconds, clients, answers, windows,
                          cpus),
            seconds + 180))
        unfinished = False
    except asyncio.TimeoutError:
        unfinished = True
    result = LoadResult(
        raw_elapsed_s=sum(length for length, _ in windows),
        elapsed_s=sum(length * scale for length, scale in windows),
        calibrations=len(windows) + 1)
    if unfinished:
        result.errors.append("a client did not finish")
    for index, status, data, latency, window in sorted(answers):
        req = mix.request(index)
        result.attempted += 1
        result.positions += len(req.keys)
        result.by_kind[req.kind] = result.by_kind.get(req.kind, 0) + 1
        if status is None:
            error, served = f"connection error: {data.decode()}", {}
        else:
            error, served = check_response(req, status, data)
        if error is None:
            latency *= windows[window][1]
            result.latencies_s.append(latency)
            result.latency_by_kind[req.kind] = (
                result.latency_by_kind.get(req.kind, 0.0) + latency)
            result.served.update(served)
            for spec in req.specs:
                result.specs[spec.key] = spec
        else:
            result.errors.append(f"request {index}: {error}")
    return result


def call(port: int, method: str, path: str,
         body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One request on a fresh connection: ``(status, body)``."""
    async def go() -> Tuple[int, bytes]:
        client = HttpClient(HOST, port)
        try:
            status, _headers, data = await client.request(method, path,
                                                          body)
            return status, data
        finally:
            await client.close()
    return asyncio.run(go())


def scrape(port: int) -> List[Tuple[str, Dict[str, str], float]]:
    """The ``(name, labels, value)`` samples of ``/metrics``, parsed
    with the load generator's own exposition patterns."""
    status, data = call(port, "GET", "/metrics")
    if status != 200:
        return []
    out = []
    for line in data.decode().splitlines():
        match = _SAMPLE_RE.match(line)
        if match is not None:
            name, label_text, value = match.groups()
            out.append((name, dict(_LABEL_RE.findall(label_text or "")),
                        float(value)))
    return out


def sample_total(samples, metric: str, **labels: str) -> float:
    """Sum of ``metric`` samples (across shards) whose labels include
    ``labels``."""
    return sum(value for name, have, value in samples
               if name == metric
               and all(have.get(k) == v for k, v in labels.items()))
