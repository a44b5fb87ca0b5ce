"""Per-layer tracing of the simulator and its services, from outside.

:func:`install` wraps the public functions of each layer of ``repro``
(class methods and module-level bindings) with timing and counting
wrappers.  Nothing under ``src/`` is edited: the wrappers are applied
in the process under test before any ``Machine``, runner or server is
built, because hot paths bind methods at construction time.

Two kinds of wrapper exist:

* synchronous calls are aggregated per counter (``calls``, ``total_s``,
  ``self_s``).  A call's self time is its duration minus the time of
  wrapped calls nested inside it, so a layer's self time is what the
  layer itself spent.  The simulator makes millions of such calls, so
  they are never stored one by one.
* coarse boundaries (a campaign, a request, an exploration) also append
  one span ``(name, start, end, request id, tag)`` to an in-memory
  list.  Coroutines are recorded only as spans, since they interleave.

Spans and counters stay in memory and are written out once, when the
process ends (:meth:`Tracer.dump`).  Forked worker processes reset the
inherited state and dump their own file on a clean exit.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import multiprocessing.util
import os
import signal
import time

#: request id of the HTTP request being served (set by the edge
#: wrapper from the load generator's query parameter, inherited by the
#: asyncio tasks the request creates)
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request_id", default=None)

#: query parameter the load generator puts its per-request id in (the
#: service routes on the path alone and ignores the query)
RID_PARAM = "rid"

_clock = time.perf_counter


class Tracer:
    """Counters and spans of one process."""

    def __init__(self, out_dir: str, role: str) -> None:
        self.out_dir = out_dir
        self.role = role
        #: counter name -> [calls, total_s, self_s]
        self.acc: dict = {}
        #: named integer counts (events, messages, cache hits, ...)
        self.counts: dict = {}
        #: (name, start, end, request id, tag)
        self.spans: list = []
        #: open synchronous frames: child time accumulated per frame
        self._stack: list = []

    def reset(self) -> None:
        """Start a fresh window.  Counters are zeroed in place: each
        wrapper holds its own counter list."""
        for slot in self.acc.values():
            slot[0] = 0
            slot[1] = slot[2] = 0.0
        self.counts.clear()
        self.spans.clear()
        self._stack.clear()

    def reset_between_calls(self) -> None:
        """Signal-handler form of :meth:`reset`: only valid while no
        wrapped call is open, which the benchmark arranges by
        signalling idle servers; otherwise the window is marked."""
        if self._stack:
            self.count("trace.reset_skipped")
        else:
            self.reset()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers -------------------------------------------------------

    def wrap_sync(self, name: str, fn, span: bool = False, after=None):
        """Aggregate ``fn``'s calls under ``name``; ``span`` also keeps
        one span per call; ``after(result, args)`` derives counts."""
        acc = self.acc.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = _clock()
                dt = t1 - t0
                stack.pop()
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    tracer.spans.append(
                        (name, t0, t1, REQUEST_ID.get(), None))
            if after is not None:
                after(result, args)
            return result

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def wrap_async(self, name: str, fn, tag=None):
        """Record one span per awaited call of coroutine function
        ``fn``; ``tag(args)`` labels it (e.g. with the spec key)."""
        acc = self.acc.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kw):
            t0 = _clock()
            try:
                return await fn(*args, **kw)
            finally:
                t1 = _clock()
                acc[0] += 1
                acc[1] += t1 - t0
                acc[2] += t1 - t0
                tracer.spans.append(
                    (name, t0, t1, REQUEST_ID.get(),
                     tag(args) if tag is not None else None))

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    # -- output ---------------------------------------------------------

    def dump(self) -> None:
        path = os.path.join(self.out_dir,
                            f"trace-{self.role}-{os.getpid()}.json")
        payload = {"role": self.role, "pid": os.getpid(),
                   "acc": self.acc, "counts": self.counts,
                   "spans": self.spans}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# what to wrap, layer by layer
# ----------------------------------------------------------------------

def _public_methods(cls):
    """Names of the plain functions ``cls`` itself defines, minus
    private and dunder names."""
    return [name for name, value in vars(cls).items()
            if inspect.isfunction(value) and not name.startswith("_")]


def _patch_method(tracer, cls, attr, name, **kw):
    fn = vars(cls)[attr]
    if getattr(fn, "__perfbench_wrapped__", False):
        return
    setattr(cls, attr, tracer.wrap_sync(name, fn, **kw))


def _patch_function(tracer, modules, attr, name, **kw):
    """Wrap a module-level function once and rebind it in every module
    that imported it by name (``from x import f`` copies the binding).
    The wrapper keeps the function's qualified name, so it still
    pickles by reference into pool workers."""
    wrapper = None
    for module in modules:
        current = getattr(module, attr)
        if getattr(current, "__perfbench_wrapped__", False):
            wrapper = current
            continue
        if wrapper is None:
            wrapper = tracer.wrap_sync(name, current, **kw)
        setattr(module, attr, wrapper)


def _result_counts(tracer):
    """Counts read off each executed simulation's RunResult."""
    def after(record, _args):
        sim = record.sim
        if not record.ok or sim is None:
            return
        tracer.count("engine.events", sim.events)
        tracer.count("network.messages", sim.network.messages)
        tracer.count("network.bytes", sim.network.bytes)
        tracer.count("network.contention_cycles",
                     sim.network.contention_cycles)
        tracer.count("classify.misses", sim.misses.get("total", 0))
        tracer.count("classify.updates", sim.updates.get("total", 0))
        tracer.count("runtime.instructions", sum(sim.proc_instructions))
        tracer.count("runtime.sim_cycles", sim.total_cycles)
    return after


def install_simulator(tracer: Tracer) -> None:
    """Engine, network, memsys, protocols, classify and runtime."""
    from repro.classify.misses import MissClassifier
    from repro.classify.updates import UpdateClassifier
    from repro.engine.simulator import ControlledSimulator, Simulator
    from repro.memsys.cache import Cache
    from repro.memsys.directory import Directory
    from repro.memsys.memory import MemoryModule
    from repro.memsys.writebuffer import WriteBuffer
    from repro.network.fabric import Network
    from repro.protocols import (
        CUNodeCtrl, HybridNodeCtrl, MESINodeCtrl, NodeCtrl, PUNodeCtrl,
        WINodeCtrl,
    )
    from repro.runtime.machine import Machine
    from repro.runtime.processor import Processor

    for cls in (Simulator, ControlledSimulator):
        for attr in ("run", "step", "schedule", "at", "snapshot",
                     "restore", "pop_ready_batch", "push_events",
                     "pending_snapshot"):
            if attr in vars(cls):
                _patch_method(tracer, cls, attr, f"engine.{attr}")

    _patch_method(tracer, Network, "post", "network.post")
    _patch_method(tracer, Network, "send", "network.send")
    _patch_method(tracer, Network, "_deliver", "network.deliver")

    for cls in (Cache, Directory, WriteBuffer, MemoryModule):
        for attr in _public_methods(cls):
            _patch_method(tracer, cls, attr, f"memsys.{attr}")

    controllers = (NodeCtrl, WINodeCtrl, PUNodeCtrl, CUNodeCtrl,
                   HybridNodeCtrl, MESINodeCtrl)
    handler_names = set()
    for cls in controllers:
        handler_names.update(cls.HANDLERS.values())
    for cls in controllers:
        for attr in sorted(handler_names):
            if attr in vars(cls):
                _patch_method(tracer, cls, attr, "protocols.handler")
        for attr in ("read", "write", "fence", "atomic", "flush_block",
                     "flush_all"):
            if attr in vars(cls):
                _patch_method(tracer, cls, attr, "protocols.access")

    for cls in (MissClassifier, UpdateClassifier):
        for attr in _public_methods(cls):
            _patch_method(tracer, cls, attr, f"classify.{attr}")

    for attr in ("start", "_finish", "_resume", "_continue_none",
                 "_dispatch", "_spin", "_spin_attempt", "_spin_check",
                 "_spin_wake"):
        _patch_method(tracer, Processor, attr, f"runtime.{attr}")
    for attr in ("spawn", "prepare", "run", "finish"):
        _patch_method(tracer, Machine, attr, f"runtime.machine_{attr}")
    _patch_method(tracer, Machine, "snapshot", "modelcheck.snapshot")
    _patch_method(tracer, Machine, "restore", "modelcheck.restore")


def install_campaign(tracer: Tracer) -> None:
    """Spec keys, the result cache and spec execution."""
    import repro.campaign
    import repro.campaign.runner
    import repro.service.scheduler
    from repro.campaign.cache import ResultCache
    from repro.campaign.spec import RunSpec

    key_fn = tracer.wrap_sync("campaign.key", RunSpec.key.fget)
    RunSpec.key = property(key_fn, doc=RunSpec.key.__doc__)

    def count_hit(record, _args):
        if record is not None:
            tracer.count("campaign.cache_hits")
    _patch_method(tracer, ResultCache, "get", "campaign.cache_get",
                  after=count_hit)
    _patch_method(tracer, ResultCache, "put", "campaign.cache_put")
    _patch_method(tracer, repro.campaign.runner.CampaignRunner, "run",
                  "campaign.run", span=True)
    _patch_function(
        tracer, (repro.campaign.runner, repro.campaign,
                 repro.service.scheduler),
        "execute_spec", "campaign.execute", span=True,
        after=_result_counts(tracer))


def install_service(tracer: Tracer) -> None:
    """Gateway edge: parse, validate, serialize, queue and simulate."""
    import repro.service.gateway as gateway
    from repro.service import api
    from repro.service.httpio import Request
    from repro.service.scheduler import SimScheduler

    _patch_method(tracer, Request, "json", "service.parse")
    for attr in ("run_from_request", "sweep_from_request",
                 "spec_from_request"):
        _patch_function(tracer, (api,), attr, "service.validate")
    _patch_function(tracer, (gateway,), "json_response",
                    "service.serialize")
    _patch_function(tracer, (gateway,), "ndjson_line",
                    "service.serialize")

    def spec_key(args):
        return args[1].key
    SimScheduler._run_one = tracer.wrap_async(
        "service.run_one", SimScheduler._run_one, tag=spec_key)
    SimScheduler._execute = tracer.wrap_async(
        "service.execute", SimScheduler._execute, tag=spec_key)
    gateway.Gateway._dispatch = _edge(tracer, "service.request",
                                      gateway.Gateway._dispatch)


def install_cluster(tracer: Tracer) -> None:
    """Router span, upstream calls, ring lookups and the planner."""
    import repro.cluster.router as router
    from repro.cluster.ring import HashRing

    for attr in ("owner", "preference"):
        _patch_method(tracer, HashRing, attr, "cluster.ring")
    _patch_function(tracer, (router,), "plan_sweep", "cluster.plan")
    _patch_function(tracer, (router,), "json_response",
                    "service.serialize")
    _patch_function(tracer, (router,), "ndjson_line",
                    "service.serialize")
    router.Router._call_with_failover = tracer.wrap_async(
        "cluster.upstream", router.Router._call_with_failover)
    router.Router._consume_sweep_batch = tracer.wrap_async(
        "cluster.upstream", router.Router._consume_sweep_batch)
    router.Router._dispatch = _edge(tracer, "cluster.request",
                                    router.Router._dispatch)


def install_verifiers(tracer: Tracer) -> None:
    """The model checker and the spec-graph explorer."""
    import repro.modelcheck
    import repro.modelcheck.explorer as explorer
    import repro.modelcheck.invariants as invariants
    import repro.modelcheck.state as state
    import repro.staticcheck.graph as graph

    def explore_counts(res, _args):
        tracer.count("engine.events", res.events)
        tracer.count("modelcheck.states", res.states)
        tracer.count("modelcheck.schedules", res.schedules)
        tracer.count("modelcheck.pruned", res.dedup_hits)
    _patch_function(tracer, (explorer, repro.modelcheck), "explore",
                    "modelcheck.explore", span=True,
                    after=explore_counts)
    _patch_function(tracer, (state, explorer), "canonical_key",
                    "modelcheck.canonical_key")
    _patch_function(tracer, (invariants, explorer),
                    "check_state_invariants", "modelcheck.invariants")

    def graph_counts(result, _args):
        _findings, summary = result
        tracer.count("staticcheck.graph_states",
                     sum(run["states"] for run in summary["runs"]))
    _patch_function(tracer, (graph,), "check_spec_graph",
                    "staticcheck.graph", span=True, after=graph_counts)


def _edge(tracer: Tracer, name: str, dispatch):
    """Wrap an HTTP ``_dispatch(self, req, writer)``: adopt the load
    generator's request id for everything the request does, and record
    the request span."""
    inner = tracer.wrap_async(name, dispatch)

    @functools.wraps(dispatch)
    async def wrapper(self, req, writer):
        token = REQUEST_ID.set(req.query.get(RID_PARAM))
        try:
            return await inner(self, req, writer)
        finally:
            REQUEST_ID.reset(token)

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def install(role: str, out_dir: str) -> Tracer:
    """Wrap every layer and arrange for the trace to be written.

    ``SIGUSR1`` starts a fresh window (servers are signalled once set-up
    is done, so their traces cover the timed phase only); forked
    workers inherit the handler."""
    tracer = Tracer(out_dir, role)
    install_simulator(tracer)
    install_campaign(tracer)
    install_service(tracer)
    install_cluster(tracer)
    install_verifiers(tracer)

    def after_fork(t: Tracer) -> None:
        # a forked pool worker starts with the parent's counters and
        # open frames: start clean and dump on the worker's clean exit
        # (multiprocessing runs its finalizers there; atexit does not)
        t.reset()
        t.role = role + "-worker"
        multiprocessing.util.Finalize(t, t.dump, exitpriority=10)
    multiprocessing.util.register_after_fork(tracer, after_fork)
    signal.signal(signal.SIGUSR1,
                  lambda _sig, _frame: tracer.reset_between_calls())
    return tracer
