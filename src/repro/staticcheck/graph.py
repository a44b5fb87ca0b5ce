"""Exhaustive spec-graph exploration: tables only, no simulator.

Builds the **product graph** of two cache-side machines and one
home-side machine executing a :class:`~repro.protospec.ProtocolSpec`
symbolically -- every reachable combination of cache states, home
state, directory bookkeeping (owner / sharers), in-flight messages and
outstanding acks, under every message interleaving the network allows
(per-(src,dst) FIFO channels, arbitrary cross-channel reordering) --
and checks, statically:

* **deadlock-freedom** -- no reachable non-quiescent state without a
  successor (a transaction that can never complete);
* **livelock-freedom** -- from every reachable state some quiescent
  state is reachable (retry/NACK loops must terminate under the FIFO
  fairness the tables claim);
* **message-race completeness** -- no reachable delivery hits a
  ``(state, event)`` pair the spec declared :class:`Impossible` (the
  written reason was wrong) or left without a row;
* **stale-copy freedom** -- at quiescence every resident copy holds
  the latest serialized write, and memory does too whenever no owner
  is recorded;
* **cu-counter** -- a resident update-managed line never reaches the
  competitive threshold;
* **coverage** -- spec states or rows never exercised by any
  interleaving are reported (dead transients rot).

Every violation carries a **minimized counterexample path** (BFS finds
shortest traces) whose steps name the rows that fired, attributed back
to ``file:line`` in the spec builder source.

The model is deliberately small and finite:

* one block, two cache agents, one home -- every protocol race in
  :mod:`repro.protospec` is a two-party race (requester vs. owner or
  requester vs. sharer) plus the home;
* each agent issues at most ``max_ops`` processor operations (read /
  store / atomic / evict), so writes -- and therefore data versions --
  are bounded;
* data freshness is abstract: a copy / memory / message is ``F``
  (holds the latest serialized write), ``S`` (stale), or ``P`` (a
  write-through copy whose UPDATE has not been serialized by the home
  yet).  Serialization points follow the protocols: immediate at the
  cache for invalidation-style exclusive writes, at the home for
  write-throughs and home-side atomics;
* the competitive-update counter is modeled directly with a small
  threshold.

``hybrid`` specs are explored by guard-prefix projection: the
"WI-managed block" and "update-managed block" sub-machines run
separately (a block is managed by exactly one base protocol, so the
product of the two is never reachable) and coverage is the union.

:data:`SPEC_MUTATIONS` mirrors the four seeded runtime mutations of
:mod:`repro.modelcheck.mutations` at the table level; the explorer
must catch each one with a counterexample path, which is what
``staticcheck --graph-mutants`` (and the cross-validation test) pins.
"""

from __future__ import annotations

import inspect
import os
import re
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from repro.protospec.model import (
    ANY_STATE, LOCAL_PREFIX, Impossible, ProtocolSpec, SideSpec,
    TransitionRow,
)
from repro.staticcheck.report import Finding

#: the two cache agents; the home is its own third party
AGENTS = (0, 1)
HOME = "home"

#: freshness tags (see module docstring)
FRESH, STALE, PENDING = "F", "S", "P"

# ---------------------------------------------------------------------
# message routing
# ---------------------------------------------------------------------

#: cache-side sends addressed to the home
_TO_HOME = frozenset((
    "READ_REQ", "RDEX_REQ", "UPGRADE_REQ", "UPDATE", "ATOMIC_REQ",
    "WRITEBACK", "DROP_NOTICE", "REPL_HINT", "SHARING_WB",
    "DIRTY_TRANSFER", "RECALL_REPLY", "FWD_NACK",
))
#: cache-side sends addressed to the requester of the triggering
#: message (acks and owner-to-requester data)
_TO_REQUESTER = frozenset((
    "INV_ACK", "UPD_ACK", "OWNER_DATA", "OWNER_DATA_EX",
))
#: home-side sends addressed to the requester being served
_HOME_TO_REQUESTER = frozenset((
    "READ_REPLY", "RDEX_REPLY", "UPGRADE_REPLY", "EXCL_REPLY",
    "WRITER_ACK", "ATOMIC_REPLY",
))
#: home-side sends addressed to the recorded owner
_HOME_TO_OWNER = frozenset(("FETCH_FWD", "FETCH_INV_FWD", "RECALL"))
#: home-side fanout to every sharer except the requester
_HOME_FANOUT = frozenset(("INV", "UPD_PROP"))

#: sends that carry the sender's copy data (tag captured at row entry)
_CARRIES_COPY = frozenset((
    "OWNER_DATA", "OWNER_DATA_EX", "WRITEBACK", "SHARING_WB",
    "RECALL_REPLY",
))
#: home sends that carry memory data
_CARRIES_MEM = frozenset((
    "READ_REPLY", "RDEX_REPLY", "EXCL_REPLY", "ATOMIC_REPLY",
    "UPD_PROP",
))
#: data grants a waiting cache will install/fill from; an INV fanned
#: while one is in flight to its target is NEWER than that grant and
#: must invalidate what it installs (it is not born stale)
_DATA_GRANTS = frozenset((
    "READ_REPLY", "OWNER_DATA", "RDEX_REPLY", "OWNER_DATA_EX",
    "UPGRADE_REPLY", "EXCL_REPLY",
))
#: grants whose ``nacks`` field tells the requester how many acks the
#: same serving row fanned out on its behalf
_CARRIES_NACKS = frozenset((
    "RDEX_REPLY", "UPGRADE_REPLY", "WRITER_ACK", "ATOMIC_REPLY",
))


@dataclass(frozen=True)
class Msg:
    """One in-flight message (no payload beyond the freshness tag)."""

    type: str
    src: object                  # 0 | 1 | "home"
    dst: object
    requester: int
    tag: str = FRESH
    nacks: int = 0
    retain: bool = False
    #: an INV whose target copy was replaced while it was in flight;
    #: the runtime filters these with install sequence numbers
    #: (``line.seq <= msg.seq``), the model with this flag
    stale_epoch: bool = False

    def label(self) -> str:
        return f"{self.type} {self.src}->{self.dst}"


_CHANNELS = ((0, HOME), (1, HOME), (HOME, 0), (HOME, 1), (0, 1), (1, 0))


@dataclass
class World:
    """One mutable product state (frozen to a tuple for hashing)."""

    cstate: List[str]
    copy: List[Optional[Tuple[str, int]]]    # (tag, counter) | None
    acks: List[int]
    budget: List[int]
    #: a current-epoch INV overtook this agent's pending read fill;
    #: the fill's data will be consumed once and the block dropped
    #: (PendingFill.inv_seq in the runtime)
    poisoned: List[bool]
    home: str
    owner: Optional[int]
    sharers: FrozenSet[int]
    mem: str
    open_txn: Optional[Msg]
    queue: Tuple[Msg, ...]
    chans: Dict[Tuple, Tuple[Msg, ...]]
    #: agents whose WRITEBACK arrived mid-transaction, before the
    #: DIRTY_TRANSFER naming them owner (DirEntry.early_wb_mask)
    early_wb: FrozenSet[int]

    def clone(self) -> "World":
        return World(cstate=list(self.cstate), copy=list(self.copy),
                     acks=list(self.acks), budget=list(self.budget),
                     poisoned=list(self.poisoned),
                     home=self.home, owner=self.owner,
                     sharers=self.sharers, mem=self.mem,
                     open_txn=self.open_txn, queue=self.queue,
                     chans=dict(self.chans), early_wb=self.early_wb)

    def freeze(self) -> tuple:
        return (tuple(self.cstate), tuple(self.copy), tuple(self.acks),
                tuple(self.budget), tuple(self.poisoned),
                self.home, self.owner, self.sharers,
                self.mem, self.open_txn, self.queue,
                tuple(self.chans[c] for c in _CHANNELS),
                self.early_wb)

    # -- network ------------------------------------------------------

    def push(self, msg: Msg) -> None:
        key = (msg.src, msg.dst)
        self.chans[key] = self.chans[key] + (msg,)

    def in_flight(self) -> bool:
        return any(self.chans[c] for c in _CHANNELS)

    # -- freshness ----------------------------------------------------

    def serialize_write(self) -> None:
        """A new write enters the coherence order: everything that was
        'latest' is now stale; the caller marks the new owners fresh.
        ``P`` copies/messages are untouched -- their writes are still
        ahead in the (unserialized) future."""
        for i in AGENTS:
            if self.copy[i] is not None and self.copy[i][0] == FRESH:
                self.copy[i] = (STALE, self.copy[i][1])
        if self.mem == FRESH:
            self.mem = STALE
        for key in _CHANNELS:
            self.chans[key] = tuple(
                replace(m, tag=STALE) if m.tag == FRESH else m
                for m in self.chans[key])

    def new_epoch(self, agent: int) -> None:
        """``agent``'s copy just died (or was replaced in place): any
        INV still in flight to it was issued against that dead epoch,
        and anything installed from now on carries a larger install
        sequence number.  The runtime's ``line.seq <= msg.seq`` guard
        makes the cache ack-and-ignore those stale INVs; mark them so
        the model can do the same."""
        for key in _CHANNELS:
            if key[1] != agent:
                continue
            self.chans[key] = tuple(
                replace(m, stale_epoch=True) if m.type == "INV" else m
                for m in self.chans[key])


def initial_world(max_ops: int) -> World:
    return World(cstate=["", ""], copy=[None, None], acks=[0, 0],
                 budget=[max_ops, max_ops], poisoned=[False, False],
                 home="", owner=None,
                 sharers=frozenset(), mem=FRESH, open_txn=None,
                 queue=(), chans={c: () for c in _CHANNELS},
                 early_wb=frozenset())


# ---------------------------------------------------------------------
# when-predicate evaluation
# ---------------------------------------------------------------------

def _when_ok(when: str, *, msg: Optional[Msg], world: World,
             agent: Optional[int], retain: bool,
             threshold: int) -> bool:
    """Evaluate one WHEN_VOCABULARY predicate in context."""
    sharers = world.sharers
    if when == "requester_is_sharer":
        return msg.requester in sharers
    if when == "requester_not_sharer":
        return msg.requester not in sharers
    if when == "other_sharers":
        return bool(sharers - {msg.requester})
    if when == "sole_sharer_retain":
        return sharers <= {msg.requester} and retain
    if when == "sole_sharer_no_retain":
        return sharers <= {msg.requester} and not retain
    if when == "other_sharers_remain":
        return bool(sharers - {msg.src})
    if when == "last_sharer":
        return not (sharers - {msg.src})
    if when == "from_owner":
        return msg.src == world.owner
    if when == "not_from_owner":
        return msg.src != world.owner
    if when == "msg_retain":
        return msg.retain
    if when == "msg_no_retain":
        return not msg.retain
    if when == "counter_below":
        counter = world.copy[agent][1] if world.copy[agent] else 0
        return counter + 1 < threshold
    if when == "counter_at_threshold":
        counter = world.copy[agent][1] if world.copy[agent] else 0
        return counter + 1 >= threshold
    if when == "requester_wrote_back":
        return msg.requester in world.early_wb
    if when == "requester_not_wrote_back":
        return msg.requester not in world.early_wb
    raise ValueError(f"unknown when-predicate {when!r}")


def _select_rows(rows: List[TransitionRow], **ctx) -> List[TransitionRow]:
    """Filter a (state, event) row set by their ``when`` predicates.
    Rows without a ``when`` always stay: if several remain, the
    explorer branches on all of them (sound over-approximation)."""
    return [r for r in rows
            if r.when is None or _when_ok(r.when, **ctx)]


# ---------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------

class _Stuck(Exception):
    """A delivery hit a pair with no row: completeness violation."""

    def __init__(self, finding_kind: str, side: str, state: str,
                 event: str, detail: str) -> None:
        super().__init__(detail)
        self.finding_kind = finding_kind
        self.side = side
        self.state = state
        self.event = event
        self.detail = detail


@dataclass
class Step:
    """One labelled edge of a counterexample path."""

    label: str
    rows: Tuple[Tuple[str, TransitionRow], ...] = ()   # (side, row)

    def to_json(self, locate) -> dict:
        out = {"label": self.label}
        rows = []
        for side, row in self.rows:
            entry = {"side": side, "state": row.state,
                     "event": row.event,
                     "actions": list(row.actions)}
            if row.guard:
                entry["guard"] = row.guard
            loc = locate(side, row)
            if loc:
                entry["file"], entry["line"] = loc
            rows.append(entry)
        if rows:
            out["rows"] = rows
        return out


class SpecGraphExplorer:
    """BFS over the 2-agent x home product graph of one spec."""

    def __init__(self, spec: ProtocolSpec, *, retain: bool = True,
                 threshold: int = 2, max_ops: int = 3,
                 row_filter: Optional[Callable[[TransitionRow], bool]]
                 = None,
                 max_states: int = 400_000) -> None:
        self.spec = spec
        self.retain = retain
        self.threshold = threshold
        self.max_ops = max_ops
        self.row_filter = row_filter or (lambda row: True)
        self.max_states = max_states
        self._local_events = sorted(e for e in spec.cache.events
                                    if e.startswith(LOCAL_PREFIX))
        # exploration results
        self.visited_states: Dict[str, Set[str]] = {
            "cache": set(), "home": set()}
        self.visited_rows: Dict[str, Set[TransitionRow]] = {
            "cache": set(), "home": set()}
        self.parent: Dict[tuple, Tuple[Optional[tuple], Step]] = {}
        #: ids (BFS discovery order) of the quiescent states
        self.quiescent: List[int] = []
        self.violations: List[Tuple[str, str, tuple,
                                    Tuple[Tuple[str, TransitionRow],
                                          ...]]] = []
        self.truncated = False

    # -- row lookup ---------------------------------------------------

    def _rows(self, side: SideSpec, state: str, event: str,
              **ctx) -> List[TransitionRow]:
        rows = [r for r in side.rows_for(state, event)
                if self.row_filter(r)]
        if not rows:
            imp = side.impossible_for(state, event)
            if imp is not None:
                raise _Stuck(
                    "impossible-reached", side.name, state, event,
                    f"({state}, {event}) was declared impossible "
                    f"({imp.reason!r}) but the spec graph reaches it")
            raise _Stuck(
                "missing-row", side.name, state, event,
                f"({state}, {event}) is reachable but has neither a "
                f"row nor an impossible entry")
        return _select_rows(rows, msg=ctx.get("msg"),
                            world=ctx["world"], agent=ctx.get("agent"),
                            retain=self.retain,
                            threshold=self.threshold)

    # -- cache side ---------------------------------------------------

    def _apply_cache_row(self, world: World, agent: int,
                         row: TransitionRow,
                         msg: Optional[Msg]) -> World:
        w = world.clone()
        state = w.cstate[agent]
        copy_tag = w.copy[agent][0] if w.copy[agent] else STALE
        counter = w.copy[agent][1] if w.copy[agent] else 0
        event = row.event
        poisoned_fill = False
        if event == "INV" and world.copy[agent] is None \
                and state not in self.spec.cache.stable:
            # A current-epoch INV reached us while our read fill is
            # still in flight.  The runtime records its sequence
            # number against the pending fill
            # (``PendingFill.inv_seq``): the fill will install, be
            # consumed exactly once, and the block dropped
            # (``_complete_fill``'s inv-overtook-fill path).
            w.poisoned[agent] = True
        for action in row.actions:
            if action.startswith("send:"):
                mtype = action[len("send:"):]
                if mtype in _TO_HOME:
                    dst, req = HOME, (msg.requester if msg is not None
                                      and mtype in ("SHARING_WB",
                                                    "DIRTY_TRANSFER",
                                                    "RECALL_REPLY",
                                                    "FWD_NACK")
                                      else agent)
                elif mtype in _TO_REQUESTER:
                    dst, req = msg.requester, msg.requester
                else:  # pragma: no cover - vocabulary check catches it
                    raise ValueError(
                        f"no route for cache send {mtype}")
                tag = copy_tag if mtype in _CARRIES_COPY else FRESH
                if mtype == "UPDATE":
                    tag = PENDING
                if dst == agent:
                    # an ack addressed to ourselves (we are the
                    # requester): collect it immediately, no hop
                    if mtype in ("INV_ACK", "UPD_ACK"):
                        w.acks[agent] -= 1
                        continue
                w.push(Msg(mtype, agent, dst, req, tag=tag))
            elif action in ("install", "fill"):
                if action == "fill" and w.poisoned[agent]:
                    # inv-overtook-fill: the data is consumed once
                    # (the waiting read completes) but the block is
                    # dropped, leaving the cache without the line
                    w.copy[agent] = None
                    poisoned_fill = True
                else:
                    if action == "install" \
                            or w.copy[agent] is not None:
                        # exclusive data ("install"): once the home
                        # granted us ownership it cannot fan another
                        # INV at us until we give it up, so every INV
                        # still in flight predates the grant.  A fill
                        # replacing a resident copy in place likewise
                        # outranks INVs aimed at the old epoch.
                        w.new_epoch(agent)
                    w.copy[agent] = (msg.tag, 0)
                w.poisoned[agent] = False
            elif action == "invalidate":
                w.copy[agent] = None
                w.new_epoch(agent)
            elif action == "apply_store":
                w.serialize_write()
                w.copy[agent] = (FRESH, 0)
            elif action == "finish_atomic":
                w.serialize_write()
                w.copy[agent] = (FRESH, 0)
            elif action == "cache_write":
                if "send:UPDATE" in row.actions:
                    # write-through (a local store, or a deferred
                    # store performed when the fill lands): locally
                    # latest, globally pending until the home
                    # serializes the UPDATE
                    w.copy[agent] = (PENDING, 0)
                elif event == "local:store":
                    # a store to a retained / owned line: the cache
                    # holds the only copy, so the write serializes
                    # in place (PU/CU "R", the update analog of M)
                    w.serialize_write()
                    w.copy[agent] = (FRESH, 0)
                elif event == "local:atomic":
                    w.serialize_write()
                    w.copy[agent] = (FRESH, 0)
                elif w.copy[agent] is not None \
                        and w.copy[agent][0] in (PENDING, FRESH):
                    # our own unserialized write stays newest; and a
                    # FRESH copy proves a serialization AFTER the
                    # incoming update was fanned (the demotion that
                    # staled the message would have staled the copy
                    # too) -- the runtime's store-buffer shadowing
                    # keeps the newer local value in both cases
                    pass
                else:
                    w.copy[agent] = (msg.tag, w.copy[agent][1]
                                     if w.copy[agent] else 0)
            elif action == "atomic_op":
                pass    # paired with cache_write (local) / mem_write
            elif action == "ack":
                w.acks[agent] -= 1
            elif action in ("retire_done", "evict") \
                    or action.startswith("cache:="):
                pass    # completion bookkeeping / state via next_state
            else:  # pragma: no cover - vocabulary check catches it
                raise ValueError(f"cache action {action!r} unhandled")
        # competitive counter: remote updates count, local ops reset.
        # An at-threshold row that KEEPS the copy resident (the seeded
        # cu-counter-stuck mutation) must still advance the counter so
        # the cu-counter check can see the line never drops.
        if row.when in ("counter_below", "counter_at_threshold") \
                and w.copy[agent] is not None:
            w.copy[agent] = (w.copy[agent][0], counter + 1)
        elif event.startswith(LOCAL_PREFIX) \
                and w.copy[agent] is not None:
            w.copy[agent] = (w.copy[agent][0], 0)
        if event == "local:evict":
            w.copy[agent] = None    # the victim line leaves the cache
            w.new_epoch(agent)
        w.cstate[agent] = row.next_state or state
        if poisoned_fill:
            # the block is gone: the runtime lands in the protocol's
            # invalid/initial cache state, not the row's next_state
            w.cstate[agent] = self.spec.cache.initial
        return w

    # -- home side ----------------------------------------------------

    def _grant_extras(self, mtype: str, fanned: int,
                      row: TransitionRow) -> dict:
        extras: dict = {}
        if mtype in _CARRIES_NACKS:
            extras["nacks"] = fanned
        if mtype == "WRITER_ACK":
            extras["retain"] = "dir:=DIRTY" in row.actions
        return extras

    def _apply_home_row(self, world: World, row: TransitionRow,
                        msg: Msg,
                        steps: List[Tuple[str, TransitionRow]]
                        ) -> List[World]:
        w = world.clone()
        event = row.event
        fanned = 0
        retried = False
        redispatch: List[Msg] = []
        # grants that carry an ack count are pushed after the whole
        # action list ran: a row may name the grant before its fanout
        # (PU's atomic row sends ATOMIC_REPLY, then UPD_PROP), and the
        # nacks field must count the fanout either way.  Deferral is
        # invisible to the product graph: the grant and the fanned
        # messages travel on different (src, dst) channels.
        deferred_grants: List[Tuple[str, str, int]] = []
        queue_only = (row.actions == ("begin_txn",))
        if queue_only:
            w.queue = w.queue + (msg,)
            w.home = row.next_state or w.home
            return [w]
        for action in row.actions:
            if action.startswith("send:"):
                mtype = action[len("send:"):]
                if mtype in _HOME_FANOUT:
                    targets = sorted(w.sharers - {msg.requester})
                    fanned = len(targets)
                    tag = FRESH if mtype == "UPD_PROP" else STALE
                    for t in targets:
                        # An INV fanned at a stale full-map bit is born
                        # stale: the target neither holds a copy nor
                        # has granted data in flight, so anything it
                        # installs later carries a larger sequence
                        # number than this INV and ignores it.
                        born_stale = (
                            mtype == "INV"
                            and w.copy[t] is None
                            and not any(
                                m.dst == t and m.type in _DATA_GRANTS
                                for c in _CHANNELS
                                for m in w.chans[c]))
                        w.push(Msg(mtype, HOME, t, msg.requester,
                                   tag=tag, stale_epoch=born_stale))
                elif mtype in _HOME_TO_REQUESTER:
                    tag = w.mem if mtype in _CARRIES_MEM else FRESH
                    if mtype in _CARRIES_NACKS:
                        deferred_grants.append(
                            (mtype, tag, msg.requester))
                    else:
                        w.push(Msg(mtype, HOME, msg.requester,
                                   msg.requester, tag=tag))
                    if mtype == "READ_REPLY":
                        w.sharers = w.sharers | {msg.requester}
                elif mtype in _HOME_TO_OWNER:
                    if w.owner is None:  # pragma: no cover
                        raise ValueError(
                            f"{mtype} forwarded with no recorded "
                            f"owner")
                    w.push(Msg(mtype, HOME, w.owner, msg.requester))
                else:  # pragma: no cover
                    raise ValueError(f"no route for home send {mtype}")
            elif action == "mem_write":
                if event == "UPDATE":
                    # the write-through serializes HERE: home order is
                    # the coherence order for update protocols
                    w.serialize_write()
                    w.mem = FRESH
                    src = msg.requester
                    if w.copy[src] is not None \
                            and w.copy[src][0] == PENDING:
                        w.copy[src] = (FRESH, w.copy[src][1])
                elif event == "ATOMIC_REQ":
                    w.mem = FRESH    # serialized by atomic_op below
                else:
                    w.mem = msg.tag
            elif action == "atomic_op":
                w.serialize_write()
                w.mem = FRESH
            elif action == "dir:=DIRTY":
                w.owner = msg.requester
                w.sharers = frozenset()
            elif action == "dir:=SHARED":
                w.owner = None
            elif action == "dir:=UNOWNED":
                w.owner = None
                w.sharers = frozenset()
            elif action == "begin_txn":
                if w.open_txn is None:
                    w.open_txn = msg
            elif action == "end_txn":
                w.open_txn = None
                if w.queue:
                    redispatch.append(w.queue[0])
                    w.queue = w.queue[1:]
            elif action == "retry_txn":
                if w.open_txn is not None:
                    redispatch.append(w.open_txn)
                    w.open_txn = None
                retried = True
            elif action == "note_early_wb":
                w.early_wb = w.early_wb | {msg.src}
            else:  # pragma: no cover
                raise ValueError(f"home action {action!r} unhandled")
        for mtype, tag, dst in deferred_grants:
            w.push(Msg(mtype, HOME, dst, dst, tag=tag,
                       **self._grant_extras(mtype, fanned, row)))
        # event-specific sharer bookkeeping (the imperative handlers
        # update the full-map mask; the actions list abstracts it)
        if event == "SHARING_WB":
            w.sharers = w.sharers | {msg.src, msg.requester}
        elif event == "RECALL_REPLY":
            w.sharers = w.sharers | {msg.src}
        elif event == "DROP_NOTICE":
            w.sharers = w.sharers - {msg.src}
        elif event == "DIRTY_TRANSFER":
            # the transfer consumes the requester's early-writeback
            # record whichever way it resolved
            w.early_wb = w.early_wb - {msg.requester}
        w.home = row.next_state or w.home
        if retried:
            # the runtime re-dispatches the open transaction against
            # the CURRENT directory entry, not the row's static next
            # state (which encodes only the writeback-race outcome):
            # a forward NACKed by a still-filling new owner retries
            # against a directory that is still DIRTY
            w.home = self._dir_state(w)
        worlds = [w]
        for queued in redispatch:
            worlds = [w2 for wv in worlds
                      for w2 in self._dispatch_home(wv, queued, steps)]
        return worlds

    def _dir_state(self, world: World) -> str:
        """The stable home state the directory bookkeeping implies
        (every spec names them U / S / D)."""
        if world.owner is not None:
            return "D"
        return "S" if world.sharers else "U"

    def _dispatch_home(self, world: World, msg: Msg,
                       steps: List[Tuple[str, TransitionRow]]
                       ) -> List[World]:
        rows = self._rows(self.spec.home, world.home, msg.type,
                          world=world, msg=msg)
        out: List[World] = []
        for row in rows:
            self.visited_rows["home"].add(row)
            steps.append(("home", row))
            out.extend(self._apply_home_row(world, row, msg, steps))
        return out

    def _dispatch_cache(self, world: World, agent: int, msg: Msg,
                        steps: List[Tuple[str, TransitionRow]]
                        ) -> List[World]:
        rows = self._rows(self.spec.cache, world.cstate[agent],
                          msg.type, world=world, msg=msg, agent=agent)
        out: List[World] = []
        for row in rows:
            self.visited_rows["cache"].add(row)
            steps.append(("cache", row))
            out.append(self._apply_cache_row(world, agent, row, msg))
        return out

    # -- successor generation -----------------------------------------

    def _initial(self) -> World:
        w = initial_world(self.max_ops)
        w.cstate = [self.spec.cache.initial, self.spec.cache.initial]
        w.home = self.spec.home.initial
        return w

    def _local_successors(self, world: World
                          ) -> List[Tuple[World, Step]]:
        out: List[Tuple[World, Step]] = []
        here = world.freeze()
        for agent in AGENTS:
            if world.budget[agent] <= 0:
                continue
            for event in self._local_events:
                rows = [r for r in self.spec.cache.rows_for(
                            world.cstate[agent], event)
                        if self.row_filter(r)]
                # no row for a local stimulus = the processor stalls
                # at this transient; that is progress-by-waiting, not
                # a completeness hole (deliveries must still drain)
                rows = _select_rows(rows, msg=None, world=world,
                                    agent=agent, retain=self.retain,
                                    threshold=self.threshold)
                for row in rows:
                    succ = self._apply_cache_row(world, agent, row,
                                                 None)
                    # record coverage before the no-op check: a pure
                    # hit exercises its row even though the self-loop
                    # successor is skipped
                    self.visited_rows["cache"].add(row)
                    if succ.freeze() == here:
                        continue        # pure hit: a no-op self-loop
                    succ.budget[agent] -= 1
                    out.append((succ, Step(
                        f"agent {agent}: {event}",
                        (("cache", row),))))
        return out

    def _delivery_successors(self, world: World
                             ) -> List[Tuple[World, Step]]:
        out: List[Tuple[World, Step]] = []
        for chan in _CHANNELS:
            if not world.chans[chan]:
                continue
            msg = world.chans[chan][0]
            base = world.clone()
            base.chans[chan] = base.chans[chan][1:]
            steps: List[Tuple[str, TransitionRow]] = []
            if msg.type == "INV" and msg.stale_epoch:
                # the runtime's seq guard: an INV that targeted a
                # replaced copy is acked and otherwise ignored.  The
                # spec's pure-ack INV rows describe exactly this path,
                # so taking it covers them.
                for r in self.spec.cache.rows_for(
                        world.cstate[msg.dst], "INV"):
                    if "invalidate" not in r.actions \
                            and self.row_filter(r):
                        self.visited_rows["cache"].add(r)
                base.push(Msg("INV_ACK", msg.dst, msg.requester,
                              msg.requester))
                out.append((base, Step(
                    f"deliver {msg.label()} (stale epoch: "
                    f"ack-and-ignore)")))
                continue
            if msg.dst == HOME:
                succs = self._dispatch_home(base, msg, steps)
            else:
                succs = self._dispatch_cache(base, msg.dst, msg,
                                             steps)
                # a grant carrying fanned-out acks arms the counter
                if msg.nacks:
                    for s in succs:
                        s.acks[msg.dst] += msg.nacks
            for s in succs:
                out.append((s, Step(f"deliver {msg.label()}",
                                    tuple(steps))))
        return out

    def _successors(self, world: World) -> List[Tuple[World, Step]]:
        return (self._delivery_successors(world)
                + self._local_successors(world))

    # -- quiescence and the data checks --------------------------------

    def _is_quiescent(self, world: World) -> bool:
        return (world.cstate[0] in self.spec.cache.stable
                and world.cstate[1] in self.spec.cache.stable
                and world.home in self.spec.home.stable
                and world.open_txn is None
                and not world.queue
                and not world.in_flight()
                and world.acks == [0, 0])

    def _data_violations(self, world: World, frozen: tuple) -> None:
        if self._is_quiescent(world):
            for agent in AGENTS:
                cp = world.copy[agent]
                if cp is not None and cp[0] != FRESH:
                    self.violations.append((
                        "stale-copy",
                        f"agent {agent} rests with a {cp[0]}-tagged "
                        f"copy in {world.cstate[agent]}: a local read "
                        f"would return a value older than the last "
                        f"serialized write", frozen, ()))
            if world.owner is None and world.mem != FRESH:
                self.violations.append((
                    "stale-copy",
                    f"memory rests {world.mem}-tagged with no "
                    f"recorded owner: the next miss is served stale "
                    f"data", frozen, ()))
        for agent in AGENTS:
            cp = world.copy[agent]
            if cp is not None and cp[1] >= self.threshold:
                self.violations.append((
                    "cu-counter",
                    f"agent {agent} keeps a resident copy at the "
                    f"competitive threshold ({cp[1]} >= "
                    f"{self.threshold}): the line never drops and "
                    f"every remote write keeps paying the update",
                    frozen, ()))

    # -- the BFS driver ------------------------------------------------

    def run(self) -> None:
        """BFS from the initial state.  Each state gets an int id, its
        discovery index, the first time it is seen, so its frozen tuple
        is hashed once per edge; successors are id lists."""
        start = self._initial()
        start_frozen = start.freeze()
        ids: Dict[tuple, int] = {start_frozen: 0}
        order: List[tuple] = [start_frozen]
        worlds: List[Optional[World]] = [start]
        succs: List[List[int]] = [[]]
        self.parent[start_frozen] = (None, Step("start"))
        seen_violations: Set[tuple] = set()
        for node, frozen in enumerate(order):
            world = worlds[node]
            worlds[node] = None
            self.visited_states["cache"].update(world.cstate)
            self.visited_states["home"].add(world.home)
            quiescent = self._is_quiescent(world)
            if quiescent:
                self.quiescent.append(node)
            n_before = len(self.violations)
            self._data_violations(world, frozen)
            try:
                found = self._successors(world)
            except _Stuck as stuck:
                key = (stuck.finding_kind, stuck.side, stuck.state,
                       stuck.event)
                if key not in seen_violations:
                    seen_violations.add(key)
                    self.violations.append((
                        stuck.finding_kind, stuck.detail, frozen, ()))
                continue
            self.violations = (
                self.violations[:n_before]
                + [v for v in self.violations[n_before:]
                   if v[:2] not in seen_violations])
            for v in self.violations[n_before:]:
                seen_violations.add(v[:2])
            if not found and not quiescent:
                self.violations.append((
                    "deadlock",
                    f"non-quiescent state has no successor: cache="
                    f"{tuple(world.cstate)} home={world.home} "
                    f"in-flight="
                    f"{[m.label() for c in _CHANNELS for m in world.chans[c]]} "
                    f"acks={tuple(world.acks)}", frozen, ()))
                continue
            kids = succs[node]
            for succ, step in found:
                sf = succ.freeze()
                fresh = len(order)
                kid = ids.setdefault(sf, fresh)
                if kid == fresh:
                    if fresh >= self.max_states:
                        del ids[sf]
                        self.truncated = True
                        continue
                    order.append(sf)
                    worlds.append(succ)
                    succs.append([])
                    self.parent[sf] = (frozen, step)
                kids.append(kid)
        self._check_livelock(order, succs)

    def _check_livelock(self, order: List[tuple],
                        succs: List[List[int]]) -> None:
        """Reverse reachability from the quiescent set: every explored
        state must be able to drain back to rest."""
        if self.truncated:
            return              # frontier cut: reachability is partial
        rev: List[List[int]] = [[] for _ in order]
        for src, kids in enumerate(succs):
            for kid in kids:
                rev[kid].append(src)
        can_rest = bytearray(len(order))
        for node in self.quiescent:
            can_rest[node] = 1
        stack = list(self.quiescent)
        while stack:
            for pred in rev[stack.pop()]:
                if not can_rest[pred]:
                    can_rest[pred] = 1
                    stack.append(pred)
        stranded = can_rest.find(0)
        if stranded >= 0:
            self.violations.append((
                "livelock",
                "reachable state from which no quiescent state "
                "is reachable: an in-flight transaction can "
                "never complete", order[stranded], ()))

    # -- counterexample reconstruction ---------------------------------

    def path_to(self, frozen: tuple) -> List[Step]:
        steps: List[Step] = []
        node: Optional[tuple] = frozen
        while node is not None:
            parent, step = self.parent[node]
            steps.append(step)
            node = parent
        steps.reverse()
        return steps


# ---------------------------------------------------------------------
# file:line attribution back to the spec builder source
# ---------------------------------------------------------------------

class _RowLocator:
    """Best-effort mapping from a row back to the builder source line
    that wrote it (synthesized rows fall back to the stable-spec
    definition that induced them)."""

    def __init__(self, protocol: str) -> None:
        self._sources: List[Tuple[str, int, List[str]]] = []
        self._cache: Dict[Tuple[str, str, str], Optional[
            Tuple[str, int]]] = {}
        for fn in self._builders(protocol):
            try:
                lines, first = inspect.getsourcelines(fn)
                path = os.path.relpath(inspect.getsourcefile(fn))
            except (OSError, TypeError):     # pragma: no cover
                continue
            self._sources.append((path, first, lines))

    @staticmethod
    def _builders(protocol: str) -> list:
        from repro.protospec import tables
        if protocol == "wi":
            return [tables.wi_spec]
        if protocol in ("pu", "cu"):
            return [tables.pu_spec]
        if protocol == "hybrid":
            return [tables.wi_spec, tables.pu_spec]
        if protocol == "mesi":
            from repro.protospec.mesi import mesi_stable
            return [mesi_stable]
        return []                            # pragma: no cover

    def locate(self, side: str, row: TransitionRow
               ) -> Optional[Tuple[str, int]]:
        key = (side, row.state, row.event)
        if key in self._cache:
            return self._cache[key]
        state_pat = f'"{row.state}"'
        event_pat = f'"{row.event}"'
        best: Optional[Tuple[str, int]] = None
        for path, first, lines in self._sources:
            for off, line in enumerate(lines):
                if state_pat in line and event_pat in line:
                    best = (path, first + off)
                    break
            if best:
                break
        if best is None:
            for path, first, lines in self._sources:
                for off, line in enumerate(lines):
                    if event_pat in line:
                        best = (path, first + off)
                        break
                if best:
                    break
        if best is None and self._sources:
            path, first, _ = self._sources[0]
            best = (path, first)
        self._cache[key] = best
        return best


# ---------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------

def explore_spec(spec: ProtocolSpec, *, retain: bool = True,
                 threshold: int = 2, max_ops: int = 3,
                 row_filter=None, max_states: int = 400_000
                 ) -> SpecGraphExplorer:
    """Run one exploration of ``spec`` and return the explorer with its
    visited sets, quiescent set, and violations filled in."""
    ex = SpecGraphExplorer(spec, retain=retain, threshold=threshold,
                           max_ops=max_ops, row_filter=row_filter,
                           max_states=max_states)
    ex.run()
    return ex


def _row_key(row: TransitionRow) -> tuple:
    # identity modulo the hybrid merge's guard relabelling
    return (row.state, row.event, row.actions, row.next_state,
            row.when, row.retry)


def _runs_for(protocol: str, spec: ProtocolSpec,
              threshold: int) -> List[dict]:
    """The run matrix: each entry explores one closed sub-machine."""
    if protocol == "wi" or protocol == "mesi":
        return [dict(label=protocol, retain=True)]
    if protocol in ("pu", "cu"):
        return [dict(label=f"{protocol} retain", retain=True),
                dict(label=f"{protocol} no-retain", retain=False)]
    if protocol == "hybrid":
        # project the merged table back onto its two closed
        # sub-machines: a block is managed by exactly one base
        # protocol, so the cross product is unreachable by design
        from repro.protospec.tables import cu_spec, wi_spec
        wi_keys = {_row_key(r) for side in (wi_spec().cache,
                                            wi_spec().home)
                   for r in side.rows}
        cu_keys = {_row_key(r) for side in (cu_spec().cache,
                                            cu_spec().home)
                   for r in side.rows}
        wi_filter = lambda r: _row_key(r) in wi_keys      # noqa: E731
        cu_filter = lambda r: _row_key(r) in cu_keys      # noqa: E731
        return [dict(label="hybrid/wi", retain=True,
                     row_filter=wi_filter),
                dict(label="hybrid/cu retain", retain=True,
                     row_filter=cu_filter),
                dict(label="hybrid/cu no-retain", retain=False,
                     row_filter=cu_filter)]
    raise ValueError(f"no run matrix for protocol {protocol!r}")


def check_spec_graph(protocol, spec: Optional[ProtocolSpec] = None,
                     *, max_ops: int = 3, threshold: int = 2,
                     max_states: int = 400_000
                     ) -> Tuple[List[Finding], dict]:
    """Exhaustively explore the spec graph of ``protocol``.

    Returns ``(findings, graph_json)``: spec-level safety/liveness
    violations (severity ``error``, each with a minimized
    counterexample) plus coverage gaps (severity ``warn``), and a
    JSON-able summary for CI artifacts."""
    proto = getattr(protocol, "value", protocol)
    if spec is None:
        from repro.protospec import get_spec
        spec = get_spec(protocol)
    locator = _RowLocator(proto)
    findings: List[Finding] = []
    runs_json: List[dict] = []
    counterexamples: List[dict] = []
    visited_states = {"cache": set(), "home": set()}
    visited_rows = {"cache": set(), "home": set()}
    seen: Set[Tuple[str, str]] = set()
    counters: Dict[str, int] = {}
    for run in _runs_for(proto, spec, threshold):
        ex = explore_spec(spec, retain=run["retain"],
                          threshold=threshold, max_ops=max_ops,
                          row_filter=run.get("row_filter"),
                          max_states=max_states)
        for side in ("cache", "home"):
            visited_states[side] |= ex.visited_states[side]
            visited_rows[side] |= ex.visited_rows[side]
        runs_json.append({"label": run["label"],
                          "states": len(ex.parent),
                          "quiescent": len(ex.quiescent),
                          "truncated": ex.truncated})
        for kind, detail, frozen, _rows in ex.violations:
            if (kind, detail) in seen:
                continue
            seen.add((kind, detail))
            n = counters[kind] = counters.get(kind, 0) + 1
            ident = f"{proto}/graph-{kind}/{n}"
            steps = ex.path_to(frozen)
            path_json = [s.to_json(locator.locate) for s in steps]
            counterexamples.append({"ident": ident, "kind": kind,
                                    "run": run["label"],
                                    "steps": path_json})
            file, line = "", 0
            state = event = side = ""
            for s in reversed(steps):
                if s.rows:
                    side, last = s.rows[-1]
                    state, event = last.state, last.event
                    loc = locator.locate(side, last)
                    if loc:
                        file, line = loc
                    break
            trace = " -> ".join(s.label for s in steps[1:]) or "initial"
            findings.append(Finding(
                check="spec-graph", ident=ident,
                detail=f"[{run['label']}] {detail}; shortest trace: "
                       f"{trace}",
                protocol=proto, side=side, state=state, event=event,
                file=file, line=line, severity="error"))
        if ex.truncated:
            findings.append(Finding(
                check="spec-graph",
                ident=f"{proto}/graph-truncated/{run['label']}",
                detail=f"[{run['label']}] exploration truncated at "
                       f"{max_states} states; results are partial",
                protocol=proto, severity="error"))
    # coverage: states or rows no interleaving ever exercised
    for side_name in ("cache", "home"):
        side = getattr(spec, side_name)
        for state in side.states:
            if state not in visited_states[side_name]:
                findings.append(Finding(
                    check="spec-graph",
                    ident=f"{proto}/graph-unreachable/{side_name}/"
                          f"{state}",
                    detail=f"{side_name} state {state!r} was never "
                           f"entered by any explored interleaving "
                           f"(max_ops={max_ops})",
                    protocol=proto, side=side_name, state=state,
                    severity="warn"))
        idents: Set[str] = set()
        for row in side.rows:
            if row in visited_rows[side_name]:
                continue
            ident = (f"{proto}/graph-dead-row/{side_name}/{row.state}/"
                     f"{row.event}")
            if row.when:
                ident += f"/{row.when}"
            while ident in idents:          # same pair, several rows
                ident += "+"
            idents.add(ident)
            loc = locator.locate(side_name, row)
            findings.append(Finding(
                check="spec-graph", ident=ident,
                detail=f"{side_name} row ({row.state}, {row.event}) "
                       f"never fired in any explored interleaving "
                       f"(max_ops={max_ops})",
                protocol=proto, side=side_name, state=row.state,
                event=row.event, file=loc[0] if loc else "",
                line=loc[1] if loc else 0, severity="warn"))
    graph_json = {
        "protocol": proto,
        "max_ops": max_ops,
        "threshold": threshold,
        "runs": runs_json,
        "coverage": {
            side: {"states_visited": sorted(visited_states[side]),
                   "rows_visited": len(visited_rows[side]),
                   "rows_total": len(getattr(spec, side).rows)}
            for side in ("cache", "home")},
        "findings": [f.to_json() for f in findings],
        "counterexamples": counterexamples,
    }
    return findings, graph_json


# ---------------------------------------------------------------------
# seeded spec-level mutations
# ---------------------------------------------------------------------

def _edit_rows(spec: ProtocolSpec, side_name: str, pred, edit
               ) -> ProtocolSpec:
    side = getattr(spec, side_name)
    hits = 0
    new_rows = []
    for row in side.rows:
        if pred(row):
            hits += 1
            new_rows.append(edit(row))
        else:
            new_rows.append(row)
    if not hits:
        raise ValueError(
            f"spec mutation matched no {side_name} rows")
    new_side = replace(side, rows=tuple(new_rows))
    return replace(spec, **{side_name: new_side})


def _drop_action(row: TransitionRow, action: str) -> TransitionRow:
    return replace(row, actions=tuple(
        a for a in row.actions if a != action))


def _mut_wi_drop_inv_ack(spec: ProtocolSpec) -> ProtocolSpec:
    return _edit_rows(
        spec, "cache",
        lambda r: r.event == "INV_ACK" and "ack" in r.actions,
        lambda r: _drop_action(r, "ack"))


def _mut_wi_skip_invalidation(spec: ProtocolSpec) -> ProtocolSpec:
    return _edit_rows(
        spec, "home",
        lambda r: r.event in ("RDEX_REQ", "UPGRADE_REQ")
        and "send:INV" in r.actions,
        lambda r: _drop_action(r, "send:INV"))


def _mut_pu_upd_prop_overwrite(spec: ProtocolSpec) -> ProtocolSpec:
    return _edit_rows(
        spec, "cache",
        lambda r: r.event == "UPD_PROP" and "cache_write" in r.actions,
        lambda r: _drop_action(r, "cache_write"))


def _mut_cu_counter_stuck(spec: ProtocolSpec) -> ProtocolSpec:
    return _edit_rows(
        spec, "cache",
        lambda r: r.event == "UPD_PROP"
        and r.when == "counter_at_threshold",
        lambda r: replace(r, actions=("cache_write", "send:UPD_ACK"),
                          next_state=r.state))


@dataclass(frozen=True)
class SpecMutation:
    """A seeded table-level bug the graph explorer must catch."""

    name: str
    protocol: str
    description: str
    expect: FrozenSet[str]      # acceptable violation kinds
    _apply: Callable[[ProtocolSpec], ProtocolSpec]

    def apply(self, spec: ProtocolSpec) -> ProtocolSpec:
        return self._apply(spec)


#: mirrors the four runtime mutations of repro.modelcheck.mutations
SPEC_MUTATIONS: Dict[str, SpecMutation] = {m.name: m for m in (
    SpecMutation(
        "wi-drop-inv-ack", "wi",
        "the requester never counts INV_ACKs: outstanding "
        "invalidation acks never drain",
        frozenset(("deadlock", "livelock")),
        _mut_wi_drop_inv_ack),
    SpecMutation(
        "wi-skip-invalidation", "wi",
        "the home grants exclusivity without invalidating sharers",
        frozenset(("stale-copy",)),
        _mut_wi_skip_invalidation),
    SpecMutation(
        "pu-upd-prop-overwrite", "pu",
        "sharers drop the propagated data on the floor",
        frozenset(("stale-copy",)),
        _mut_pu_upd_prop_overwrite),
    SpecMutation(
        "cu-counter-stuck", "cu",
        "the competitive drop never happens: the line stays resident "
        "at the threshold",
        frozenset(("cu-counter",)),
        _mut_cu_counter_stuck),
)}


def apply_spec_mutation(spec: ProtocolSpec, name: str) -> ProtocolSpec:
    try:
        mut = SPEC_MUTATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown spec mutation {name!r}; have "
            f"{', '.join(sorted(SPEC_MUTATIONS))}") from None
    return mut.apply(spec)
