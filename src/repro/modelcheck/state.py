"""Canonical machine-state encoding for the model checker.

The explorer deduplicates states by *canonical key*: a string that is
equal for two machine snapshots exactly when they will behave
identically for the rest of the run (up to a declared symmetry of the
litmus program).  The encoding is a tagged tree:

* every embedded integer gets a **semantic tag** -- ``("N", node)``,
  ``("B", block)``, ``("W", word-index)``, ``("A", address)``,
  ``("Q", domain, raw)`` for sequence numbers, or ``("AMB", v)`` when
  the encoder cannot tell (ambiguous values block symmetry mapping but
  never exact dedup);
* unordered containers are wrapped in ``("SORT", ...)`` and re-sorted
  after any permutation;
* pending callbacks (closures, bound methods) are encoded structurally:
  free variables and defaults are classified by *name* through the hint
  tables below, so a closure capturing ``seq=7`` hashes by sequence
  *rank*, not raw value.

Sequence numbers (directory/install seqs, write ids, event seqs) only
matter through their relative order, so after encoding every ``("Q",
domain, raw)`` is rank-compressed within its domain.  Event-queue times
are encoded as deltas from the choice-point time.  The canonical key is
the lexicographic minimum of the encoded tree over the identity and
every declared program symmetry (node relabelling + word relabelling).

Anything the encoder has no rule for raises :class:`Unencodable`; the
explorer then simply skips dedup for that state, which costs time but
never soundness.
"""

from __future__ import annotations

import types
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.memsys.cache import CacheLine
from repro.memsys.directory import DirEntry
from repro.memsys.writebuffer import PendingWrite
from repro.network.messages import Message


class Unencodable(Exception):
    """The state contains an object the encoder has no rule for."""


class _AmbiguousPerm(Exception):
    """A value cannot be remapped under a non-identity permutation."""


# ----------------------------------------------------------------------
# name-hint tables: integers reached through closures / event arguments
# are classified by the variable name that carries them
# ----------------------------------------------------------------------

_NODE_NAMES = frozenset({"s", "src", "dst", "node", "writer",
                         "requester", "owner", "home", "parent"})
_NODELIST_NAMES = frozenset({"invs", "receivers", "holders"})
_SEQ_NAMES = frozenset({"seq", "inv_seq"})
_BLOCK_NAMES = frozenset({"block", "blk"})
_WORD_NAMES = frozenset({"word"})
_ADDR_NAMES = frozenset({"addr"})
_DATA_NAMES = frozenset({"value", "v", "val", "merged", "old", "new",
                         "result", "operand", "init", "delta",
                         "expected", "n", "count", "duration", "cycles",
                         "nacks", "opname", "mask", "retain", "state",
                         "reason", "label"})


class Symmetry:
    """One candidate automorphism of a litmus program.

    ``node_map`` is a bijection over node ids; ``word_map`` a bijection
    over the *addresses* returned by ``alloc_word`` (word-index and
    block maps are derived from it).  Both must cover everything that
    can appear in a reachable state; an unmapped id aborts the
    permutation (soundly) via :class:`_AmbiguousPerm`.
    """

    def __init__(self, config, node_map: Dict[int, int],
                 word_map: Dict[int, int]) -> None:
        self.node_map = dict(node_map)
        self.addr_map = dict(word_map)
        self.word_map: Dict[int, int] = {}
        self.block_map: Dict[int, int] = {}
        for a, b in word_map.items():
            self.word_map[config.word_of(a)] = config.word_of(b)
            blk_a, blk_b = config.block_of(a), config.block_of(b)
            prev = self.block_map.setdefault(blk_a, blk_b)
            if prev != blk_b:
                raise ValueError(
                    f"word map splits block {blk_a} across "
                    f"{prev} and {blk_b}")

    def node(self, i: int) -> int:
        try:
            return self.node_map[i]
        except KeyError:
            raise _AmbiguousPerm(f"node {i} not in map") from None

    def block(self, b: int) -> int:
        try:
            return self.block_map[b]
        except KeyError:
            raise _AmbiguousPerm(f"block {b} not in map") from None

    def word(self, w: int) -> int:
        try:
            return self.word_map[w]
        except KeyError:
            raise _AmbiguousPerm(f"word {w} not in map") from None

    def addr(self, a: int) -> int:
        try:
            return self.addr_map[a]
        except KeyError:
            raise _AmbiguousPerm(f"addr {a:#x} not in map") from None


# ----------------------------------------------------------------------
# object encoders
# ----------------------------------------------------------------------

#: type -> (role, carries a node id), or None for a type with no role;
#: filled on first use so the component imports stay lazy
_OWNER_ROLES: Dict[type, Optional[Tuple[str, bool]]] = {}


def _owner_role(cls: type) -> Optional[Tuple[str, bool]]:
    from repro.engine.simulator import Simulator
    from repro.memsys.directory import Directory
    from repro.memsys.memory import MemoryModule
    from repro.network.fabric import Network
    from repro.protocols.base import NodeCtrl
    from repro.runtime.machine import Machine
    from repro.runtime.processor import Processor

    for base, role, has_node in ((NodeCtrl, "ctrl", True),
                                 (Processor, "proc", True),
                                 (MemoryModule, "mem", True),
                                 (Directory, "dir", True),
                                 (Network, "net", False),
                                 (Simulator, "sim", False),
                                 (Machine, "machine", False)):
        if issubclass(cls, base):
            return role, has_node
    if cls.__name__ in ("CoherenceSanitizer", "RaceDetector"):
        return cls.__name__, False
    return None


def _owner_tag(obj: Any) -> tuple:
    """Identify the owner of a bound method by role (+ node)."""
    cls = type(obj)
    try:
        role = _OWNER_ROLES[cls]
    except KeyError:
        role = _OWNER_ROLES[cls] = _owner_role(cls)
    if role is None:
        raise Unencodable(f"bound method on {cls.__name__}")
    name, has_node = role
    return (name, ("N", obj.node)) if has_node else (name,)


def _enc_cb(fn: Any) -> Any:
    """Encode a pending callback structurally."""
    if fn is None:
        return None
    if isinstance(fn, types.MethodType):
        return ("BM", _owner_tag(fn.__self__), fn.__func__.__qualname__)
    if isinstance(fn, types.FunctionType):
        code = fn.__code__
        cells: tuple = ()
        if fn.__closure__:
            cells = tuple(
                (name, _enc_hint(cell.cell_contents, name))
                for name, cell in zip(code.co_freevars, fn.__closure__))
        defaults: tuple = ()
        if fn.__defaults__:
            pos = code.co_varnames[:code.co_argcount]
            dnames = pos[code.co_argcount - len(fn.__defaults__):]
            defaults = tuple((name, _enc_hint(v, name))
                             for name, v in zip(dnames, fn.__defaults__))
        return ("FN", fn.__qualname__, defaults, cells)
    raise Unencodable(f"callable {fn!r}")


def _enc_hint(value: Any, name: Optional[str] = None) -> Any:
    """Encode a value reached through a named slot (closure free
    variable, default, or event argument)."""
    if value is None or value is True or value is False:
        return value
    if isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        if name in _NODE_NAMES:
            return ("N", value) if value >= 0 else value
        if name in _SEQ_NAMES:
            return ("Q", "dir", value)
        if name in _BLOCK_NAMES:
            return ("B", value)
        if name in _WORD_NAMES:
            return ("W", value)
        if name in _ADDR_NAMES:
            return ("A", value)
        if name == "write_id":
            return ("Q", "wid", value)
        if name in _DATA_NAMES:
            return value
        return ("AMB", value)
    if isinstance(value, Message):
        return _enc_msg(value)
    if isinstance(value, PendingWrite):
        return _enc_pw(value)
    if isinstance(value, CacheLine):
        return ("LINEREF", ("B", value.block))
    if isinstance(value, DirEntry):
        return ("ENTREF", ("B", value.block))
    from repro.protocols.base import PendingFill
    if isinstance(value, PendingFill):
        return ("FILLREF", ("B", value.block))
    if isinstance(value, (list, tuple)):
        if name in _NODELIST_NAMES:
            return ("NL",) + tuple(int(v) for v in value)
        inner = name if name in _DATA_NAMES else None
        return tuple(_enc_hint(v, inner) for v in value)
    if isinstance(value, (set, frozenset)):
        if name in _NODELIST_NAMES or name == "sharers":
            return ("NS",) + tuple(sorted(value))
        raise Unencodable(f"set under name {name!r}")
    if isinstance(value, dict):
        if name in ("data", "values"):
            return ("SORT",) + tuple((("W", w), _enc_hint(v))
                                     for w, v in value.items())
        raise Unencodable(f"dict under name {name!r}")
    try:
        # closures frequently capture a machine component ("self",
        # "ctrl", "proc"): its identity-by-role is the whole content
        return ("OBJ", _owner_tag(value))
    except Unencodable:
        pass
    if callable(value):
        return _enc_cb(value)
    raise Unencodable(f"{type(value).__name__} under name {name!r}")


def _enc_worddict(d: Dict[int, Any]) -> tuple:
    return ("SORT",) + tuple((("W", w), _enc_hint(v))
                             for w, v in d.items())


def _enc_msg(m: Message) -> tuple:
    return ("MSG", m.mtype.value,
            ("N", m.src), ("N", m.dst), ("B", m.block),
            ("N", m.requester) if m.requester >= 0 else -1,
            ("W", m.word) if isinstance(m.word, int) else m.word,
            _enc_hint(m.value, "value"),
            _enc_worddict(m.data) if m.data else None,
            m.nacks,
            ("Q", "dir", m.seq) if m.seq >= 0 else None,
            m.op,
            _enc_hint(m.operand, "operand"),
            _enc_hint(m.result, "result"),
            m.retain,
            ("Q", "wid", m.write_id)
            if getattr(m, "write_id", None) is not None else None,
            m.mask)


def _enc_pw(pw: PendingWrite) -> tuple:
    return ("PW", ("Q", "wid", pw.write_id), ("A", pw.addr),
            ("W", pw.word), ("B", pw.block),
            _enc_hint(pw.value, "value"), pw.mask)


def _enc_line(line: CacheLine) -> tuple:
    return ("LINE", ("B", line.block), line.state.value,
            _enc_worddict(line.data),
            ("Q", "dir", line.seq),
            line.update_count,
            _enc_worddict(line.dirty_words))


def _enc_dir_entry(ent: DirEntry) -> tuple:
    owner = ent.owner
    return ("ENT", ("B", ent.block), ent.state.value,
            ("NS",) + tuple(sorted(ent.sharers)),
            ("N", owner) if isinstance(owner, int) and owner >= 0
            else owner,
            ent.busy,
            tuple(( _enc_cb(fn), _enc_args(fn, args))
                  for fn, args in ent.queue),
            ("Q", "dir", ent.seq))


def _enc_fill(pend) -> Any:
    if pend is None:
        return None
    return ("FILL", ("B", pend.block), ("W", pend.word),
            _enc_cb(pend.cb),
            ("Q", "dir", pend.inv_seq)
            if pend.inv_seq is not None else None)


def _enc_atomic(pa: Optional[dict]) -> Any:
    if pa is None:
        return None
    return ("PA",) + tuple(sorted(
        ((k, _enc_hint(v, k)) for k, v in pa.items()),
        key=lambda kv: kv[0]))


def _enc_op(op: Any) -> Any:
    if op is None:
        return None
    parts: List[Any] = ["OP", type(op).__name__]
    for attr, name in (("addr", "addr"), ("value", "value"),
                       ("mask", "mask"), ("cycles", "cycles"),
                       ("opname", "opname"), ("operand", "operand"),
                       ("node", "node")):
        if hasattr(op, attr):
            parts.append((attr, _enc_hint(getattr(op, attr), name)))
    if hasattr(op, "predicate"):
        parts.append(("predicate", _enc_cb(op.predicate)))
    if hasattr(op, "fn"):
        parts.append(("fn", _enc_cb(op.fn)))
    if hasattr(op, "handle"):
        parts.append(("handle", ("proc", ("N", op.handle.node))))
    return tuple(parts)


def _enc_proc(p) -> tuple:
    spin = None
    if p._spin_pred is not None:
        spin = (("A", p._spin_addr), _enc_cb(p._spin_pred))
    return ("PROC", ("N", p.node), p.started, p.done,
            _enc_op(p._current_op) if not p.done else None,
            spin,
            tuple(_enc_cb(cb) for cb in p._done_callbacks))


def _enc_ctrl(c, base: int) -> tuple:
    lines = []
    cache = c.cache
    for s in range(cache.num_sets):
        slots = cache._set_slots(s)
        if len(slots) > 1:
            # within-set LRU order would need its own canonical form;
            # litmus configs keep at most one line per set
            raise Unencodable("multi-line set (LRU order not canonical)")
        for slot in slots:
            lines.append(_enc_line(cache._lines[slot]))
    watchers = ("SORT",) + tuple(
        (("B", b), tuple(_enc_cb(cb) for cb in cbs))
        for b, cbs in c.cache._watchers.items() if cbs)
    return ("CTRL", ("N", c.node),
            ("SORT",) + tuple(lines),
            watchers,
            tuple(_enc_pw(pw) for pw in c.wb._fifo),
            tuple(_enc_cb(cb) for cb in c.wb._space_waiters),
            tuple(_enc_cb(cb) for cb in c.wb._empty_waiters),
            _enc_worddict(c.mem._words),
            max(0, c.mem._busy_until - base),
            ("SORT",) + tuple(_enc_dir_entry(e)
                              for e in c.directory._entries.values()),
            c.outstanding_acks,
            c._retiring,
            tuple(_enc_cb(cb) for cb in c._fence_waiters),
            tuple(_enc_cb(cb) for cb in c._drain_waiters),
            _enc_fill(c._pending_fill),
            _enc_atomic(c._pending_atomic),
            ("SORT",) + tuple(
                (("B", b), _enc_cb(body), _enc_msg(msg))
                for b, (body, msg) in c._txn.items()))


def _enc_args(fn: Any, args: tuple) -> tuple:
    if not args:
        return ()
    code = None
    skip = 0
    if isinstance(fn, types.MethodType):
        code = fn.__func__.__code__
        skip = 1
    elif isinstance(fn, types.FunctionType):
        code = fn.__code__
    names: Tuple[Optional[str], ...] = ()
    if code is not None:
        names = code.co_varnames[skip:skip + len(args)]
    if len(names) < len(args):
        names = tuple(names) + (None,) * (len(args) - len(names))
    return tuple(_enc_hint(a, nm) for a, nm in zip(args, names))


def _enc_events(events: Iterable[tuple], base: int) -> tuple:
    out = []
    for (t, seq, fn, args) in sorted(events, key=lambda e: (e[0], e[1])):
        out.append((t - base, ("Q", "ev", seq),
                    _enc_cb(fn), _enc_args(fn, args)))
    return ("EVQ",) + tuple(out)


def encode_machine(machine, pending_events: List[tuple],
                   histories: Optional[Dict[int, list]] = None) -> tuple:
    """Encode a machine snapshot plus its pending event list as a raw
    tagged tree (sequence numbers still carry raw values)."""
    base = min((e[0] for e in pending_events), default=machine.sim.now)
    ctrls = ("SORT",) + tuple(_enc_ctrl(c, base)
                              for c in machine.controllers)
    procs = ("SORT",) + tuple(_enc_proc(p) for p in machine.processors)
    net = machine.net
    netenc = ("NET",
              ("SORT",) + tuple((("N", i), max(0, t - base))
                                for i, t in enumerate(net._src_free)),
              ("SORT",) + tuple((("N", i), max(0, t - base))
                                for i, t in enumerate(net._dst_free)))
    hist: Any = None
    if histories is not None:
        hist = ("HIST", ("SORT",) + tuple(
            (("N", n), tuple(_enc_hint(v, "value") for v in h))
            for n, h in sorted(histories.items())))
    san = machine.sanitizer
    sanenc: Any = None
    if san is not None:
        sanenc = ("SAN", ("SORT",) + tuple(
            (("W", w), tuple(sorted(vals, key=repr)))
            for w, vals in san._values.items()))
    return ("MACHINE", ctrls, procs, netenc,
            _enc_events(pending_events, base), hist, sanenc)


# ----------------------------------------------------------------------
# rank compression + permutation + canonical form
# ----------------------------------------------------------------------

def _rank_table(tree: tuple) -> Dict[str, Dict[Any, int]]:
    """Map every ``("Q", domain, raw)`` to the rank of ``raw`` among
    the raw values of its domain."""
    found: Dict[str, set] = {}

    def scan(t: tuple) -> None:
        for x in t:
            if isinstance(x, tuple) and x:
                if x[0] == "Q":
                    found.setdefault(x[1], set()).add(x[2])
                else:
                    scan(x)
    scan((tree,))
    return {dom: {raw: i for i, raw in enumerate(sorted(vals))}
            for dom, vals in found.items()}


_TAGS = frozenset(("Q", "N", "B", "W", "A", "NS", "NL", "AMB", "SORT"))


def _tagged(tag: str, parts: List[str]) -> str:
    """``repr`` of ``(tag, *elements)`` whose elements render as
    ``parts``."""
    if not parts:
        return f"({tag!r},)"
    return f"({tag!r}, " + ", ".join(parts) + ")"


def _render(tree: tuple, ranks: Dict[str, Dict[Any, int]],
            sym: Optional[Symmetry]) -> str:
    """The ``repr`` of ``tree`` with sequence numbers rank-compressed,
    ids mapped through ``sym`` (None: the identity) and the children of
    every ``SORT`` node in sorted order, built bottom-up in one pass:
    a ``SORT`` node sorts the strings of its children."""
    def rec(t: tuple) -> str:
        tag = t[0]
        if isinstance(tag, str) and tag in _TAGS:
            if tag == "SORT":
                return _tagged(tag, sorted([
                    rec(x) if isinstance(x, tuple) and x else repr(x)
                    for x in t[1:]]))
            if tag == "Q":
                return f"('Q', {t[1]!r}, {ranks[t[1]][t[2]]!r})"
            if tag == "NS":
                ids = t[1:] if sym is None else [sym.node(i)
                                                 for i in t[1:]]
                return _tagged(tag, [repr(i) for i in sorted(ids)])
            if sym is None:
                return repr(t)
            if tag == "N":
                return f"('N', {sym.node(t[1])!r})"
            if tag == "B":
                return f"('B', {sym.block(t[1])!r})"
            if tag == "W":
                return f"('W', {sym.word(t[1])!r})"
            if tag == "A":
                return f"('A', {sym.addr(t[1])!r})"
            if tag == "NL":
                return _tagged(tag, [repr(sym.node(i)) for i in t[1:]])
            raise _AmbiguousPerm(repr(t))
        parts = [rec(x) if isinstance(x, tuple) and x else repr(x)
                 for x in t]
        if len(parts) == 1:
            return "(" + parts[0] + ",)"
        return "(" + ", ".join(parts) + ")"
    return rec(tree)


def canonical_key(machine, pending_events: List[tuple],
                  symmetries: Iterable[Symmetry] = (),
                  histories: Optional[Dict[int, list]] = None
                  ) -> Optional[str]:
    """The canonical fingerprint of a snapshot, or None when some piece
    of state is :class:`Unencodable` (the caller skips dedup then)."""
    try:
        tree = encode_machine(machine, pending_events, histories)
        ranks = _rank_table(tree)
        best = _render(tree, ranks, None)
        for sym in symmetries:
            try:
                cand = _render(tree, ranks, sym)
            except _AmbiguousPerm:
                continue
            if cand < best:
                best = cand
        return best
    except Unencodable:
        return None
