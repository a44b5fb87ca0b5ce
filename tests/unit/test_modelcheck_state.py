"""Unit tests for the canonical state encoder: determinism, state
sensitivity, node/word symmetry merging, and byte-identity of the
one-pass key with the four-pass reference pipeline."""

from __future__ import annotations

from typing import Any, Dict

import pytest

import repro.modelcheck.explorer as explorer
from repro.config import Protocol
from repro.modelcheck import canonical_key, explore, get_program
from repro.modelcheck.explorer import _build
from repro.modelcheck.state import (
    Unencodable, _AmbiguousPerm, encode_machine,
)


def _machine(name: str = "sb", protocol: Protocol = Protocol.WI):
    litmus = get_program(name)
    config = litmus.config(protocol)
    return _build(litmus, config, max_events=50_000)


def _advance(machine, histories, first_choice: int, steps: int):
    """Prepare the machine and take ``steps`` events, using
    ``first_choice`` at the first same-cycle tie and 0 afterwards."""
    taken = {"n": 0}

    def chooser(batch):
        taken["n"] += 1
        return first_choice if taken["n"] == 1 else 0

    machine.sim.chooser = chooser
    machine.prepare()
    for _ in range(steps):
        machine.sim.step()


def test_key_is_deterministic():
    machine, built, histories, syms = _machine()
    machine.prepare()
    pending = machine.sim.pending_snapshot()
    k1 = canonical_key(machine, pending, syms, histories)
    k2 = canonical_key(machine, pending, syms, histories)
    assert k1 is not None
    assert k1 == k2


def test_identical_runs_share_a_key():
    keys = []
    for _ in range(2):
        machine, built, histories, syms = _machine()
        _advance(machine, histories, first_choice=0, steps=2)
        keys.append(canonical_key(machine, machine.sim.pending_snapshot(),
                                  syms, histories))
    assert keys[0] is not None
    assert keys[0] == keys[1]


def test_key_tracks_machine_state():
    machine, built, histories, syms = _machine()
    machine.prepare()
    before = canonical_key(machine, machine.sim.pending_snapshot(), syms,
                           histories)
    machine.sim.step()
    after = canonical_key(machine, machine.sim.pending_snapshot(), syms,
                          histories)
    assert before != after


def test_symmetry_merges_mirror_states():
    """sb is symmetric under swapping the two nodes together with the
    two variables: executing node 0 first and node 1 first yields
    mirror-image states with the same canonical key -- but different
    raw encodings."""
    encodings, keys = [], []
    for first in (0, 1):
        machine, built, histories, syms = _machine()
        _advance(machine, histories, first_choice=first, steps=1)
        pending = machine.sim.pending_snapshot()
        encodings.append(repr(encode_machine(machine, pending,
                                             histories)))
        keys.append(canonical_key(machine, pending, syms, histories))
    assert encodings[0] != encodings[1]
    assert keys[0] == keys[1]


def test_without_symmetry_mirror_states_stay_distinct():
    keys = []
    for first in (0, 1):
        machine, built, histories, syms = _machine()
        _advance(machine, histories, first_choice=first, steps=1)
        keys.append(canonical_key(machine, machine.sim.pending_snapshot(),
                                  (), histories))
    assert keys[0] != keys[1]


# ----------------------------------------------------------------------
# reference key: scan the ranks, rewrite them, permute, then repr
# ----------------------------------------------------------------------

def _finalize_ranks(tree: Any) -> Any:
    found: Dict[str, set] = {}

    def scan(t: Any) -> None:
        if isinstance(t, tuple):
            if t and t[0] == "Q":
                found.setdefault(t[1], set()).add(t[2])
            else:
                for x in t:
                    scan(x)
    scan(tree)
    ranks = {dom: {raw: i for i, raw in enumerate(sorted(vals))}
             for dom, vals in found.items()}

    def rewrite(t: Any) -> Any:
        if isinstance(t, tuple):
            if t and t[0] == "Q":
                return ("Q", t[1], ranks[t[1]][t[2]])
            return tuple(rewrite(x) for x in t)
        return t
    return rewrite(tree)


def _apply_perm(tree: Any, sym) -> Any:
    def rec(t: Any) -> Any:
        if not isinstance(t, tuple) or not t:
            return t
        tag = t[0]
        if tag == "N":
            return ("N", sym.node(t[1])) if sym is not None else t
        if tag == "B":
            return ("B", sym.block(t[1])) if sym is not None else t
        if tag == "W":
            return ("W", sym.word(t[1])) if sym is not None else t
        if tag == "A":
            return ("A", sym.addr(t[1])) if sym is not None else t
        if tag == "NS":
            ids = t[1:] if sym is None else tuple(
                sym.node(i) for i in t[1:])
            return ("NS",) + tuple(sorted(ids))
        if tag == "NL":
            if sym is None:
                return t
            return ("NL",) + tuple(sym.node(i) for i in t[1:])
        if tag == "AMB":
            if sym is not None:
                raise _AmbiguousPerm(repr(t))
            return t
        if tag == "Q":
            return t
        if tag == "SORT":
            return ("SORT",) + tuple(
                sorted((rec(x) for x in t[1:]), key=repr))
        return tuple(rec(x) for x in t)
    return rec(tree)


def _reference_key(machine, pending, symmetries, histories):
    try:
        tree = _finalize_ranks(
            encode_machine(machine, pending, histories))
        best = repr(_apply_perm(tree, None))
        for sym in symmetries:
            try:
                cand = repr(_apply_perm(tree, sym))
            except _AmbiguousPerm:
                continue
            if cand < best:
                best = cand
        return best
    except Unencodable:
        return None


@pytest.mark.parametrize("protocol",
                         [Protocol.WI, Protocol.PU, Protocol.MESI],
                         ids=lambda p: p.value)
@pytest.mark.parametrize("name", ["sb", "barrier", "subword"])
def test_one_pass_key_matches_reference_pipeline(name, protocol,
                                                 monkeypatch):
    """At every choice point of an exhaustive exploration, the key is
    the very string the scan/rewrite/permute/repr pipeline builds."""
    seen = {"keys": 0, "symmetries": 0}

    def checked(machine, pending, symmetries=(), histories=None):
        symmetries = list(symmetries)
        key = canonical_key(machine, pending, symmetries, histories)
        assert key == _reference_key(machine, pending, symmetries,
                                     histories)
        seen["keys"] += key is not None
        seen["symmetries"] += len(symmetries)
        return key

    monkeypatch.setattr(explorer, "canonical_key", checked)
    res = explore(get_program(name), protocol=protocol)
    assert res.complete and res.violation is None
    assert seen["keys"] > 0
    if name == "sb":
        assert seen["symmetries"] > 0
