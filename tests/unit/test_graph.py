"""The spec-graph explorer: exhaustive product-graph exploration on
the tables alone.  WI and MESI explore in a couple of seconds each, so
they anchor the unit suite; the slower PU/CU/hybrid runs and the full
four-mutation cross-validation live in
``tests/integration/test_graph_modelcheck.py``."""

from __future__ import annotations

import json

import pytest

from repro.protospec import get_spec
from repro.staticcheck import (
    DEFAULT_SUPPRESSIONS, SPEC_MUTATIONS, apply_spec_mutation,
    check_spec_graph, explore_spec, load_suppressions,
)


@pytest.fixture(scope="module")
def wi_result():
    return check_spec_graph("wi")


@pytest.fixture(scope="module")
def mesi_result():
    return check_spec_graph("mesi")


@pytest.fixture(scope="module")
def mutated_wi_result():
    spec = apply_spec_mutation(get_spec("wi"),
                               "wi-skip-invalidation")
    return check_spec_graph("wi", spec)


def _errors(findings):
    return [f for f in findings if f.severity == "error"]


def _warns(findings):
    return [f for f in findings if f.severity == "warn"]


@pytest.mark.parametrize("fixture", ["wi_result", "mesi_result"])
def test_pristine_graph_has_no_errors(fixture, request):
    findings, graph = request.getfixturevalue(fixture)
    assert _errors(findings) == []
    assert graph["counterexamples"] == []
    assert not any(run["truncated"] for run in graph["runs"])


@pytest.mark.parametrize("fixture", ["wi_result", "mesi_result"])
def test_residual_warns_are_all_suppressed_by_the_manifest(
        fixture, request):
    """Every dead-row warning the explorer leaves behind must carry a
    written justification in the shipped suppression manifest."""
    findings, _ = request.getfixturevalue(fixture)
    manifest = load_suppressions(DEFAULT_SUPPRESSIONS)
    for f in _warns(findings):
        assert f.ident in manifest, (
            f"unsuppressed graph warning: {f.ident}: {f.detail}")


@pytest.mark.parametrize("fixture, states", [("wi_result", 22_398),
                                             ("mesi_result", 12_696)])
def test_graph_state_counts_are_pinned(fixture, states, request):
    """The explored product graph has exactly the committed size."""
    _, graph = request.getfixturevalue(fixture)
    assert sum(run["states"] for run in graph["runs"]) == states


def test_full_state_and_row_coverage_on_wi(wi_result):
    """Modulo the manifest's defensive rows, exploration visits every
    state on both sides."""
    _, graph = wi_result
    spec = get_spec("wi")
    for side in spec.sides:
        visited = set(graph["coverage"][side.name]["states_visited"])
        assert visited == set(side.states)


def test_mutated_wi_yields_staleness_counterexample(mutated_wi_result):
    findings, graph = mutated_wi_result
    errors = _errors(findings)
    assert errors, "wi-skip-invalidation escaped the explorer"
    expect = SPEC_MUTATIONS["wi-skip-invalidation"].expect
    kinds = {f.ident.split("/")[1][len("graph-"):] for f in errors}
    assert kinds & set(expect)
    assert graph["counterexamples"]


def test_counterexample_paths_carry_file_line_attribution(
        mutated_wi_result):
    """Each counterexample step names the table row that fired, down to
    the file:line of its definition, and the whole report is JSON."""
    _, graph = mutated_wi_result
    json.dumps(graph)
    ce = graph["counterexamples"][0]
    assert ce["kind"] and ce["run"] and ce["steps"]
    located = 0
    for step in ce["steps"]:
        for row in step.get("rows", ()):
            assert row["side"] in ("cache", "home")
            assert row["state"] and row["event"]
            if row.get("file"):
                assert row["line"] > 0
                assert row["file"].endswith(".py")
                located += 1
    assert located, "no step row located back to its table source"


def test_truncation_is_reported_not_silent():
    ex = explore_spec(get_spec("wi"), max_states=50)
    assert ex.truncated


def test_unknown_protocol_raises():
    with pytest.raises((KeyError, ValueError)):
        check_spec_graph("dragon")


def test_unknown_mutation_raises():
    with pytest.raises(KeyError):
        apply_spec_mutation(get_spec("wi"), "no-such-mutation")


def test_mutations_target_existing_rows():
    """Every registered mutation changes the spec it claims to target
    (an apply that returns the spec unchanged tests nothing)."""
    for name, mut in SPEC_MUTATIONS.items():
        spec = get_spec(mut.protocol)
        assert apply_spec_mutation(spec, name).dumps() != spec.dumps()
        assert mut.expect
