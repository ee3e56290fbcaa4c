"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import pytest

import run
import tracing
import workloads
from csspheres import core, iso


def test_sigma_is_odd_bijection_and_reproducible():
    labels = range(1, 15)
    sigma = workloads.signed_relabelling(7, labels)
    assert sigma == workloads.signed_relabelling(7, labels)
    assert sigma != workloads.signed_relabelling(8, labels)
    assert all(sigma[-v] == -sigma[v] for v in sigma)
    everything = set(labels) | {-v for v in labels}
    assert set(sigma) == everything and set(sigma.values()) == everything


def test_self_time_on_synthetic_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])  # outer [0,10], a [1,3], b [4,6]
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "leaf", None)

    def body():
        leaf()
        leaf()

    outer = tracer.wrap(body, "outer", None)
    outer()
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 10.0, None), ("leaf", 1.0, 3.0, 0), ("leaf", 4.0, 6.0, 0)]
    assert tracing.self_times(tracer.spans) == [6.0, 2.0, 2.0]
    assert tracing.covered(tracer.spans, ["leaf"]) == 4.0
    assert tracing.covered(tracer.spans, ["outer", "leaf"]) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span("p", 0.0, 10.0), tracing.Span("c", 2.0, 5.0, 0), tracing.Span("c", 4.0, 7.0, 0)]
    assert tracing.self_times(spans)[0] == 5.0


def test_install_wraps_every_binding_and_uninstall_restores():
    original, link = core.fh_vectors, core.Complex.link
    assert iso.fh_vectors is original
    patches = tracing.install(tracing.Tracer())
    try:
        assert core.fh_vectors is not original and iso.fh_vectors is core.fh_vectors
        assert core.Complex.link is not link
    finally:
        tracing.uninstall(patches)
    assert core.fh_vectors is original and iso.fh_vectors is original
    assert core.Complex.link is link


def test_tail_level_leaves_ten_samples_beyond():
    for per_pass in (18, 24, 93):
        n = per_pass * run.MIN_PASSES
        level = run.tail_level(per_pass)
        _, beyond = run.nearest_rank(list(range(n)), level)
        assert beyond >= 10
    assert run.nearest_rank([1, 2, 3, 4], 50.0) == (2, 2)


@pytest.fixture
def small_sizes(monkeypatch):
    """Shrink the workloads so that a traced and an untraced pass take seconds."""
    monkeypatch.setattr(workloads, "GAMMA_N", 13)
    monkeypatch.setattr(workloads, "GAMMA_J", (3,))
    monkeypatch.setattr(workloads, "DELTA_I_N", 10)
    monkeypatch.setattr(workloads, "LADDER", ((3, 8), (5, 8)))


@pytest.mark.parametrize("name", ["family_iso", "verify_ladder", "cli_pipeline"])
def test_traced_and_untraced_passes_agree(name, small_sizes, tmp_path):
    setup, run_pass = workloads.WORKLOADS[name]
    inputs = setup(3, str(tmp_path))
    plain, _ = run.timed_pass(run_pass, inputs, True)
    tracer = tracing.Tracer()
    traced, _ = run.timed_pass(run_pass, inputs, True, tracer)
    assert plain.checks and all(ok for _, ok, _ in plain.checks), plain.checks
    assert traced.checks == plain.checks
    layers = tracing.layer_metrics(tracer)
    assert layers["builders.calls"] > 0 and layers["core.faces"] > 0
    if name == "family_iso":
        assert layers["iso.pairs"] == 1 + 3 + 3 and layers["iso.fingerprint_calls"] > 0
    if name == "cli_pipeline":
        assert layers["cli.cmds"] == len(workloads.cli_commands(inputs, inputs["pass_dir"]))
        assert layers["fileio.bytes"] > 0 and layers["shelling.facets"] > 0
