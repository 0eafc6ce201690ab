"""Tests of the benchmark's tracer, patcher and layer wrappers."""

from __future__ import annotations

import pytest

from perfbench import layers
from perfbench.tracer import Patcher, Span, Tracer, merge
from perfbench.workloads import clear_selector_caches


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_span_nesting_survives_exceptions():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError("inner failure")

    traced_boom = tracer.wrap(boom, "inner")
    with tracer.span("outer"):
        clock.now += 1.0
        with pytest.raises(ValueError):
            traced_boom()
        with tracer.span("after"):
            clock.now += 3.0
    with tracer.span("top"):
        pass

    outer, inner, after, top = tracer.spans
    assert (inner.name, inner.parent, inner.end) == ("inner", 0, 3.0)
    assert after.parent == 0, "a span opened after the exception nests under the outer span"
    assert top.parent == -1, "the stack is empty again once the outer span closed"
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 6.0, "self_s": 1.0}
    assert summary["inner"]["self_s"] == 2.0


def test_close_pops_spans_left_open_inside():
    tracer = Tracer(FakeClock())
    outer = tracer.span("outer")
    outer.__enter__()
    tracer.span("leaked").__enter__()  # never exited
    outer.__exit__(None, None, None)
    with tracer.span("next"):
        pass
    assert tracer.spans[-1].parent == -1
    assert "leaked" not in tracer.summary(), "open spans are not summarised"


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer(FakeClock())
    parent = Span("parent", 0.0, -1)
    parent.end = 10.0
    tracer.spans.append(parent)
    for start, end in [(1.0, 4.0), (3.0, 6.0), (5.0, 5.5), (8.0, 12.0)]:
        child = Span("child", start, 0)
        child.end = end
        tracer.spans.append(child)
    summary = tracer.summary()
    # Children cover [1, 6] and [8, 10] of the parent (the last is clipped).
    assert summary["parent"]["self_s"] == pytest.approx(3.0)
    assert summary["child"]["calls"] == 4
    assert summary["child"]["total_s"] == pytest.approx(3.0 + 3.0 + 0.5 + 4.0)


def test_reentrant_call_of_same_layer_is_counted_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def base(depth):
        clock.now += 1.0
        return depth if depth == 0 else traced(depth - 1)

    traced = tracer.wrap(base, "physics")
    assert traced(2) == 0
    assert tracer.summary()["physics"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}


def test_tracer_in_a_forked_child_starts_afresh():
    tracer = Tracer(FakeClock())
    with tracer.span("parent-side"):
        tracer.count("hits", 3)
        tracer.pid = -1  # as if this process were a fork of the tracer's owner
        with tracer.span("child-side"):
            pass
    assert [span.name for span in tracer.spans] == ["child-side"]
    assert tracer.spans[0].parent == -1
    assert tracer.counters == {}


def test_merge_adds_exports():
    first = {"spans": {"a": {"calls": 1.0, "total_s": 2.0, "self_s": 1.0}}, "counters": {"x": 2.0}}
    second = {"spans": {"a": {"calls": 2.0, "total_s": 1.0, "self_s": 1.0}}, "counters": {"x": 1.0, "y": 5.0}}
    merged = merge([first, second])
    assert merged["spans"]["a"] == {"calls": 3.0, "total_s": 3.0, "self_s": 2.0}
    assert merged["counters"] == {"x": 3.0, "y": 5.0}


def test_patcher_replaces_every_reference_and_restores():
    from repro import api
    from repro.api import executor

    original = executor.run
    patcher = Patcher()
    replaced = patcher.function(original, lambda *a, **k: None)
    assert replaced >= 2, "both repro.api.run and repro.api.executor.run are rebound"
    assert api.run is not original and executor.run is not original
    patcher.restore()
    assert api.run is original and executor.run is original


# --------------------------------------------------------------------- #
# Layer wrappers against the real program (small inputs).
# --------------------------------------------------------------------- #


def _spec(algorithm, kind="strip", seed=3, **params):
    from repro import api

    return api.RunSpec(
        deployment=api.DeploymentSpec(kind, params, seed=seed),
        algorithm=api.AlgorithmSpec(algorithm),
    )


@pytest.fixture
def traced_layers(tmp_path):
    tracer = Tracer()
    patcher = layers.install(tracer, tmp_path)
    try:
        yield tracer
    finally:
        patcher.restore()


def test_install_restores_the_program(tmp_path):
    from repro.core import primitives
    from repro.simulation.engine import SINRSimulator

    before = (primitives.run_sns, SINRSimulator.run_schedule_table)
    layers.install(Tracer(), tmp_path).restore()
    assert (primitives.run_sns, SINRSimulator.run_schedule_table) == before


def test_traced_counters_match_untraced_results(tmp_path):
    from repro import api

    spec = _spec("local-broadcast", kind="uniform", nodes=30, area=2.5)
    untraced = api.run(spec)
    clear_selector_caches()
    tracer = Tracer()
    patcher = layers.install(tracer, tmp_path)
    try:
        traced = api.run(spec)
    finally:
        patcher.restore()
    assert traced.payload() == untraced.payload(), "tracing changes nothing computed"
    counters, summary = tracer.counters, tracer.summary()
    # Every charged round went either through physics or was charged silent.
    assert counters["physics.rounds"] + counters["sim.silent_rounds"] == untraced.rounds["total"]
    assert summary["physics"]["calls"] == summary["sim.table"]["calls"]
    assert summary["core.clustering"]["calls"] == 1
    assert summary["core.labeling"]["calls"] == 1
    assert summary["selectors.lookup"]["calls"] > summary["selectors.build"]["calls"] >= 1
    assert counters["physics.listener_rounds"] >= counters["physics.deliveries"] > 0


def test_store_hits_equal_cells_on_a_warm_pass(traced_layers, tmp_path):
    from repro import api
    from repro.store import ExperimentStore

    specs = [_spec("cluster", seed=s) for s in (1, 2, 3)]
    store = ExperimentStore(tmp_path / "store")
    api.run_grid(specs, parallel=False, store=store)
    assert traced_layers.counters.get("store.hits", 0) == 0
    assert traced_layers.summary()["store.put"]["calls"] == len(specs)
    warm = api.run_grid(specs, parallel=False, store=store)
    assert all(result.cached for result in warm)
    assert traced_layers.counters["store.hits"] == len(specs)
    assert traced_layers.summary()["store.load"]["calls"] == 2 * len(specs)


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="workers inherit the wrappers only when forked",
)
def test_pool_workers_report_their_layers(tmp_path):
    from repro import api

    specs = [_spec("cluster", seed=s) for s in (1, 2)]
    tracer = Tracer()
    patcher = layers.install(tracer, tmp_path)
    try:
        results = api.run_grid(specs, parallel=True, max_workers=2)
    finally:
        patcher.restore()
    workers = layers.collect_workers(tmp_path)
    assert workers["spans"]["api.run"]["calls"] == len(specs)
    assert workers["spans"]["core.clustering"]["calls"] == len(specs)
    rounds = sum(result.rounds["total"] for result in results)
    counters = workers["counters"]
    assert counters["physics.rounds"] + counters["sim.silent_rounds"] == rounds
    assert "physics" not in tracer.summary(), "physics ran in the workers, not here"


def test_digest_mismatch_counts_as_failure(monkeypatch):
    from types import SimpleNamespace

    from perfbench import run

    monkeypatch.setattr(run, "_pins", lambda: {"w": {"7": ["first", "second"]}})
    good = [SimpleNamespace(index=0, digest="first"), SimpleNamespace(index=1, digest="second")]
    assert run._check("w", 7, good)["digest_mismatches"] == 0
    swapped = [SimpleNamespace(index=0, digest="second"), SimpleNamespace(index=1, digest="first")]
    assert run._check("w", 7, swapped)["digest_mismatches"] == 2
    unpinned = [SimpleNamespace(index=2, digest="third"), SimpleNamespace(index=0, digest=None)]
    assert run._check("w", 7, unpinned)["digest_mismatches"] == 1, "a rep that failed has no digest"
    assert run._check("w", 8, [SimpleNamespace(index=0, digest="any")])["digest_mismatches"] == 0
