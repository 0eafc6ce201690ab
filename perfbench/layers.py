"""Which public functions of ``repro`` the traced run wraps, layer by layer.

Each layer is named after the module it lives in, and every span name below
is the prefix of the per-layer metrics ``perfbench/run.py`` reports for it:

==================  ==========================================================
span                wrapped call(s)
==================  ==========================================================
``physics``         ``PhysicsBackend.receptions_table`` and every backend
                    override of it (``repro.sinr.backends``)
``sim.table``       ``SINRSimulator.run_schedule_table`` (``repro.simulation``)
``sim.silent``      ``SINRSimulator.run_silent_rounds`` (rounds charged
                    without physics)
``sim.runner``      ``schedule.run_schedule``, ``run_cluster_schedule``,
                    ``run_round_robin``
``selectors.lookup`` ``core.primitives.sns_for``, ``wss_for``, ``wcss_for``
``selectors.build`` the selector constructors those lru-cached lookups call on
                    a miss (``greedy_random_ssf``, ``random_wss``,
                    ``random_wcss``)
``core.*``          ``build_clustering``, ``sparsify``, ``reduce_radius``,
                    ``build_proximity_graph``, ``imperfect_labeling``,
                    ``run_sns``, ``sms_broadcast``
``store.load/put``  ``ExperimentStore.load_result`` / ``put_result``
``api.run``         ``repro.api.run`` (also what pool workers call per cell)
==================  ==========================================================

Pool workers are forked from the traced process and so inherit the wrappers.
After each ``api.run`` a worker writes its layer totals to a file in
``worker_dir`` and forgets them; :func:`collect_workers` adds those files
up.  Under a ``spawn`` start method workers re-import ``repro`` unwrapped
and the worker-side layers read zero.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List

from perfbench.tracer import Patcher, Tracer, merge

#: Spans of the ``core`` phases and subroutines, in call-graph order.
CORE_SPANS = (
    "core.clustering",
    "core.sparsify",
    "core.reduce_radius",
    "core.proximity",
    "core.labeling",
    "core.sns",
    "core.sms_broadcast",
)


def _physics_counts(tracer: Tracer, args: tuple, kwargs: dict, table: Any) -> None:
    backend, tx_indptr, tx_members = args[0], args[1], args[2]
    listeners = args[3] if len(args) > 3 else kwargs.get("listeners")
    rounds = len(tx_indptr) - 1
    tracer.count("physics.rounds", rounds)
    tracer.count("physics.tx_entries", len(tx_members))
    tracer.count(
        "physics.listener_rounds",
        rounds * (backend.size if listeners is None else len(listeners)),
    )
    tracer.count("physics.deliveries", len(table))


def _store_hit(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        tracer.count("store.hits")


def _silent_rounds(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("sim.silent_rounds", args[1] if len(args) > 1 else kwargs["count"])


def install(tracer: Tracer, worker_dir: Path) -> Patcher:
    """Wrap every layer's entry points; returns the patcher that undoes it."""
    from repro.api import executor
    # ``repro.core`` re-exports functions named like some of its modules
    # (``global_broadcast``), so the modules are looked up by full name.
    clustering, global_broadcast, labeling, primitives, proximity, radius_reduction, sparsification = (
        importlib.import_module(f"repro.core.{name}")
        for name in (
            "clustering", "global_broadcast", "labeling", "primitives",
            "proximity", "radius_reduction", "sparsification",
        )
    )
    from repro.selectors import ssf, wcss, wss
    from repro.simulation import schedule
    from repro.simulation.engine import SINRSimulator
    from repro.sinr.backends import BACKENDS
    from repro.sinr.backends.base import PhysicsBackend
    from repro.store import ExperimentStore

    patcher = Patcher()
    parent_pid = os.getpid()
    worker_dir = Path(worker_dir)

    def flush_worker(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        if os.getpid() == parent_pid:
            return
        path = worker_dir / f"worker-{os.getpid()}-{time.perf_counter_ns()}.json"
        path.write_text(json.dumps(tracer.export()))
        tracer.clear()

    def function(fn, name, after=None):
        if patcher.function(fn, tracer.wrap(fn, name, after)) == 0:
            raise RuntimeError(f"no module refers to {fn.__qualname__}; cannot trace {name}")

    backend_classes = {PhysicsBackend, *BACKENDS.values()}
    for cls in backend_classes:
        if "receptions_table" in cls.__dict__:
            original = cls.__dict__["receptions_table"]
            patcher.method(cls, "receptions_table", tracer.wrap(original, "physics", _physics_counts))
    patcher.method(
        SINRSimulator,
        "run_schedule_table",
        tracer.wrap(SINRSimulator.run_schedule_table, "sim.table"),
    )
    patcher.method(
        SINRSimulator,
        "run_silent_rounds",
        tracer.wrap(SINRSimulator.run_silent_rounds, "sim.silent", _silent_rounds),
    )
    for fn in (schedule.run_schedule, schedule.run_cluster_schedule, schedule.run_round_robin):
        function(fn, "sim.runner")
    for fn in (primitives.sns_for, primitives.wss_for, primitives.wcss_for):
        function(fn, "selectors.lookup")
    for fn in (ssf.greedy_random_ssf, wss.random_wss, wcss.random_wcss):
        function(fn, "selectors.build")
    function(clustering.build_clustering, "core.clustering")
    function(sparsification.sparsify, "core.sparsify")
    function(radius_reduction.reduce_radius, "core.reduce_radius")
    function(proximity.build_proximity_graph, "core.proximity")
    function(labeling.imperfect_labeling, "core.labeling")
    function(primitives.run_sns, "core.sns")
    function(global_broadcast.sms_broadcast, "core.sms_broadcast")
    patcher.method(
        ExperimentStore,
        "load_result",
        tracer.wrap(ExperimentStore.load_result, "store.load", _store_hit),
    )
    patcher.method(ExperimentStore, "put_result", tracer.wrap(ExperimentStore.put_result, "store.put"))
    function(executor.run, "api.run", flush_worker)
    return patcher


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds, timed on a no-op with a throwaway tracer."""
    tracer = Tracer()
    noop = tracer.wrap(lambda: None, "noop")
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    traced = time.perf_counter() - started
    bare = lambda: None  # noqa: E731
    started = time.perf_counter()
    for _ in range(calls):
        bare()
    return max(0.0, traced - (time.perf_counter() - started)) / calls


def collect_workers(worker_dir: Path) -> Dict[str, Any]:
    """Add up the layer totals pool workers wrote to ``worker_dir``."""
    exports: List[Dict[str, Any]] = [
        json.loads(path.read_text()) for path in sorted(Path(worker_dir).glob("worker-*.json"))
    ]
    return merge(exports)
