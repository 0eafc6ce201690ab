"""The three workloads, driven only through ``repro.api`` and ``ExperimentStore``.

Every workload has the same shape.  ``setup`` builds what a user builds before
the work starts (the deployment, or the store) and returns its seconds.
``rep`` runs one *cold* unit -- executed work, timed, on input ``index`` of
the run (:func:`input_seed`; a workload has ``inputs`` of them) -- and then
*warm* passes for ``WARM_SECONDS`` that re-run the same specs against a
store holding their results, each timed on its own.  A rep also checks
every result (the algorithm's own checks, bit-identical warm loads) and
returns a digest of the executed payloads, so two commits can be compared
on any seed.

* ``local_broadcast`` -- Theorem 2 end to end (clustering, labeling, SNS
  sweeps) at n=400, one node per unit area.  Physics is most of the run and
  its work is per listener.
* ``global_broadcast`` -- Theorem 3 SMSBroadcast along a 20-hop strip.  Over
  half a million rounds in short schedule calls, so per-round and per-call
  costs dominate, and wake-up masking is exercised.
* ``sweep`` -- small mixed cells, 12 per input, through ``run_grid`` on a
  process pool with a fresh store; the executor, the supervisor and the
  store do the work, and the warm passes are pure store reads.

The algorithm workloads empty the selector caches before each cold run, so
every run pays the first-use selector builds as a fresh process does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


#: Seconds of warm passes after each cold unit.
WARM_SECONDS = 0.3

#: Sweep cells: cell ``j`` of a run runs algorithm ``j mod 4`` on connected
#: catalog placement ``j mod 5``, so every algorithm and every placement is
#: in each input's mix, and the 24 cells of a run cover every pair.
#: ``hotspots`` and ``uniform`` are left out because their default
#: placements are often disconnected, where global broadcast cannot reach
#: every node.
SWEEP_ALGORITHMS = ("cluster", "local-broadcast", "global-broadcast", "leader-election")
SWEEP_PLACEMENTS = ("strip", "line", "ring", "grid", "ball")
SWEEP_CELLS = 12


@dataclass
class Rep:
    """Measurements of one cold unit and its warm passes."""

    cold_s: float
    cells: int
    rounds: int
    warm_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: Optional[str] = None
    results: List[Any] = field(default_factory=list)
    cached: int = 0
    store_bytes: int = 0
    #: Machine speed around this rep relative to nominal (set by the runner).
    speed: float = 1.0
    #: Index of the rep's inputs (see :func:`input_seed`).
    index: int = 0


def canonical_digest(data: Any) -> str:
    """SHA-256 of ``data`` as canonical JSON."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _fresh_dir(scratch: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))


def _store_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def _view(result: Any) -> Any:
    """What a warm load must reproduce bit for bit."""
    return "failed" if result.failed else result.payload()


def _warm_phase(rep: Rep, one_pass: Callable[[], List[Any]], expected: List[Any], what: str) -> None:
    """Warm passes for ``WARM_SECONDS``; each must serve every cell from the store."""
    deadline = time.perf_counter() + WARM_SECONDS
    while time.perf_counter() < deadline:
        rep.attempted += len(expected)
        started = time.perf_counter()
        try:
            hits = one_pass()
        except Exception:
            _report_failure(f"{what} warm pass")
            rep.failed += len(expected)
            continue
        rep.warm_s.append(time.perf_counter() - started)
        rep.cached += sum(1 for hit in hits if hit.cached)
        rep.failed += sum(
            1 for hit, view in zip(hits, expected) if not hit.cached or _view(hit) != view
        )


def clear_selector_caches() -> None:
    """Forget every lru-cached selector, as a fresh process would start."""
    from repro.core import primitives

    for cached in (
        primitives.sparse_network_schedule,
        primitives.close_pair_selector,
        primitives.cluster_close_pair_selector,
    ):
        cached.cache_clear()


def input_seed(seed: int, index: int) -> int:
    """Seed of input ``index`` of a run with ``--seed seed``.

    Input 0 uses the seed itself.  The other inputs are other placements, so
    a run's rates average over several of them: the 12 sweep cells of one
    seed cost up to 10% more or less than those of another.
    """
    return seed + 1000 * index


class AlgorithmWorkload:
    """One paper algorithm on a seeded deployment per rep, through ``api.run``."""

    def __init__(
        self, name: str, deployment: str, params: Dict[str, Any], algorithm: str, inputs: int
    ) -> None:
        self.name = name
        #: Distinct inputs per run; the runner cycles through them.
        self.inputs = inputs
        self._deployment = deployment
        self._params = params
        self._algorithm = algorithm
        self.seed = 0

    def spec(self, index: int) -> Any:
        """The spec of rep ``index``."""
        from repro import api

        return api.RunSpec(
            deployment=api.DeploymentSpec(
                self._deployment, self._params, seed=input_seed(self.seed, index), backend="dense"
            ),
            algorithm=api.AlgorithmSpec(self._algorithm, preset="fast"),
        )

    def setup(self, seed: int, scratch: Path) -> float:
        """Build rep 0's deployment; returns its build seconds."""
        from repro import api

        self.seed = seed
        started = time.perf_counter()
        network = api.build_deployment(self.spec(0).deployment)
        elapsed = time.perf_counter() - started
        self.network_summary = {"n": network.size, "delta": network.density()}
        return elapsed

    def _digest(self, result: Any) -> str:
        data = result.payload()
        delivered = getattr(result.raw, "delivered", None)
        if delivered is not None:
            data["delivered_pairs"] = sorted(
                [int(sender), int(receiver)]
                for sender, receivers in delivered.items()
                for receiver in receivers
            )
        return canonical_digest(data)

    def rep(self, scratch: Path, index: int) -> Rep:
        from repro import api
        from repro.store import ExperimentStore

        spec = self.spec(index)
        clear_selector_caches()
        started = time.perf_counter()
        try:
            result = api.run(spec)
        except Exception:
            _report_failure(f"{self.name} run")
            return Rep(cold_s=time.perf_counter() - started, cells=1, rounds=0, attempted=1, failed=1,
                       index=index)
        cold_s = time.perf_counter() - started
        digest = self._digest(result)
        # Drop the in-memory result object: kept alive, it would slow the
        # garbage collector during the warm passes and later reps.
        result = dataclasses.replace(result, raw=None)
        rep = Rep(
            cold_s=cold_s,
            cells=1,
            rounds=int(result.rounds["total"]),
            attempted=1,
            failed=0 if result.all_checks_pass() else 1,
            digest=digest,
            results=[result],
            index=index,
        )
        store = ExperimentStore(_fresh_dir(scratch, "store-"))
        store.put_result(result)
        _warm_phase(rep, lambda: [api.run(spec, store=store)], [_view(result)], self.name)
        rep.store_bytes = _store_bytes(store.root)
        return rep


class SweepWorkload:
    """Mixed small cells through ``run_grid`` on a pool, with a fresh store."""

    name = "sweep"
    inputs = 2

    def __init__(self) -> None:
        self.seed = 0
        self.workers = os.cpu_count() or 1

    def specs(self, index: int) -> List[Any]:
        """The cells of input ``index``."""
        from repro import api

        rng = random.Random(input_seed(self.seed, index))
        return [
            api.RunSpec(
                deployment=api.DeploymentSpec(
                    SWEEP_PLACEMENTS[j % len(SWEEP_PLACEMENTS)], seed=rng.randrange(2**31)
                ),
                algorithm=api.AlgorithmSpec(SWEEP_ALGORITHMS[j % len(SWEEP_ALGORITHMS)]),
            )
            for j in range(index * SWEEP_CELLS, (index + 1) * SWEEP_CELLS)
        ]

    def setup(self, seed: int, scratch: Path) -> float:
        """Build rep 0's cells and an empty store; returns the store's build seconds."""
        from repro.store import ExperimentStore

        self.seed = seed
        self.specs(0)
        root = _fresh_dir(scratch, "store-")
        started = time.perf_counter()
        ExperimentStore(root)
        return time.perf_counter() - started

    def rep(self, scratch: Path, index: int) -> Rep:
        from repro import api
        from repro.store import ExperimentStore

        specs = self.specs(index)
        store = ExperimentStore(_fresh_dir(scratch, "store-"))
        started = time.perf_counter()
        try:
            results = api.run_grid(specs, max_workers=self.workers, store=store, on_error="skip")
        except Exception:
            _report_failure("sweep cold pass")
            cells = len(specs)
            return Rep(cold_s=time.perf_counter() - started, cells=cells, rounds=0,
                       attempted=cells, failed=cells, index=index)
        cold_s = time.perf_counter() - started
        executed = [r for r in results if not r.failed]
        cold_views = [_view(r) for r in results]
        rep = Rep(
            cold_s=cold_s,
            cells=len(results),
            rounds=sum(int(r.rounds["total"]) for r in executed),
            attempted=len(results),
            failed=sum(1 for r in results if r.failed or not r.all_checks_pass()),
            digest=canonical_digest(cold_views),
            results=list(results),
            store_bytes=_store_bytes(store.root),
            index=index,
        )
        _warm_phase(
            rep,
            lambda: api.run_grid(specs, max_workers=self.workers, store=store),
            cold_views,
            self.name,
        )
        return rep


def make(name: str):
    """The workload called ``name``."""
    if name == "local_broadcast":
        return AlgorithmWorkload(
            name, "uniform", {"nodes": 400, "area": math.sqrt(400)}, "local-broadcast", inputs=2
        )
    if name == "global_broadcast":
        return AlgorithmWorkload(
            name, "strip", {"hops": 20, "nodes_per_hop": 6}, "global-broadcast", inputs=1
        )
    if name == "sweep":
        return SweepWorkload()
    raise KeyError(name)


NAMES = ("local_broadcast", "global_broadcast", "sweep")
