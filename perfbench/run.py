"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload local_broadcast --seed 5 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with tracing off:
it cycles through the workload's inputs, running one cold unit of each per
cycle (each followed by its warm passes), while the next one is expected to
end within ``--seconds``, and reports the work done per second by each
input at the lower quartile of its units' times.  Seconds are *nominal-speed*
seconds: a fixed reference unit of work is timed before the first rep and
after each one, and each rep's wall time is scaled by how fast the machine
ran around it (``perfbench/env.py``).  Wall-clock rates are printed and
recorded too.
With ``--trace 1`` it runs one untraced unit, then one more with every layer
wrapped (see ``perfbench/layers.py``), and reports the per-layer metrics and
the tracing overhead.  The metric names and units come from
``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record FILE``
also appends the full record -- environment header, digests, every sample
-- as one JSON line, which ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Deployment or store builds per run; ``setup_s`` uses their median.
SETUP_REPEATS = 3

#: Seconds of reference units after each rep (see ``env.reference_unit_s``).
REFERENCE_SECONDS = 0.2


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None, help="append the full record here")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _pins() -> Dict[str, Dict[str, List[str]]]:
    return json.loads((ROOT / "perfbench" / "expectations.json").read_text())["pinned_digests"]


def _metric_specs(kind: str) -> List[Dict[str, str]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def _input_seconds(reps: List[Any]) -> Dict[int, Any]:
    """Lower quartile of each input's rep times in nominal seconds, and the rep.

    Other work on a shared machine only adds time, so a low quantile of
    several runs of the same input is a steadier estimate of its cost than
    their mean; the lower quartile rather than the minimum, because the
    machine also has stretches of unusual speed.  Reps that failed are left
    out.
    """
    by_input: Dict[int, List[Any]] = {}
    for rep in reps:
        if rep.digest is not None:
            by_input.setdefault(rep.index, []).append(rep)
    if not by_input:
        by_input = {rep.index: [rep] for rep in reps}
    out = {}
    for index, group in by_input.items():
        seconds = [rep.cold_s * rep.speed for rep in group]
        low = statistics.quantiles(seconds, n=4, method="inclusive")[0] if len(seconds) > 1 else seconds[0]
        out[index] = (low, group[0])
    return out


def _end_to_end(reps: List[Any], setup_s: float) -> Dict[str, float]:
    """Work done per nominal-speed second by each input at its lower quartile.

    Each rep's wall seconds, cold and warm, are scaled by the machine speed
    measured around it (see ``env.reference_unit_s``).  Warm passes, a
    fraction of a millisecond to a few milliseconds each, flip between two
    speeds within one warm phase, so their rate is a ratio of totals over
    every warm phase of the run, not a median that would jump between the
    two.
    """
    inputs = _input_seconds(reps).values()
    cold_s = sum(seconds for seconds, _ in inputs)
    warm_s = sum(sum(rep.warm_s) * rep.speed for rep in reps)
    return {
        "rounds_per_s": sum(rep.rounds for _, rep in inputs) / cold_s,
        "cells_per_s": sum(rep.cells for _, rep in inputs) / cold_s,
        "warm_cells_per_s": (
            sum(rep.cells * len(rep.warm_s) for rep in reps) / warm_s if warm_s else 0.0
        ),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _per_layer(
    workload: Any,
    traced: Any,
    untraced: Any,
    export: Dict[str, Any],
    import_s: float,
    deployment_s: float,
    spans: int,
) -> Dict[str, float]:
    from perfbench.layers import CORE_SPANS, span_cost_s

    rows, counters = export["spans"], export["counters"]

    def calls(name: str) -> float:
        return rows.get(name, {}).get("calls", 0.0)

    def self_s(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0)

    executed = [r for r in traced.results if not r.failed and not r.cached]
    cell_elapsed = sum(r.elapsed for r in executed)
    workers = getattr(workload, "workers", 1)
    listener_rounds = counters.get("physics.listener_rounds", 0.0)
    loads = calls("store.load")
    metrics = {
        "physics.calls": calls("physics"),
        "physics.rounds": counters.get("physics.rounds", 0.0),
        "physics.tx_entries": counters.get("physics.tx_entries", 0.0),
        "physics.listener_rounds": listener_rounds,
        "physics.deliveries": counters.get("physics.deliveries", 0.0),
        "physics.self_s": self_s("physics"),
        "physics.ns_per_listener_round": (
            self_s("physics") * 1e9 / listener_rounds if listener_rounds else 0.0
        ),
        "physics.share": self_s("physics") / cell_elapsed if cell_elapsed else 0.0,
        "sim.table.calls": calls("sim.table"),
        "sim.table.self_s": self_s("sim.table"),
        "sim.silent_rounds": counters.get("sim.silent_rounds", 0.0),
        "sim.runner.calls": calls("sim.runner"),
        "sim.runner.self_s": self_s("sim.runner"),
        "selectors.lookups": calls("selectors.lookup"),
        "selectors.builds": calls("selectors.build"),
        "selectors.build_s": rows.get("selectors.build", {}).get("total_s", 0.0),
    }
    for span in CORE_SPANS:
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.self_s"] = self_s(span)
    for phase in ("clustering", "labeling", "transmission", "total"):
        metrics[f"rounds.{phase}"] = float(sum(r.rounds.get(phase, 0) for r in executed))
    metrics.update(
        {
            "setup.import_s": import_s,
            "setup.deployment_s": deployment_s,
            "api.cells_run": float(len(executed)),
            "api.cells_cached": float(traced.cached),
            "api.cell_elapsed_s": cell_elapsed,
            "api.worker_busy_ratio": cell_elapsed / (workers * traced.cold_s),
            "api.overhead_ms_per_cell": (
                1000.0 * (workers * traced.cold_s - cell_elapsed) / traced.cells
            ),
            "api.failed_cells": float(sum(1 for r in traced.results if r.failed)),
            "store.loads": loads,
            "store.load_s": self_s("store.load"),
            "store.hits": counters.get("store.hits", 0.0),
            "store.hit_ratio": counters.get("store.hits", 0.0) / loads if loads else 0.0,
            "store.puts": calls("store.put"),
            "store.put_s": self_s("store.put"),
            "store.bytes_written": float(traced.store_bytes),
            "trace.overhead": (traced.cold_s * traced.speed) / (untraced.cold_s * untraced.speed)
            - 1.0,
            "trace.est_overhead": spans * span_cost_s() / traced.cold_s,
            "trace.spans": float(spans),
            "machine.speed": traced.speed,
        }
    )
    return metrics


def _check(workload_name: str, seed: int, reps: List[Any]) -> Dict[str, Any]:
    """Compare each rep's digest with the one pinned for its seed and input.

    An input without a pin must give the same digest on every rep.
    """
    pinned = _pins().get(workload_name, {}).get(str(seed), [])
    seen: Dict[int, str] = {}
    mismatched = 0
    for rep in reps:
        pin = pinned[rep.index] if rep.index < len(pinned) else seen.get(rep.index)
        if rep.digest is None or (pin is not None and rep.digest != pin):
            mismatched += 1
        elif pin is None:
            seen[rep.index] = rep.digest
    return {
        "digests": [rep.digest for rep in reps],
        "pinned": pinned,
        "digest_mismatches": mismatched,
    }


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    import_started = time.perf_counter()
    import repro.api  # noqa: F401  (timed: the program's import is part of set-up)
    import repro.store  # noqa: F401

    import_s = time.perf_counter() - import_started

    from perfbench import env, layers, workloads
    from perfbench.tracer import Tracer, merge

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch_parent = ROOT / ".perfbench"
    scratch_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_parent))
    try:
        workload = workloads.make(args.workload)
        build_s = statistics.median(
            workload.setup(args.seed, scratch) for _ in range(SETUP_REPEATS)
        )
        header = env.header(ROOT, scratch)
        reference = [env.reference_unit_s()]
        setup_s = (import_s + build_s) * env.REFERENCE_UNIT_NOMINAL_S / reference[0]

        def measured_rep(index: int) -> Any:
            rep = workload.rep(scratch, index)
            reference.append(env.reference_unit_s(REFERENCE_SECONDS))
            rep.speed = env.REFERENCE_UNIT_NOMINAL_S / statistics.mean(reference[-2:])
            return rep

        extra: Dict[str, Any] = {"reference_unit_s": reference}
        if args.trace == 0:
            # Cycle through the inputs while the next rep is expected to end
            # within --seconds, and at least once.
            reps: List[Any] = []
            deadline = time.perf_counter() + args.seconds
            while True:
                started = time.perf_counter()
                reps.append(measured_rep(len(reps) % workload.inputs))
                took = time.perf_counter() - started
                if len(reps) >= workload.inputs and time.perf_counter() + took > deadline:
                    break
            metrics = _end_to_end(reps, setup_s)
            kind = "end_to_end"
        else:
            # Both units run rep 0's inputs, so their times compare.
            untraced = measured_rep(0)
            tracer = Tracer()
            worker_dir = scratch / "workers"
            worker_dir.mkdir()
            patcher = layers.install(tracer, worker_dir)
            try:
                traced = workload.rep(scratch, 0)
            finally:
                patcher.restore()
            reference.append(env.reference_unit_s())
            traced.speed = env.REFERENCE_UNIT_NOMINAL_S / statistics.mean(reference[-2:])
            reps = [untraced, traced]
            from_workers = layers.collect_workers(worker_dir)
            export = merge([tracer.export(), from_workers])
            spans = len(tracer.spans) + sum(row["calls"] for row in from_workers["spans"].values())
            metrics = _per_layer(
                workload, traced, untraced, export, import_s, build_s, spans
            )
            kind = "per_layer"
            spans_path = scratch_parent / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps([span.to_dict() for span in tracer.spans]))
            extra["spans_file"] = str(spans_path.relative_to(ROOT))
            extra["layers"] = export

        check = _check(args.workload, args.seed, reps)
        attempted = sum(rep.attempted for rep in reps)
        failed = sum(rep.failed for rep in reps) + check["digest_mismatches"]
        units = {spec["name"]: spec["unit"] for spec in _metric_specs(kind)}
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise RuntimeError(f"metrics not produced: {missing}")
        out = {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "header": header,
            "network": getattr(workload, "network_summary", None),
            "check": check,
            "reps": [
                {"index": rep.index, "cold_s": rep.cold_s, "speed": rep.speed, "cells": rep.cells,
                 "rounds": rep.rounds, "warm_passes": len(rep.warm_s),
                 "warm_s": sum(rep.warm_s),
                 "warm_median_s": statistics.median(rep.warm_s) if rep.warm_s else None,
                 "attempted": rep.attempted, "failed": rep.failed}
                for rep in reps
            ],
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted,
            "metrics": out,
            **extra,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for key, value in header.items():
        print(f"# {key}: {value}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} reps={len(reps)}")
    print(f"# digests={check['digests']}")
    print(f"# pinned={check['pinned']}")
    print(f"# attempted={attempted} failed={failed} failed_ratio={failed / attempted:.6g}")
    wall_s = sum(rep.cold_s for rep in reps)
    print(f"# machine speed per rep: {[round(rep.speed, 3) for rep in reps]}; "
          f"wall rounds/s {sum(rep.rounds for rep in reps) / wall_s:.6g}, "
          f"wall cells/s {sum(rep.cells for rep in reps) / wall_s:.6g}")
    for name, item in out.items():
        print(f"{args.workload:<18} {name:<34} {item['value']:>16.6g} {item['unit']}")
    if args.record is not None:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
