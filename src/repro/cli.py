"""Command-line interface: run the paper's algorithms from a shell.

Every subcommand is a thin builder of a declarative
:class:`repro.api.RunSpec`: flags are translated into a spec, the spec is
executed by :func:`repro.api.run` (or :func:`repro.api.run_many` for
multi-seed ensembles) and the result is printed as a short report, e.g.::

    repro-sim cluster --deployment hotspots --nodes 48 --seed 7
    repro-sim local-broadcast --deployment uniform --nodes 40 --seeds 0,1,2,3
    repro-sim global-broadcast --deployment strip --hops 6
    repro-sim leader-election --deployment ring --nodes 30
    repro-sim cluster --deployment uniform --nodes 2000 --area 12 --backend lazy
    repro-sim dynamic --mobility waypoint --epochs 8 --crash-prob 0.02
    repro-sim gadget --delta 12
    repro-sim list
    repro-sim run --spec myrun.json --seeds 0,1,2,3
    repro-sim run --spec myrun.json --store results-store --seeds 0,1,2,3
    repro-sim store list --store results-store

(or ``python -m repro.cli ...``).  Valid ``--deployment``, ``--preset`` and
``--backend`` values come straight from the :mod:`repro.api` registries
(``repro-sim list`` prints them), so a plugin that registers a new scenario
is immediately drivable from the shell.  ``--dump-spec`` prints the spec a
command would run as JSON instead of executing it; ``repro-sim run``
executes such a JSON artifact.  All deployment/algorithm dispatch lives in
:mod:`repro.api` -- this module only translates flags.

``--store PATH`` on any run-style subcommand enables the content-addressed
result cache (:mod:`repro.store`): cached runs are loaded instead of
executed (``--cache refresh`` recomputes, ``--cache off`` ignores the
store), and ``repro-sim store list|show|verify|gc`` inspects and maintains
a store.  ``REPRO_STORE`` in the environment supplies the default path.

``repro-sim queue submit|worker|status|resume`` shards a sweep across
worker processes (or hosts sharing the store's filesystem) through the
store-backed work queue of :mod:`repro.distributed`: ``submit`` compiles a
declarative sweep file (``--dry-run`` prints the expanded grid), ``worker``
drains cells, ``status`` shows progress and leases, and ``resume`` finishes
an interrupted grid and merges the collection.

Multi-seed ``repro-sim run`` accepts the executor's per-cell failure
policy: ``--timeout SECONDS`` cancels hung cells, ``--retries N`` retries
crashed/failed cells with backoff, and ``--on-error skip|retry``
quarantines exhausted cells instead of aborting the ensemble.  Quarantined
seeds are summarized on stderr and exit the process with status 3 (status
1 remains "a correctness check failed", 2 "usage or store error").
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, Optional, Sequence

from . import api
from .api import AlgorithmSpec, DeploymentSpec, DynamicsSpec, MobilitySpec, RunSpec
from .sinr.backends.spatial import _validate_round_batch


#: Flag -> builder-parameter translation per deployment kind.  This is pure
#: argparse plumbing; the builders themselves live in the DEPLOYMENTS registry.
_DEPLOYMENT_FLAGS = {
    "uniform": lambda args: {"nodes": args.nodes, "area": args.area},
    "hotspots": lambda args: {"nodes": args.nodes, "hotspots": args.hotspots},
    "strip": lambda args: {"hops": args.hops, "nodes_per_hop": args.nodes_per_hop},
    "line": lambda args: {"nodes": args.nodes},
    "ring": lambda args: {"nodes": args.nodes, "clusters": args.clusters},
    "grid": lambda args: {"rows": args.rows, "cols": args.cols},
    "ball": lambda args: {"nodes": args.nodes},
}


def _parse_round_batch(value: str) -> object:
    """argparse type for ``--round-batch``: the spatial backend's own rule."""
    try:
        value = int(value)
    except ValueError:
        pass  # "auto", or garbage the rule rejects
    try:
        return _validate_round_batch(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _deployment_spec(args: argparse.Namespace) -> DeploymentSpec:
    params = _DEPLOYMENT_FLAGS[args.deployment](args)
    backend_params: Dict[str, Any] = {}
    round_batch = getattr(args, "round_batch", None)
    if round_batch is not None:
        if args.backend != "spatial":
            raise SystemExit("--round-batch only applies to --backend spatial")
        backend_params["round_batch"] = round_batch
    return DeploymentSpec(
        args.deployment,
        params,
        seed=args.seed,
        backend=args.backend,
        backend_params=backend_params,
    )


def _run_spec(args: argparse.Namespace, algorithm: str, params: Optional[Dict[str, Any]] = None) -> RunSpec:
    return RunSpec(
        deployment=_deployment_spec(args),
        algorithm=AlgorithmSpec(algorithm, preset=args.preset, params=params),
    )


def _add_network_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deployment",
        choices=sorted(_DEPLOYMENT_FLAGS),
        default="uniform",
        help="deployment generator to use (see 'repro-sim list')",
    )
    parser.add_argument("--nodes", type=int, default=40, help="number of nodes (uniform/hotspots/line/ring/ball)")
    parser.add_argument("--area", type=float, default=3.0, help="side of the square area (uniform)")
    parser.add_argument("--hotspots", type=int, default=4, help="number of hotspots (hotspots)")
    parser.add_argument("--hops", type=int, default=5, help="number of hops (strip)")
    parser.add_argument("--nodes-per-hop", type=int, default=4, help="nodes per hop (strip)")
    parser.add_argument("--clusters", type=int, default=5, help="number of clusters (ring)")
    parser.add_argument("--rows", type=int, default=6, help="grid rows (grid)")
    parser.add_argument("--cols", type=int, default=6, help="grid columns (grid)")
    parser.add_argument("--seed", type=int, default=0, help="deployment seed")
    parser.add_argument(
        "--preset",
        choices=api.CONFIG_PRESETS.names(),
        default="fast",
        help="algorithm constants preset",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(api.BACKENDS),
        default="dense",
        help="physics backend: dense (O(n^2) gain matrix), lazy (O(n) memory) "
        "or spatial (grid-indexed, for large n)",
    )
    parser.add_argument(
        "--round-batch",
        type=_parse_round_batch,
        default=None,
        metavar="N|auto",
        help="spatial backend only: fuse N consecutive schedule rounds per "
        "evaluation ('auto' sizes batches adaptively; results are identical "
        "for every value)",
    )
    parser.add_argument(
        "--dump-spec",
        action="store_true",
        help="print the RunSpec JSON this command would execute, and exit",
    )


def _maybe_dump(args: argparse.Namespace, spec: RunSpec) -> bool:
    if getattr(args, "dump_spec", False):
        print(spec.to_json())
        return True
    return False


def _add_store_path_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=os.environ.get("REPRO_STORE"),
        metavar="PATH",
        help="the content-addressed result store at PATH "
        "(default: $REPRO_STORE if set)",
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    _add_store_path_argument(parser)
    parser.add_argument(
        "--cache",
        choices=("reuse", "refresh", "off"),
        default="reuse",
        help="with --store: reuse cached results (default), recompute and "
        "overwrite (refresh), or ignore the store (off)",
    )


def _store_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """``store=``/``cache=`` keyword arguments for the api entry points."""
    if getattr(args, "store", None):
        return {"store": args.store, "cache": args.cache}
    return {}


def _cmd_cluster(args: argparse.Namespace) -> int:
    spec = _run_spec(args, "cluster")
    if _maybe_dump(args, spec):
        return 0
    result = api.run(spec, **_store_kwargs(args))
    print(result.details["network"])
    print(f"clusters: {int(result.metrics['clusters'])}")
    print(f"rounds: {result.rounds['total']}")
    print(f"max cluster radius: {result.metrics['max_cluster_radius']:.2f}")
    print(f"max clusters per unit ball: {int(result.metrics['max_clusters_per_unit_ball'])}")
    print(f"valid clustering: {result.checks['valid_clustering']}")
    return 0 if result.checks["valid_clustering"] else 1


def _cmd_local_broadcast(args: argparse.Namespace) -> int:
    spec = _run_spec(args, "local-broadcast")
    if _maybe_dump(args, spec):
        return 0
    result = api.run(spec, **_store_kwargs(args))
    print(result.details["network"])
    print(f"rounds: {result.rounds['total']}")
    print(f"  clustering:   {result.rounds['clustering']}")
    print(f"  labeling:     {result.rounds['labeling']}")
    print(f"  transmission: {result.rounds['transmission']}")
    print(f"completed: {result.checks['completed']}")
    return 0 if result.checks["completed"] else 1


def _cmd_global_broadcast(args: argparse.Namespace) -> int:
    params: Dict[str, Any] = {}
    if args.source is not None:
        params["source"] = args.source
    spec = _run_spec(args, "global-broadcast", params)
    if _maybe_dump(args, spec):
        return 0
    result = api.run(spec, **_store_kwargs(args))
    print(result.details["network"])
    print(f"source: {result.details['source']}")
    print(f"phases: {int(result.metrics['phases'])}")
    print(f"rounds: {result.rounds['total']}")
    print(f"reached all nodes: {result.checks['reached_all']}")
    for phase in result.details["phases"]:
        print(
            f"  phase {phase['index']}: broadcasters={phase['broadcasters']} "
            f"newly_awakened={phase['newly_awakened']} rounds={phase['rounds_used']}"
        )
    return 0 if result.checks["reached_all"] else 1


def _cmd_leader_election(args: argparse.Namespace) -> int:
    spec = _run_spec(args, "leader-election")
    if _maybe_dump(args, spec):
        return 0
    result = api.run(spec, **_store_kwargs(args))
    print(result.details["network"])
    print(f"leader: {result.details['leader']}")
    print(f"candidates: {result.details['candidates']}")
    print(f"probes: {int(result.metrics['probes'])}")
    print(f"rounds: {result.rounds['total']}")
    return 0


def _dynamic_spec(args: argparse.Namespace) -> RunSpec:
    mobility_params: Dict[str, Any] = {}
    if args.mobility != "static":
        mobility_params["fraction"] = args.move_fraction
    events: Dict[str, Any] = {}
    if args.crash_prob > 0:
        events["crash_prob"] = args.crash_prob
    if args.join_prob > 0:
        events["join_prob"] = args.join_prob
    if args.sleep_prob > 0:
        events["sleep_prob"] = args.sleep_prob
    return RunSpec(
        deployment=_deployment_spec(args),
        algorithm=AlgorithmSpec(args.algorithm, preset=args.preset),
        dynamics=DynamicsSpec(
            mobility=MobilitySpec(args.mobility, mobility_params),
            epochs=args.epochs,
            events=events,
            seed=args.dynamics_seed,
        ),
    )


def _run_and_report_dynamic(
    spec: RunSpec, output: Optional[str], store_kwargs: Optional[Dict[str, Any]] = None
) -> int:
    trajectory = api.run_dynamic(spec, **(store_kwargs or {}))
    print(trajectory.table().render())
    summary = trajectory.summary()
    rounds = summary["rounds"].get("total", {})
    population = summary["population"]
    events = summary["events"]
    print(
        f"epochs: {summary['epochs']}  rounds min/mean/max: "
        f"{rounds.get('min')}/{rounds.get('mean'):.1f}/{rounds.get('max')}"
    )
    print(
        f"population min/final/max: "
        f"{population['min']}/{population['final']}/{population['max']}"
    )
    print(
        "events: "
        + " ".join(f"{key}={events[key]}" for key in ("moved", "crashed", "joined", "slept", "woke"))
    )
    print(f"all checks pass: {summary['all_checks_pass']}")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(trajectory.to_json())
        print(f"wrote {output}")
    return 0 if summary["all_checks_pass"] else 1


def _cmd_dynamic(args: argparse.Namespace) -> int:
    spec = _dynamic_spec(args)
    if _maybe_dump(args, spec):
        return 0
    return _run_and_report_dynamic(spec, args.output, _store_kwargs(args))


def _cmd_gadget(args: argparse.Namespace) -> int:
    spec = RunSpec(
        deployment=DeploymentSpec("none"),
        algorithm=AlgorithmSpec("gadget", preset=args.preset, params={"delta": args.delta}),
    )
    if _maybe_dump(args, spec):
        return 0
    result = api.run(spec)
    print(
        f"gadget with Delta={args.delta}: {int(result.metrics['gadget_size'])} nodes, "
        f"core span {result.metrics['core_span']:.3f}"
    )
    print(f"fact 2.1 (two transmitters silence the right tail): {result.checks['blocking_property']}")
    print(f"fact 2.2 (target hears only a solo v_Delta+1): {result.checks['target_property']}")
    print(f"adversarial delivery round (round-robin strategy): {result.details['delivery_round']}")
    print(f"Omega(Delta) bound satisfied: {result.checks['omega_delta']}")
    return 0 if result.checks["blocking_property"] and result.checks["target_property"] else 1


def _cmd_list(args: argparse.Namespace) -> int:
    print("deployments:")
    for name in api.DEPLOYMENTS.names():
        builder = api.DEPLOYMENTS.get(name)
        doc = (builder.__doc__ or "").strip().splitlines()
        print(f"  {name:20s} {doc[0] if doc else ''}")
    print("algorithms:")
    for name in api.ALGORITHMS.names():
        entry = api.ALGORITHMS.get(name)
        flags = " [standalone]" if entry.standalone else ""
        print(f"  {name:20s} {entry.description}{flags}")
    print("mobility models:")
    for name in api.MOBILITY.names():
        factory = api.MOBILITY.get(name)
        doc = (factory.__doc__ or "").strip().splitlines()
        print(f"  {name:20s} {doc[0] if doc else ''}")
    print("physics backends:")
    for name in sorted(api.BACKENDS):
        doc = (api.BACKENDS[name].__doc__ or "").strip().splitlines()
        print(f"  {name:20s} {doc[0] if doc else ''}")
    print("config presets:")
    for name in api.CONFIG_PRESETS.names():
        print(f"  {name}")
    return 0


def _open_store(args: argparse.Namespace):
    """Open the store named by ``--store``/``REPRO_STORE`` for inspection."""
    from .store import ExperimentStore, StoreError

    path = getattr(args, "store", None)
    if not path:
        print(
            "error: no store given; pass --store PATH or set REPRO_STORE",
            file=sys.stderr,
        )
        return None
    if not os.path.isdir(path):
        print(f"error: no store at {path}", file=sys.stderr)
        return None
    try:
        return ExperimentStore(path)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _store_command(handler):
    """Wrap a store subcommand so StoreError prints cleanly, not as a traceback.

    ``StoreIntegrityError`` messages carry the recovery hint ('repro-sim
    store gc' / cache='refresh'); the inspection commands exist to diagnose
    damaged stores, so a raw traceback here would defeat their purpose.
    """

    def wrapped(args: argparse.Namespace) -> int:
        from .store import StoreError

        try:
            return handler(args)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapped


@_store_command
def _cmd_store_list(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if store is None:
        return 2
    collection = getattr(args, "collection", None)
    if collection:
        try:
            member_keys = set(store.read_manifest(collection).get("keys", []))
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        entries = [m for m in store.entries() if m.get("key") in member_keys]
    else:
        entries = store.entries()
    if not entries:
        suffix = f" in collection {collection!r}" if collection else ""
        print(f"store at {store.root}: empty{suffix}")
        return 0
    limit = getattr(args, "limit", None)
    shown = entries if limit is None else entries[: max(0, limit)]
    scope = f" in collection {collection!r}" if collection else ""
    print(f"store at {store.root}: {len(entries)} entries{scope}")
    for manifest in shown:
        size = sum(meta.get("bytes", 0) for meta in manifest.get("files", {}).values())
        print(
            f"  {manifest['key'][:12]}  {manifest['kind']:6s}  "
            f"{manifest.get('label', '?'):44s}  {size:8,d} B"
        )
    if len(shown) < len(entries):
        print(f"  ... {len(entries) - len(shown)} more (raise --limit to see them)")
    if not collection:
        names = store.manifest_names()
        if names:
            print("collections:")
            for name in names:
                data = store.read_manifest(name)
                print(f"  {name}: {len(data.get('keys', []))} entries")
    return 0


@_store_command
def _cmd_store_verify(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if store is None:
        return 2
    report = store.verify_all()
    print(f"store at {store.root}: {report['checked']} entries checked, {report['ok']} ok")
    if not report["corrupt"]:
        print("integrity: ok")
        return 0
    print(f"corrupt entries: {len(report['corrupt'])}", file=sys.stderr)
    for key, message in sorted(report["corrupt"].items()):
        print(f"  {key[:12]}  {message}", file=sys.stderr)
    print(
        "nothing was deleted; 'repro-sim store gc' removes unreferenced corrupt "
        "entries, cache='refresh' recomputes them",
        file=sys.stderr,
    )
    return 1


@_store_command
def _cmd_store_show(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if store is None:
        return 2
    try:
        key = store.resolve_prefix(args.key)
        manifest = store.manifest(key)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"key:      {manifest['key']}")
    print(f"kind:     {manifest['kind']}")
    print(f"label:    {manifest.get('label', '?')}")
    print(f"package:  {manifest.get('package', '?')} (format {manifest.get('format', '?')})")
    for name, meta in sorted(manifest["files"].items()):
        print(f"file:     {name}  {meta.get('bytes', 0):,} B  sha256={meta.get('sha256', '?')[:16]}...")
    # get() checksums every file on load, so this one call is also the
    # integrity verdict (a second explicit verify would hash everything twice).
    loaded = store.get(key)
    print("integrity: ok")
    if manifest["kind"] == "run":
        for rounds_key, value in sorted(loaded.rounds.items()):
            print(f"rounds[{rounds_key}]: {value}")
        for check_key, value in sorted(loaded.checks.items()):
            print(f"check[{check_key}]: {value}")
    else:
        print(loaded.table().render())
    return 0


@_store_command
def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if store is None:
        return 2
    report = store.gc(prune_unreferenced=args.prune)
    print(f"removed corrupt entries: {len(report['removed_corrupt'])}")
    for key in report["removed_corrupt"]:
        print(f"  {key[:12]}")
    if report["corrupt_kept"]:
        print(f"corrupt but referenced by a collection (kept): {len(report['corrupt_kept'])}")
        for key in report["corrupt_kept"]:
            print(f"  {key[:12]}")
    if args.prune:
        print(f"pruned unreferenced entries: {len(report['pruned_unreferenced'])}")
    print(f"staging debris removed: {report['staging_debris']}")
    if report.get("staging_kept_live"):
        print(f"staging kept (live writers): {report['staging_kept_live']}")
    print(f"entries remaining: {report['remaining']}")
    return 0


def _queue_command(handler):
    """Wrap a queue subcommand so queue/sweep/store errors print cleanly."""

    def wrapped(args: argparse.Namespace) -> int:
        from .distributed import QueueError, SweepFileError
        from .store import StoreError

        try:
            return handler(args)
        except (QueueError, SweepFileError, StoreError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapped


def _spec_grid_line(index: int, key: str, spec: RunSpec) -> str:
    """One human-readable row of an expanded sweep grid."""
    tags = spec.tag_dict()
    tag_text = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
    params = " ".join(f"{k}={v}" for k, v in sorted(spec.deployment.param_dict().items()))
    return (
        f"  [{index:4d}] {key[:12]}  {spec.algorithm.name} on {spec.deployment.kind}"
        f"({params}) seed={spec.seed}" + (f"  {tag_text}" if tag_text else "")
    )


@_queue_command
def _cmd_queue_submit(args: argparse.Namespace) -> int:
    from .distributed import submit_grid
    from .distributed.sweepfile import load_sweep_file
    from .store import hashing

    sweep = load_sweep_file(args.sweep_file)
    name = args.name or sweep.name
    keys = [hashing.spec_key(spec) for spec in sweep.specs]
    print(f"sweep {name!r}: {len(sweep)} cells ({sweep.axis_summary()})")
    if args.dry_run:
        for index, (key, spec) in enumerate(zip(keys, sweep.specs)):
            print(_spec_grid_line(index, key, spec))
        print("dry run: nothing submitted")
        return 0
    path = getattr(args, "store", None)
    if not path:
        print("error: no store given; pass --store PATH or set REPRO_STORE", file=sys.stderr)
        return 2
    from .store import ExperimentStore

    store = ExperimentStore(path)  # submit creates the store when missing
    report = submit_grid(
        store, name, sweep.specs, lease_timeout=args.lease_timeout, force=args.force
    )
    print(report.summary_line())
    print(
        f"start workers with: repro-sim queue worker --store {store.root} --name {report.name}"
    )
    return 0


@_queue_command
def _cmd_queue_worker(args: argparse.Namespace) -> int:
    from .distributed import QueueWorker

    store = _open_store(args)
    if store is None:
        return 2
    worker = QueueWorker(
        store,
        args.name,
        worker_id=args.worker_id,
        retries=args.retries,
        poll_interval=args.poll,
        cell_timeout=args.cell_timeout,
        max_cells=args.max_cells,
    )
    report = worker.work()
    print(report.summary_line())
    return 0 if report.failed == 0 else 3


@_queue_command
def _cmd_queue_status(args: argparse.Namespace) -> int:
    from .distributed import queue_status

    store = _open_store(args)
    if store is None:
        return 2
    if getattr(args, "json", False):
        import json as _json

        # Machine-readable twin of the text report below; the service's
        # /stats endpoint serves the same queue_status() snapshot, so
        # monitors can consume either interchangeably.
        if args.name:
            snapshot: Dict[str, Any] = queue_status(store, args.name)
        else:
            snapshot = {"queues": queue_status(store)}
        snapshot["store"] = str(store.root)
        print(_json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    if not args.name:
        snapshot = queue_status(store)
        if not snapshot:
            print(f"store at {store.root}: no work queues")
            return 0
        for queue_name, counts in sorted(snapshot.items()):
            print(
                f"  {queue_name}: {counts['done']}/{counts['total']} done, "
                f"{counts['leased']} leased, {counts['pending']} pending, "
                f"{counts['failed']} failed"
            )
        return 0
    status = queue_status(store, args.name)
    counts = status["counts"]
    print(
        f"queue {status['name']!r}: {counts['done']}/{counts['total']} done, "
        f"{counts['leased']} leased ({counts['stale']} stale), "
        f"{counts['pending']} pending, {counts['failed']} failed"
    )
    for key, lease in sorted(status["leases"].items()):
        state = "STALE" if lease["stale"] else "live"
        print(
            f"  lease {key[:12]}  {lease.get('worker', '?')} "
            f"(pid {lease.get('pid', '?')} on {lease.get('host', '?')}, "
            f"beat {lease['age']:.1f}s ago, attempt {lease.get('attempts', '?')}) [{state}]"
        )
    for line in status["failures"]:
        print(f"  failed: {line}", file=sys.stderr)
    print(f"complete: {status['complete']}")
    return 0


@_queue_command
def _cmd_queue_resume(args: argparse.Namespace) -> int:
    from .distributed import WorkQueue, merge_collection, spawn_local_workers, wait_for_completion

    store = _open_store(args)
    if store is None:
        return 2
    queue = WorkQueue(store, args.name)
    if args.retry_failed:
        cleared = queue.requeue_failed()
        if cleared:
            print(f"requeued {cleared} quarantined cell(s)")
    counts = queue.counts()
    remaining = counts["pending"] + counts["leased"] + counts["stale"]
    if remaining:
        workers = spawn_local_workers(store.root, args.name, args.workers) if args.workers else []
        print(f"{remaining} unsettled cell(s); {len(workers)} local worker(s) started")
        wait_for_completion(
            store, args.name, timeout=args.timeout,
            workers=workers or None, respawn=args.workers,
        )
    results = merge_collection(store, args.name, collection=args.collection)
    failed = [r for r in results if getattr(r, "failed", False)]
    collection = args.collection or f"queue-{args.name}"
    print(f"merged {len(results)} cell(s) into collection {collection!r}")
    if failed:
        print(f"quarantined cells: {len(failed)}", file=sys.stderr)
        for failure in failed:
            print(f"  {failure.summary_line()}", file=sys.stderr)
        return 3
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ServiceConfig, SimulationService

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store=args.store or None,
        cache=args.cache,
        max_workers=args.workers,
        queue_limit=args.queue_limit,
        timeout=args.timeout,
        retries=args.retries,
        max_sessions=args.max_sessions,
    )

    async def serve() -> None:
        service = SimulationService(config)
        await service.start()
        store_note = f"store {args.store}" if args.store else "no store (nothing persisted)"
        print(f"simulation service listening on http://{args.host}:{service.port} ({store_note})")
        print("endpoints: /health /stats /run /validate /sessions  -- Ctrl-C to stop")
        try:
            await asyncio.Event().wait()  # serve until interrupted
        finally:
            await service.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def _parse_seeds(text: str) -> list:
    # Shared with the sweep-file 'seeds' field: comma/space lists of
    # integers and start:stop[:step] ranges, e.g. "0,1,2", "0:32", "0:64:2".
    from .distributed.sweepfile import parse_seed_spec

    return parse_seed_spec(text)


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = RunSpec.from_json(handle.read())
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    if spec.dynamics is not None:
        # Dynamic scenarios run their epoch loop, not the static executor.
        if seeds and len(seeds) > 1:
            print("error: a dynamic spec runs one trajectory; pass at most one seed", file=sys.stderr)
            return 2
        if seeds:
            spec = spec.with_seed(seeds[0])
        return _run_and_report_dynamic(spec, args.output, _store_kwargs(args))
    if seeds and len(seeds) > 1:
        runset = api.run_many(
            spec, seeds=seeds, parallel=not args.serial,
            timeout=args.timeout, retries=args.retries, on_error=args.on_error,
            **_store_kwargs(args),
        )
        if runset.results:
            print(runset.table().render())
            summary = runset.summary()
            rounds = summary["rounds"].get("total", {})
            print(
                f"seeds: {len(runset)}  rounds min/mean/max: "
                f"{rounds.get('min')}/{rounds.get('mean'):.1f}/{rounds.get('max')}"
            )
        print(f"all checks pass: {runset.all_checks_pass()}")
        if runset.failures:
            print(f"quarantined seeds: {len(runset.failures)}", file=sys.stderr)
            for failure in runset.failures:
                print(f"  {failure.summary_line()}", file=sys.stderr)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(runset.to_json())
            print(f"wrote {args.output}")
        if runset.failures:
            return 3
        return 0 if runset.all_checks_pass() else 1
    if seeds:
        spec = spec.with_seed(seeds[0])
    result = api.run(spec, **_store_kwargs(args))
    if result.cached:
        print("(loaded from store)")
    if "network" in result.details:
        print(result.details["network"])
    for key, value in sorted(result.rounds.items()):
        print(f"rounds[{key}]: {value}")
    for key, value in sorted(result.checks.items()):
        print(f"check[{key}]: {value}")
    if args.output:
        import json as _json

        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(_json.dumps(result.to_dict(), indent=2, sort_keys=True))
        print(f"wrote {args.output}")
    return 0 if result.all_checks_pass() else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and documentation tools)."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Run the deterministic SINR clustering / broadcast algorithms on the simulator.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cluster = subparsers.add_parser("cluster", help="build a 1-clustering (Algorithm 6)")
    _add_network_arguments(cluster)
    _add_store_arguments(cluster)
    cluster.set_defaults(handler=_cmd_cluster)

    local = subparsers.add_parser("local-broadcast", help="run local broadcast (Algorithm 7)")
    _add_network_arguments(local)
    _add_store_arguments(local)
    local.set_defaults(handler=_cmd_local_broadcast)

    global_ = subparsers.add_parser("global-broadcast", help="run global broadcast (Algorithm 8)")
    _add_network_arguments(global_)
    _add_store_arguments(global_)
    global_.add_argument("--source", type=int, default=None, help="source node ID (default: first node)")
    global_.set_defaults(handler=_cmd_global_broadcast)

    leader = subparsers.add_parser("leader-election", help="elect a leader (Theorem 5)")
    _add_network_arguments(leader)
    _add_store_arguments(leader)
    leader.set_defaults(handler=_cmd_leader_election)

    dynamic = subparsers.add_parser(
        "dynamic", help="run an algorithm across epochs of a time-varying network"
    )
    _add_network_arguments(dynamic)
    dynamic.add_argument(
        "--algorithm",
        choices=[name for name in api.ALGORITHMS.names() if not api.ALGORITHMS.get(name).standalone],
        default="cluster",
        help="algorithm re-run on every epoch",
    )
    dynamic.add_argument(
        "--mobility",
        choices=api.MOBILITY.names(),
        default="waypoint",
        help="mobility model advancing positions each epoch (see 'repro-sim list')",
    )
    dynamic.add_argument("--epochs", type=int, default=6, help="number of epochs to simulate")
    dynamic.add_argument(
        "--move-fraction",
        type=float,
        default=1.0,
        help="fraction of nodes moved per epoch (non-static mobility models)",
    )
    dynamic.add_argument("--crash-prob", type=float, default=0.0, help="per-node crash probability per epoch")
    dynamic.add_argument("--join-prob", type=float, default=0.0, help="expected joins per node per epoch")
    dynamic.add_argument(
        "--sleep-prob", type=float, default=0.0, help="per-node duty-cycle sleep probability per epoch"
    )
    dynamic.add_argument(
        "--dynamics-seed", type=int, default=0, help="seed of the mobility/churn process (independent of --seed)"
    )
    dynamic.add_argument("--output", default=None, help="write the EpochSet JSON to this path")
    _add_store_arguments(dynamic)
    dynamic.set_defaults(handler=_cmd_dynamic)

    gadget = subparsers.add_parser("gadget", help="inspect the lower-bound gadget (Theorem 6)")
    gadget.add_argument("--delta", type=int, default=8, help="gadget degree parameter Delta")
    gadget.add_argument(
        "--preset",
        choices=api.CONFIG_PRESETS.names(),
        default="fast",
        help="algorithm constants preset",
    )
    gadget.add_argument("--dump-spec", action="store_true", help="print the RunSpec JSON and exit")
    gadget.set_defaults(handler=_cmd_gadget)

    list_ = subparsers.add_parser(
        "list", help="list registered deployments, algorithms, backends and presets"
    )
    list_.set_defaults(handler=_cmd_list)

    run_ = subparsers.add_parser("run", help="execute a RunSpec JSON artifact")
    run_.add_argument("--spec", required=True, help="path to a RunSpec JSON file")
    run_.add_argument(
        "--seeds", default=None, help="comma-separated seeds; more than one runs a parallel ensemble"
    )
    run_.add_argument("--serial", action="store_true", help="disable the process-pool fan-out")
    run_.add_argument("--output", default=None, help="write the result JSON to this path")
    run_.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock timeout; a hung cell is cancelled and its "
        "worker recycled (parallel ensembles only)",
    )
    run_.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-run a failed/crashed/timed-out cell up to N times with backoff",
    )
    run_.add_argument(
        "--on-error",
        choices=api.ON_ERROR_POLICIES,
        default="raise",
        help="after retries are exhausted: abort the ensemble (raise, default) "
        "or quarantine the cell and keep going (skip = no retries, retry)",
    )
    _add_store_arguments(run_)
    run_.set_defaults(handler=_cmd_run)

    store_ = subparsers.add_parser(
        "store", help="inspect and maintain a content-addressed result store"
    )
    store_sub = store_.add_subparsers(dest="store_command", required=True)

    store_list = store_sub.add_parser("list", help="list stored entries and collections")
    store_list.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="print at most N entries (oldest first; the total is always shown)",
    )
    store_list.add_argument(
        "--collection", default=None, metavar="NAME",
        help="only list entries referenced by the named collection manifest",
    )
    _add_store_path_argument(store_list)
    store_list.set_defaults(handler=_cmd_store_list)

    store_verify = store_sub.add_parser(
        "verify", help="re-check every entry's checksums; report (never delete) corruption"
    )
    _add_store_path_argument(store_verify)
    store_verify.set_defaults(handler=_cmd_store_verify)

    store_show = store_sub.add_parser("show", help="verify and print one stored entry")
    store_show.add_argument("key", help="entry key (any unambiguous prefix)")
    _add_store_path_argument(store_show)
    store_show.set_defaults(handler=_cmd_store_show)

    store_gc = store_sub.add_parser(
        "gc", help="remove corrupt/staging debris (and optionally unreferenced entries)"
    )
    store_gc.add_argument(
        "--prune",
        action="store_true",
        help="also delete healthy entries not referenced by any collection manifest",
    )
    _add_store_path_argument(store_gc)
    store_gc.set_defaults(handler=_cmd_store_gc)

    queue_ = subparsers.add_parser(
        "queue", help="distributed sweep execution: a store-backed work queue"
    )
    queue_sub = queue_.add_subparsers(dest="queue_command", required=True)

    queue_submit = queue_sub.add_parser(
        "submit", help="compile a sweep file and submit its grid as a work queue"
    )
    queue_submit.add_argument(
        "--sweep-file", required=True, metavar="PATH",
        help="declarative sweep file (.yaml/.yml/.json) describing the grid",
    )
    queue_submit.add_argument(
        "--name", default=None,
        help="queue name (default: the sweep file's 'name' field, else its stem)",
    )
    queue_submit.add_argument(
        "--dry-run", action="store_true",
        help="print the fully expanded spec grid and submit nothing",
    )
    queue_submit.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SECONDS",
        help="heartbeat age after which a worker's lease is considered stale "
        "and its cell reclaimed (default 30)",
    )
    queue_submit.add_argument(
        "--force", action="store_true",
        help="replace an existing queue of the same name holding a different grid",
    )
    _add_store_path_argument(queue_submit)
    queue_submit.set_defaults(handler=_cmd_queue_submit)

    queue_worker = queue_sub.add_parser(
        "worker", help="run one worker process against a submitted queue"
    )
    queue_worker.add_argument("--name", required=True, help="the queue to drain")
    queue_worker.add_argument(
        "--worker-id", default=None, help="worker identity in leases (default: host-pid)"
    )
    queue_worker.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="in-lease retries per cell before it is quarantined (default 2)",
    )
    queue_worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="idle poll interval while other workers hold the remaining cells",
    )
    queue_worker.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="stop heartbeating a cell after this long, letting another worker "
        "reclaim it (the distributed analogue of --timeout)",
    )
    queue_worker.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="exit after claiming N cells (default: run until the grid settles)",
    )
    _add_store_path_argument(queue_worker)
    queue_worker.set_defaults(handler=_cmd_queue_worker)

    queue_status_ = queue_sub.add_parser(
        "status", help="progress, live/stale leases and failures of the store's queues"
    )
    queue_status_.add_argument(
        "--name", default=None, help="one queue in detail (default: summarize all)"
    )
    queue_status_.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON instead of the text report (the same "
        "snapshot the service's /stats endpoint serves)",
    )
    _add_store_path_argument(queue_status_)
    queue_status_.set_defaults(handler=_cmd_queue_status)

    queue_resume = queue_sub.add_parser(
        "resume", help="drain an interrupted queue with local workers and merge the collection"
    )
    queue_resume.add_argument("--name", required=True, help="the queue to finish")
    queue_resume.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="local worker processes to start (0 = merge only; default 2)",
    )
    queue_resume.add_argument(
        "--no-retry-failed", dest="retry_failed", action="store_false",
        help="keep quarantined cells quarantined instead of requeueing them",
    )
    queue_resume.add_argument(
        "--collection", default=None,
        help="merged collection manifest name (default: queue-<name>)",
    )
    queue_resume.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up if the grid has not settled after this long",
    )
    _add_store_path_argument(queue_resume)
    queue_resume.set_defaults(handler=_cmd_queue_resume)

    serve = subparsers.add_parser(
        "serve",
        help="run the simulation service: persistent sessions, cached runs, "
        "streamed dynamic trajectories over HTTP",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (default 8642; 0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--cache", choices=("reuse", "refresh", "off"), default="reuse",
        help="store cache policy for service runs (default reuse)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker threads executing simulations (default 4)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        help="admitted requests beyond which the service sheds load with "
        "429 + Retry-After (default 32)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-request execution budget (default: unbounded; "
        "clients may override per request)",
    )
    serve.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="default in-service retries before a request is quarantined "
        "as a FailedResult (default 0)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=64, metavar="N",
        help="capacity of the named-session table (default 64)",
    )
    _add_store_path_argument(serve)
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
