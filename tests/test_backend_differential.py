"""Cross-backend differential harness: every backend, every schedule family.

The contract pinned here is the repo's strongest invariant: for any seeded
deployment and any CSR schedule, the dense, lazy and spatial backends emit
the *same reception events* (receiver, decoded sender, round), with SINR
values matching to tight relative tolerance -- and the spatial backend's
batched pass is **bit-identical** across batch sizes (forced by patching
its auto-sizing constants) and to the concatenation of calls on any round
slices of the schedule, one-round slices included.

Structure:

* a schedule-family zoo (ssf, wss, wcss node stage, TDMA, round-robin
  cycles, random-with-empty-rounds) generating CSR ``(indptr, members)``
  over node indices;
* a backend zoo (dense float64, lazy, spatial at K in {1, 7, 64, auto}
  rounds per batch);
* the matrix test sweeping families x backends x seeds;
* bit-identity and hypothesis properties for the batched pass
  (associativity across arbitrary round splits and one-round slices);
* a golden-digest regression corpus (``golden_reception_digests.json``)
  whose failure message names the first diverging round;
* counter-accounting and listener-cache invalidation unit tests;
* a float32 dense leg (looser tolerance, exact events) and a subprocess
  leg with ``REPRO_NO_NUMBA=1`` proving the NumPy kernels reproduce the
  same event digests.

Regenerate the golden corpus after an *intentional* physics change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_backend_differential.py -k golden -q
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selectors import ssf, wcss, wss
from repro.simulation.engine import SINRSimulator
from repro.simulation.schedule import run_schedule
from repro.sinr import deployment
from repro.sinr.backends import (
    DenseMatrixBackend,
    LazyBlockBackend,
    SpatialGridBackend,
)
from repro.sinr.backends import _kernels, spatial
from repro.sinr.backends.base import COLOCATED_GAIN, DeliveryTable
from repro.sinr.model import NUMERIC_TOLERANCE, SINRParameters

PARAMS = SINRParameters.default()

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_reception_digests.json")

BATCH_SIZES = (1, 7, 64, "auto")


@contextlib.contextmanager
def forced_batch(batch):
    """Force the spatial auto sizing to ``batch`` rounds per batch (``"auto"``: leave it)."""
    with pytest.MonkeyPatch.context() as mp:
        if batch != "auto":
            mp.setattr(spatial, "_MAX_ROUND_BATCH", batch)
            mp.setattr(spatial, "_AUTO_BATCH_TARGET", 1 << 40)
        yield


class BatchedSpatial:
    """A spatial backend whose ``receptions_table`` runs at a forced batch size."""

    def __init__(self, positions, batch):
        self._backend = SpatialGridBackend(positions, PARAMS)
        self._batch = batch

    def receptions_table(self, *args, **kwargs):
        with forced_batch(self._batch):
            return self._backend.receptions_table(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._backend, name)


# --------------------------------------------------------------------- #
# Deployments and schedule families.
# --------------------------------------------------------------------- #


def random_positions(seed: int, n: int, side: float = 4.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, side, size=(n, 2))


def _csr_from_family(family) -> tuple:
    # Selector IDs live in 1..N; backend transmitters are indices 0..n-1.
    return (np.asarray(family.indptr, dtype=np.int64),
            np.asarray(family.members, dtype=np.int64) - 1)


def schedule_csr(family: str, n: int, seed: int) -> tuple:
    """CSR ``(indptr, members)`` over node indices ``0..n-1``."""
    if family == "ssf":
        return _csr_from_family(ssf.prime_residue_ssf(n, min(4, n))._family)
    if family == "wss":
        return _csr_from_family(wss.random_wss(n, min(4, n), seed=seed)._family)
    if family == "wcss":
        cas = wcss.random_wcss(n, min(4, n), 2, seed=seed)
        return _csr_from_family(cas.node_family)
    if family == "tdma":
        # One transmitter per round: the contention-free anchor.
        return (np.arange(n + 1, dtype=np.int64), np.arange(n, dtype=np.int64))
    if family == "round-robin":
        return _csr_from_family(ssf.round_robin_schedule(n).repeated(3)._family)
    if family == "random-empties":
        # Random rounds, ~1 in 4 empty: exercises the empty-round fast path
        # inside batches, not just whole-empty schedules.
        rng = np.random.default_rng(seed)
        members, indptr = [], [0]
        for _ in range(24):
            if rng.random() < 0.25:
                chosen = np.empty(0, dtype=np.int64)
            else:
                chosen = np.flatnonzero(rng.random(n) < 0.35)
            members.append(chosen)
            indptr.append(indptr[-1] + len(chosen))
        return (np.array(indptr, dtype=np.int64),
                np.concatenate(members) if members else np.empty(0, np.int64))
    raise ValueError(f"unknown schedule family {family!r}")


FAMILIES = ("ssf", "wss", "wcss", "tdma", "round-robin", "random-empties")


def backend_zoo(positions: np.ndarray) -> dict:
    positions = np.asarray(positions, dtype=float)
    zoo = {
        "dense": DenseMatrixBackend(positions.copy(), PARAMS),
        "lazy": LazyBlockBackend(positions.copy(), PARAMS),
    }
    for k in BATCH_SIZES:
        zoo[f"spatial-k{k}"] = BatchedSpatial(positions.copy(), k)
    return zoo


def assert_tables_equal(a, b, rel=1e-9):
    """Events exact, SINR to relative tolerance (cross-backend contract)."""
    assert a.num_rounds == b.num_rounds
    assert np.array_equal(a.round_ids, b.round_ids)
    assert np.array_equal(a.receivers, b.receivers)
    assert np.array_equal(a.senders, b.senders)
    np.testing.assert_allclose(a.sinr, b.sinr, rtol=rel)


def assert_tables_bit_identical(a, b):
    """All four arrays equal to the last bit (batched-pass contract)."""
    assert a.num_rounds == b.num_rounds
    assert np.array_equal(a.round_ids, b.round_ids)
    assert np.array_equal(a.receivers, b.receivers)
    assert np.array_equal(a.senders, b.senders)
    assert np.array_equal(a.sinr, b.sinr), (
        "batched spatial pass diverged across batch partitions at the bit level"
    )


# --------------------------------------------------------------------- #
# The matrix: families x backends x seeds.
# --------------------------------------------------------------------- #


class TestCrossBackendMatrix:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_all_backends_agree(self, family, seed):
        n = 26
        positions = random_positions(seed, n)
        indptr, members = schedule_csr(family, n, seed)
        zoo = backend_zoo(positions)
        reference = zoo["dense"].receptions_table(indptr, members)
        for name, backend in zoo.items():
            if name == "dense":
                continue
            assert_tables_equal(reference,
                                backend.receptions_table(indptr, members))

    @pytest.mark.parametrize("family", ["ssf", "random-empties"])
    def test_all_backends_agree_with_restricted_listeners(self, family):
        n = 24
        positions = random_positions(11, n)
        indptr, members = schedule_csr(family, n, 11)
        listeners = np.arange(1, n, 2)
        zoo = backend_zoo(positions)
        reference = zoo["dense"].receptions_table(indptr, members,
                                                  listeners=listeners)
        for name, backend in zoo.items():
            if name == "dense":
                continue
            assert_tables_equal(
                reference,
                backend.receptions_table(indptr, members, listeners=listeners),
            )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_spatial_batched_bit_identical_to_unbatched(self, family):
        n = 30
        positions = random_positions(23, n)
        indptr, members = schedule_csr(family, n, 23)
        base = BatchedSpatial(positions.copy(), 1)
        reference = base.receptions_table(indptr, members)
        for k in (2, 7, 64, "auto"):
            other = BatchedSpatial(positions.copy(), k)
            assert_tables_bit_identical(
                reference, other.receptions_table(indptr, members)
            )


class TestFloat32DenseLeg:
    def test_events_exact_sinr_loose_on_separated_deployment(self):
        # Well-separated grid: no marginal SINR decisions, so float32 gain
        # storage changes values but never the event set.
        xs, ys = np.meshgrid(np.arange(5) * 1.3, np.arange(5) * 1.3)
        positions = np.column_stack([xs.ravel(), ys.ravel()])
        n = len(positions)
        indptr, members = schedule_csr("ssf", n, 0)
        dense32 = DenseMatrixBackend(positions.copy(), PARAMS,
                                     gain_dtype=np.float32)
        a = dense32.receptions_table(indptr, members)
        b = SpatialGridBackend(positions.copy(), PARAMS).receptions_table(indptr, members)
        assert np.array_equal(a.round_ids, b.round_ids)
        assert np.array_equal(a.receivers, b.receivers)
        assert np.array_equal(a.senders, b.senders)
        np.testing.assert_allclose(a.sinr, b.sinr, rtol=1e-5)


# --------------------------------------------------------------------- #
# Batched-pass properties.
# --------------------------------------------------------------------- #


coordinate = st.integers(min_value=0, max_value=24).map(lambda v: v / 6.0)
position = st.tuples(coordinate, coordinate)
positions_strategy = st.lists(position, min_size=2, max_size=16).map(
    lambda pts: np.array(pts, dtype=float)
)


def _random_csr(n: int, seed: int, rounds: int):
    rng = np.random.default_rng(seed)
    members, indptr = [], [0]
    for _ in range(rounds):
        chosen = np.flatnonzero(rng.random(n) < 0.4)
        members.append(chosen)
        indptr.append(indptr[-1] + len(chosen))
    return (np.array(indptr, dtype=np.int64),
            np.concatenate(members) if members else np.empty(0, np.int64))


def table_over_slices(backend, indptr, members, cuts):
    """Concatenated ``receptions_table`` calls on the round slices between ``cuts``."""
    bounds = [0, *sorted(cuts), len(indptr) - 1]
    parts = []
    for a, b in zip(bounds, bounds[1:]):
        lo, hi = int(indptr[a]), int(indptr[b])
        part = backend.receptions_table(indptr[a : b + 1] - lo, members[lo:hi])
        assert part.num_rounds == b - a
        parts.append((part.round_ids + a, part))
    return DeliveryTable(
        num_rounds=len(indptr) - 1,
        round_ids=np.concatenate([r for r, _ in parts]),
        receivers=np.concatenate([p.receivers for _, p in parts]),
        senders=np.concatenate([p.senders for _, p in parts]),
        sinr=np.concatenate([p.sinr for _, p in parts]),
    )


class TestBatchedDriverProperties:
    @given(
        positions=positions_strategy,
        sched_seed=st.integers(0, 500),
        rounds=st.integers(1, 12),
        batch=st.sampled_from([2, 3, 7, 64, "auto"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identity_on_grid_snapped_placements(
        self, positions, sched_seed, rounds, batch
    ):
        """Co-located pairs and cell-boundary coordinates, batched."""
        n = len(positions)
        indptr, members = _random_csr(n, sched_seed, rounds)
        base = BatchedSpatial(positions.copy(), 1)
        other = BatchedSpatial(positions.copy(), batch)
        assert_tables_bit_identical(
            base.receptions_table(indptr, members),
            other.receptions_table(indptr, members),
        )

    @given(
        seed=st.integers(0, 500),
        n=st.integers(2, 20),
        rounds=st.integers(2, 14),
        cuts=st.sets(st.integers(1, 13), max_size=5),
        batch=st.sampled_from([1, 3, 64, "auto"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_batching_is_associative_across_round_splits(
        self, seed, n, rounds, cuts, batch
    ):
        """Splitting a schedule at any round boundaries changes nothing.

        This is the property that makes the batched pass correct by
        construction: batch boundaries are round boundaries, so if split
        runs concatenate to the full run, any batch partition does.  The
        one-round slices are the per-round calls ``receptions()`` makes.
        """
        positions = random_positions(seed, n)
        indptr, members = _random_csr(n, seed + 1, rounds)
        backend = BatchedSpatial(positions, batch)
        full = backend.receptions_table(indptr, members)
        cuts = {c for c in cuts if c < rounds}
        assert_tables_bit_identical(
            full, table_over_slices(backend, indptr, members, cuts)
        )
        assert_tables_bit_identical(
            full, table_over_slices(backend, indptr, members, range(1, rounds))
        )


class TestEdgeCases:
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_all_empty_rounds(self, batch):
        positions = random_positions(2, 10)
        backend = BatchedSpatial(positions, batch)
        indptr = np.zeros(6, dtype=np.int64)
        table = backend.receptions_table(indptr, np.empty(0, dtype=np.int64))
        assert table.num_rounds == 5
        assert len(table) == 0
        info = backend.grid_info()
        assert info["rounds_empty"] == 5
        assert info["rounds_fused"] == 0 and info["batches"] == 0

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_everyone_transmits_nobody_listens(self, batch):
        n = 12
        positions = random_positions(4, n)
        backend = BatchedSpatial(positions, batch)
        indptr = np.array([0, n, 2 * n], dtype=np.int64)
        members = np.tile(np.arange(n, dtype=np.int64), 2)
        table = backend.receptions_table(indptr, members)
        # Half-duplex: every node transmits, so nobody can receive.
        assert len(table) == 0
        # Explicitly empty listener pool behaves the same way.
        table = backend.receptions_table(
            indptr, members, listeners=np.empty(0, dtype=np.int64)
        )
        assert len(table) == 0

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_single_node_network(self, batch):
        positions = np.array([[1.0, 1.0]])
        backend = BatchedSpatial(positions, batch)
        indptr = np.array([0, 1, 1], dtype=np.int64)
        members = np.array([0], dtype=np.int64)
        table = backend.receptions_table(indptr, members)
        assert table.num_rounds == 2
        assert len(table) == 0

    @pytest.mark.parametrize("batch", [1, 7, "auto"])
    def test_single_node_tiles(self, batch):
        # Nodes far apart: every occupied grid tile holds exactly one node,
        # so near/far pruning and the fused join see singleton buckets.
        positions = np.array(
            [[float(5 * i), float(3 * j)] for i in range(4) for j in range(3)]
        )
        n = len(positions)
        indptr, members = schedule_csr("ssf", n, 0)
        dense = DenseMatrixBackend(positions.copy(), PARAMS)
        assert_tables_equal(
            dense.receptions_table(indptr, members),
            BatchedSpatial(positions.copy(), batch).receptions_table(indptr, members),
        )


# --------------------------------------------------------------------- #
# Counters and caches.
# --------------------------------------------------------------------- #


class TestBatchCounters:
    def _counters(self, backend):
        info = backend.grid_info()
        return {k: info[k] for k in (
            "round_batch", "batches", "rounds_fused", "rounds_empty", "join_entries",
        )}

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("family", ["ssf", "random-empties"])
    def test_round_accounting_is_total(self, batch, family):
        n = 22
        positions = random_positions(13, n)
        indptr, members = schedule_csr(family, n, 13)
        backend = BatchedSpatial(positions, batch)
        backend.receptions_table(indptr, members)
        c = self._counters(backend)
        num_rounds = len(indptr) - 1
        assert c["rounds_fused"] + c["rounds_empty"] == num_rounds
        expected = spatial._round_batch(num_rounds, len(members)) if batch == "auto" else batch
        assert c["round_batch"] == expected
        assert 1 <= c["batches"] <= c["rounds_fused"]
        if c["round_batch"] == 1:
            assert c["batches"] == c["rounds_fused"]
        assert c["join_entries"] > 0

    def test_counters_reset_per_run(self):
        n = 18
        positions = random_positions(17, n)
        indptr, members = schedule_csr("ssf", n, 17)
        backend = BatchedSpatial(positions, 7)
        backend.receptions_table(indptr, members)
        first = self._counters(backend)
        backend.receptions_table(indptr, members)
        assert self._counters(backend) == first  # reset, not accumulated
        short_ptr = indptr[:3]
        backend.receptions_table(short_ptr, members[: short_ptr[-1]])
        c = self._counters(backend)
        assert c["rounds_fused"] + c["rounds_empty"] == 2

    def test_auto_batch_reported_in_grid_info(self):
        n = 20
        positions = random_positions(19, n)
        indptr, members = schedule_csr("tdma", n, 19)
        backend = SpatialGridBackend(positions, PARAMS)
        backend.receptions_table(indptr, members)
        info = backend.grid_info()
        assert isinstance(info["round_batch"], int)
        assert info["round_batch"] >= 1
        assert info["kernel_backend"] in ("numpy", "numba")


class TestListenerBucketCache:
    def test_cache_reused_across_rounds_of_one_schedule(self):
        n = 20
        positions = random_positions(29, n)
        indptr, members = _random_csr(n, 29, rounds=8)
        backend = SpatialGridBackend(positions, PARAMS)
        backend.receptions_table(indptr, members)
        cached = backend._listener_cache
        assert cached is not None
        backend.receptions_table(indptr, members)
        assert backend._listener_cache is cached  # same tuple: no rebuild

    def test_cache_invalidated_by_move_nodes(self):
        n = 18
        net = deployment.uniform_random(n, area_side=4.0, seed=31,
                                        backend="spatial")
        backend = net.physics
        indptr, members = _random_csr(n, 31, rounds=6)
        backend.receptions_table(indptr, members)
        version = backend._grid_version
        cached = backend._listener_cache
        assert cached is not None and cached[0] == version

        # Network-level mutation funnels through update_positions and must
        # bump the grid version, orphaning the cached buckets.
        moved = [net.uids[0], net.uids[1]]
        net.move_nodes(moved, [[0.05, 0.05], [3.9, 3.9]])
        assert backend._grid_version > version

        # Fresh results after the move match a cold dense backend exactly.
        dense = DenseMatrixBackend(backend.positions.copy(), PARAMS)
        assert_tables_equal(
            dense.receptions_table(indptr, members),
            backend.receptions_table(indptr, members),
        )
        assert backend._listener_cache[0] == backend._grid_version

    def test_cache_keyed_on_listener_array_contents(self):
        n = 16
        positions = random_positions(37, n)
        backend = SpatialGridBackend(positions, PARAMS)
        indptr, members = _random_csr(n, 37, rounds=4)
        evens = np.arange(0, n, 2)
        odds = np.arange(1, n, 2)
        a = backend.receptions_table(indptr, members, listeners=evens)
        b = backend.receptions_table(indptr, members, listeners=odds)
        dense = DenseMatrixBackend(positions.copy(), PARAMS)
        assert_tables_equal(dense.receptions_table(indptr, members,
                                                   listeners=odds), b)
        assert_tables_equal(dense.receptions_table(indptr, members,
                                                   listeners=evens), a)


# --------------------------------------------------------------------- #
# Golden digests: seeded corpus, failure names the diverging round.
# --------------------------------------------------------------------- #

GOLDEN_SPECS = [
    {"name": "uniform-ssf", "seed": 101, "n": 28, "side": 4.0,
     "family": "ssf"},
    {"name": "uniform-wss", "seed": 102, "n": 28, "side": 4.0,
     "family": "wss"},
    {"name": "dense-ball-wcss", "seed": 103, "n": 24, "side": 1.2,
     "family": "wcss"},
    {"name": "sparse-tdma", "seed": 104, "n": 20, "side": 12.0,
     "family": "tdma"},
    {"name": "uniform-empties", "seed": 105, "n": 26, "side": 3.0,
     "family": "random-empties"},
]


def _event_digests(table):
    """Whole-table and per-round SHA-256 of the *event* columns.

    SINR floats are excluded on purpose: the golden corpus pins the event
    set (which is exact across backends), not last-ulp float layout.
    """
    whole = hashlib.sha256()
    per_round = []
    bounds = np.searchsorted(table.round_ids,
                             np.arange(table.num_rounds + 1))
    for t in range(table.num_rounds):
        lo, hi = int(bounds[t]), int(bounds[t + 1])
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(table.receivers[lo:hi]).tobytes())
        h.update(np.ascontiguousarray(table.senders[lo:hi]).tobytes())
        digest = h.hexdigest()
        per_round.append(digest)
        whole.update(digest.encode())
    return whole.hexdigest(), per_round


def _golden_table(spec, batch):
    positions = random_positions(spec["seed"], spec["n"], spec["side"])
    indptr, members = schedule_csr(spec["family"], spec["n"], spec["seed"])
    return BatchedSpatial(positions, batch).receptions_table(indptr, members)


class TestGoldenDigests:
    def test_corpus_matches(self):
        regen = os.environ.get("REPRO_REGEN_GOLDEN") == "1"
        corpus = {}
        if not regen:
            with open(GOLDEN_PATH) as fh:
                corpus = json.load(fh)
        fresh = {}
        for spec in GOLDEN_SPECS:
            table = _golden_table(spec, batch="auto")
            whole, per_round = _event_digests(table)
            fresh[spec["name"]] = {"table": whole, "rounds": per_round}
            if regen:
                continue
            expected = corpus[spec["name"]]
            if whole != expected["table"]:
                diverged = [
                    t for t, (a, b) in enumerate(
                        zip(per_round, expected["rounds"])
                    ) if a != b
                ]
                first = diverged[0] if diverged else len(expected["rounds"])
                pytest.fail(
                    f"golden digest mismatch for {spec['name']!r}: first "
                    f"diverging round index {first} "
                    f"(diverging rounds: {diverged[:10]})"
                )
        if regen:
            with open(GOLDEN_PATH, "w") as fh:
                json.dump(fresh, fh, indent=2, sort_keys=True)
                fh.write("\n")

    def test_dense_reproduces_corpus(self):
        """The dense backend's in-range path digests to every committed entry."""
        with open(GOLDEN_PATH) as fh:
            corpus = json.load(fh)
        for spec in GOLDEN_SPECS:
            positions = random_positions(spec["seed"], spec["n"], spec["side"])
            indptr, members = schedule_csr(spec["family"], spec["n"], spec["seed"])
            table = DenseMatrixBackend(positions, PARAMS).receptions_table(indptr, members)
            whole, _ = _event_digests(table)
            assert whole == corpus[spec["name"]]["table"], (
                f"dense backend diverges from the corpus on {spec['name']!r}"
            )

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_corpus_batch_invariant(self, batch):
        """Every golden entry digests identically at every batch size."""
        with open(GOLDEN_PATH) as fh:
            corpus = json.load(fh)
        for spec in GOLDEN_SPECS:
            whole, _ = _event_digests(_golden_table(spec, batch))
            assert whole == corpus[spec["name"]]["table"], (
                f"{spec['name']!r} diverges at {batch} rounds per batch"
            )


# --------------------------------------------------------------------- #
# Dense in-range path against the per-round oracle, on the edge cases.
# --------------------------------------------------------------------- #


def oracle_table(backend, indptr, members, listeners=None):
    """``(round, receiver, sender, sinr)`` columns from per-round ``receptions()``."""
    rounds, receivers, senders, sinr = [], [], [], []
    for t in range(len(indptr) - 1):
        tx = members[indptr[t]:indptr[t + 1]]
        for receiver, rec in backend.receptions(tx, listeners=listeners).items():
            rounds.append(t)
            receivers.append(receiver)
            senders.append(rec.sender)
            sinr.append(rec.sinr)
    return (np.array(rounds, dtype=np.int64), np.array(receivers, dtype=np.int64),
            np.array(senders, dtype=np.int64), np.array(sinr, dtype=float))


def assert_dense_matches_oracle(backend, indptr, members, listeners=None, rel=1e-9):
    """Events exact and SINR to ``rel``: the dense path against ``receptions()``."""
    table = backend.receptions_table(indptr, members, listeners=listeners)
    rounds, receivers, senders, sinr = oracle_table(backend, indptr, members, listeners)
    assert table.num_rounds == len(indptr) - 1
    assert np.array_equal(table.round_ids, rounds)
    assert np.array_equal(table.receivers, receivers)
    assert np.array_equal(table.senders, senders)
    if rel is not None:
        np.testing.assert_allclose(table.sinr, sinr, rtol=rel)
    return table


def assert_in_range_is_hears_alone(backend):
    """The cached CSR is exactly ``{(s, j): hears_alone(s, j)}``, sorted."""
    indptr, listeners = backend._in_range_csr()
    n = backend.size
    senders = np.repeat(np.arange(n), np.diff(indptr))
    assert np.all(np.diff(senders * n + listeners) > 0)
    expected = [(s, j) for s in range(n) for j in range(n) if backend.hears_alone(s, j)]
    assert list(zip(senders.tolist(), listeners.tolist())) == expected


class TestDenseAgainstOracle:
    def test_range_boundary_and_one_ulp_either_side(self):
        """Listeners at distance 1, at the tolerance edge, and 1 ulp off each."""
        edge = (PARAMS.power / (PARAMS.noise * (PARAMS.beta - NUMERIC_TOLERANCE))) ** (
            1.0 / PARAMS.alpha
        )
        radii = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                 edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0)]
        # The sender sits at the origin; the listeners either spread over
        # six rays or stack along one axis (nearly co-located).
        angles = np.arange(len(radii)) * (2 * np.pi / len(radii))
        ring = np.column_stack([np.cos(angles), np.sin(angles)]) * np.array(radii)[:, None]
        axis = np.array([[r, 0.0] for r in radii])
        for placement in (ring, axis):
            positions = np.vstack([[0.0, 0.0], placement])
            backend = DenseMatrixBackend(positions, PARAMS)
            assert_in_range_is_hears_alone(backend)
            indptr, members = schedule_csr("tdma", len(positions), 0)
            assert_dense_matches_oracle(backend, indptr, members)
            # The sender alone: exactly the listeners that hear it alone decode.
            table = backend.receptions_table(np.array([0, 1]), np.array([0]))
            heard = [j for j in range(1, len(positions)) if backend.hears_alone(0, j)]
            assert table.receivers.tolist() == heard
            assert backend.hears_alone(0, 1)  # distance exactly 1 is in range

    def test_colocated_nodes(self):
        positions = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.5, 0.0],
                              [0.5, 0.0], [2.0, 0.0], [1.2, 0.6]])
        backend = DenseMatrixBackend(positions, PARAMS)
        assert backend.gain(0, 1) == COLOCATED_GAIN
        assert_in_range_is_hears_alone(backend)
        assert_dense_matches_oracle(backend, *schedule_csr("tdma", len(positions), 0))
        assert_dense_matches_oracle(backend, *_random_csr(len(positions), 3, rounds=40))
        # Two co-located transmitters tie at every listener: nobody decodes.
        table = backend.receptions_table(np.array([0, 2]), np.array([0, 1]))
        assert len(table) == 0

    def test_threshold_within_rounding_of_one(self):
        """beta = 1 + 1e-13: tied and near-tied senders both clear the threshold.

        Co-located transmitters reach a co-located listener with equal,
        huge gains, and two senders 1e-5 away at distances 1e-19 apart
        with nearly equal ones, so each has SINR ~1 >= beta - tolerance.
        The dense path must still report one sender per listener, the one
        ``receptions()`` picks (the strongest, first in transmitter order).
        """
        params = SINRParameters(beta=1.0 + 1e-13)
        assert params.beta - NUMERIC_TOLERANCE < 1.0
        positions = np.array([[2.0, 0.0], [2.0, 0.0], [2.0, 0.0], [2.0, 1e-3],
                              [2.4, 0.0], [2.4, 0.0], [5.0, 0.0],
                              [0.0, 0.0], [1e-5, 0.0], [-1.00000000000001e-5, 0.0]])
        backend = DenseMatrixBackend(positions, params)
        indptr = np.array([0, 2, 4, 7, 9, 11], dtype=np.int64)
        members = np.array([0, 1, 1, 0, 3, 1, 4, 5, 4, 9, 8], dtype=np.int64)
        table = assert_dense_matches_oracle(backend, indptr, members)
        assert len(np.unique(table.round_ids * 10 + table.receivers)) == len(table)
        assert table.senders[(table.round_ids == 1) & (table.receivers == 2)].tolist() == [1]
        assert table.senders[(table.round_ids == 4) & (table.receivers == 7)].tolist() == [8]
        assert_dense_matches_oracle(backend, *_random_csr(len(positions), 5, rounds=30))

    def test_float32_storage(self):
        """Events exact; lone transmitters exact; reciprocal SINR to 1e-5.

        float32 storage sums interference in float32 (the documented
        opt-in trade), so only single-transmitter rounds carry the 1e-9
        SINR contract; otherwise the reciprocal SINR is the bounded quantity.
        """
        positions = random_positions(47, 30)
        backend = DenseMatrixBackend(positions, PARAMS, gain_dtype=np.float32)
        assert_in_range_is_hears_alone(backend)
        assert_dense_matches_oracle(backend, *schedule_csr("tdma", 30, 0))
        for family in ("ssf", "random-empties"):
            indptr, members = schedule_csr(family, 30, 47)
            table = assert_dense_matches_oracle(backend, indptr, members, rel=None)
            sinr = oracle_table(backend, indptr, members)[3]
            np.testing.assert_allclose(1.0 / table.sinr, 1.0 / sinr, rtol=0, atol=1e-5)

    def test_metric_only_backend(self):
        """``from_distance_matrix`` over a non-Euclidean metric."""
        rng = np.random.default_rng(53)
        points = random_positions(53, 24, 3.0)
        distances = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        stretch = rng.uniform(1.0, 1.2, size=distances.shape)
        distances = distances * np.sqrt(stretch * stretch.T)
        backend = DenseMatrixBackend.from_distance_matrix(distances, PARAMS)
        assert_in_range_is_hears_alone(backend)
        for family in ("ssf", "tdma", "random-empties"):
            assert_dense_matches_oracle(backend, *schedule_csr(family, 24, 53))

    def test_listener_pools(self):
        n = 28
        backend = DenseMatrixBackend(random_positions(59, n, 3.0), PARAMS)
        indptr, members = schedule_csr("random-empties", n, 59)
        perm = np.random.default_rng(59).permutation(n)
        pools = {
            "permuted": perm,
            "duplicated": np.concatenate([perm, perm[:9], perm[3:6]]),
            "partial": perm[: n // 3],
            "partial-sorted": np.sort(perm[: n // 2]),
            "python-list": [int(v) for v in perm[5:20]] + [int(perm[5])],
        }
        for pool in pools.values():
            assert_dense_matches_oracle(backend, indptr, members, listeners=pool)

    def test_every_node_transmits(self):
        n = 14
        backend = DenseMatrixBackend(random_positions(61, n), PARAMS)
        indptr = np.arange(4, dtype=np.int64) * n
        members = np.tile(np.arange(n, dtype=np.int64), 3)
        assert len(assert_dense_matches_oracle(backend, indptr, members)) == 0
        mixed_ptr = np.array([0, n, n + 3, 2 * n + 3], dtype=np.int64)
        mixed = np.concatenate([np.arange(n), [0, 5, 9], np.arange(n)[::-1]])
        assert_dense_matches_oracle(backend, mixed_ptr, mixed)

    def test_runs_of_empty_rounds_across_chunks(self, monkeypatch):
        n = 20
        backend = DenseMatrixBackend(random_positions(67, n, 3.0), PARAMS)
        rng = np.random.default_rng(67)
        counts = []
        for run in range(12):
            counts += [0] * int(rng.integers(0, 6))  # leading, interior runs
            counts += [int(rng.integers(1, 8)) for _ in range(int(rng.integers(1, 4)))]
        counts += [0] * 7  # trailing run
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        members = np.concatenate(
            [rng.choice(n, size=c, replace=False) for c in counts]
        ).astype(np.int64)
        reference = assert_dense_matches_oracle(backend, indptr, members)
        # A tiny block budget splits the live rounds (and the CSR build)
        # into many chunks; the result must not move.
        for budget in (n, 3 * n, 7 * n):
            monkeypatch.setattr(DenseMatrixBackend, "_BATCH_BLOCK_ELEMENTS", budget)
            chunked = DenseMatrixBackend(random_positions(67, n, 3.0), PARAMS)
            assert_in_range_is_hears_alone(chunked)
            assert_tables_equal(reference, chunked.receptions_table(indptr, members))
        all_empty = backend.receptions_table(np.zeros(9, dtype=np.int64),
                                             np.empty(0, dtype=np.int64))
        assert all_empty.num_rounds == 8 and len(all_empty) == 0

    @given(
        positions=positions_strategy,
        sched_seed=st.integers(0, 500),
        rounds=st.integers(1, 12),
        pool=st.sampled_from(["all", "permuted", "partial"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_lattice_placements_match_oracle(self, positions, sched_seed, rounds, pool):
        """Grid-snapped placements: co-located pairs and exact unit distances."""
        n = len(positions)
        backend = DenseMatrixBackend(positions, PARAMS)
        indptr, members = _random_csr(n, sched_seed, rounds)
        perm = np.random.default_rng(sched_seed).permutation(n)
        listeners = {"all": None, "permuted": perm, "partial": perm[: max(1, n // 2)]}[pool]
        assert_dense_matches_oracle(backend, indptr, members, listeners=listeners)
        assert_in_range_is_hears_alone(backend)


# --------------------------------------------------------------------- #
# Kernel-backend leg: NumPy fallback reproduces the same digests.
# --------------------------------------------------------------------- #


class TestKernelBackendLeg:
    def test_numpy_fallback_digests_match(self):
        """REPRO_NO_NUMBA=1 subprocess reproduces every golden digest.

        When numba is installed this differentially tests the jitted
        kernels against the NumPy fallback; without numba it still pins
        that kernel dispatch is environment-independent.
        """
        code = (
            "import json\n"
            "from tests.test_backend_differential import (GOLDEN_SPECS,\n"
            "    _golden_table, _event_digests)\n"
            "out = {s['name']: _event_digests(_golden_table(s, 'auto'))[0]\n"
            "       for s in GOLDEN_SPECS}\n"
            "print(json.dumps(out))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, REPRO_NO_NUMBA="1",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(root, "src"), root]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env, cwd=root,
        )
        sub = json.loads(out.stdout.strip().splitlines()[-1])
        with open(GOLDEN_PATH) as fh:
            corpus = json.load(fh)
        for spec in GOLDEN_SPECS:
            assert sub[spec["name"]] == corpus[spec["name"]]["table"], (
                f"NumPy-kernel leg diverges on {spec['name']!r}"
            )

    def test_segment_strongest_numpy_reference(self):
        """The NumPy segment kernel against a trivial per-segment loop."""
        rng = np.random.default_rng(41)
        num_segments = 9
        seg_idx = np.sort(rng.integers(0, num_segments, size=60))
        gains = rng.uniform(0.1, 5.0, size=60)
        totals, best_gain, best_idx = _kernels.segment_strongest(
            seg_idx, gains, num_segments
        )
        for s in range(num_segments):
            mask = seg_idx == s
            if not mask.any():
                assert totals[s] == 0.0 and best_gain[s] == 0.0
                continue
            flat = np.flatnonzero(mask)
            expected_total = 0.0
            for i in flat:  # sequential order, matching both kernel variants
                expected_total += gains[i]
            assert totals[s] == expected_total
            assert best_gain[s] == gains[flat].max()
            assert best_idx[s] == flat[np.argmax(gains[flat])]


# --------------------------------------------------------------------- #
# Runner-level threading: the batch size never shows through the schedule
# runners.
# --------------------------------------------------------------------- #


class TestRunnerThreading:
    def test_run_schedule_round_batch_equivalent(self):
        sched = ssf.prime_residue_ssf(64, 4)
        events = {}
        for batch in (1, 16):
            net = deployment.uniform_random(40, area_side=4.0, seed=43, backend="spatial")
            with forced_batch(batch):
                result = run_schedule(SINRSimulator(net), sched, list(net.uids))
            events[batch] = result.event_table()
            info = net.physics.grid_info()
            assert info["round_batch"] == batch
            assert info["rounds_fused"] > 0
        for a, b in zip(events[1], events[16]):
            assert np.array_equal(a, b)
