"""Cross-backend differential harness: every backend, every schedule family.

The contract pinned here is the repo's strongest invariant: for any seeded
deployment and any CSR schedule, the dense, lazy and spatial backends emit
the *same reception events* (receiver, decoded sender, round), with SINR
values matching to tight relative tolerance -- and the spatial backend's
batched round driver is **bit-identical** to its round-by-round path for
every batch size, including ``"auto"``.

Structure:

* a schedule-family zoo (ssf, wss, wcss node stage, TDMA, round-robin
  cycles, random-with-empty-rounds) generating CSR ``(indptr, members)``
  over node indices;
* a backend zoo (dense float64, lazy, spatial at K in {1, 7, 64, auto});
* the matrix test sweeping families x backends x seeds;
* bit-identity and hypothesis properties for the batched driver
  (associativity across round splits; K=1 dispatches only ``_round_core``);
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
from repro.sinr.backends import _kernels
from repro.sinr.model import SINRParameters

PARAMS = SINRParameters.default()

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_reception_digests.json")

BATCH_SIZES = (1, 7, 64, "auto")


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
        zoo[f"spatial-k{k}"] = SpatialGridBackend(
            positions.copy(), PARAMS, round_batch=k
        )
    return zoo


def assert_tables_equal(a, b, rel=1e-9):
    """Events exact, SINR to relative tolerance (cross-backend contract)."""
    assert a.num_rounds == b.num_rounds
    assert np.array_equal(a.round_ids, b.round_ids)
    assert np.array_equal(a.receivers, b.receivers)
    assert np.array_equal(a.senders, b.senders)
    np.testing.assert_allclose(a.sinr, b.sinr, rtol=rel)


def assert_tables_bit_identical(a, b):
    """All four arrays equal to the last bit (batched-driver contract)."""
    assert a.num_rounds == b.num_rounds
    assert np.array_equal(a.round_ids, b.round_ids)
    assert np.array_equal(a.receivers, b.receivers)
    assert np.array_equal(a.senders, b.senders)
    assert np.array_equal(a.sinr, b.sinr), (
        "batched spatial driver diverged from round-by-round at the bit level"
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
        base = SpatialGridBackend(positions.copy(), PARAMS, round_batch=1)
        reference = base.receptions_table(indptr, members)
        for k in (2, 7, 64, "auto"):
            other = SpatialGridBackend(positions.copy(), PARAMS, round_batch=k)
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
        spatial = SpatialGridBackend(positions.copy(), PARAMS,
                                     round_batch="auto")
        a = dense32.receptions_table(indptr, members)
        b = spatial.receptions_table(indptr, members)
        assert np.array_equal(a.round_ids, b.round_ids)
        assert np.array_equal(a.receivers, b.receivers)
        assert np.array_equal(a.senders, b.senders)
        np.testing.assert_allclose(a.sinr, b.sinr, rtol=1e-5)


# --------------------------------------------------------------------- #
# Batched-driver properties.
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
        base = SpatialGridBackend(positions.copy(), PARAMS, round_batch=1)
        other = SpatialGridBackend(positions.copy(), PARAMS, round_batch=batch)
        assert_tables_bit_identical(
            base.receptions_table(indptr, members),
            other.receptions_table(indptr, members),
        )

    @given(
        seed=st.integers(0, 500),
        n=st.integers(2, 20),
        rounds=st.integers(2, 14),
        split=st.integers(1, 13),
        batch=st.sampled_from([1, 3, 64, "auto"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_batching_is_associative_across_round_splits(
        self, seed, n, rounds, split, batch
    ):
        """Splitting a schedule at any round boundary changes nothing.

        This is the property that makes the fused driver correct by
        construction: batch boundaries are round boundaries, so if a split
        run concatenates to the full run, any batch partition does.
        """
        split = min(split, rounds - 1)
        positions = random_positions(seed, n)
        indptr, members = _random_csr(n, seed + 1, rounds)
        backend = SpatialGridBackend(positions, PARAMS, round_batch=batch)
        full = backend.receptions_table(indptr, members)

        lo = int(indptr[split])
        head = backend.receptions_table(indptr[: split + 1], members[:lo])
        tail_ptr = indptr[split:] - lo
        tail = backend.receptions_table(tail_ptr, members[lo:])

        assert np.array_equal(
            full.round_ids,
            np.concatenate([head.round_ids, tail.round_ids + split]),
        )
        assert np.array_equal(full.receivers,
                              np.concatenate([head.receivers, tail.receivers]))
        assert np.array_equal(full.senders,
                              np.concatenate([head.senders, tail.senders]))
        assert np.array_equal(full.sinr,
                              np.concatenate([head.sinr, tail.sinr]))

    def test_k1_dispatches_round_core_only(self, monkeypatch):
        """At K=1 the driver reduces to the per-round ``_round_core`` path."""
        calls = {"round": 0, "batch": 0}
        round_core = SpatialGridBackend._round_core
        batch_core = SpatialGridBackend._batch_core

        def counting_round(self, *args, **kwargs):
            calls["round"] += 1
            return round_core(self, *args, **kwargs)

        def counting_batch(self, *args, **kwargs):
            calls["batch"] += 1
            return batch_core(self, *args, **kwargs)

        monkeypatch.setattr(SpatialGridBackend, "_round_core", counting_round)
        monkeypatch.setattr(SpatialGridBackend, "_batch_core", counting_batch)

        n = 16
        positions = random_positions(9, n)
        indptr, members = _random_csr(n, 9, rounds=6)
        SpatialGridBackend(positions.copy(), PARAMS, round_batch=1).receptions_table(
            indptr, members
        )
        assert calls["batch"] == 0
        assert calls["round"] > 0

        calls["round"] = calls["batch"] = 0
        SpatialGridBackend(positions.copy(), PARAMS, round_batch=3).receptions_table(
            indptr, members
        )
        assert calls["batch"] > 0
        assert calls["round"] == 0

    def test_invalid_round_batch_rejected(self):
        positions = random_positions(1, 8)
        with pytest.raises(ValueError):
            SpatialGridBackend(positions, PARAMS, round_batch=0)
        with pytest.raises(ValueError):
            SpatialGridBackend(positions, PARAMS, round_batch="fast")
        with pytest.raises(ValueError):
            SpatialGridBackend(positions, PARAMS, round_batch=True)
        with pytest.raises(ValueError):
            SpatialGridBackend(positions, PARAMS, round_batch=-2)


class TestEdgeCases:
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_all_empty_rounds(self, batch):
        positions = random_positions(2, 10)
        backend = SpatialGridBackend(positions, PARAMS, round_batch=batch)
        indptr = np.zeros(6, dtype=np.int64)
        table = backend.receptions_table(indptr, np.empty(0, dtype=np.int64))
        assert table.num_rounds == 5
        assert len(table) == 0
        info = backend.grid_info()
        assert info["rounds_empty"] == 5
        assert info["rounds_fused"] == 0 and info["rounds_single"] == 0

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_everyone_transmits_nobody_listens(self, batch):
        n = 12
        positions = random_positions(4, n)
        backend = SpatialGridBackend(positions, PARAMS, round_batch=batch)
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
        backend = SpatialGridBackend(positions, PARAMS, round_batch=batch)
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
        spatial = SpatialGridBackend(positions.copy(), PARAMS, round_batch=batch)
        assert_tables_equal(
            dense.receptions_table(indptr, members),
            spatial.receptions_table(indptr, members),
        )


# --------------------------------------------------------------------- #
# Counters and caches.
# --------------------------------------------------------------------- #


class TestBatchCounters:
    def _counters(self, backend):
        info = backend.grid_info()
        return {k: info[k] for k in (
            "round_batch", "batches", "rounds_fused", "rounds_single",
            "rounds_empty", "join_entries",
        )}

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("family", ["ssf", "random-empties"])
    def test_round_accounting_is_total(self, batch, family):
        n = 22
        positions = random_positions(13, n)
        indptr, members = schedule_csr(family, n, 13)
        backend = SpatialGridBackend(positions, PARAMS, round_batch=batch)
        backend.receptions_table(indptr, members)
        c = self._counters(backend)
        num_rounds = len(indptr) - 1
        assert c["rounds_fused"] + c["rounds_single"] + c["rounds_empty"] == num_rounds
        if c["round_batch"] == 1:
            assert c["rounds_fused"] == 0 and c["batches"] == 0
        else:
            assert c["rounds_single"] == 0
            assert c["batches"] >= 1
            assert c["join_entries"] > 0

    def test_counters_reset_per_run(self):
        n = 18
        positions = random_positions(17, n)
        indptr, members = schedule_csr("ssf", n, 17)
        backend = SpatialGridBackend(positions, PARAMS, round_batch=7)
        backend.receptions_table(indptr, members)
        first = self._counters(backend)
        backend.receptions_table(indptr, members)
        assert self._counters(backend) == first  # reset, not accumulated
        short_ptr = indptr[:3]
        backend.receptions_table(short_ptr, members[: short_ptr[-1]])
        c = self._counters(backend)
        assert c["rounds_fused"] + c["rounds_single"] + c["rounds_empty"] == 2

    def test_auto_batch_reported_in_grid_info(self):
        n = 20
        positions = random_positions(19, n)
        indptr, members = schedule_csr("tdma", n, 19)
        backend = SpatialGridBackend(positions, PARAMS, round_batch="auto")
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
        backend = SpatialGridBackend(positions, PARAMS, round_batch=1)
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
        backend = SpatialGridBackend(positions, PARAMS, round_batch=1)
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
    backend = SpatialGridBackend(positions, PARAMS, round_batch=batch)
    return backend.receptions_table(indptr, members)


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

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_corpus_batch_invariant(self, batch):
        """Every golden entry digests identically at every batch size."""
        with open(GOLDEN_PATH) as fh:
            corpus = json.load(fh)
        for spec in GOLDEN_SPECS:
            whole, _ = _event_digests(_golden_table(spec, batch))
            assert whole == corpus[spec["name"]]["table"], (
                f"{spec['name']!r} diverges at round_batch={batch}"
            )


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
# Runner-level threading: the constructor knob (as `backend_params` pass it)
# holds through the schedule runners.
# --------------------------------------------------------------------- #


class TestRunnerThreading:
    def test_run_schedule_round_batch_equivalent(self):
        net_a = deployment.uniform_random(40, area_side=4.0, seed=43,
                                          backend=("spatial", {"round_batch": 1}))
        net_b = deployment.uniform_random(40, area_side=4.0, seed=43,
                                          backend=("spatial", {"round_batch": 16}))
        sched = ssf.prime_residue_ssf(64, 4)
        ids = list(net_a.uids)
        res_a = run_schedule(SINRSimulator(net_a), sched, ids)
        res_b = run_schedule(SINRSimulator(net_b), sched, ids)
        ra, sa, va = res_a.event_table()
        rb, sb, vb = res_b.event_table()
        assert np.array_equal(ra, rb)
        assert np.array_equal(sa, sb)
        assert np.array_equal(va, vb)
        assert net_a.physics.grid_info()["round_batch"] == 1
        info = net_b.physics.grid_info()
        assert info["round_batch"] == 16
        assert info["rounds_fused"] > 0
