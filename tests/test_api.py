"""Tests for the unified experiment API (repro.api)."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.api import AlgorithmSpec, DeploymentSpec, DynamicsSpec, MobilitySpec, RunSpec
from repro.core import AlgorithmConfig


def tiny_spec(seed: int = 1, algorithm: str = "cluster") -> RunSpec:
    return RunSpec(
        deployment=DeploymentSpec("line", {"nodes": 5}, seed=seed),
        algorithm=AlgorithmSpec(algorithm, preset="fast"),
    )


# --------------------------------------------------------------------- #
# Specs: freezing, round-tripping, hashing.
# --------------------------------------------------------------------- #


class TestSpecs:
    def test_round_trip_dict_and_json(self):
        spec = RunSpec(
            deployment=DeploymentSpec("uniform", {"nodes": 12, "area": 2.0}, seed=5, backend="lazy"),
            algorithm=AlgorithmSpec(
                "global-broadcast", preset="default", overrides={"kappa": 5}, params={"source": 3}
            ),
            tags={"purpose": "test"},
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec
        json.dumps(spec.to_dict())  # strictly JSON-representable

    def test_specs_are_frozen_and_hashable(self):
        spec = tiny_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.deployment = DeploymentSpec("line")
        assert spec == tiny_spec()
        assert hash(spec) == hash(tiny_spec())

    def test_with_seed_changes_only_the_seed(self):
        spec = tiny_spec(seed=1)
        reseeded = spec.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.algorithm == spec.algorithm
        assert reseeded.deployment.params == spec.deployment.params

    def test_params_reject_non_json_values(self):
        with pytest.raises(TypeError):
            DeploymentSpec("line", {"nodes": object()})
        with pytest.raises(TypeError):
            AlgorithmSpec("cluster", params={"bad": {1: 2}})

    def test_list_params_round_trip_as_lists(self):
        spec = AlgorithmSpec("wakeup", params={"spontaneous": [[0, 0], [5, 40]]})
        rebuilt = AlgorithmSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.param_dict()["spontaneous"] == [[0, 0], [5, 40]]

    def test_from_config_reproduces_the_config(self):
        config = AlgorithmConfig(kappa=5, rho=4, sns_parameter=7)
        spec = AlgorithmSpec.from_config("cluster", config)
        assert spec.build_config() == config
        assert RunSpec.from_dict(
            RunSpec(DeploymentSpec("line"), spec).to_dict()
        ).algorithm.build_config() == config

    def test_build_config_applies_preset_and_overrides(self):
        spec = AlgorithmSpec("cluster", preset="fast", overrides={"kappa": 9})
        config = spec.build_config()
        assert config.kappa == 9
        assert config.rho == AlgorithmConfig.fast().rho

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        nodes=st.integers(min_value=1, max_value=500),
        backend=st.sampled_from(["dense", "lazy"]),
        preset=st.sampled_from(["fast", "default", "faithful"]),
        kappa=st.integers(min_value=2, max_value=12),
        tags=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8), st.booleans()),
            max_size=3,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, seed, nodes, backend, preset, kappa, tags):
        spec = RunSpec(
            deployment=DeploymentSpec("uniform", {"nodes": nodes}, seed=seed, backend=backend),
            algorithm=AlgorithmSpec("cluster", preset=preset, overrides={"kappa": kappa}),
            tags=tags,
        )
        assert RunSpec.from_json(spec.to_json()) == spec

    @given(
        mobility=st.sampled_from(["waypoint", "drift", "convoy", "static"]),
        fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        epochs=st.integers(min_value=1, max_value=64),
        crash=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        dyn_seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_dynamics_round_trip_property(self, mobility, fraction, epochs, crash, dyn_seed):
        spec = RunSpec(
            deployment=DeploymentSpec("uniform", {"nodes": 10}),
            algorithm=AlgorithmSpec("cluster"),
            dynamics=DynamicsSpec(
                mobility=MobilitySpec(mobility, {"fraction": fraction}),
                epochs=epochs,
                events={"crash_prob": crash} if crash else {},
                seed=dyn_seed,
            ),
        )
        assert RunSpec.from_json(spec.to_json()) == spec
        assert json.loads(spec.to_json())["dynamics"]["mobility"]["kind"] == mobility

    def test_dynamics_spec_validation(self):
        with pytest.raises(TypeError, match="MobilitySpec"):
            DynamicsSpec(mobility="waypoint")
        with pytest.raises(ValueError, match="epochs"):
            DynamicsSpec(mobility=MobilitySpec("static"), epochs=0)
        with pytest.raises(TypeError, match="DynamicsSpec"):
            RunSpec(DeploymentSpec("line"), AlgorithmSpec("cluster"), dynamics="nope")

    def test_pre_dynamics_json_blobs_round_trip_bit_identically(self):
        """A RunSpec JSON artifact emitted before the dynamics field existed
        (no "dynamics" key) must re-serialize to the exact same bytes."""
        legacy_blob = (
            '{\n'
            '  "algorithm": {\n'
            '    "name": "global-broadcast",\n'
            '    "overrides": {\n'
            '      "kappa": 5\n'
            '    },\n'
            '    "params": {\n'
            '      "source": 3\n'
            '    },\n'
            '    "preset": "default"\n'
            '  },\n'
            '  "deployment": {\n'
            '    "backend": "lazy",\n'
            '    "kind": "uniform",\n'
            '    "params": {\n'
            '      "area": 2.0,\n'
            '      "nodes": 12\n'
            '    },\n'
            '    "seed": 5\n'
            '  },\n'
            '  "tags": {\n'
            '    "purpose": "test"\n'
            '  }\n'
            '}'
        )
        spec = RunSpec.from_json(legacy_blob)
        assert spec.dynamics is None
        assert spec.to_json() == legacy_blob

    def test_with_dynamics_attaches_and_detaches(self):
        spec = tiny_spec()
        dynamics = DynamicsSpec(mobility=MobilitySpec("drift", {"sigma": 0.1}), epochs=2)
        dynamic = spec.with_dynamics(dynamics)
        assert dynamic.dynamics == dynamics
        assert dynamic.deployment == spec.deployment
        assert "dynamics" in dynamic.to_dict()
        assert dynamic.with_dynamics(None) == spec


# --------------------------------------------------------------------- #
# Registries.
# --------------------------------------------------------------------- #


class TestRegistries:
    def test_builtins_are_registered(self):
        for name in ["uniform", "hotspots", "strip", "line", "ring", "grid", "ball"]:
            assert name in api.DEPLOYMENTS
        for name in [
            "cluster",
            "local-broadcast",
            "global-broadcast",
            "leader-election",
            "wakeup",
            "gadget",
            "local-broadcast-randomized",
            "local-broadcast-tdma",
            "global-broadcast-decay",
            "global-broadcast-tdma",
        ]:
            assert name in api.ALGORITHMS
        for name in ["fast", "default", "faithful"]:
            assert name in api.CONFIG_PRESETS

    def test_unknown_name_error_lists_alternatives(self):
        with pytest.raises(KeyError, match="unknown deployment 'torus'.*uniform"):
            api.DEPLOYMENTS.get("torus")
        with pytest.raises(KeyError, match="unknown algorithm.*cluster"):
            api.ALGORITHMS.get("nope")

    def test_duplicate_registration_guard(self):
        registry = api.Registry("thing")
        registry.register("a", 1)
        with pytest.raises(ValueError, match="already has an entry"):
            registry.register("a", 2)
        registry.register("a", 2, overwrite=True)
        assert registry.get("a") == 2

    def test_decorator_registration_plugs_into_run(self):
        @api.register_deployment("test-two-nodes")
        def _two(seed, backend):
            from repro.sinr import deployment

            return deployment.line(2, seed=seed, backend=backend)

        try:
            spec = RunSpec(DeploymentSpec("test-two-nodes"), AlgorithmSpec("local-broadcast-tdma"))
            result = api.run(spec)
            assert result.metrics["n"] == 2.0
        finally:
            api.DEPLOYMENTS._entries.pop("test-two-nodes")

    def test_gadget_is_standalone(self):
        assert api.ALGORITHMS.get("gadget").standalone
        assert not api.ALGORITHMS.get("cluster").standalone


class TestBackendParamValidation:
    @pytest.mark.parametrize(
        "backend, params, problem",
        [
            ("dense", {"round_batch": 4}, "not an option of the 'dense' backend"),
            ("dense", {"bogus": 1}, "not an option of the 'dense' backend"),
            ("dense", {"gain_dtype": "int8"}, "gain_dtype must be float64 or float32"),
            ("spatial", {"round_batch": 16}, None),
        ],
    )
    def test_validate_spec_agrees_with_the_backend(self, backend, params, problem):
        spec = RunSpec(
            deployment=DeploymentSpec(
                "line", {"nodes": 5}, seed=1, backend=backend, backend_params=params
            ),
            algorithm=AlgorithmSpec("cluster", preset="fast"),
        )
        problems = api.validate_spec(spec)
        if problem is None:
            assert problems == []
            assert api.run(spec).checks == {"valid_clustering": True}
            return
        (key,) = params
        assert len(problems) == 1
        assert problems[0].startswith(f"deployment.backend_params.{key}: ")
        assert problem in problems[0]
        with pytest.raises(ValueError):
            api.run(spec)


# --------------------------------------------------------------------- #
# Executor: run / run_grid / run_many.
# --------------------------------------------------------------------- #


class TestRun:
    def test_run_returns_total_rounds_checks_and_network_metrics(self):
        result = api.run(tiny_spec())
        assert result.rounds["total"] > 0
        assert result.checks == {"valid_clustering": True}
        assert result.metrics["n"] == 5.0
        assert "WirelessNetwork" in result.details["network"]
        assert result.raw is not None

    def test_run_is_deterministic(self):
        a, b = api.run(tiny_spec()), api.run(tiny_spec())
        assert a.payload() == b.payload()

    def test_standalone_algorithm_ignores_deployment(self):
        spec = RunSpec(DeploymentSpec("none"), AlgorithmSpec("gadget", params={"delta": 4}))
        result = api.run(spec)
        assert result.checks["blocking_property"] and result.checks["target_property"]
        assert "network" not in result.details

    def test_result_json_round_trip(self):
        result = api.run(tiny_spec(), keep_raw=False)
        rebuilt = api.RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.payload() == result.payload()
        assert rebuilt.elapsed == result.elapsed

    def test_unknown_kinds_fail_helpfully(self):
        with pytest.raises(KeyError, match="unknown deployment"):
            api.run(RunSpec(DeploymentSpec("torus"), AlgorithmSpec("cluster")))
        with pytest.raises(KeyError, match="unknown algorithm"):
            api.run(RunSpec(DeploymentSpec("line"), AlgorithmSpec("nope")))

    def test_static_executor_refuses_dynamic_specs(self):
        """run()/run_many() must not silently drop a spec's dynamics block."""
        dynamic = tiny_spec().with_dynamics(
            DynamicsSpec(mobility=MobilitySpec("static"), epochs=2)
        )
        with pytest.raises(ValueError, match="run_dynamic"):
            api.run(dynamic)
        with pytest.raises(ValueError, match="run_dynamic"):
            api.run_many(dynamic, seeds=[0, 1], parallel=False)
        # Stripping the block opts back in to a static run of the placement.
        assert api.run(dynamic.with_dynamics(None)).rounds["total"] > 0


class TestRunMany:
    def test_run_many_serial_matches_individual_runs(self):
        spec = tiny_spec()
        ensemble = api.run_many(spec, seeds=[0, 1, 2], parallel=False)
        for seed, result in zip([0, 1, 2], ensemble):
            assert result.payload() == api.run(spec.with_seed(seed), keep_raw=False).payload()

    def test_run_many_requires_seeds(self):
        with pytest.raises(ValueError):
            api.run_many(tiny_spec(), seeds=[])

    def test_runset_columns_and_summary(self):
        ensemble = api.run_many(tiny_spec(), seeds=[3, 4], parallel=False)
        assert list(ensemble.seeds) == [3, 4]
        assert ensemble.rounds().shape == (2,)
        assert ensemble.check("valid_clustering").all()
        assert ensemble.metric("clusters").min() >= 1
        assert ensemble.elapsed.shape == (2,)
        summary = ensemble.summary()
        assert summary["rounds"]["total"]["min"] <= summary["rounds"]["total"]["max"]
        assert summary["all_checks_pass"] is True

    def test_runset_unknown_column_lists_available(self):
        ensemble = api.run_many(tiny_spec(), seeds=[1], parallel=False)
        with pytest.raises(KeyError, match="available: total"):
            ensemble.rounds("bogus")
        with pytest.raises(KeyError, match="valid_clustering"):
            ensemble.check("bogus")

    def test_runset_table_and_json(self):
        ensemble = api.run_many(tiny_spec(), seeds=[1, 2], parallel=False)
        text = ensemble.table().render()
        assert "cluster" in text and "seed" in text
        data = json.loads(ensemble.to_json())
        assert len(data["results"]) == 2
        assert RunSpec.from_dict(data["spec"]) == tiny_spec()

    def test_run_grid_preserves_order_and_mixes_algorithms(self):
        specs = [
            tiny_spec(seed=2, algorithm="local-broadcast-tdma"),
            RunSpec(DeploymentSpec("none"), AlgorithmSpec("gadget", params={"delta": 4})),
            tiny_spec(seed=2, algorithm="cluster"),
        ]
        results = api.run_grid(specs, parallel=False)
        assert [r.spec for r in results] == specs
        assert api.run_grid([], parallel=False) == []


@pytest.mark.slow
class TestParallelEquivalence:
    """run_many on a process pool is bit-identical to serial execution."""

    @given(
        seeds=st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=4),
        kind=st.sampled_from(["line", "uniform"]),
        algorithm=st.sampled_from(["cluster", "local-broadcast-tdma"]),
    )
    @settings(max_examples=4, deadline=None)
    def test_parallel_bit_identical_to_serial(self, seeds, kind, algorithm):
        spec = RunSpec(
            deployment=DeploymentSpec(kind, {"nodes": 5}),
            algorithm=AlgorithmSpec(algorithm, preset="fast"),
        )
        serial = api.run_many(spec, seeds=seeds, parallel=False)
        parallel = api.run_many(spec, seeds=seeds, parallel=True)
        assert parallel.executed_parallel
        assert [r.payload() for r in parallel] == [r.payload() for r in serial]

    def test_spawn_worker_resolution_gate(self):
        """Plugin-registered names must not be fanned out to spawned workers."""
        import multiprocessing

        from repro.api import executor

        spawn = multiprocessing.get_context("spawn")
        assert executor._workers_can_resolve([tiny_spec()], spawn)
        gadget = RunSpec(DeploymentSpec("none"), AlgorithmSpec("gadget"))
        assert executor._workers_can_resolve([gadget], spawn)

        @api.register_deployment("tmp-plugin-dep")
        def _plugin(seed, backend):  # pragma: no cover - never executed
            raise AssertionError

        try:
            plugin_spec = RunSpec(DeploymentSpec("tmp-plugin-dep"), AlgorithmSpec("cluster"))
            assert not executor._workers_can_resolve([plugin_spec], spawn)
            if "fork" in multiprocessing.get_all_start_methods():
                fork = multiprocessing.get_context("fork")
                assert executor._workers_can_resolve([plugin_spec], fork)
        finally:
            api.DEPLOYMENTS._entries.pop("tmp-plugin-dep")

    def test_parallel_full_algorithm_equivalence(self):
        spec = RunSpec(
            deployment=DeploymentSpec("strip", {"hops": 3, "nodes_per_hop": 2}),
            algorithm=AlgorithmSpec("global-broadcast", preset="fast"),
        )
        serial = api.run_many(spec, seeds=[0, 1, 2], parallel=False)
        parallel = api.run_many(spec, seeds=[0, 1, 2], parallel=True)
        assert [r.payload() for r in parallel] == [r.payload() for r in serial]
