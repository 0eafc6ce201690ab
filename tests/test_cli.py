"""Tests for the command-line interface (repro.cli).

Every subcommand is smoke-tested end to end through ``main([...])`` on tiny
deployments; the seeded commands additionally pin golden report lines, so a
change in algorithm behaviour (as opposed to presentation) fails loudly.
"""

from __future__ import annotations

import json

import pytest

from repro.api import RunSpec
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_cluster_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["cluster"])
        assert args.deployment == "uniform"
        assert args.preset == "fast"
        assert args.nodes == 40

    def test_gadget_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["gadget", "--delta", "12"])
        assert args.delta == 12

    def test_unknown_deployment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["cluster", "--deployment", "torus"])

    def test_unknown_preset_rejected_by_argparse(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["cluster", "--preset", "warp"])
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["cluster", "--backend", "quantum"])
        assert "invalid choice" in capsys.readouterr().err

    def test_choices_track_the_registries(self):
        from repro import api

        parser = build_parser()
        for name in api.CONFIG_PRESETS.names():
            assert parser.parse_args(["cluster", "--preset", name]).preset == name
        for name in sorted(api.BACKENDS):
            assert parser.parse_args(["cluster", "--backend", name]).backend == name


class TestCommands:
    def test_cluster_command(self, capsys):
        code = main(["cluster", "--deployment", "hotspots", "--nodes", "18", "--hotspots", "3", "--seed", "4"])
        output = capsys.readouterr().out
        assert code == 0
        assert "clusters:" in output
        assert "valid clustering: True" in output

    def test_cluster_golden_lines(self, capsys):
        code = main(["cluster", "--deployment", "line", "--nodes", "6", "--seed", "1"])
        output = capsys.readouterr().out
        assert code == 0
        assert "WirelessNetwork(n=6, N=24, Delta=3, max_degree=2, connected=True)" in output
        assert "clusters: 3" in output
        assert "rounds: 3873" in output
        assert "valid clustering: True" in output

    def test_local_broadcast_command(self, capsys):
        code = main(["local-broadcast", "--deployment", "line", "--nodes", "5", "--seed", "1"])
        output = capsys.readouterr().out
        assert code == 0
        assert "completed: True" in output

    def test_local_broadcast_golden_lines(self, capsys):
        code = main(["local-broadcast", "--deployment", "line", "--nodes", "5", "--seed", "1"])
        output = capsys.readouterr().out
        assert code == 0
        assert "rounds: 7312" in output
        assert "clustering:   3728" in output
        assert "labeling:     2750" in output
        assert "transmission: 834" in output

    def test_global_broadcast_command(self, capsys):
        code = main(
            ["global-broadcast", "--deployment", "strip", "--hops", "3", "--nodes-per-hop", "3", "--seed", "2"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "reached all nodes: True" in output
        assert "phase 0" in output

    def test_global_broadcast_golden_lines(self, capsys):
        code = main(
            ["global-broadcast", "--deployment", "strip", "--hops", "3", "--nodes-per-hop", "3", "--seed", "2"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "source: 6" in output
        assert "rounds: 20152" in output
        assert "phase 0: broadcasters=1 newly_awakened=5 rounds=314" in output

    def test_global_broadcast_custom_source(self, capsys):
        code = main(
            [
                "global-broadcast",
                "--deployment",
                "line",
                "--nodes",
                "4",
                "--seed",
                "2",
                "--source",
                "2",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "source: 2" in output

    def test_leader_election_command(self, capsys):
        code = main(["leader-election", "--deployment", "ring", "--nodes", "15", "--clusters", "3", "--seed", "3"])
        output = capsys.readouterr().out
        assert code == 0
        assert "leader:" in output

    def test_leader_election_golden_lines(self, capsys):
        code = main(["leader-election", "--deployment", "ring", "--nodes", "15", "--clusters", "3", "--seed", "3"])
        output = capsys.readouterr().out
        assert code == 0
        assert "leader: 1" in output
        assert "candidates: [1]" in output
        assert "probes: 6" in output
        assert "rounds: 153252" in output

    def test_gadget_command(self, capsys):
        code = main(["gadget", "--delta", "6"])
        output = capsys.readouterr().out
        assert code == 0
        assert "fact 2.1" in output and "True" in output

    def test_gadget_golden_lines(self, capsys):
        code = main(["gadget", "--delta", "6"])
        output = capsys.readouterr().out
        assert code == 0
        assert "gadget with Delta=6: 10 nodes" in output
        assert "adversarial delivery round (round-robin strategy): 9" in output
        assert "Omega(Delta) bound satisfied: True" in output

    def test_grid_and_ball_deployments_run(self, capsys):
        code = main(["cluster", "--deployment", "grid", "--rows", "2", "--cols", "3", "--seed", "1"])
        assert code == 0
        code = main(["cluster", "--deployment", "ball", "--nodes", "6", "--seed", "1"])
        assert code == 0
        assert "valid clustering" in capsys.readouterr().out


class TestListCommand:
    def test_list_prints_all_registries(self, capsys):
        code = main(["list"])
        output = capsys.readouterr().out
        assert code == 0
        assert "deployments:" in output
        assert "algorithms:" in output
        assert "mobility models:" in output
        assert "physics backends:" in output
        assert "config presets:" in output
        for name in ["uniform", "hotspots", "strip", "line", "ring"]:
            assert name in output
        for name in ["cluster", "local-broadcast", "global-broadcast", "leader-election", "gadget"]:
            assert name in output
        for name in ["waypoint", "drift", "convoy", "static"]:
            assert name in output
        assert "dense" in output and "lazy" in output
        assert "fast" in output and "faithful" in output


class TestSpecWorkflow:
    def test_dump_spec_round_trips(self, capsys):
        code = main(["cluster", "--deployment", "line", "--nodes", "6", "--seed", "1", "--dump-spec"])
        output = capsys.readouterr().out
        assert code == 0
        spec = RunSpec.from_json(output)
        assert spec.deployment.kind == "line"
        assert spec.deployment.seed == 1
        assert spec.algorithm.name == "cluster"
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_every_subcommand_spec_round_trips(self, capsys):
        commands = [
            ["cluster", "--deployment", "uniform", "--nodes", "8"],
            ["cluster", "--deployment", "hotspots", "--nodes", "9", "--hotspots", "3"],
            ["cluster", "--deployment", "grid", "--rows", "2", "--cols", "2"],
            ["cluster", "--deployment", "ball", "--nodes", "5"],
            ["local-broadcast", "--deployment", "line", "--nodes", "5", "--backend", "lazy"],
            ["global-broadcast", "--deployment", "strip", "--hops", "3", "--source", "2"],
            ["leader-election", "--deployment", "ring", "--nodes", "12", "--preset", "default"],
            ["gadget", "--delta", "5"],
            [
                "dynamic", "--deployment", "uniform", "--nodes", "10",
                "--mobility", "waypoint", "--epochs", "3",
                "--crash-prob", "0.05", "--dynamics-seed", "4",
            ],
        ]
        for argv in commands:
            code = main(argv + ["--dump-spec"])
            output = capsys.readouterr().out
            assert code == 0, argv
            spec = RunSpec.from_json(output)
            assert RunSpec.from_json(spec.to_json()) == spec, argv

    def test_run_command_single_seed(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        main(["cluster", "--deployment", "line", "--nodes", "6", "--seed", "1", "--dump-spec"])
        spec_path.write_text(capsys.readouterr().out)
        code = main(["run", "--spec", str(spec_path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "rounds[total]: 3873" in output
        assert "check[valid_clustering]: True" in output

    def test_run_command_ensemble_serial(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "out.json"
        main(["cluster", "--deployment", "line", "--nodes", "5", "--dump-spec"])
        spec_path.write_text(capsys.readouterr().out)
        code = main(
            ["run", "--spec", str(spec_path), "--seeds", "0,1,2", "--serial", "--output", str(out_path)]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "seeds: 3" in output
        assert "all checks pass: True" in output
        data = json.loads(out_path.read_text())
        assert len(data["results"]) == 3
        assert [r["spec"]["deployment"]["seed"] for r in data["results"]] == [0, 1, 2]


class TestDynamicCommand:
    ARGV = [
        "dynamic", "--deployment", "uniform", "--nodes", "16", "--seed", "2",
        "--mobility", "drift", "--move-fraction", "0.5", "--epochs", "3",
        "--crash-prob", "0.1", "--join-prob", "0.1", "--dynamics-seed", "6",
    ]

    def test_dynamic_command_golden_lines(self, capsys):
        code = main(list(self.ARGV))
        output = capsys.readouterr().out
        assert code == 0
        assert "cluster on uniform under drift x 3 epochs" in output
        assert "epochs: 3" in output
        assert "population min/final/max:" in output
        assert "events: moved=" in output
        assert "all checks pass: True" in output

    def test_dynamic_command_is_byte_identical_across_invocations(self, capsys):
        main(list(self.ARGV))
        first = capsys.readouterr().out
        main(list(self.ARGV))
        second = capsys.readouterr().out
        assert first == second

    def test_dynamic_command_writes_epochset_json(self, tmp_path, capsys):
        out_path = tmp_path / "trajectory.json"
        code = main(list(self.ARGV) + ["--output", str(out_path)])
        capsys.readouterr()
        assert code == 0
        data = json.loads(out_path.read_text())
        assert len(data["epochs"]) == 3
        assert data["summary"]["all_checks_pass"] is True
        spec = RunSpec.from_dict(data["spec"])
        assert spec.dynamics is not None and spec.dynamics.mobility.kind == "drift"

    def test_dynamic_command_static_mobility(self, capsys):
        code = main([
            "dynamic", "--deployment", "line", "--nodes", "6",
            "--mobility", "static", "--epochs", "2", "--algorithm", "local-broadcast-tdma",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "moved=0" in output

    def test_dynamic_rejects_standalone_algorithms(self, capsys):
        with pytest.raises(SystemExit):
            main(["dynamic", "--algorithm", "gadget"])
        capsys.readouterr()

    def test_run_command_dispatches_dynamic_specs(self, tmp_path, capsys):
        """`repro-sim run` on a spec with a dynamics block runs the epoch
        loop -- it must not silently execute the spec statically."""
        spec_path = tmp_path / "dyn.json"
        main([
            "dynamic", "--deployment", "line", "--nodes", "6",
            "--mobility", "drift", "--epochs", "2", "--dump-spec",
        ])
        spec_path.write_text(capsys.readouterr().out)
        code = main(["run", "--spec", str(spec_path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "under drift x 2 epochs" in output
        assert "epochs: 2" in output
        # A dynamic spec is one trajectory: a multi-seed ensemble is refused.
        code = main(["run", "--spec", str(spec_path), "--seeds", "1,2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "at most one seed" in captured.err
