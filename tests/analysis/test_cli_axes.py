"""The study flags every study-running command shares.

They derive from :class:`StudyConfig`'s field declarations, and each
command builds its executor once, with ``--task-timeout``.
"""

from __future__ import annotations

import pytest

from repro.analysis.study import StudyConfig
from repro.cli import _config_from_args, build_parser, main

_THREADED = ["--sites", "30", "--executor", "thread:2"]


class TestTaskTimeout:
    @pytest.mark.parametrize("command", [
        ["sweep"],
        ["evolve", "--policy", "mixed"],
        ["resilience", "--fault-profile", "chaos"],
        ["h3", "--h3-profile", "broad"],
    ], ids=lambda command: command[0])
    def test_reaches_the_executor(self, command, capsys):
        assert main([*command, *_THREADED, "--task-timeout", "0"]) == 2
        assert "task_timeout must be positive" in capsys.readouterr().err

    def test_grid_over_executors_rejects_it(self, capsys):
        code = main([
            "sweep", "--sites", "30", "--grid", "executor=serial,thread:2",
            "--task-timeout", "5",
        ])
        assert code == 2
        assert "--task-timeout needs one shared executor" in (
            capsys.readouterr().err
        )


class TestDerivedFlags:
    def test_defaults_are_the_field_defaults(self):
        args = build_parser().parse_args(["study", "--sites", "120"])
        assert _config_from_args(args) == StudyConfig(n_sites=120)

    def test_flags_set_their_fields(self):
        args = build_parser().parse_args([
            "study", "--jobs", "3", "--fault-profile", "chaos",
            "--epochs", "2", "--h3-profile", "adopt-0.5", "--shards", "4",
        ])
        config = _config_from_args(args)
        assert (config.parallelism, config.fault_profile, config.epochs,
                config.h3_profile, config.shards) == (
            3, "chaos", 2, "adopt-0.5", 4
        )

    def test_evolve_policy_is_an_alias(self):
        parser = build_parser()
        short = parser.parse_args(["evolve", "--policy", "mixed"])
        long = parser.parse_args(["evolve", "--evolution-policy", "mixed"])
        assert vars(short) == vars(long)
        assert _config_from_args(short).epochs == 5  # evolve's horizon

    @pytest.mark.parametrize("command, flag", [
        ("resilience", "--fault-profile"),
        ("h3", "--h3-profile"),
        ("evolve", "--evolution-policy"),
    ])
    def test_twin_commands_need_their_axis(self, command, flag, capsys):
        assert main([command, "--sites", "30"]) == 2
        assert f"{command} needs {flag}" in capsys.readouterr().err

    def test_resume_needs_a_cache(self, capsys):
        assert main(["resilience", "--fault-profile", "chaos",
                     "--resume"]) == 2
        assert "--resume requires --cache-dir" in capsys.readouterr().err
