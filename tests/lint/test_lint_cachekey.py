"""The ``cache-key`` rule: config-field completeness, statically checked.

The last class runs the rule against the *real* repository sources and
proves the acceptance property: deleting a ``StudyConfig`` field from
the stage-key derivations turns the run red.
"""

from __future__ import annotations

import shutil
from dataclasses import fields

import pytest

from repro.analysis.study import StudyConfig
from repro.lint import Project
from repro.lint.rules import CacheKeyRule


def _rule(**kwargs):
    defaults = dict(
        config_rel="config.py",
        config_class="Config",
        key_function_names=("stage_key",),
        router_methods=("ecosystem_config",),
        router_witness="config",
    )
    defaults.update(kwargs)
    return CacheKeyRule(**defaults)


CONFIG = """\
    from dataclasses import dataclass

    @dataclass
    class Config:
        seed: int = 0
        noise: float = 0.5
        workers: int = 4

        def ecosystem_config(self):
            return {"noise": self.noise}
"""


class TestConsumption:
    def test_unconsumed_field_fires(self, make_project):
        project = make_project({
            "config.py": CONFIG,
            "keys.py": """\
                def stage_key(config):
                    return ("k", config.seed)
            """,
        })
        findings = list(_rule().check(project))
        assert [f.message.split(" ")[0] for f in findings] == [
            "Config.noise", "Config.workers",
        ]
        assert all("stale cache artefacts" in f.message for f in findings)

    def test_direct_read_consumes(self, make_project):
        project = make_project({
            "config.py": CONFIG,
            "keys.py": """\
                def stage_key(config):
                    return ("k", config.seed, config.noise, config.workers)
            """,
        })
        assert list(_rule().check(project)) == []

    def test_stable_key_caller_is_a_key_function(self, make_project):
        project = make_project({
            "config.py": CONFIG,
            "keys.py": """\
                def anything(config):
                    return stable_key(config.seed, config.noise,
                                      config.workers)
            """,
        })
        assert list(_rule().check(project)) == []

    def test_router_covers_routed_fields(self, make_project):
        # `noise` is read only by ecosystem_config(), whose product is
        # hashed whole by a key function that reads `config`.
        project = make_project({
            "config.py": CONFIG,
            "keys.py": """\
                def stage_key(world, config):
                    return ("k", world.config, config.seed, config.workers)
            """,
        })
        assert list(_rule().check(project)) == []

    def test_router_needs_the_witness_read(self, make_project):
        # No key function reads `config` (the world identity), so
        # routing a field into ecosystem_config() covers nothing.
        project = make_project({
            "config.py": CONFIG,
            "keys.py": """\
                def stage_key(config):
                    return ("k", config.seed, config.workers)
            """,
        })
        (finding,) = _rule().check(project)
        assert finding.message.startswith("Config.noise")


def _exempting(reason: str) -> str:
    """CONFIG with ``workers`` declared under the exemption ``reason``."""
    return CONFIG.replace(
        "workers: int = 4",
        f"workers: int = field(default=4, metadata=dict(cache_exempt={reason}))",
    )


_NOISE_ONLY_KEYS = """\
    def stage_key(config):
        return ("k", config.seed, config.noise)
"""


class TestExemptionTable:
    def test_exemption_suppresses(self, make_project):
        project = make_project({
            "config.py": _exempting('"wall clock only"'),
            "keys.py": _NOISE_ONLY_KEYS,
        })
        assert list(_rule().check(project)) == []

    @pytest.mark.parametrize("reason", ['""', "REASON", "None"])
    def test_exemption_needs_a_literal_reason(self, make_project, reason):
        # The reason is read statically, so only a non-empty string
        # literal in the declaration itself counts.
        project = make_project({
            "config.py": _exempting(reason),
            "keys.py": _NOISE_ONLY_KEYS,
        })
        (finding,) = _rule().check(project)
        assert finding.message.startswith("Config.workers")

    def test_missing_config_module_skips(self, make_project):
        # Subtree lints that exclude the config module are inapplicable,
        # not violations (full-tree CI + the copy-by-path fixtures below
        # catch a renamed-away config module).
        project = make_project({"other.py": "x = 1\n"})
        assert list(_rule().check(project)) == []

    def test_incidental_primitive_call_does_not_launder_reads(
        self, make_project
    ):
        # A long method hashing a provenance key must not count its
        # unrelated reads as key consumption.
        project = make_project({
            "config.py": CONFIG,
            "keys.py": """\
                def stage_key(config):
                    return ("k", config.seed, config.noise)

                def run(config):
                    provenance = stable_key("fold", config.seed)
                    return config.workers, provenance
            """,
        })
        (finding,) = _rule().check(project)
        assert finding.message.startswith("Config.workers")


#: The real files the StudyConfig completeness check reads: the config
#: itself, both crawlers' shard/stage keys, and the world-identity key.
_REAL_KEY_FILES = (
    "src/repro/analysis/study.py",
    "src/repro/crawl/alexa.py",
    "src/repro/crawl/httparchive.py",
    "src/repro/web/ecosystem.py",
)


class TestAgainstRealSources:
    """The acceptance property, on copies of the live sources."""

    @pytest.fixture()
    def real_tree(self, tmp_path, repo_root):
        for rel in _REAL_KEY_FILES:
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(repo_root / rel, target)
        return tmp_path

    def _run(self, root):
        project = Project.load(root, ["src"])
        rule = CacheKeyRule()
        return [f for f in rule.check(project)]

    def test_pristine_sources_pass(self, real_tree):
        assert self._run(real_tree) == []

    def test_deleting_a_field_from_the_derivation_fails(self, real_tree):
        for rel in ("src/repro/crawl/alexa.py",
                    "src/repro/crawl/httparchive.py"):
            path = real_tree / rel
            munged = path.read_text().replace(
                "\n            self.fault_profile,", "", 1
            )
            assert munged != path.read_text(), f"munge missed in {rel}"
            path.write_text(munged)
        findings = self._run(real_tree)
        assert any(
            "StudyConfig.fault_profile" in f.message for f in findings
        ), [f.message for f in findings]

    def test_exemptions_match_the_runtime_metadata(self, real_tree):
        # What the rule reads from the source is what the dataclass
        # carries at run time: the exempt fields, and nothing else.
        project = Project.load(real_tree, ["src"])
        rule = CacheKeyRule()
        module = project.module(rule.config_rel)
        static = {
            name for name, _, exempt in rule._fields(
                rule._class_def(module.tree)
            ) if exempt
        }
        assert static == {
            spec.name for spec in fields(StudyConfig)
            if spec.metadata["cache_exempt"]
        }
        assert "executor" in static and "fault_profile" not in static
