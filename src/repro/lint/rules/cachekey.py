"""Rule ``cache-key``: every ``StudyConfig`` axis must invalidate caches.

The study cache is content-addressed: a stage artefact is reused
whenever its key matches, so a config field that can change a stage's
output but is hashed by no key silently serves stale artefacts.  Three
``CACHE_FORMAT`` bumps in this repo's history were exactly this bug.

The rule parses the config dataclass and verifies each field is
*consumed* by the key-derivation layer, in one of two statically
recognisable ways:

1. its name is read as an attribute inside a **key function** — any
   function that calls ``stable_key`` or is named in
   ``key_function_names`` (``shard_key``, ``cache_world_key``, ...);
2. its name is read (as ``self.<field>``) inside a **router method** of
   the config class — ``ecosystem_config()`` by default — whose product
   is hashed whole: ``cache_world_key`` embeds the entire pristine
   ``EcosystemConfig`` in every stage key, so a field routed into it is
   covered.  Router coverage only counts while some key function
   actually reads ``config`` (the world identity); if that read
   disappears the routed fields all become findings.

Everything else must carry its exemption reason in its own declaration:
a ``cache_exempt="<why>"`` string literal keyword anywhere in the
field's default expression (``StudyConfig`` declares every field
through a helper that takes it).  The reason lives and dies with its
field, so no exemption can outlive the field it excuses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.lint.engine import Project
from repro.lint.findings import Finding

__all__ = ["CacheKeyRule"]

#: The keyword whose string literal, inside a field's declaration,
#: exempts the field and says why.
_EXEMPTION_KEYWORD = "cache_exempt"


@dataclass
class CacheKeyRule:
    """Statically verify cache-key completeness of the config dataclass."""

    rule_id: str = "cache-key"
    #: Repo-relative path of the module defining the config dataclass.
    config_rel: str = "src/repro/analysis/study.py"
    config_class: str = "StudyConfig"
    #: Functions treated as key derivations even without a direct
    #: ``stable_key`` call in their body.
    key_function_names: tuple[str, ...] = (
        "stage_key",
        "shard_key",
        "cache_world_key",
        "classify_cache_key",
        "evolution_token",
    )
    #: The key-hashing primitive; any function calling it is a key
    #: function too.
    key_primitive: str = "stable_key"
    #: Methods of the config class whose attribute reads count as
    #: consumption because their product is hashed whole (see module
    #: docstring).
    router_methods: tuple[str, ...] = ("ecosystem_config",)
    #: The attribute a key function must read for router coverage to
    #: apply (the world-identity object cache_world_key hashes).
    router_witness: str = "config"

    # ------------------------------------------------------------------
    def check(self, project: Project) -> Iterable[Finding]:
        module = project.module(self.config_rel)
        if module is None:
            # Linting a subtree that excludes the config module: the
            # completeness check is inapplicable, not violated.  Rot
            # (the module being renamed away) is caught by the full-tree
            # CI run's fixture tests, which copy the file by path.
            return
        config_def = self._class_def(module.tree)
        if config_def is None:
            yield Finding(
                path=self.config_rel, line=1, rule=self.rule_id,
                message=f"class {self.config_class} not found",
            )
            return

        fields = self._fields(config_def)
        key_reads = self._key_function_reads(project)
        router_reads = (
            self._router_reads(config_def)
            if self.router_witness in key_reads
            else frozenset()
        )

        for name, line, exempt in fields:
            if exempt or name in key_reads or name in router_reads:
                continue
            yield Finding(
                path=self.config_rel, line=line, rule=self.rule_id,
                message=(
                    f"{self.config_class}.{name} is hashed by no "
                    f"stage-key/stable_key/cache_world_key derivation and "
                    f"carries no exemption — a sweep over it would reuse "
                    f"stale cache artefacts"
                ),
            )

    # ------------------------------------------------------------------
    def _class_def(self, tree: ast.Module) -> ast.ClassDef | None:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == self.config_class:
                return node
        return None

    def _fields(self, config_def: ast.ClassDef) -> list[tuple[str, int, bool]]:
        """(name, line, exempt) of every dataclass field of the config
        class: exempt when its declaration gives a non-empty exemption
        reason as a string literal."""
        return [
            (statement.target.id, statement.lineno, any(
                isinstance(node, ast.keyword)
                and node.arg == _EXEMPTION_KEYWORD
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
                and node.value.value.strip() != ""
                for node in ast.walk(statement)
            ))
            for statement in config_def.body
            if isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
        ]

    def _key_function_reads(self, project: Project) -> frozenset[str]:
        """Attribute names consumed by key derivations, project-wide.

        A function *named* as a key function contributes every read in
        its body (the whole function is the derivation).  Any other
        function contributes only the reads inside its ``stable_key``
        call arguments: a long crawl method that hashes a provenance
        key incidentally must not launder its unrelated reads into
        "consumed by the key layer".
        """
        reads: set[str] = set()
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if node.name in self.key_function_names:
                    scopes: list[ast.AST] = [node]
                else:
                    scopes = list(self._primitive_calls(node))
                for scope in scopes:
                    for inner in ast.walk(scope):
                        if isinstance(inner, ast.Attribute):
                            reads.add(inner.attr)
                        elif isinstance(inner, ast.keyword) and inner.arg:
                            reads.add(inner.arg)
        return frozenset(reads)

    def _primitive_calls(self, function: ast.AST) -> Iterable[ast.Call]:
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                if name == self.key_primitive:
                    yield node

    def _router_reads(self, config_def: ast.ClassDef) -> frozenset[str]:
        """``self.<attr>`` reads inside the config class's router methods."""
        reads: set[str] = set()
        for statement in config_def.body:
            if not isinstance(statement, ast.FunctionDef):
                continue
            if statement.name not in self.router_methods:
                continue
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    reads.add(node.attr)
        return frozenset(reads)
