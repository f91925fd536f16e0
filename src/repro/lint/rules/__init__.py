"""The rule families of ``repro lint``.

``default_rules()`` is the repo-tuned set the CLI runs; tests build
their own rule instances with fixture-specific configuration.
"""

from __future__ import annotations

from repro.lint.rules.cachekey import CacheKeyRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.sharedstate import SharedStateRule
from repro.lint.rules.typederrors import TypedErrorsRule

__all__ = [
    "CacheKeyRule",
    "DeterminismRule",
    "SharedStateRule",
    "TypedErrorsRule",
    "default_rules",
]


def default_rules() -> tuple:
    """The four rule families, configured for this repository."""
    return (
        DeterminismRule(),
        CacheKeyRule(),
        SharedStateRule(),
        TypedErrorsRule(),
    )
