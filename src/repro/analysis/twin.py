"""Differential twins: one variant study diffed against its baseline.

``repro resilience`` and ``repro h3`` each compare two studies of the
*same* configuration that differ in one axis, which the baseline runs
at ``"none"``.  :class:`TwinResult` holds what their reports share: the
input check, the datasets both studies produced, and the caveat lines
for partial runs.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import ClassVar

from repro.analysis.study import Study

__all__ = ["TwinResult", "pp"]


def pp(delta: float) -> str:
    """A signed percentage-point delta cell (never renders "-0.0")."""
    value = round(delta * 100, 1) + 0.0
    return f"{value:+.1f} pp"


class TwinResult:
    """Base of a frozen dataclass whose first two fields are a baseline
    study and the variant study diffed against it."""

    #: The StudyConfig field the twins differ in.
    axis: ClassVar[str]
    #: The variant run's name in messages and caveats.
    variant_label: ClassVar[str]
    #: What the deltas are attributed to, in the mismatch error.
    cause: ClassVar[str]

    baseline: Study

    @property
    def variant(self) -> Study:
        return getattr(self, fields(self)[1].name)

    @property
    def profile_name(self) -> str:
        return getattr(self.variant.config, self.axis)

    @classmethod
    def of(cls, baseline: Study, variant: Study):
        """Pair ``variant`` with ``baseline``, which must be the same
        configuration with the axis at ``"none"``; anything else would
        attribute ordinary configuration drift to the axis."""
        value = getattr(baseline.config, cls.axis)
        if value != "none":
            raise ValueError(
                f"baseline study runs {cls.axis.replace('_', ' ')} "
                f"{value!r}, expected 'none'"
            )
        if replace(baseline.config, **{cls.axis: "none"}) != replace(
            variant.config, **{cls.axis: "none"}
        ):
            raise ValueError(
                f"baseline and {cls.variant_label} studies differ beyond "
                f"{cls.axis}; their deltas would not be attributable to "
                f"the {cls.cause}"
            )
        return cls(baseline, variant)

    def shared_datasets(self) -> list[str]:
        """Dataset keys present in both studies, baseline order."""
        return [
            name for name in self.baseline.datasets
            if name in self.variant.datasets
        ]

    def coverage_caveats(self) -> list[str]:
        """Report lines calling out a partial run of either twin, whose
        quarantined shards would silently bias every delta."""
        lines = []
        for label, study in (
            ("baseline", self.baseline), (self.variant_label, self.variant)
        ):
            coverage = study.coverage
            if coverage is not None and not coverage.complete:
                lines += [
                    "",
                    f"Coverage caveat: {label} run is {coverage.describe()}",
                ]
        return lines
