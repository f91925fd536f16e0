"""Scenario-matrix specifications.

A :class:`SweepSpec` describes a grid of study configurations: a base
:class:`~repro.analysis.study.StudyConfig`, a list of seeds, and any
number of *axes* — named ``StudyConfig`` fields with the values to
sweep them over.  :meth:`SweepSpec.cells` expands the spec into the
cartesian product, variant-major (all seeds of one variant are
adjacent), which is the grouping the robustness report aggregates over.

Axes come either from code (any field, any values) or from the CLI's
``--grid field=v1,v2`` syntax parsed by :meth:`SweepSpec.parse_axes`;
tuple-valued fields (``har_models``, ``alexa_variants``) join their
elements with ``+``, e.g. ``--grid alexa_variants=fetch+nofetch,fetch``.
Fault and evolution scenarios sweep like any other axis (a policy only
applies when ``epochs`` is positive, so pair the two):
``--grid fault_profile=none,flaky-dns``,
``--epochs 2 --grid evolution_policy=none,mixed``, and the HTTP/3
rollout axis sweeps named or fractional adoption profiles:
``--grid h3_profile=none,cdn-first,broad,adopt-0.25``.

>>> from repro.sweep import SweepSpec
>>> SweepSpec.parse_axes(["n_sites=120,240", "evolution_policy=none,mixed"])
(('n_sites', (120, 240)), ('evolution_policy', ('none', 'mixed')))
>>> spec = SweepSpec(seeds=(7, 8), axes=SweepSpec.parse_axes(["epochs=0,2"]))
>>> spec.n_cells
4
>>> [cell.label() for cell in spec.cells()]
['seed=7 epochs=0', 'seed=8 epochs=0', 'seed=7 epochs=2', 'seed=8 epochs=2']
>>> SweepSpec.parse_axes(["bogus=1"])
Traceback (most recent call last):
    ...
ValueError: field 'bogus' is not sweepable from the CLI; choose from \
['alexa_share', 'alexa_variants', 'dns_study_days', 'epochs', \
'evolution_policy', 'executor', 'fault_profile', 'h3_profile', \
'ha_sample_share', 'har_models', 'n_sites', 'parallelism', 'shards']
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace

from repro.analysis.study import TEXT_PARSERS, StudyConfig

#: ``--grid`` value parsers: every field with a text form (seeds sweep
#: via ``seeds``), parsed as its type annotation says.
_GRID_PARSERS = {
    spec.name: TEXT_PARSERS[spec.type] for spec in fields(StudyConfig)
    if spec.type in TEXT_PARSERS and spec.name != "seed"
}

_CONFIG_FIELDS = frozenset(spec.name for spec in fields(StudyConfig))


@dataclass(frozen=True)
class SweepCell:
    """One expanded grid cell: a config plus its axis assignments."""

    config: StudyConfig
    #: The non-seed axis assignments that produced this cell, in axis
    #: order; empty for a pure seed sweep.
    variant: tuple[tuple[str, object], ...] = ()

    @property
    def seed(self) -> int:
        return self.config.seed

    def variant_label(self) -> str:
        """A stable human label for the cell's variant group."""
        if not self.variant:
            return "base"
        return " ".join(f"{name}={_render(value)}" for name, value in self.variant)

    def label(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.variant:
            parts.append(self.variant_label())
        return " ".join(parts)


def _render(value: object) -> str:
    if isinstance(value, tuple):
        return "+".join(str(item) for item in value)
    return str(value)


@dataclass(frozen=True)
class SweepSpec:
    """A scenario grid over :class:`StudyConfig`."""

    base: StudyConfig = field(default_factory=StudyConfig)
    seeds: tuple[int, ...] = (7,)
    #: Ordered axes: ``((field_name, (value, ...)), ...)``.
    axes: tuple[tuple[str, tuple], ...] = ()

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds in {self.seeds!r}")
        seen = set()
        for name, values in self.axes:
            if name == "seed":
                raise ValueError("sweep seeds via `seeds`, not a grid axis")
            if name not in _CONFIG_FIELDS:
                raise ValueError(
                    f"unknown StudyConfig field {name!r}; sweepable fields: "
                    f"{sorted(_CONFIG_FIELDS - {'seed'})}"
                )
            if name in seen:
                raise ValueError(f"duplicate grid axis {name!r}")
            if not values:
                raise ValueError(f"grid axis {name!r} has no values")
            seen.add(name)

    @classmethod
    def parse_axes(
        cls, specs: list[str]
    ) -> tuple[tuple[str, tuple], ...]:
        """Parse CLI ``field=v1,v2`` axis specs with typed values."""
        axes = []
        for spec in specs:
            name, separator, values_text = spec.partition("=")
            name = name.strip()
            if not separator or not values_text:
                raise ValueError(
                    f"bad grid axis {spec!r}; expected field=value1,value2"
                )
            parser = _GRID_PARSERS.get(name)
            if parser is None:
                raise ValueError(
                    f"field {name!r} is not sweepable from the CLI; "
                    f"choose from {sorted(_GRID_PARSERS)}"
                )
            try:
                values = tuple(
                    parser(part.strip()) for part in values_text.split(",")
                )
            except ValueError as error:
                raise ValueError(f"bad value in grid axis {spec!r}: {error}")
            axes.append((name, values))
        return tuple(axes)

    @property
    def n_cells(self) -> int:
        cells = len(self.seeds)
        for _, values in self.axes:
            cells *= len(values)
        return cells

    def cells(self) -> list[SweepCell]:
        """Expand the grid, variant-major, seeds innermost.

        Every cell's config is the base with the axis fields and the
        seed replaced; cell configs validate eagerly so a bad axis
        value fails before any study runs.
        """
        expanded = []
        value_lists = [values for _, values in self.axes]
        names = [name for name, _ in self.axes]
        for combination in itertools.product(*value_lists):
            assignments = tuple(zip(names, combination))
            for seed in self.seeds:
                config = replace(
                    self.base, seed=seed, **dict(assignments)
                )
                config.validate()
                expanded.append(SweepCell(config=config, variant=assignments))
        return expanded
