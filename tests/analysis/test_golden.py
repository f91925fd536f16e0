"""Golden-value regression tests.

Live study output for ``StudyConfig(seed=7, n_sites=120)`` is diffed
against the snapshots in ``tests/golden/``.  A failure here means some
layer of the pipeline changed behaviour; if the change is intentional,
regenerate and review the snapshots:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

pytestmark = pytest.mark.golden

_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


@pytest.fixture(scope="module")
def golden_artifacts(
    golden_regen, golden_study, faulted_golden_study,
    longitudinal_golden_result, h3_golden_study,
) -> dict[str, str]:
    """Live render of every golden artefact at the pinned configs.

    The studies come from session-scoped fixtures (see conftest), so
    the faults, evolve and h3 differential suites reuse them instead
    of re-running more n=120 pipelines.
    """
    artifacts = golden_regen.render_artifacts(golden_study)
    artifacts.update(
        golden_regen.render_faulted_artifacts(faulted_golden_study)
    )
    artifacts["longitudinal_digest.txt"] = (
        golden_regen.render_longitudinal_artifact(
            longitudinal_golden_result.digests()
        )
    )
    artifacts.update(golden_regen.render_h3_artifacts(h3_golden_study))
    artifacts.update(golden_regen.render_twin_artifacts(
        golden_study, faulted_golden_study, h3_golden_study
    ))
    return artifacts


def _golden_names() -> list[str]:
    names = sorted(
        path.name for path in _GOLDEN_DIR.glob("*.txt")
    )
    assert names, "golden snapshots missing; run tests/golden/regenerate.py"
    return names


@pytest.mark.parametrize("name", _golden_names())
def test_matches_snapshot(golden_artifacts, name):
    expected = (_GOLDEN_DIR / name).read_text()
    actual = golden_artifacts.get(name)
    assert actual is not None, (
        f"{name} is no longer rendered; update tests/golden/regenerate.py"
    )
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"golden/{name}",
                tofile="live",
            )
        )
        pytest.fail(
            f"golden mismatch for {name} (regenerate via "
            f"`PYTHONPATH=src python tests/golden/regenerate.py` if "
            f"intentional):\n{diff}"
        )


def test_no_stale_snapshots(golden_artifacts):
    """Every rendered artefact has a snapshot and vice versa."""
    assert set(golden_artifacts) == set(_golden_names())
