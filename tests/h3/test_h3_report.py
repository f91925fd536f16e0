"""The twin reports: `repro h3` (:mod:`repro.analysis.h3`), plus the input
validation it shares with `repro resilience`."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.h3 import h3_report
from repro.analysis.resilience import resilience_report
from repro.runlog import RunCoverage

pytestmark = pytest.mark.slow


class TestH3Report:
    def test_render_covers_every_section(self, golden_study,
                                         h3_golden_study):
        rendered = h3_report(golden_study, h3_golden_study).render()
        assert "h3 profile 'broad'" in rendered
        assert "Protocol split per dataset" in rendered
        assert "Reuse impact per dataset" in rendered
        assert "Attribution by protocol" in rendered
        assert "Coalescing potential" in rendered
        # The what-if table carries both runs.
        assert "baseline" in rendered
        assert "h3 (broad)" in rendered

    def test_protocol_rows_show_the_split(self, golden_study,
                                          h3_golden_study):
        result = h3_report(golden_study, h3_golden_study)
        rows = {row[0]: row for row in result.protocol_rows()}
        alexa = rows["alexa"]
        assert int(alexa[3]) > 0  # h3 connections under the rollout
        # The h3 run's joint h2+h3 total stays in the same ballpark as
        # the baseline's h2-only count (upgrades split, not inflate).
        assert int(alexa[1]) > 0

    def test_cause_rows_split_by_protocol(self, golden_study,
                                          h3_golden_study):
        result = h3_report(golden_study, h3_golden_study)
        protocols = {row[1] for row in result.cause_rows()}
        assert "h2" in protocols
        assert "h3" in protocols

    def test_whatif_rows_cover_both_runs(self, golden_study,
                                         h3_golden_study):
        rows = h3_report(golden_study, h3_golden_study).whatif_rows()
        assert [row[0] for row in rows] == ["baseline", "h3 (broad)"]
        for row in rows:
            assert int(row[1]) > 0  # sites estimated


#: Each twin report with its variant fixture and the axis it varies.
_over_twin_reports = pytest.mark.parametrize("report, variant_fixture, axis", [
    pytest.param(h3_report, "h3_golden_study", "h3_profile", id="h3"),
    pytest.param(resilience_report, "faulted_golden_study", "fault_profile",
                 id="resilience"),
])


@_over_twin_reports
class TestInputValidation:
    def test_baseline_must_be_profile_none(self, request, report,
                                           variant_fixture, axis):
        variant = request.getfixturevalue(variant_fixture)
        with pytest.raises(ValueError, match="expected 'none'"):
            report(variant, variant)

    def test_configs_must_match_beyond_the_axis(self, request, golden_study,
                                                report, variant_fixture,
                                                axis):
        variant = request.getfixturevalue(variant_fixture)
        mismatched = replace(
            variant, config=replace(variant.config, n_sites=99)
        )
        with pytest.raises(ValueError, match=f"differ beyond {axis}"):
            report(golden_study, mismatched)


@_over_twin_reports
class TestCoverageCaveats:
    def test_partial_variant_run_is_called_out(self, request, golden_study,
                                               report, variant_fixture,
                                               axis):
        variant = request.getfixturevalue(variant_fixture)
        partial = replace(variant, coverage=RunCoverage(
            shards_total=4, shards_ok=3, shards_quarantined=1,
            excluded_domains=("a.example",),
        ))
        result = report(golden_study, partial)
        assert result.render() == report(golden_study, variant).render() + (
            f"\n\nCoverage caveat: {result.variant_label} run is PARTIAL "
            "(3/4 shards ok, 1 quarantined, 1 domain(s) excluded)"
        )
