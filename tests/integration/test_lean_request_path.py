"""The request path does only the work a study reads.

Three kinds of per-request work are gone from the study path: the HPACK
encode of every request header block, the per-request ``Http2Stream``
object, and NetLog recording on HTTP Archive visits (that method's
capture is the HAR).  These tests pin the removed work at zero and
prove the capture choice never changes what is measured.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import study_digest
from repro.analysis.study import Study
from repro.browser.browser import BrowserConfig, ChromiumBrowser
from repro.h2.hpack import HpackEncoder
from repro.har.writer import HarNoiseConfig, write_har
from repro.util.clock import SimClock

pytestmark = pytest.mark.slow


def test_golden_study_encodes_no_header_blocks(monkeypatch, golden_regen):
    calls = []
    encode = HpackEncoder.encode

    def counting(self, headers):
        calls.append(len(headers))
        return encode(self, headers)

    monkeypatch.setattr(HpackEncoder, "encode", counting)
    study = Study.run(golden_regen.golden_config())
    assert calls == []
    assert study_digest(study) + "\n" == (
        golden_regen.GOLDEN_DIR / "digest.txt"
    ).read_text()


def _httparchive_visit(ecosystem, domain: str, *, record_netlog: bool):
    browser = ChromiumBrowser(
        ecosystem=ecosystem,
        resolver=ecosystem.make_resolver("httparchive-crux"),
        clock=SimClock(100.0),
        rng=random.Random(42),
        config=BrowserConfig(vantage_country="US"),
    )
    return browser.visit(domain, record_netlog=record_netlog)


def test_capture_off_records_nothing_and_keeps_the_har(small_ecosystem):
    checked = 0
    for site in small_ecosystem.websites[:12]:
        quiet = _httparchive_visit(
            small_ecosystem, site.domain, record_netlog=False
        )
        recorded = _httparchive_visit(
            small_ecosystem, site.domain, record_netlog=True
        )
        assert len(quiet.netlog) == 0
        assert quiet.unreachable == recorded.unreachable
        if quiet.unreachable:
            continue
        assert len(recorded.netlog) > 0
        hars = [
            write_har(
                visit, noise=HarNoiseConfig(), rng=random.Random(5)
            ).to_dict()
            for visit in (quiet, recorded)
        ]
        assert hars[0] == hars[1], site.domain
        checked += 1
    assert checked > 0
