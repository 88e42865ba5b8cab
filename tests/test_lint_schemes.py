"""The scheme semantic analyzer (lint pass 1).

The fixture corpus ``tests/fixtures/bad.schemes`` seeds one defect per
line; the golden test pins the exact (line, code) multiset so a checker
regression can never silently drop a class.
"""

from __future__ import annotations

import logging
from pathlib import Path

import pytest

from repro.errors import SchemeError
from repro.lint import Severity, analyze_scheme_text, analyze_schemes, check_schemes
from repro.monitor.attrs import MonitorAttrs
from repro.runner.configs import ETHP_SCHEMES, PRCL_SCHEMES
from repro.schemes.actions import Action
from repro.schemes.filters import AddressFilter
from repro.schemes.parser import parse_schemes
from repro.schemes.quotas import Quota
from repro.schemes.scheme import AccessPattern, Scheme
from repro.schemes.watermarks import Watermarks
from repro.units import MIB, MSEC, SEC

FIXTURES = Path(__file__).parent / "fixtures"


def codes_of(diagnostics):
    return sorted((d.line, d.code) for d in diagnostics)


class TestGoldenFixture:
    def test_bad_schemes_corpus(self):
        text = (FIXTURES / "bad.schemes").read_text()
        schemes, diagnostics = analyze_scheme_text(text, file="bad.schemes")
        assert len(schemes) == 7  # every line parses; defects are semantic
        assert codes_of(diagnostics) == [
            (7, "DS130"),   # pageout subset shadowed by line 6 pageout
            (9, "DS120"),   # nohugepage overlapping line 8 hugepage
            (10, "DS103"),  # 50ms..80ms age window under 100ms aggregation
            (11, "DS150"),  # pageout at min_freq 80% thrashes
            (12, "DS120"),  # willneed overlapping line 6 pageout
            (12, "DS120"),  # willneed overlapping line 7 pageout
        ]
        assert all(d.severity is Severity.ERROR for d in diagnostics)
        assert all(d.file == "bad.schemes" for d in diagnostics)

    def test_warn_fixture_is_warning_only(self):
        text = (FIXTURES / "warn.schemes").read_text()
        _, diagnostics = analyze_scheme_text(text)
        assert [d.code for d in diagnostics] == ["DS110"]
        assert diagnostics[0].severity is Severity.WARNING

    def test_paper_listing3_is_clean(self):
        # The paper's own Listing 3 (ethp + prcl) must pass untouched.
        _, diagnostics = analyze_scheme_text(ETHP_SCHEMES + PRCL_SCHEMES)
        assert diagnostics == []


class TestPerSchemeChecks:
    def test_ds101_parse_failure_does_not_abort(self):
        text = "not a scheme\n4K max min max 5s max pageout\n"
        schemes, diagnostics = analyze_scheme_text(text)
        assert len(schemes) == 1
        assert [(d.line, d.code) for d in diagnostics] == [(1, "DS101")]

    def test_ds102_unachievable_frequency_window(self):
        # 4 samples per aggregation: 30%..40% of 4 covers no integer.
        attrs = MonitorAttrs(
            sampling_interval_us=25 * MSEC,
            aggregation_interval_us=100 * MSEC,
            regions_update_interval_us=1 * SEC,
        )
        scheme = Scheme(
            pattern=AccessPattern(min_freq=0.3, max_freq=0.4), action=Action.STAT
        )
        diags = analyze_schemes([scheme], attrs)
        assert [d.code for d in diags] == ["DS102"]
        # The paper's 20-samples default has an integer in that window.
        assert analyze_schemes([scheme]) == []

    def test_ds103_age_window_below_aggregation(self):
        scheme = Scheme(
            pattern=AccessPattern(min_age_us=50 * MSEC, max_age_us=80 * MSEC),
            action=Action.PAGEOUT,
        )
        diags = analyze_schemes([scheme])
        assert [d.code for d in diags] == ["DS103"]

    def test_ds110_min_age_quantizes_to_zero(self):
        scheme = Scheme(
            pattern=AccessPattern(min_age_us=50 * MSEC), action=Action.STAT
        )
        diags = analyze_schemes([scheme])
        assert [(d.code, d.severity) for d in diags] == [("DS110", Severity.WARNING)]

    def test_ds110_max_age_only_below_aggregation(self):
        scheme = Scheme(
            pattern=AccessPattern(max_age_us=50 * MSEC), action=Action.STAT
        )
        diags = analyze_schemes([scheme])
        assert [d.code for d in diags] == ["DS110"]

    def test_ds104_wfreq_without_write_tracking(self):
        scheme = Scheme(pattern=AccessPattern(min_wfreq=0.2), action=Action.PAGEOUT)
        assert [d.code for d in analyze_schemes([scheme])] == ["DS104"]
        tracking = MonitorAttrs(track_writes=True)
        assert analyze_schemes([scheme], tracking) == []

    def test_ds150_thrash_check_absorbed(self):
        scheme = Scheme(pattern=AccessPattern(min_freq=0.8), action=Action.PAGEOUT)
        diags = analyze_schemes([scheme])
        assert [d.code for d in diags] == ["DS150"]
        assert diags[0].severity is Severity.ERROR

    def test_ds140_zero_quota(self):
        scheme = Scheme(
            pattern=AccessPattern(),
            action=Action.PAGEOUT,
            quota=Quota(size_bytes=0, weight_nr_accesses=0.9, weight_age=0.1),
        )
        diags = analyze_schemes([scheme])
        assert [d.code for d in diags] == ["DS140"]
        assert "weights are moot" in diags[0].message

    def test_ds141_weights_on_unlimited_quota(self):
        scheme = Scheme(
            pattern=AccessPattern(),
            action=Action.PAGEOUT,
            quota=Quota(weight_nr_accesses=0.9, weight_age=0.1),
        )
        assert [d.code for d in analyze_schemes([scheme])] == ["DS141"]
        # The default weights on an unlimited quota stay silent.
        quiet = Scheme(pattern=AccessPattern(), action=Action.PAGEOUT, quota=Quota())
        assert analyze_schemes([quiet]) == []

    def test_ds142_point_watermark_band(self):
        scheme = Scheme(
            pattern=AccessPattern(),
            action=Action.PAGEOUT,
            watermarks=Watermarks(high=0.5, mid=0.2, low=0.2),
        )
        assert [d.code for d in analyze_schemes([scheme])] == ["DS142"]
        ok = Scheme(
            pattern=AccessPattern(),
            action=Action.PAGEOUT,
            watermarks=Watermarks(high=1.0, mid=1.0, low=0.0),
        )
        assert analyze_schemes([ok]) == []


class TestPairwiseChecks:
    def _pageout(self, **pattern):
        return Scheme(pattern=AccessPattern(**pattern), action=Action.PAGEOUT)

    def test_ds120_requires_overlap(self):
        # Listing 3 shape: hugepage for >=25% freq, nohugepage for 0-freq
        # only — disjoint frequency windows, no conflict.
        hot = Scheme(pattern=AccessPattern(min_freq=0.25), action=Action.HUGEPAGE)
        cold = Scheme(pattern=AccessPattern(max_freq=0.0), action=Action.NOHUGEPAGE)
        assert analyze_schemes([hot, cold]) == []
        clash = Scheme(pattern=AccessPattern(min_freq=0.3), action=Action.NOHUGEPAGE)
        assert [d.code for d in analyze_schemes([hot, clash])] == ["DS120"]

    def test_ds121_opposing_hints_warn(self):
        prio = Scheme(pattern=AccessPattern(), action=Action.LRU_PRIO)
        deprio = Scheme(pattern=AccessPattern(min_freq=0.5), action=Action.LRU_DEPRIO)
        diags = analyze_schemes([prio, deprio])
        assert [(d.code, d.severity) for d in diags] == [
            ("DS121", Severity.WARNING)
        ]

    def test_ds130_shadowed_subset(self):
        broad = self._pageout(min_age_us=5 * SEC)
        narrow = self._pageout(min_size=2 * MIB, min_age_us=10 * SEC)
        diags = analyze_schemes([broad, narrow])
        assert [(d.line, d.code) for d in diags] == [(2, "DS130")]

    def test_ds130_not_fired_when_earlier_is_restricted(self):
        narrow = self._pageout(min_size=2 * MIB, min_age_us=10 * SEC)
        for restricted in (
            Scheme(
                pattern=AccessPattern(min_age_us=5 * SEC),
                action=Action.PAGEOUT,
                quota=Quota(size_bytes=64 * MIB),
            ),
            Scheme(
                pattern=AccessPattern(min_age_us=5 * SEC),
                action=Action.PAGEOUT,
                watermarks=Watermarks(),
            ),
            Scheme(
                pattern=AccessPattern(min_age_us=5 * SEC),
                action=Action.PAGEOUT,
                filters=[AddressFilter(0, 4096)],
            ),
        ):
            assert analyze_schemes([restricted, narrow]) == []

    def test_ds130_not_fired_across_different_actions(self):
        stat = Scheme(pattern=AccessPattern(), action=Action.STAT)
        narrow = self._pageout(min_size=2 * MIB)
        # STAT consumes nothing; a later pageout is reachable.
        assert analyze_schemes([stat, narrow]) == []

    def test_ds130_same_action_redundant(self):
        cold_all = Scheme(pattern=AccessPattern(), action=Action.COLD)
        cold_big = Scheme(pattern=AccessPattern(min_size=MIB), action=Action.COLD)
        assert [d.code for d in analyze_schemes([cold_all, cold_big])] == ["DS130"]
        # Reverse order: the broad scheme is NOT a subset of the narrow one.
        assert analyze_schemes([cold_big, cold_all]) == []


class TestCheckSchemes:
    def test_raises_on_errors(self):
        scheme = Scheme(pattern=AccessPattern(min_freq=0.8), action=Action.PAGEOUT)
        with pytest.raises(SchemeError, match="DS150"):
            check_schemes([scheme])

    def test_logs_warnings_and_returns(self, caplog):
        scheme = Scheme(
            pattern=AccessPattern(min_age_us=50 * MSEC), action=Action.STAT
        )
        with caplog.at_level(logging.WARNING, logger="repro.lint"):
            diags = check_schemes([scheme], logger=logging.getLogger("repro.lint"))
        assert [d.code for d in diags] == ["DS110"]
        assert any("DS110" in record.message for record in caplog.records)

    def test_clean_set_is_silent(self):
        schemes = parse_schemes(ETHP_SCHEMES + PRCL_SCHEMES)
        assert check_schemes(schemes) == []
