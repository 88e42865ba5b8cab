"""Schemes: patterns, parser, Table 1 actions, the engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError, SchemeError
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.region import RegionArray
from repro.schemes.actions import PADDR_ACTIONS, Action, apply_action
from repro.schemes.parser import format_scheme, parse_scheme, parse_schemes
from repro.schemes.scheme import AccessPattern, Scheme
from repro.sim.kernel import SimKernel
from repro.sim.swap import ZramDevice
from repro.units import MIB, MINUTE, MSEC, SEC, UNLIMITED

from tests.helpers import BASE

ATTRS = MonitorAttrs()  # 5 ms / 100 ms -> max_nr_accesses = 20
K = 4096


def region(start_k, end_k, nr=0, age=0):
    """A one-row region table."""
    ra = RegionArray.from_bounds([start_k * K], [end_k * K])
    ra.nr_accesses[0] = nr
    ra.age[0] = age
    return ra


def matches(pattern, ra, attrs=ATTRS):
    """Does the pattern match the table's one row?"""
    (hit,) = pattern.match_mask(ra, attrs).tolist()
    return hit


class TestAccessPattern:
    def test_size_match(self):
        pattern = AccessPattern(min_size=10 * K, max_size=100 * K)
        assert matches(pattern, region(0, 50))
        assert not matches(pattern, region(0, 2))
        assert not matches(pattern, region(0, 200))

    def test_size_bounds_inclusive(self):
        pattern = AccessPattern(min_size=10 * K, max_size=10 * K)
        assert matches(pattern, region(0, 10))

    def test_freq_match(self):
        pattern = AccessPattern(min_freq=0.25, max_freq=1.0)
        assert matches(pattern, region(0, 10, nr=5))  # 5/20 = 25%
        assert not matches(pattern, region(0, 10, nr=4))

    def test_zero_freq_band(self):
        pattern = AccessPattern(min_freq=0.0, max_freq=0.0)
        assert matches(pattern, region(0, 10, nr=0))
        assert not matches(pattern, region(0, 10, nr=1))

    def test_age_match_in_time_units(self):
        pattern = AccessPattern(min_age_us=5 * SEC)
        # 5 s at a 100 ms aggregation = age 50.
        assert matches(pattern, region(0, 10, age=50))
        assert not matches(pattern, region(0, 10, age=49))

    def test_age_max_band(self):
        pattern = AccessPattern(min_age_us=0, max_age_us=1 * SEC)
        assert matches(pattern, region(0, 10, age=10))
        assert not matches(pattern, region(0, 10, age=11))

    def test_unbounded_age(self):
        pattern = AccessPattern(min_age_us=2 * MINUTE)
        assert matches(pattern, region(0, 10, age=10_000_000))

    def test_invalid_ranges_rejected(self):
        with pytest.raises(SchemeError):
            AccessPattern(min_size=10, max_size=5)
        with pytest.raises(SchemeError):
            AccessPattern(min_freq=0.8, max_freq=0.5)
        with pytest.raises(SchemeError):
            AccessPattern(min_age_us=10, max_age_us=5)
        with pytest.raises(SchemeError):
            AccessPattern(min_freq=-0.1)


class TestActionParse:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("pageout", Action.PAGEOUT),
            ("page_out", Action.PAGEOUT),
            ("PAGEOUT", Action.PAGEOUT),
            ("hugepage", Action.HUGEPAGE),
            ("thp", Action.HUGEPAGE),
            ("nohugepage", Action.NOHUGEPAGE),
            ("nothp", Action.NOHUGEPAGE),
            ("willneed", Action.WILLNEED),
            ("cold", Action.COLD),
            ("stat", Action.STAT),
            ("lru_prio", Action.LRU_PRIO),
            ("lru_deprio", Action.LRU_DEPRIO),
        ],
    )
    def test_aliases(self, token, expected):
        assert Action.parse(token) is expected

    def test_unknown_rejected(self):
        with pytest.raises(SchemeError):
            Action.parse("defragment")


class TestParser:
    def test_paper_listing_1_reclamation(self):
        scheme = parse_scheme("min max min min 2m max page_out", ATTRS)
        assert scheme.action is Action.PAGEOUT
        assert scheme.pattern.min_size == 0
        assert scheme.pattern.max_size == UNLIMITED
        assert scheme.pattern.min_freq == 0.0
        assert scheme.pattern.max_freq == 0.0
        assert scheme.pattern.min_age_us == 2 * MINUTE

    def test_paper_listing_1_thp(self):
        scheme = parse_scheme("2MB max 80% max 1m max thp", ATTRS)
        assert scheme.action is Action.HUGEPAGE
        assert scheme.pattern.min_size == 2 * MIB
        assert scheme.pattern.min_freq == pytest.approx(0.8)
        assert scheme.pattern.min_age_us == MINUTE

    def test_paper_listing_3_raw_count(self):
        scheme = parse_scheme("min max 5 max min max hugepage", ATTRS)
        # Raw count 5 of max 20 checks = 25%.
        assert scheme.pattern.min_freq == pytest.approx(0.25)

    def test_paper_listing_3_full(self):
        text = """
        # size  frequency  age  action
        min max 5 max min max hugepage
        2M max min min 7s max nohugepage

        4K max min min 5s max pageout
        """
        schemes = parse_schemes(text, ATTRS)
        assert [s.action for s in schemes] == [
            Action.HUGEPAGE,
            Action.NOHUGEPAGE,
            Action.PAGEOUT,
        ]
        assert schemes[2].pattern.min_size == 4096
        assert schemes[2].pattern.min_age_us == 5 * SEC

    def test_inline_comment(self):
        scheme = parse_scheme("min max min min 2m max pageout  # reclaim", ATTRS)
        assert scheme.action is Action.PAGEOUT

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ParseError):
            parse_scheme("min max min min 2m pageout", ATTRS)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_schemes("min max min min 2m max pageout\nbogus line here", ATTRS)

    def test_bad_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_scheme("tiny max min min 2m max pageout", ATTRS)

    def test_roundtrip_listing3(self):
        for line in (
            "min max 5 max min max hugepage",
            "2M max min min 7s max nohugepage",
            "4K max min min 5s max pageout",
        ):
            scheme = parse_scheme(line, ATTRS)
            again = parse_scheme(format_scheme(scheme, ATTRS), ATTRS)
            assert again.pattern == scheme.pattern
            assert again.action == scheme.action

    @settings(max_examples=60, deadline=None)
    @given(
        min_sz=st.sampled_from(["min", "4K", "2M", "1G"]),
        min_fr=st.sampled_from(["min", "25%", "80%", "max"]),
        min_age=st.sampled_from(["min", "5s", "2m", "500ms"]),
        action=st.sampled_from(["pageout", "hugepage", "nohugepage", "cold", "willneed", "stat"]),
    )
    def test_roundtrip_property(self, min_sz, min_fr, min_age, action):
        line = f"{min_sz} max {min_fr} max {min_age} max {action}"
        scheme = parse_scheme(line, ATTRS)
        again = parse_scheme(format_scheme(scheme, ATTRS), ATTRS)
        assert again.pattern == scheme.pattern
        assert again.action == scheme.action


class TestActions:
    EPOCH = 100 * MSEC

    def test_pageout(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=self.EPOCH)
        applied = apply_action(kernel, Action.PAGEOUT, BASE, BASE + MIB, now=1)
        assert applied == MIB
        assert kernel.rss_bytes() == 0

    def test_willneed(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=self.EPOCH)
        kernel.pageout(BASE, BASE + MIB, now=1)
        applied = apply_action(kernel, Action.WILLNEED, BASE, BASE + MIB, now=2)
        assert applied == MIB
        assert kernel.rss_bytes() == MIB

    def test_cold(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=self.EPOCH)
        applied = apply_action(kernel, Action.COLD, BASE, BASE + MIB, now=1)
        assert applied == MIB

    def test_hugepage_and_nohugepage(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + 2 * MIB, now=0, epoch_us=self.EPOCH)
        applied = apply_action(kernel, Action.HUGEPAGE, BASE, BASE + 2 * MIB, now=1)
        assert applied == 2 * MIB
        applied = apply_action(kernel, Action.NOHUGEPAGE, BASE, BASE + 2 * MIB, now=2)
        assert applied == 2 * MIB

    def test_stat_touches_nothing(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=self.EPOCH)
        rss = kernel.rss_bytes()
        applied = apply_action(kernel, Action.STAT, BASE, BASE + MIB, now=1)
        assert applied == MIB
        assert kernel.rss_bytes() == rss

    def test_empty_range_rejected(self, kernel):
        with pytest.raises(SchemeError):
            apply_action(kernel, Action.PAGEOUT, BASE, BASE, now=1)

    def test_lru_prio_sets_protected_class(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=self.EPOCH)
        applied = apply_action(kernel, Action.LRU_PRIO, BASE, BASE + MIB, now=1)
        assert applied == MIB
        pt = kernel.space.flat
        assert (pt.lru_gen[: MIB // 4096] == 1).all()

    def test_lru_deprio_sets_evict_first_class(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=self.EPOCH)
        apply_action(kernel, Action.LRU_DEPRIO, BASE, BASE + MIB, now=1)
        pt = kernel.space.flat
        assert (pt.lru_gen[: MIB // 4096] == -1).all()

    def test_phys_pageout_via_rmap(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=self.EPOCH)
        # Frames 0..255 hold the touched pages; page them out physically.
        applied = apply_action(kernel, Action.PAGEOUT, 0, MIB, now=1, phys=True)
        assert applied == MIB
        assert kernel.rss_bytes() == 0
        assert kernel.swap.used_pages == MIB // 4096

    def test_phys_rejects_thp_actions(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        with pytest.raises(SchemeError):
            apply_action(kernel, Action.HUGEPAGE, 0, MIB, now=1, phys=True)
        with pytest.raises(SchemeError):
            apply_action(kernel, Action.WILLNEED, 0, MIB, now=1, phys=True)

    def test_phys_stat_counts_range(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        assert apply_action(kernel, Action.STAT, 0, MIB, now=1, phys=True) == MIB

    def test_phys_lru_actions(self, kernel):
        kernel.mmap(BASE, 4 * MIB)
        kernel.apply_access(BASE, BASE + MIB, now=0, epoch_us=self.EPOCH)
        assert apply_action(kernel, Action.LRU_PRIO, 0, MIB, now=1, phys=True) == MIB
        pt = kernel.space.flat
        assert (pt.lru_gen[: MIB // 4096] == 1).all()
        apply_action(kernel, Action.LRU_DEPRIO, 0, MIB, now=2, phys=True)
        assert (pt.lru_gen[: MIB // 4096] == -1).all()

    def test_action_table_names_resolve_on_the_kernel(self):
        """Every action but STAT has a virtual back-end, every back-end
        named is a ``SimKernel`` method, and ``PADDR_ACTIONS`` is exactly
        what the table gives a physical form (plus STAT, which needs
        none)."""
        for action in Action:
            if action is Action.STAT:
                assert action.vaddr is None and action.paddr is None
                continue
            assert callable(getattr(SimKernel, action.vaddr)), action
            assert action.paddr is None or callable(getattr(SimKernel, action.paddr)), action
            assert action.unit in (4096, 2 * MIB)
        assert PADDR_ACTIONS == {a for a in Action if a.paddr} | {Action.STAT}

    @pytest.mark.parametrize("action", sorted(PADDR_ACTIONS, key=lambda a: a.value))
    def test_vaddr_and_paddr_forms_agree_on_an_identity_faulted_vma(self, small_guest, action):
        """Page ``i`` of the VMA sits in frame ``i``, so ``[BASE, BASE+1M)``
        and frames ``[0, 1M)`` are the same pages: both forms of an
        action must leave the same residency, frames and metrics."""
        n = MIB // 4096

        def run(phys):
            kernel = SimKernel(small_guest, swap=ZramDevice(64 * MIB), seed=7)
            kernel.mmap(BASE, 4 * MIB)
            kernel.apply_access(
                BASE, BASE + 2 * MIB, now=0, epoch_us=self.EPOCH, write_fraction=1.0
            )
            pt = kernel.space.flat
            assert (pt.frame[: 2 * n] == np.arange(2 * n)).all()
            pt.lru_gen[:n] = 1
            pt.bloat[:n] = True
            start = 0 if phys else BASE
            applied = apply_action(kernel, action, start, start + MIB, now=1, phys=phys)
            return applied, kernel, pt

        v_applied, v_kernel, v = run(phys=False)
        p_applied, p_kernel, p = run(phys=True)
        assert v_applied == p_applied
        assert (v.present == p.present).all() and (v.swapped == p.swapped).all()
        assert (v.frame == p.frame).all() and (v.dirty == p.dirty).all()
        assert v_kernel.frames.allocated == p_kernel.frames.allocated
        assert v_kernel.swap.used_pages == p_kernel.swap.used_pages
        assert dataclasses.asdict(v_kernel.metrics) == dataclasses.asdict(p_kernel.metrics)
        if action is Action.PAGEOUT:
            assert v_applied == MIB and not v.present[:n].any()
            # The two intended differences, and nothing past the range.
            assert (v.lru_gen[:n] == 0).all() and (p.lru_gen[:n] == 1).all()
            assert v.bloat[:n].all() and not p.bloat[:n].any()
        elif action is Action.COLD:
            # A virtual COLD ages recency; the physical one deprioritises.
            assert (v.lru_gen[:n] == 1).all() and (p.lru_gen[:n] == -1).all()
        else:
            assert (v.lru_gen == p.lru_gen).all() and (v.bloat == p.bloat).all()


class TestSchemeHelpers:
    def test_with_pattern(self):
        scheme = Scheme(pattern=AccessPattern(min_age_us=5 * SEC), action=Action.PAGEOUT)
        tuned = scheme.with_pattern(min_age_us=10 * SEC)
        assert tuned.pattern.min_age_us == 10 * SEC
        assert scheme.pattern.min_age_us == 5 * SEC  # original untouched
        assert tuned.action is Action.PAGEOUT

    def test_describe_contains_action(self):
        scheme = parse_scheme("4K max min min 5s max pageout", ATTRS)
        assert "pageout" in scheme.describe()
