"""Quota state hygiene: per-run copies must carry *every* config field.

The original ``replace_quota`` hand-copied ``size_bytes`` and
``reset_interval_us`` only — any other field (like the prioritisation
weights) was silently reset to its default in every run, and the
config's quota object could leak charged-window state between runs.
"""

from dataclasses import fields

import pytest

from repro.errors import SchemeError
from repro.runner.configs import PRCL_SCHEMES, ExperimentConfig
from repro.runner.experiment import run_experiment
from repro.schemes.quotas import Quota, priority
from repro.sweep.serialize import fingerprint
from repro.units import MIB, SEC


class TestFreshClone:
    def test_every_dataclass_field_is_copied(self):
        # Distinct non-default value per field, built introspectively:
        # a field added to Quota without updating fresh_clone() fails here.
        original = Quota(
            size_bytes=7 * MIB,
            reset_interval_us=3 * SEC,
            weight_nr_accesses=0.9,
            weight_age=0.1,
        )
        defaults = Quota()
        clone = original.fresh_clone()
        for field in fields(Quota):
            value = getattr(original, field.name)
            assert getattr(clone, field.name) == value, f"field {field.name} dropped"
            assert value != getattr(defaults, field.name), (
                f"test must set a non-default value for new field {field.name}"
            )

    def test_clone_has_pristine_window_state(self):
        quota = Quota(size_bytes=1 * MIB)
        quota.charge(512 * 1024, now=0)
        assert quota.remaining(0) == 512 * 1024
        clone = quota.fresh_clone()
        assert clone.remaining(0) == 1 * MIB  # no charged bytes carried over

    def test_weights_validation(self):
        with pytest.raises(SchemeError):
            Quota(weight_nr_accesses=-0.1)
        with pytest.raises(SchemeError):
            Quota(weight_nr_accesses=0.0, weight_age=0.0)


class TestPriorityWeights:
    def test_default_blend_unchanged(self):
        # The historical 50/50 blend is the default behaviour.
        assert priority(10, 50, 20, prefer_cold=False) == pytest.approx(0.5)

    def test_weights_shift_the_ranking(self):
        # An old-but-hot region vs a young-but-cold one: age-dominant
        # weights must prefer the old region for cold actions.
        old_hot = dict(nr_accesses=15, age=80)
        young_cold = dict(nr_accesses=0, age=5)
        by_age = {
            name: priority(
                r["nr_accesses"], r["age"], 20, prefer_cold=True,
                weight_nr_accesses=0.1, weight_age=0.9,
            )
            for name, r in (("old_hot", old_hot), ("young_cold", young_cold))
        }
        by_freq = {
            name: priority(
                r["nr_accesses"], r["age"], 20, prefer_cold=True,
                weight_nr_accesses=0.9, weight_age=0.1,
            )
            for name, r in (("old_hot", old_hot), ("young_cold", young_cold))
        }
        assert by_age["old_hot"] > by_age["young_cold"]
        assert by_freq["young_cold"] > by_freq["old_hot"]


class TestConfigReuse:
    def test_second_run_of_reused_config_unaffected(self):
        """One config object, two runs: the second must be byte-identical
        to a fresh first run (no window state or weight drift)."""
        config = ExperimentConfig(
            name="quota-reuse",
            monitor="vaddr",
            schemes_text=PRCL_SCHEMES,
            quota=Quota(
                size_bytes=8 * MIB,
                reset_interval_us=1 * SEC,
                weight_nr_accesses=0.2,
                weight_age=0.8,
            ),
        )
        kwargs = dict(config=config, machine="i3.metal", seed=9, time_scale=0.02)
        first = run_experiment("parsec3/swaptions", **kwargs)
        second = run_experiment("parsec3/swaptions", **kwargs)
        assert fingerprint(first) == fingerprint(second)
        # The config's own quota object was never mutated by either run.
        assert config.quota.remaining(0) == 8 * MIB
