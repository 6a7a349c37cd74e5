import math
import random

import pytest

import reference
from conftest import COST_ATTRIBUTES, fresh_registry, profile_fields
from fastcloud.consistency import (
    actual_slo_interval,
    average_amv,
    profile_of,
)
from fastcloud.intervals import IntervalNumber
from fastcloud.registry import (
    AmvRecord,
    MissingSloError,
    Polarity,
    SloRecord,
    STANDARD_ATTRIBUTES,
)


class TestAverage:
    def test_mean(self):
        assert average_amv([1, 2, 3]) == 2

    def test_single_sample(self):
        assert average_amv([7]) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_amv([])

    def test_statistical_sanity(self):
        rng = random.Random(7)
        samples = [rng.random() for _ in range(1000)]
        assert abs(average_amv(samples) - 0.5) < 0.05
        assert average_amv(samples) == math.fsum(samples) / len(samples)


class TestSatisfies:
    """The verdict of ``profile_of`` on one consumer: whether it counts as satisfied."""

    @staticmethod
    def meets(polarity, slo, mean):
        return profile_of(polarity, [slo], [mean])[0] == 1

    def test_benefit_branch(self):
        assert self.meets(Polarity.BENEFIT, slo=90, mean=95)
        assert not self.meets(Polarity.BENEFIT, slo=90, mean=85)

    def test_cost_branch(self):
        assert not self.meets(Polarity.COST, slo=100, mean=120)
        assert self.meets(Polarity.COST, slo=100, mean=80)

    def test_boundary_equality_satisfies(self):
        assert self.meets(Polarity.BENEFIT, slo=90, mean=90)
        assert self.meets(Polarity.COST, slo=90, mean=90)


def consistency_rate(registry, csp_id, attribute):
    profile = actual_slo_interval(registry.profile_table(), csp_id, attribute)
    return profile.consistency_rate, profile.satisfied_count, profile.agreed_count


class TestConsistencyRate:
    def seed(self, registry, slos, sample_sets, attr="av"):
        for j, (slo, samples) in enumerate(zip(slos, sample_sets)):
            csc = f"c{j}"
            registry.submit_slo(SloRecord("p", csc, attr, slo))
            for value in samples:
                registry.submit_amv(AmvRecord("p", csc, attr, value))

    def test_direct_count(self):
        registry = fresh_registry()
        self.seed(registry, [9, 9, 4], [[10], [8], [5]])
        rate, satisfied, agreed = consistency_rate(registry, "p", "av")
        assert (satisfied, agreed) == (2, 3)
        assert rate == pytest.approx(2 / 3)

    def test_all_satisfy(self):
        registry = fresh_registry()
        self.seed(registry, [5, 6], [[9], [6]])
        rate, _, _ = consistency_rate(registry, "p", "av")
        assert rate == 1

    def test_none_satisfy_gives_zero_interval_downstream(self):
        registry = fresh_registry()
        self.seed(registry, [9, 9], [[1], [2]])
        rate, _, _ = consistency_rate(registry, "p", "av")
        assert rate == 0
        profile = actual_slo_interval(registry.profile_table(), "p", "av")
        assert profile.actual_interval == IntervalNumber(0, 0)

    def test_mean_decides_not_individual_samples(self):
        registry = fresh_registry()
        # samples straddle the objective; only their mean matters
        self.seed(registry, [10], [[2, 20]])  # mean 11 >= 10
        rate, _, _ = consistency_rate(registry, "p", "av")
        assert rate == 1

    def test_consumer_without_samples_counts_agreed_only(self):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p", "c0", "av", 9))
        registry.submit_slo(SloRecord("p", "c1", "av", 9))
        registry.submit_amv(AmvRecord("p", "c0", "av", 10))
        rate, satisfied, agreed = consistency_rate(registry, "p", "av")
        assert (satisfied, agreed) == (1, 2)
        assert rate == 0.5

    def test_no_slo_records_error(self):
        registry = fresh_registry()
        with pytest.raises(MissingSloError):
            consistency_rate(registry, "p", "av")

    def test_satisfying_sample_never_lowers_rate(self):
        rng = random.Random(99)
        for _ in range(50):
            registry = fresh_registry()
            slos = [rng.uniform(5, 50) for _ in range(rng.randint(2, 6))]
            samples = [[rng.uniform(0, 60)] if rng.random() < 0.7 else [] for _ in slos]
            self.seed(registry, slos, samples)
            before, _, _ = consistency_rate(registry, "p", "av")
            # a sample far above every objective: its consumer's mean meets it
            j = rng.randrange(len(slos))
            registry.submit_amv(AmvRecord("p", f"c{j}", "av", slos[j] + 1000))
            after, _, _ = consistency_rate(registry, "p", "av")
            assert after >= before


class TestActualInterval:
    def test_half_rate_scales_span(self):
        registry = fresh_registry()
        # four agreed objectives, exactly two verified
        for csc, slo, amv in (
            ("c0", 80, 100), ("c1", 95, 10), ("c2", 100, 10), ("c3", 90, 95),
        ):
            registry.submit_slo(SloRecord("p", csc, "av", slo))
            registry.submit_amv(AmvRecord("p", csc, "av", amv))
        profile = actual_slo_interval(registry.profile_table(), "p", "av")
        assert profile.consistency_rate == 0.5
        assert profile.slo_span == IntervalNumber(80, 100)
        assert profile.actual_interval == IntervalNumber(40, 50)

    def test_single_slo_degenerate_span(self):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p", "c", "av", 90))
        registry.submit_amv(AmvRecord("p", "c", "av", 95))
        profile = actual_slo_interval(registry.profile_table(), "p", "av")
        assert profile.actual_interval == IntervalNumber(90, 90)

    def test_scaling_identical_for_cost_attributes(self):
        registry = fresh_registry()
        for csc, slo, amv in (("c0", 10, 5), ("c1", 30, 50)):
            registry.submit_slo(SloRecord("p", csc, "la", slo))
            registry.submit_amv(AmvRecord("p", csc, "la", amv))
        profile = actual_slo_interval(registry.profile_table(), "p", "la")
        assert profile.consistency_rate == 0.5
        assert profile.actual_interval == IntervalNumber(5, 15)

    def test_profile_bounds_invariants(self):
        rng = random.Random(5)
        for _ in range(100):
            registry = fresh_registry()
            n = rng.randint(1, 8)
            for j in range(n):
                registry.submit_slo(SloRecord("p", f"c{j}", "th", rng.uniform(1, 40)))
                if rng.random() < 0.8:
                    registry.submit_amv(AmvRecord("p", f"c{j}", "th", rng.uniform(0, 50)))
            profile = actual_slo_interval(registry.profile_table(), "p", "th")
            assert 0 <= profile.consistency_rate <= 1
            assert profile.actual_interval.lower <= profile.actual_interval.upper
            assert 0 <= profile.actual_interval.lower <= profile.slo_span.upper
            assert profile.actual_interval.upper <= profile.slo_span.upper

    def test_matches_brute_force_on_random_registry(self):
        rng = random.Random(31)
        slos, amvs = [], []
        for j in range(50):
            for attr in STANDARD_ATTRIBUTES:
                if rng.random() < 0.6:
                    slos.append(("p", f"c{j}", attr.name, rng.uniform(1, 99)))
                    amvs += [("p", f"c{j}", attr.name, rng.uniform(0, 120))
                             for _ in range(rng.randint(0, 4))]
        table = fresh_registry(slos, amvs).profile_table()
        for (csp, name), row in reference.pair_rows(slos, amvs, COST_ATTRIBUTES).items():
            profile = actual_slo_interval(table, csp, name)
            assert repr(profile_fields(profile)) == repr(reference.profile(row))

    def test_ties_and_unmonitored_agreements_match_the_reference(self):
        # per agreement: no reading, one reading equal to its SLO, a random
        # reading, or ten readings of 0.1 against an SLO of 0.1, whose
        # math.fsum mean meets it and whose left-to-right sum falls short: the
        # verdict's ties, the mean's sum and the span's choice each decide rows
        rng = random.Random(1051)
        for _ in range(20):
            slos, amvs = [], []
            for csp in ("p0", "p1", "p2"):
                for attr in rng.sample(STANDARD_ATTRIBUTES, 3):
                    for csc in ("c0", "c1", "c2", "c3"):
                        kind = rng.randrange(4)
                        slo = 0.1 if kind == 3 else rng.uniform(1, 100)
                        reading = rng.uniform(0, 130)
                        slos.append((csp, csc, attr.name, slo))
                        readings = ([], [slo], [reading], [0.1] * 10)[kind]
                        amvs += [(csp, csc, attr.name, value) for value in readings]
            rows = fresh_registry(slos, amvs).profile_table().rows
            assert rows == reference.pair_rows(slos, amvs, COST_ATTRIBUTES)
