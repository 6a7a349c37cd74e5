import random

import pytest

from fastcloud.consistency import (
    actual_slo_interval,
    average_amv,
    satisfies_consistency,
)
from fastcloud.intervals import IntervalNumber
from fastcloud.registry import (
    AmvRecord,
    MissingSloError,
    Polarity,
    Registry,
    SloRecord,
    STANDARD_ATTRIBUTES,
)


def fresh_registry() -> Registry:
    registry = Registry()
    for attr in STANDARD_ATTRIBUTES:
        registry.register_attribute(attr)
    return registry


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


class TestSatisfies:
    def test_benefit_branch(self):
        assert satisfies_consistency(Polarity.BENEFIT, slo=90, amv=95)
        assert not satisfies_consistency(Polarity.BENEFIT, slo=90, amv=85)

    def test_cost_branch(self):
        assert not satisfies_consistency(Polarity.COST, slo=100, amv=120)
        assert satisfies_consistency(Polarity.COST, slo=100, amv=80)

    def test_boundary_equality_satisfies(self):
        assert satisfies_consistency(Polarity.BENEFIT, slo=90, amv=90)
        assert satisfies_consistency(Polarity.COST, slo=90, amv=90)


def consistency_rate(registry, csp_id, attribute):
    profile = actual_slo_interval(registry, csp_id, attribute)
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
        profile = actual_slo_interval(registry, "p", "av")
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
            # pick a consumer currently unsatisfied and add a passing sample
            unsatisfied = [
                j for j, (slo, ss) in enumerate(zip(slos, samples))
                if not ss or sum(ss) / len(ss) < slo
            ]
            if not unsatisfied:
                continue
            j = rng.choice(unsatisfied)
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
        profile = actual_slo_interval(registry, "p", "av")
        assert profile.consistency_rate == 0.5
        assert profile.slo_span == IntervalNumber(80, 100)
        assert profile.actual_interval == IntervalNumber(40, 50)

    def test_single_slo_degenerate_span(self):
        registry = fresh_registry()
        registry.submit_slo(SloRecord("p", "c", "av", 90))
        registry.submit_amv(AmvRecord("p", "c", "av", 95))
        profile = actual_slo_interval(registry, "p", "av")
        assert profile.actual_interval == IntervalNumber(90, 90)

    def test_scaling_identical_for_cost_attributes(self):
        registry = fresh_registry()
        for csc, slo, amv in (("c0", 10, 5), ("c1", 30, 50)):
            registry.submit_slo(SloRecord("p", csc, "la", slo))
            registry.submit_amv(AmvRecord("p", csc, "la", amv))
        profile = actual_slo_interval(registry, "p", "la")
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
            profile = actual_slo_interval(registry, "p", "th")
            assert 0 <= profile.consistency_rate <= 1
            assert profile.actual_interval.lower <= profile.actual_interval.upper
            assert 0 <= profile.actual_interval.lower <= profile.slo_span.upper
            assert profile.actual_interval.upper <= profile.slo_span.upper

    def test_matches_brute_force_on_random_registry(self):
        rng = random.Random(31)
        registry = fresh_registry()
        attrs = [a.name for a in STANDARD_ATTRIBUTES]
        for j in range(50):
            for attr in attrs:
                if rng.random() < 0.6:
                    registry.submit_slo(SloRecord("p", f"c{j}", attr, rng.uniform(1, 99)))
                    for _ in range(rng.randint(0, 4)):
                        registry.submit_amv(AmvRecord("p", f"c{j}", attr, rng.uniform(0, 120)))
        amvs = list(registry.amvs)
        for attr in attrs:
            slo_records = [r for r in registry.slos.values()
                           if r.csp_id == "p" and r.attribute == attr]
            if not slo_records:
                continue
            polarity = registry.attributes[attr].polarity
            satisfied = 0
            monitored = []  # the SLO values of the agreements with monitored values
            for record in slo_records:
                values = [a.value for a in amvs if a.key == record.key]
                if not values:
                    continue
                monitored.append(record.value)
                mean = sum(values) / len(values)
                if (mean >= record.value if polarity is Polarity.BENEFIT
                        else mean <= record.value):
                    satisfied += 1
            expected_rate = satisfied / len(slo_records)
            # with no monitored agreement, the span of all (the rate is 0)
            span = monitored or [r.value for r in slo_records]
            lo, hi = min(span), max(span)
            profile = actual_slo_interval(registry, "p", attr)
            assert profile.consistency_rate == expected_rate
            assert profile.slo_span == IntervalNumber(lo, hi)
            assert profile.actual_interval == IntervalNumber(
                expected_rate * lo, expected_rate * hi
            )

