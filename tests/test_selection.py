import collections
import io
import itertools
import json
import math
import random

import pytest

from conftest import COST_ONLY_CHAIN, case_registry, case_request
from fastcloud.consistency import (
    ConsistencyProfile,
    actual_slo_interval,
    average_amv,
    satisfies_consistency,
)
from fastcloud.intervals import IntervalNumber
from fastcloud.registry import (
    AmvRecord,
    Polarity,
    QosAttribute,
    Registry,
    SloRecord,
    STANDARD_ATTRIBUTES,
    Store,
)
from fastcloud.selection import (
    AssessmentRequest,
    InsufficientCandidatesError,
    assess,
    match_candidates,
    read_request,
    render_human,
    render_structured,
    result_document,
)
from fastcloud.trust import (
    deviation_weights,
    normalize,
    ordering_vector,
    possibility_matrix,
    rank,
    trust_levels,
)


def span(lo, hi):
    return IntervalNumber(lo, hi)


def fresh_registry() -> Registry:
    registry = Registry()
    for attr in STANDARD_ATTRIBUTES:
        registry.register_attribute(attr)
    return registry


def seed_provider(registry, csp_id, attribute, slo_lo, slo_hi, satisfy=True):
    """Two consumers holding the span endpoints; optionally all verified."""
    polarity = registry.resolve_attribute(attribute).polarity
    for csc_id, value in ((f"{csp_id}-a", slo_lo), (f"{csp_id}-b", slo_hi)):
        registry.submit_slo(SloRecord(csp_id, csc_id, attribute, value))
        if satisfy:
            amv = value
        else:
            amv = value - 1 if polarity is Polarity.BENEFIT else value + 1
        registry.submit_amv(AmvRecord(csp_id, csc_id, attribute, max(amv, 0)))


class TestRequest:
    def test_needs_attributes(self):
        with pytest.raises(ValueError):
            AssessmentRequest(())

    def test_unique_names(self):
        with pytest.raises(ValueError):
            AssessmentRequest((("av", span(1, 2)), ("av", span(3, 4))))

    def test_restrict_unknown_name(self):
        request = AssessmentRequest((("av", span(1, 2)),))
        with pytest.raises(ValueError):
            request.restrict(["th"])

    def test_resolved_spells_registered_names(self):
        request = AssessmentRequest((("la", span(0, 100)), ("availability", span(1, 2))))
        assert request.resolved(fresh_registry()).requested == (
            ("latency", span(0, 100)), ("availability", span(1, 2)))

    def test_parse_request_file(self):
        text = "attribute,min,max\nav,50,100\nla,1,100\n"
        request = read_request(io.StringIO(text))
        assert [name for name, _ in request.requested] == ["av", "la"]
        assert request.requested[0][1] == span(50, 100)

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            read_request(io.StringIO("attr,lo,hi\nav,1,2\n"))

    def test_parse_rejects_bad_span(self):
        with pytest.raises(ValueError, match="line 2"):
            read_request(io.StringIO("attribute,min,max\nav,100,50\n"))

    def test_parse_reports_physical_line_of_short_row(self):
        text = "attribute,min,max\nav,50,100\n\nla,1\n"
        with pytest.raises(ValueError, match="^line 4: malformed row"):
            read_request(io.StringIO(text))

    def test_parse_rejects_empty_file(self):
        with pytest.raises(ValueError, match="^file is empty$"):
            read_request(io.StringIO(""))

    def test_parse_names_the_line_of_an_unreadable_row(self):
        text = "attribute,min,max\nav,50,100\n" + "x" * 200_000 + ",1,2\n"
        with pytest.raises(ValueError, match="^line 3: field larger than field limit"):
            read_request(io.StringIO(text))


class TestMatching:
    def test_intersecting_interval_qualifies(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 87, 96)
        request = AssessmentRequest((("availability", span(50, 100)),))
        assert tuple(match_candidates(registry, request)) == ("p1",)

    def test_provider_without_slo_excluded(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 87, 96)
        request = AssessmentRequest(
            (("availability", span(50, 100)), ("throughput", span(1, 35)))
        )
        assert tuple(match_candidates(registry, request)) == ()

    def test_disjoint_interval_excluded(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 10, 20)
        request = AssessmentRequest((("availability", span(30, 40)),))
        assert tuple(match_candidates(registry, request)) == ()

    def test_matching_uses_scaled_actual_interval(self):
        registry = fresh_registry()
        # declared span [80, 90] but nothing verified: actual [0, 0]
        seed_provider(registry, "p1", "availability", 80, 90, satisfy=False)
        assert actual_slo_interval(registry, "p1", "availability").actual_interval \
            == IntervalNumber(0, 0)
        request = AssessmentRequest((("availability", span(50, 100)),))
        assert tuple(match_candidates(registry, request)) == ()

    def test_enlarging_span_never_shrinks_candidates(self):
        rng = random.Random(41)
        for _ in range(30):
            registry = fresh_registry()
            for i in range(rng.randint(1, 5)):
                lo = rng.uniform(1, 50)
                seed_provider(registry, f"p{i}", "availability", lo, lo + rng.uniform(0, 40),
                              satisfy=rng.random() < 0.8)
            lo, hi = sorted((rng.uniform(0, 60), rng.uniform(0, 60)))
            base = AssessmentRequest((("availability", span(lo, hi)),))
            wider = AssessmentRequest((("availability", span(lo * 0.5, hi + 10)),))
            assert set(match_candidates(registry, base)) <= set(
                match_candidates(registry, wider)
            )


def reference_profile(registry, csp_id, attribute):
    """A profile from the registry's public reads, consumer by consumer."""
    attr = registry.resolve_attribute(attribute)
    slos = registry.slos_for(csp_id, attr.name)
    if not slos:
        return None
    satisfied, monitored = 0, []
    for record in slos:
        samples = registry.amv_samples(csp_id, record.csc_id, attr.name)
        if samples:
            monitored.append(record.value)
        if samples and satisfies_consistency(attr.polarity, record.value, average_amv(samples)):
            satisfied += 1
    rate = satisfied / len(slos)
    # the span of the monitored agreements; with none, that of all (the rate is 0)
    span = monitored or [r.value for r in slos]
    lo, hi = min(span), max(span)
    return ConsistencyProfile(csp_id, attr.name, rate, satisfied, len(slos),
                              IntervalNumber(lo, hi), IntervalNumber(rate * lo, rate * hi))


def reference_cause(registry, csp_id, request):
    """The first cause that excludes the provider, attribute by attribute, or None."""
    for name, requested_span in request.requested:
        attr = registry.resolve_attribute(name)
        profile = reference_profile(registry, csp_id, name)
        if profile is None:
            return f"no SLO on {attr.name!r}"
        actual = profile.actual_interval
        if not actual.intersects(requested_span):
            return f"actual interval {actual} misses {requested_span} on {attr.name!r}"
        if actual.lower == 0 and attr.polarity is Polarity.COST:
            return f"zero consistency rate on cost attribute {attr.name!r}"
    return None


def random_store(rng):
    """A registry of a few providers, with attributes spelled either way, replaced
    SLOs, SLOs without monitored values and explicit sequences out of order."""
    registry = fresh_registry()
    spellings = [(a.name, a.abbreviation) for a in STANDARD_ATTRIBUTES]
    for p in rng.sample(range(10), rng.randint(1, 6)):
        csp_id = f"p{p}"
        for name, abbreviation in rng.sample(spellings, rng.randint(2, 6)):
            for c in range(rng.randint(1, 4)):
                csc_id = f"{csp_id}-c{c}"
                for _ in range(rng.choice((1, 1, 2))):  # a second submission replaces
                    registry.submit_slo(SloRecord(csp_id, csc_id, rng.choice((name, abbreviation)),
                                                  rng.uniform(1, 100)))
                n = rng.choice((0, 1, 3, 5))
                explicit = rng.random() < 0.5
                for sequence in rng.sample(range(1, n + 1), n):
                    registry.submit_amv(AmvRecord(csp_id, csc_id, rng.choice((name, abbreviation)),
                                                  rng.uniform(0, 120),
                                                  sequence if explicit else None))
    return registry


def random_request(rng):
    requested = []
    for attr in rng.sample(STANDARD_ATTRIBUTES, rng.randint(1, 3)):
        lo = rng.choice((0.0, rng.uniform(0, 40)))
        requested.append((rng.choice((attr.name, attr.abbreviation)),
                          span(lo, lo + rng.choice((5, 60, 200)))))
    return AssessmentRequest(tuple(requested))


class TestMatchingPass:
    def test_agrees_with_the_per_pair_profiles_on_random_stores(self):
        rng = random.Random(2016)
        matched_profiles, causes = 0, collections.Counter()
        for _ in range(150):
            registry = random_store(rng)
            for key, samples in zip(registry._place, registry._samples):
                assert repr(registry.amv_mean(*key)) == repr(
                    average_amv(registry.amv_samples(*key)) if samples else None)
            request = random_request(rng)
            result = match_candidates(registry, request)
            assert list(result) == sorted(result)
            assert list(result.excluded) == sorted(result.excluded)
            assert set(result) | set(result.excluded) == registry.providers
            assert not set(result) & set(result.excluded)
            for csp_id, profiles in result.items():
                assert reference_cause(registry, csp_id, request) is None
                assert len(profiles) == len(request.requested)
                for profile, (name, _) in zip(profiles, request.requested):
                    assert repr(profile) == repr(actual_slo_interval(registry, csp_id, name))
                    assert repr(profile) == repr(reference_profile(registry, csp_id, name))
                    matched_profiles += 1
            for csp_id, cause in result.excluded.items():
                assert cause == reference_cause(registry, csp_id, request)
                causes[cause.split(" ")[0]] += 1
        assert matched_profiles > 100 and min(causes.values()) > 20 and len(causes) == 3

    def crafted_store(self):
        registry = fresh_registry()
        seed_provider(registry, "p0", "availability", 70, 95)
        seed_provider(registry, "p0", "latency", 5, 10)
        seed_provider(registry, "p1", "availability", 80, 90)
        seed_provider(registry, "p1", "latency", 6, 12)
        seed_provider(registry, "p2", "availability", 40, 50)  # misses the span
        seed_provider(registry, "p3", "latency", 5, 10)  # no availability SLO
        seed_provider(registry, "p4", "availability", 80, 90)
        seed_provider(registry, "p4", "latency", 5, 10, satisfy=False)  # actual [0, 0]
        seed_provider(registry, "p5", "availability", 80, 90)  # no latency SLO
        return registry

    def test_result_maps_the_sorted_matches_and_carries_each_exclusion(self):
        registry = self.crafted_store()
        request = AssessmentRequest((("av", span(60, 100)), ("la", span(0, 100))))
        result = match_candidates(registry, request)
        assert isinstance(result, dict)
        assert len(result) == 2
        assert list(result) == ["p0", "p1"]
        assert [[p.attribute for p in profiles] for profiles in result.values()] == [
            ["availability", "latency"]] * 2
        assert [p.actual_interval for p in result["p1"]] == [span(80, 90), span(6, 12)]
        assert result.excluded == {
            "p2": "actual interval [40, 50] misses [60, 100] on 'availability'",
            "p3": "no SLO on 'availability'",
            "p4": "zero consistency rate on cost attribute 'latency'",
            "p5": "no SLO on 'latency'",
        }
        assert list(result.excluded) == ["p2", "p3", "p4", "p5"]
        assert assess(registry, request).candidates == ("p0", "p1")
        empty = match_candidates(fresh_registry(), request)
        assert (len(empty), list(empty), empty.excluded) == (0, [], {})

    def test_refusal_names_the_exclusions_matching_found(self, monkeypatch):
        registry = self.crafted_store()
        request = AssessmentRequest((("av", span(91, 100)), ("la", span(0, 100))))
        built = []
        profile_row = Registry.profile_row

        def counted(self, *args):
            row = profile_row(self, *args)
            if row is not None:  # a row built: this registry holds no profile table
                built.append(args)
            return row

        monkeypatch.setattr(Registry, "profile_row", counted)
        with pytest.raises(InsufficientCandidatesError) as refused:
            assess(registry, request)
        assert str(refused.value) == (
            "insufficient candidates for a ranking (only p0 matched; "
            "p1 excluded: actual interval [80, 90] misses [91, 100] on 'availability'; "
            "p2 excluded: actual interval [40, 50] misses [91, 100] on 'availability'; "
            "p3 excluded: no SLO on 'availability'; "
            "p4 excluded: actual interval [80, 90] misses [91, 100] on 'availability'; "
            "p5 excluded: actual interval [80, 90] misses [91, 100] on 'availability'); "
            "relax the requested spans")
        # one profile per (provider, attribute) that matching reached, and no more
        assert [(csp_id, attr.name) for csp_id, attr in built] == [
            ("p0", "availability"), ("p0", "latency"), ("p1", "availability"),
            ("p2", "availability"), ("p4", "availability"), ("p5", "availability")]


class TestAssess:
    def test_case_fixture_runs_end_to_end(self):
        result = assess(case_registry(), case_request())
        assert set(result.candidates) == {"CSP1", "CSP2", "CSP3", "CSP4", "CSP5"}
        assert len(result.ranking) == 5
        scores = [r.ordering_score for r in result.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_modulo_timing(self):
        first = assess(case_registry(), case_request())
        second = assess(case_registry(), case_request())
        assert first.context == second.context
        assert first.ranking == second.ranking
        assert first.chain == second.chain

    def test_cost_only_subset_chain(self):
        result = assess(case_registry(), case_request().restrict(["latency", "response_time"]))
        assert result.chain == COST_ONLY_CHAIN.replace("CSP", "CSP")

    def test_insufficient_candidates_reports_matched(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 80, 90)
        request = AssessmentRequest((("availability", span(50, 100)),))
        with pytest.raises(InsufficientCandidatesError) as err:
            assess(registry, request)
        assert err.value.candidates == ("p1",)

    def test_insufficient_candidates_name_each_exclusion(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 80, 90)
        seed_provider(registry, "p2", "availability", 40, 50)  # misses the span
        seed_provider(registry, "p3", "latency", 5, 10)  # no availability SLO
        seed_provider(registry, "p4", "availability", 80, 90)
        seed_provider(registry, "p4", "latency", 5, 10, satisfy=False)  # actual [0, 0]
        request = AssessmentRequest((("av", span(60, 100)), ("la", span(0, 100))))
        with pytest.raises(InsufficientCandidatesError) as refused:
            assess(registry, request)
        assert str(refused.value) == (
            "insufficient candidates for a ranking (no provider matched; "
            "p1 excluded: no SLO on 'latency'; "
            "p2 excluded: actual interval [40, 50] misses [60, 100] on 'availability'; "
            "p3 excluded: no SLO on 'availability'; "
            "p4 excluded: zero consistency rate on cost attribute 'latency'); "
            "relax the requested spans")
        # without a span among the causes, relaxing the spans is not advised
        with pytest.raises(InsufficientCandidatesError) as refused:
            assess(registry, request.restrict(["la"]))
        assert str(refused.value) == (
            "insufficient candidates for a ranking (only p3 matched; "
            "p1 excluded: no SLO on 'latency'; p2 excluded: no SLO on 'latency'; "
            "p4 excluded: zero consistency rate on cost attribute 'latency'); "
            "leave the attributes named above out of the request")
        with pytest.raises(InsufficientCandidatesError) as refused:
            assess(fresh_registry(), request)
        assert str(refused.value).endswith(
            "(no provider matched); the store holds SLOs of fewer than two providers")

    def test_two_identical_candidates_tie_on_id(self):
        registry = fresh_registry()
        seed_provider(registry, "pB", "availability", 80, 90)
        seed_provider(registry, "pA", "availability", 80, 90)
        request = AssessmentRequest((("availability", span(50, 100)),))
        result = assess(registry, request)
        assert [r.csp_id for r in result.ranking] == ["pA", "pB"]
        assert all(r.ordering_score == pytest.approx(0.5) for r in result.ranking)

    def test_ten_readings_of_the_agreed_value_meet_it_on_every_interpreter(self, tmp_path):
        # math.fsum averages ten readings of 0.1 to 0.1. Float addition from
        # the left, the built-in sum's before Python 3.12, gives
        # 0.09999999999999999, which missed both of p0's objectives and
        # ranked it last
        registry = fresh_registry()
        for csp_id, agreed in (("p0", (0.1, 0.1)), ("p1", (0.05, 0.2)), ("p2", (0.2, 0.05))):
            for csc_id, value in zip(("c1", "c2"), agreed):
                registry.submit_slo(SloRecord(csp_id, csc_id, "av", value))
                for _ in range(10):
                    registry.submit_amv(AmvRecord(csp_id, csc_id, "av", 0.1))
        request = AssessmentRequest((("av", span(0, 1)),))
        assert assess(registry, request).chain == "p0 > p1 > p2"
        # and so does a store's snapshot, and a parse of its files
        store = Store(tmp_path / "store")
        store.save(registry)
        for snapshot in (True, False):
            if not snapshot:
                (store.root / Store.SNAPSHOT_FILE).unlink()
            assert assess(store.load(log=False), request).chain == "p0 > p1 > p2"

    def test_failing_a_cost_check_flips_a_latency_tie(self):
        # the model scales a cost interval by the consistency rate, toward
        # lower and so better values: a missed latency objective ranks higher
        request = AssessmentRequest((("la", span(1, 100)),))
        chains = []
        for b_measured in (30, 45):  # b's second consumer: objective 30 met, then missed
            registry = fresh_registry()
            for csp_id, measured in (("a", (10, 30)), ("b", (10, b_measured))):
                for csc_id, slo, amv in zip(("c1", "c2"), (10, 30), measured):
                    registry.submit_slo(SloRecord(csp_id, f"{csp_id}-{csc_id}", "la", slo))
                    registry.submit_amv(AmvRecord(csp_id, f"{csp_id}-{csc_id}", "la", amv))
            chains.append(assess(registry, request).chain)
        assert chains == ["a > b", "b > a"]

    def test_cost_attribute_with_zero_lower_bound_fails(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "latency", 5, 10, satisfy=False)  # actual [0, 0]
        seed_provider(registry, "p2", "latency", 5, 10)
        request = AssessmentRequest((("latency", span(0, 100)),))
        # the reciprocal of [0, 0] is undefined, so matching drops p1
        assert tuple(match_candidates(registry, request)) == ("p2",)
        with pytest.raises(InsufficientCandidatesError) as refused:
            assess(registry, request)
        assert refused.value.candidates == ("p2",)

    def test_zero_rate_excluded_only_on_cost_attributes(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "latency", 5, 10, satisfy=False)  # actual [0, 0]
        seed_provider(registry, "p2", "latency", 5, 10)
        seed_provider(registry, "p3", "latency", 6, 12)
        for csp_id in ("p1", "p2", "p3"):
            seed_provider(registry, csp_id, "availability", 80, 90,
                          satisfy=csp_id != "p2")  # p2: benefit [0, 0], kept
        request = AssessmentRequest(
            (("latency", span(0, 100)), ("availability", span(0, 100))))
        result = assess(registry, request)
        assert result.candidates == ("p2", "p3")
        assert result.profiles[("p2", "availability")].actual_interval == span(0, 0)

    def test_every_benefit_rate_zero_refused(self):
        registry = fresh_registry()
        for csp_id in ("p1", "p2"):
            seed_provider(registry, csp_id, "availability", 80, 90, satisfy=False)
            seed_provider(registry, csp_id, "latency", 5, 10)
        request = AssessmentRequest(
            (("latency", span(1, 100)), ("availability", span(0, 100))))
        with pytest.raises(InsufficientCandidatesError, match="'availability'") as refused:
            assess(registry, request)
        assert refused.value.candidates == ("p1", "p2")
        assert "no candidate met any" in str(refused.value)
        assert assess(registry, request.restrict(["latency"])).candidates == ("p1", "p2")

    def test_one_attribute_requested_twice_refused(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 80, 90)
        seed_provider(registry, "p2", "availability", 70, 90)
        request = AssessmentRequest(
            (("av", span(0, 100)), ("availability", span(0, 100))))
        with pytest.raises(ValueError, match="'av' and 'availability' both name"):
            assess(registry, request)

    def test_result_request_spells_registered_names(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 80, 90)
        seed_provider(registry, "p2", "latency", 10, 20)
        seed_provider(registry, "p2", "availability", 70, 90)
        seed_provider(registry, "p1", "latency", 10, 30)
        request = AssessmentRequest((("la", span(0, 100)), ("availability", span(0, 100))))
        assert assess(registry, request).request.requested == (
            ("latency", span(0, 100)), ("availability", span(0, 100)))

    def test_unknown_requested_attribute(self):
        from fastcloud.registry import UnknownAttributeError

        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 80, 90)
        request = AssessmentRequest((("no_such_metric", span(1, 2)),))
        with pytest.raises(UnknownAttributeError):
            assess(registry, request)

    def test_audit_intermediates_recompose(self):
        result = assess(case_registry(), case_request())
        ctx = result.context
        assert normalize(ctx.decision) == ctx.normalized
        assert deviation_weights(ctx.normalized, ctx.decision.attributes) == ctx.weights
        assert trust_levels(ctx.normalized, ctx.weights) == ctx.trust_levels
        assert possibility_matrix(ctx.trust_levels) == ctx.possibility
        assert ordering_vector(ctx.possibility) == ctx.ordering
        assert rank(ctx) == result.ranking

    def test_matches_straight_line_recomputation(self):
        rng = random.Random(47)
        registry = fresh_registry()
        attrs = ["availability", "throughput", "latency"]
        for i in range(4):
            for attr in attrs:
                lo = rng.uniform(5, 50)
                seed_provider(registry, f"p{i}", attr, lo, lo + rng.uniform(1, 30))
        request = AssessmentRequest(tuple(
            (a, span(0.1, 1000)) for a in attrs
        ))
        result = assess(registry, request)

        # independent recomputation straight from the raw records
        providers = sorted(registry.providers)
        amvs = list(registry.amvs)
        grid = []
        for csp in providers:
            row = []
            for attr in attrs:
                records = [r for r in registry.slos.values()
                           if r.csp_id == csp and r.attribute == attr]
                polarity = registry.attributes[attr].polarity
                satisfied = 0
                for record in records:
                    values = [a.value for a in amvs if a.key == record.key]
                    if values:
                        mean = sum(values) / len(values)
                        ok = mean >= record.value if polarity is Polarity.BENEFIT \
                            else mean <= record.value
                        satisfied += 1 if ok else 0
                rate = satisfied / len(records)
                lo = min(r.value for r in records)
                hi = max(r.value for r in records)
                row.append((rate * lo, rate * hi))
            grid.append(row)
        for row, ctx_row in zip(grid, result.context.decision.cells):
            for (lo, hi), cell in zip(row, ctx_row):
                assert cell.lower == lo and cell.upper == hi


def render_by_dumps(document):
    """The structured layout written by one ``json.dumps`` call per key, element and value."""
    lines = []
    for key, value in document.items():
        head = f"  {json.dumps(key)}: "
        if isinstance(value, list) and value:
            elements = ",\n    ".join(map(json.dumps, value))
            lines.append(f"{head}[\n    {elements}\n  ]")
        else:
            lines.append(head + json.dumps(value))
    return "{\n" + ",\n".join(lines) + "\n}"


class TestResultDocument:
    def test_contains_all_sections_in_stable_order(self):
        result = assess(case_registry(), case_request())
        doc = result_document(result)
        assert list(doc.keys()) == [
            "request", "candidates", "chain", "ranking", "weights",
            "possibility_matrix", "normalized", "decision", "profiles",
            "elapsed_seconds",
        ]
        text1 = json.dumps(doc)
        doc2 = result_document(assess(case_registry(), case_request()))
        doc.pop("elapsed_seconds")
        doc2.pop("elapsed_seconds")
        assert json.dumps(doc) == json.dumps(doc2)
        assert isinstance(text1, str)

    def test_structured_rendering_writes_what_json_dumps_writes(self):
        registry, request = case_registry(), case_request()
        names = [name for name, _ in request.requested]
        documents = []
        for size in range(1, len(names) + 1):
            for subset in itertools.combinations(names, size):
                try:
                    result = assess(registry, request.restrict(list(subset)))
                except InsufficientCandidatesError:
                    continue
                documents.append(result_document(result))
        assert len(documents) == 63
        rng = random.Random(11)
        pieces = ['"', "\\", "}, {", "\x00", "\n", "\u00e9", "\u2603", "\U0001f600", "a", " "]

        def text():
            return "".join(rng.choice(pieces) for _ in range(rng.randrange(5)))

        def value(depth):
            kind = rng.randrange(6 if depth < 3 else 3)
            if kind == 0:
                return text()
            if kind == 1:
                return rng.choice([rng.uniform(-1e6, 1e6), 0.0, -0.0, 5e-324, 1e308, math.inf,
                                   -math.inf, math.nan, None, True, False, 0, -3, 2 ** 70])
            if kind == 2:
                return []
            if kind in (3, 4):
                return [value(depth + 1) for _ in range(rng.randrange(4))]
            return {text(): value(depth + 1) for _ in range(rng.randrange(4))}

        documents += [{text(): value(0) for _ in range(rng.randrange(1, 6))} for _ in range(300)]
        # no key, and top-level values that are empty containers
        documents += [{}, {"a": []}, {"a": {}}, {"a": [], "b": {}, "c": [[], {}]}]
        for document in documents:
            assert render_structured(document) == render_by_dumps(document), document
        assert render_structured({}) == "{\n\n}"

    def test_structured_rendering_refuses_a_document_that_contains_itself(self):
        document = {"chain": "p1 > p2"}
        document["self"] = document
        looped = [0.5]
        looped.append(looped)
        for cyclic in (document, {"ranking": looped}, {"ranking": [{"row": looped}]}):
            with pytest.raises((RecursionError, ValueError)):
                render_structured(cyclic)

    def test_human_rendering_has_chain_and_weights(self):
        result = assess(case_registry(), case_request())
        text = render_human(result)
        assert text.startswith(f"ranking: {result.chain}")
        assert "weights:" in text
        for attr in result.context.decision.attributes:
            assert attr.name in text

    def test_human_rendering_aligns_the_score_column_past_long_ids(self):
        registry = fresh_registry()
        ids = ("FlightStatusFeed", "CurrencyConverter", "p1")  # 16, 17 and 2 characters
        for csp_id, lo in zip(ids, (70, 80, 90)):
            seed_provider(registry, csp_id, "availability", lo, lo + 5)
        result = assess(registry, AssessmentRequest((("availability", span(50, 100)),)))
        header, *rows = render_human(result).split("\n\n")[1].splitlines()
        offset = header.index("score")
        assert offset == 5 + len("CurrencyConverter") + 1
        for row, r in zip(rows, result.ranking):
            assert row[5:offset].rstrip() == r.csp_id
            assert row[offset - 1] == " "
            assert row[offset:].startswith(f"{r.ordering_score:.4f}")
        assert len(rows) == len(ids)

    def test_human_rendering_keeps_a_space_before_vs_next_past_long_levels(self):
        registry = fresh_registry()
        # 110 providers put each trust level near 0.01, where many take 24 characters
        for i in range(110):
            lo = 60 + i * 0.3
            seed_provider(registry, f"p{i:03d}", "availability", lo, lo + 7)
        result = assess(registry, AssessmentRequest((("availability", span(50, 100)),)))
        header, *rows = render_human(result).split("\n\n")[1].splitlines()
        levels = [str(r.trust_level) for r in result.ranking]
        assert max(map(len, levels)) >= 24
        start, offset = header.index("trust level"), header.index("vs next")
        assert offset == start + max(map(len, levels)) + 1
        for row, r, level in zip(rows, result.ranking, levels):
            assert row[start:offset].rstrip() == level
            assert row[offset - 1] == " "
            vs = "-" if r.possibility_vs_next is None else f"{r.possibility_vs_next:.3f}"
            assert row[offset:] == vs
        assert len(rows) == 110

    def test_human_rendering_aligns_the_weight_column_past_long_names(self):
        registry = fresh_registry()
        registry.register_attribute(
            QosAttribute("documentation_quality", "dq", "%", Polarity.BENEFIT))  # 21 characters
        for csp_id, lo in (("p1", 70), ("p2", 80)):
            for attribute in ("availability", "documentation_quality"):
                seed_provider(registry, csp_id, attribute, lo, lo + 5)
        result = assess(registry, AssessmentRequest(
            (("availability", span(50, 100)), ("dq", span(50, 100)))))
        rows = render_human(result).split("weights:\n")[1].splitlines()
        offset = 2 + len("documentation_quality") + 1
        for row, attr, weight in zip(rows, result.context.decision.attributes,
                                     result.context.weights.weights):
            assert row[2:offset].rstrip() == attr.name
            assert row[offset - 1] == " "
            assert row[offset:] == f"{weight:.4f} ({attr.polarity.value})"
        assert len(rows) == 2
