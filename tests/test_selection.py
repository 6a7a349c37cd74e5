import io
import json
import random

import pytest

from conftest import COST_ONLY_CHAIN, case_registry, case_request
from fastcloud.consistency import actual_slo_interval
from fastcloud.intervals import IntervalNumber
from fastcloud.registry import (
    AmvRecord,
    Polarity,
    Registry,
    SloRecord,
    STANDARD_ATTRIBUTES,
)
from fastcloud.selection import (
    AssessmentRequest,
    InsufficientCandidatesError,
    assess,
    match_candidates,
    read_request,
    render_human,
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
        with pytest.raises(ValueError, match="request line 4: malformed row"):
            read_request(io.StringIO(text))

    def test_parse_rejects_empty_file(self):
        with pytest.raises(ValueError, match="request file is empty"):
            read_request(io.StringIO(""))

    def test_parse_names_the_line_of_an_unreadable_row(self):
        text = "attribute,min,max\nav,50,100\n" + "x" * 200_000 + ",1,2\n"
        with pytest.raises(ValueError, match="^request line 3: field larger than field limit"):
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

    def test_two_identical_candidates_tie_on_id(self):
        registry = fresh_registry()
        seed_provider(registry, "pB", "availability", 80, 90)
        seed_provider(registry, "pA", "availability", 80, 90)
        request = AssessmentRequest((("availability", span(50, 100)),))
        result = assess(registry, request)
        assert [r.csp_id for r in result.ranking] == ["pA", "pB"]
        assert all(r.ordering_score == pytest.approx(0.5) for r in result.ranking)

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
        assert deviation_weights(ctx.normalized) == ctx.weights
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

    def test_human_rendering_has_chain_and_weights(self):
        result = assess(case_registry(), case_request())
        text = render_human(result)
        assert text.startswith(f"ranking: {result.chain}")
        assert "weights:" in text
        for attr in result.context.decision.attributes:
            assert attr.name in text
