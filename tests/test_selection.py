import collections
import dataclasses
import importlib.util
import io
import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest

import reference
from conftest import (COST_ATTRIBUTES, COST_ONLY_CHAIN, NAMED, case_registry, case_request,
                      fresh_registry, profile_fields)
from fastcloud import selection
from fastcloud.consistency import actual_slo_interval
from fastcloud.intervals import IntervalNumber
from fastcloud.registry import (
    AmvRecord,
    Polarity,
    QosAttribute,
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


def seed_provider(registry, csp_id, attribute, slo_lo, slo_hi, satisfy=True):
    """Two consumers holding the span endpoints; optionally all verified.

    Returns the SLO and AMV rows that it submitted.
    """
    polarity = registry.resolve_attribute(attribute).polarity
    slos, amvs = [], []
    for csc_id, value in ((f"{csp_id}-a", slo_lo), (f"{csp_id}-b", slo_hi)):
        if satisfy:
            amv = value
        else:
            amv = value - 1 if polarity is Polarity.BENEFIT else value + 1
        slos.append((csp_id, csc_id, attribute, value))
        amvs.append((csp_id, csc_id, attribute, max(amv, 0)))
        registry.submit_slo(SloRecord(*slos[-1]))
        registry.submit_amv(AmvRecord(*amvs[-1]))
    return slos, amvs


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
        assert tuple(match_candidates(registry.profile_table(), request)) == ("p1",)

    def test_provider_without_slo_excluded(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 87, 96)
        request = AssessmentRequest(
            (("availability", span(50, 100)), ("throughput", span(1, 35)))
        )
        assert tuple(match_candidates(registry.profile_table(), request)) == ()

    def test_disjoint_interval_excluded(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 10, 20)
        request = AssessmentRequest((("availability", span(30, 40)),))
        assert tuple(match_candidates(registry.profile_table(), request)) == ()

    def test_matching_uses_scaled_actual_interval(self):
        registry = fresh_registry()
        # declared span [80, 90] but nothing verified: actual [0, 0]
        seed_provider(registry, "p1", "availability", 80, 90, satisfy=False)
        assert actual_slo_interval(registry.profile_table(), "p1", "availability").actual_interval \
            == IntervalNumber(0, 0)
        request = AssessmentRequest((("availability", span(50, 100)),))
        assert tuple(match_candidates(registry.profile_table(), request)) == ()

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
            table = registry.profile_table()
            assert set(match_candidates(table, base)) <= set(
                match_candidates(table, wider)
            )


def named(rows):
    """Rows with their attribute by its name, as ``reference`` takes them."""
    return [(csp, csc, NAMED[attribute], *rest) for csp, csc, attribute, *rest in rows]


def random_store(rng):
    """SLO and AMV rows of a few providers, with attributes spelled either way, replaced
    SLOs, SLOs without monitored values and explicit sequences out of order."""
    slos, amvs = [], []
    for p in rng.sample(range(10), rng.randint(1, 6)):
        csp_id = f"p{p}"
        for attr in rng.sample(STANDARD_ATTRIBUTES, rng.randint(2, 6)):
            spellings = (attr.name, attr.abbreviation)
            for c in range(rng.randint(1, 4)):
                csc_id = f"{csp_id}-c{c}"
                for _ in range(rng.choice((1, 1, 2))):  # a second submission replaces
                    slos.append((csp_id, csc_id, rng.choice(spellings), rng.uniform(1, 100)))
                n = rng.choice((0, 1, 3, 5))
                explicit = rng.random() < 0.5
                for sequence in rng.sample(range(1, n + 1), n):
                    amvs.append((csp_id, csc_id, rng.choice(spellings), rng.uniform(0, 120),
                                 sequence if explicit else None))
    return slos, amvs


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
            slos, amvs = random_store(rng)
            registry = fresh_registry(slos, amvs)
            slos, amvs = named(slos), named(amvs)
            for key, mean in reference.means(amvs).items():
                assert repr(registry.amv_mean(*key)) == repr(mean)
            rows = reference.pair_rows(slos, amvs, COST_ATTRIBUTES)
            request, table = random_request(rng), registry.profile_table()
            requested = [(NAMED[name], (s.lower, s.upper)) for name, s in request.requested]
            result = match_candidates(table, request)
            assert list(result) == sorted(result)
            assert list(result.excluded) == sorted(result.excluded)
            assert set(result) | set(result.excluded) == {csp_id for csp_id, _ in rows}
            assert not set(result) & set(result.excluded)
            for csp_id, profiles in result.items():
                assert reference.first_cause(rows, csp_id, requested, COST_ATTRIBUTES) is None
                assert len(profiles) == len(request.requested)
                for profile, (name, _) in zip(profiles, requested):
                    assert repr(profile) == repr(actual_slo_interval(table, csp_id, name))
                    assert repr(profile_fields(profile)) == repr(
                        reference.profile(rows[csp_id, name]))
                    matched_profiles += 1
            for csp_id, cause in result.excluded.items():
                assert cause == reference.first_cause(rows, csp_id, requested, COST_ATTRIBUTES)
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
        result = match_candidates(registry.profile_table(), request)
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
        assert assess(registry.profile_table(), request).candidates == ("p0", "p1")
        empty = match_candidates(fresh_registry().profile_table(), request)
        assert (len(empty), list(empty), empty.excluded) == (0, [], {})

    def test_refusal_names_the_exclusions_matching_found(self, monkeypatch):
        table = self.crafted_store().profile_table()
        request = AssessmentRequest((("av", span(91, 100)), ("la", span(0, 100))))
        built = []
        from_row = selection.from_row

        def counted(csp_id, attribute, row):
            built.append((csp_id, attribute))
            return from_row(csp_id, attribute, row)

        monkeypatch.setattr(selection, "from_row", counted)
        with pytest.raises(InsufficientCandidatesError) as refused:
            assess(table, request)
        assert str(refused.value) == (
            "insufficient candidates for a ranking (only p0 matched; "
            "p1 excluded: actual interval [80, 90] misses [91, 100] on 'availability'; "
            "p2 excluded: actual interval [40, 50] misses [91, 100] on 'availability'; "
            "p3 excluded: no SLO on 'availability'; "
            "p4 excluded: actual interval [80, 90] misses [91, 100] on 'availability'; "
            "p5 excluded: actual interval [80, 90] misses [91, 100] on 'availability'); "
            "relax the requested spans")
        # one profile per (provider, attribute) that matching reached, and no more
        assert built == [
            ("p0", "availability"), ("p0", "latency"), ("p1", "availability"),
            ("p2", "availability"), ("p4", "availability"), ("p5", "availability")]


class TestAssess:
    def test_case_fixture_runs_end_to_end(self):
        result = assess(case_registry().profile_table(), case_request())
        assert set(result.candidates) == {"CSP1", "CSP2", "CSP3", "CSP4", "CSP5"}
        assert len(result.ranking) == 5
        scores = [r.ordering_score for r in result.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_modulo_timing(self):
        first = assess(case_registry().profile_table(), case_request())
        second = assess(case_registry().profile_table(), case_request())
        assert first.context == second.context
        assert first.ranking == second.ranking
        assert first.chain == second.chain

    def test_cost_only_subset_chain(self):
        request = case_request().restrict(["latency", "response_time"])
        result = assess(case_registry().profile_table(), request)
        assert result.chain == COST_ONLY_CHAIN.replace("CSP", "CSP")

    def test_insufficient_candidates_reports_matched(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 80, 90)
        request = AssessmentRequest((("availability", span(50, 100)),))
        with pytest.raises(InsufficientCandidatesError) as err:
            assess(registry.profile_table(), request)
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
            assess(registry.profile_table(), request)
        assert str(refused.value) == (
            "insufficient candidates for a ranking (no provider matched; "
            "p1 excluded: no SLO on 'latency'; "
            "p2 excluded: actual interval [40, 50] misses [60, 100] on 'availability'; "
            "p3 excluded: no SLO on 'availability'; "
            "p4 excluded: zero consistency rate on cost attribute 'latency'); "
            "relax the requested spans")
        # without a span among the causes, relaxing the spans is not advised
        with pytest.raises(InsufficientCandidatesError) as refused:
            assess(registry.profile_table(), request.restrict(["la"]))
        assert str(refused.value) == (
            "insufficient candidates for a ranking (only p3 matched; "
            "p1 excluded: no SLO on 'latency'; p2 excluded: no SLO on 'latency'; "
            "p4 excluded: zero consistency rate on cost attribute 'latency'); "
            "leave the attributes named above out of the request")
        with pytest.raises(InsufficientCandidatesError) as refused:
            assess(fresh_registry().profile_table(), request)
        assert str(refused.value).endswith(
            "(no provider matched); the store holds SLOs of fewer than two providers")

    def test_two_identical_candidates_tie_on_id(self):
        registry = fresh_registry()
        seed_provider(registry, "pB", "availability", 80, 90)
        seed_provider(registry, "pA", "availability", 80, 90)
        request = AssessmentRequest((("availability", span(50, 100)),))
        result = assess(registry.profile_table(), request)
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
        assert assess(registry.profile_table(), request).chain == "p0 > p1 > p2"
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
            chains.append(assess(registry.profile_table(), request).chain)
        assert chains == ["a > b", "b > a"]

    def test_cost_attribute_with_zero_lower_bound_fails(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "latency", 5, 10, satisfy=False)  # actual [0, 0]
        seed_provider(registry, "p2", "latency", 5, 10)
        request = AssessmentRequest((("latency", span(0, 100)),))
        # the reciprocal of [0, 0] is undefined, so matching drops p1
        assert tuple(match_candidates(registry.profile_table(), request)) == ("p2",)
        with pytest.raises(InsufficientCandidatesError) as refused:
            assess(registry.profile_table(), request)
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
        result = assess(registry.profile_table(), request)
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
            assess(registry.profile_table(), request)
        assert refused.value.candidates == ("p1", "p2")
        assert "no candidate met any" in str(refused.value)
        latency = request.restrict(["latency"])
        assert assess(registry.profile_table(), latency).candidates == ("p1", "p2")

    def test_one_attribute_requested_twice_refused(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 80, 90)
        seed_provider(registry, "p2", "availability", 70, 90)
        request = AssessmentRequest(
            (("av", span(0, 100)), ("availability", span(0, 100))))
        with pytest.raises(ValueError, match="'av' and 'availability' both name"):
            assess(registry.profile_table(), request)

    def test_result_request_spells_registered_names(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 80, 90)
        seed_provider(registry, "p2", "latency", 10, 20)
        seed_provider(registry, "p2", "availability", 70, 90)
        seed_provider(registry, "p1", "latency", 10, 30)
        request = AssessmentRequest((("la", span(0, 100)), ("availability", span(0, 100))))
        assert assess(registry.profile_table(), request).request.requested == (
            ("latency", span(0, 100)), ("availability", span(0, 100)))

    def test_unknown_requested_attribute(self):
        from fastcloud.registry import UnknownAttributeError

        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 80, 90)
        request = AssessmentRequest((("no_such_metric", span(1, 2)),))
        with pytest.raises(UnknownAttributeError):
            assess(registry.profile_table(), request)

    def test_only_a_profile_table_is_assessed(self):
        registry = fresh_registry()
        seed_provider(registry, "p1", "availability", 80, 90)
        seed_provider(registry, "p2", "availability", 70, 90)
        request = AssessmentRequest((("av", span(50, 100)),))
        # refused before the request resolves: an unknown name is not what it reports
        unknown = AssessmentRequest((("no_such_metric", span(1, 2)),))
        for given in (registry, registry.profile_table().rows, None):
            for asked in (request, unknown):
                with pytest.raises(TypeError, match=re.escape(
                        f"not a {type(given).__name__}: pass registry.profile_table()")):
                    assess(given, asked)
        assert assess(registry.profile_table(), request).candidates == ("p1", "p2")

    def test_the_readme_s_library_use_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library use\n", 1)[1]
        example = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        exec(compile(example, "README.md (Library use)", "exec"), {})
        assert capsys.readouterr().out.splitlines()[0] == "alpha > beta"

    def test_audit_intermediates_recompose(self):
        result = assess(case_registry().profile_table(), case_request())
        ctx = result.context
        assert normalize(ctx.decision) == ctx.normalized
        assert deviation_weights(ctx.normalized, ctx.decision.attributes) == ctx.weights
        assert trust_levels(ctx.normalized, ctx.weights) == ctx.trust_levels
        assert possibility_matrix(ctx.trust_levels) == ctx.possibility
        assert ordering_vector(ctx.possibility) == ctx.ordering
        assert rank(ctx) == result.ranking

    def test_matches_straight_line_recomputation(self):
        rng = random.Random(47)
        attrs = ["availability", "throughput", "latency"]
        # ten values of 0.1, whose math.fsum mean meets an objective of 0.1 and
        # whose built-in sum falls short of it, and an agreement with no
        # monitored value, outside its pair's monitored span
        slos = [("p0", "p0-c", "availability", 0.1), ("p1", "p1-u", "throughput", 500.0)]
        amvs = [("p0", "p0-c", "availability", 0.1)] * 10
        registry = fresh_registry(slos, amvs)
        for i in range(4):
            for attr in attrs:
                lo = rng.uniform(5, 50)
                filed = seed_provider(registry, f"p{i}", attr, lo, lo + rng.uniform(1, 30))
                slos += filed[0]
                amvs += filed[1]
        request = AssessmentRequest(tuple(
            (a, span(0.1, 1000)) for a in attrs
        ))
        result = assess(registry.profile_table(), request)

        rows = reference.pair_rows(slos, amvs, COST_ATTRIBUTES)
        cells = [[reference.profile(rows[csp, attr])[4] for attr in attrs]
                 for csp in sorted({csp for csp, _ in rows})]
        assert [[(cell.lower, cell.upper) for cell in row]
                for row in result.context.decision.cells] == cells


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assert_written_as_the_reference(result):
    """``render_structured`` writes the reference's layout of the reference's document,
    and ``result_document`` parses to that document."""
    expected = reference.result_document(result)
    assert render_structured(result) == reference.render_structured(expected)
    # repr, not ==: it holds NaN equal to NaN, and tells 1 from 1.0 and -0.0 from 0.0
    assert repr(result_document(result)) == repr(expected)


class TestResultDocument:
    def test_contains_all_sections_in_stable_order(self):
        result = assess(case_registry().profile_table(), case_request())
        doc = result_document(result)
        assert list(doc.keys()) == [
            "request", "candidates", "chain", "ranking", "weights",
            "possibility_matrix", "normalized", "decision", "profiles",
            "elapsed_seconds",
        ]
        text1 = json.dumps(doc)
        doc2 = result_document(assess(case_registry().profile_table(), case_request()))
        doc.pop("elapsed_seconds")
        doc2.pop("elapsed_seconds")
        assert json.dumps(doc) == json.dumps(doc2)
        assert isinstance(text1, str)

    def test_every_case_subset_is_written_as_the_reference(self):
        table, request = case_registry().profile_table(), case_request()
        names = [name for name, _ in request.requested]
        written = 0
        for size in range(1, len(names) + 1):
            for subset in itertools.combinations(names, size):
                try:
                    result = assess(table, request.restrict(list(subset)))
                except InsufficientCandidatesError:
                    continue
                assert_written_as_the_reference(result)
                written += 1
        assert written == 63

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_assess_deep_request_is_written_as_the_reference(self, tmp_path, monkeypatch,
                                                                   seed):
        monkeypatch.syspath_prepend(str(PERFBENCH))  # for the workloads' own imports
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        workload = workloads.AssessDeep()
        # the requests of a 20-second run, its 4 warm-up ops included
        state, _ = workload.setup(workload.generate(seed, 4 + workload.timed_ops(20)), tmp_path)
        table = Store(state["store"]).load(log=False)
        for path in state["requests"]:
            with open(path, newline="", encoding="utf-8") as fh:
                assert_written_as_the_reference(assess(table, read_request(fh)))

    def test_ids_that_json_escapes_are_written_as_the_reference(self):
        rng, written = random.Random(5), 0
        pieces = ['"', "\\", "}, {", "\u00e9", "\u2603", "\U0001f600", "a\nb", "x"]
        for _ in range(20):
            registry = fresh_registry()
            ids = {"p" + "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 4)))
                   for _ in range(rng.randrange(2, 6))}
            for csp_id in ids:
                for attr in ("availability", "latency"):
                    lo = rng.uniform(5, 50)
                    seed_provider(registry, csp_id, attr, lo, lo + rng.uniform(1, 30),
                                  satisfy=rng.random() < 0.7)
            request = AssessmentRequest((("av", span(0.1, 1000)), ("latency", span(0.1, 1000))))
            try:
                result = assess(registry.profile_table(), request)
            except InsufficientCandidatesError:
                continue
            assert_written_as_the_reference(result)
            written += 1
        assert written >= 10

    def test_non_finite_possibility_entries_are_written_as_json_dumps_writes(self):
        result = assess(case_registry().profile_table(), case_request())
        ctx = result.context
        possibility = [list(row) for row in ctx.possibility]
        possibility[0][1], possibility[1][0], possibility[2][3] = math.nan, math.inf, -math.inf
        first, second, *rest = result.ranking
        result = dataclasses.replace(
            result,
            context=dataclasses.replace(ctx, possibility=tuple(map(tuple, possibility))),
            ranking=(dataclasses.replace(first, ordering_score=math.nan,
                                         possibility_vs_next=-math.inf),
                     dataclasses.replace(second, possibility_vs_next=math.nan), *rest))
        assert_written_as_the_reference(result)
        text = render_structured(result)
        assert '"ordering_score": NaN,' in text and '"possibility_vs_next": -Infinity}' in text
        assert "[0.5, NaN, " in text and "[Infinity, 0.5, " in text and ", -Infinity, " in text

    def test_human_rendering_has_chain_and_weights(self):
        result = assess(case_registry().profile_table(), case_request())
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
        request = AssessmentRequest((("availability", span(50, 100)),))
        result = assess(registry.profile_table(), request)
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
        request = AssessmentRequest((("availability", span(50, 100)),))
        result = assess(registry.profile_table(), request)
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
        result = assess(registry.profile_table(), AssessmentRequest(
            (("availability", span(50, 100)), ("dq", span(50, 100)))))
        rows = render_human(result).split("weights:\n")[1].splitlines()
        offset = 2 + len("documentation_quality") + 1
        for row, attr, weight in zip(rows, result.context.decision.attributes,
                                     result.context.weights.weights):
            assert row[2:offset].rstrip() == attr.name
            assert row[offset - 1] == " "
            assert row[offset:] == f"{weight:.4f} ({attr.polarity.value})"
        assert len(rows) == 2
