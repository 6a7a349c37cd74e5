"""End-to-end assessment: match candidates, build profiles, score and rank.

A request names the attributes the requester cares about together with an
acceptable span per attribute. Providers qualify when, for every requested
attribute, they hold at least one agreed SLO and their actual (rate-scaled)
interval intersects the requested span. The qualified set is then scored by
the trust engine and returned with every intermediate retained for audit.

Assessments are read-only over a registry snapshot; any number may run
concurrently against the same snapshot.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import TextIO

from .consistency import ConsistencyProfile, actual_slo_interval
from .intervals import IntervalNumber
from .registry import REQUEST_COLUMNS, MissingSloError, Polarity, Registry, parse_request, read_rows
from .trust import (
    DecisionContext,
    DecisionMatrix,
    RankedProvider,
    evaluate,
    rank,
    ranking_chain,
)


class InsufficientCandidatesError(RuntimeError):
    """The matched providers cannot be ranked.

    Ranking needs pairs, and on each requested benefit attribute at least one
    candidate that met an objective: an all-zero column cannot be normalized.
    """

    def __init__(self, candidates: tuple[str, ...], detail: str, advice: str):
        self.candidates = candidates
        super().__init__(f"insufficient candidates for a ranking ({detail}); {advice}")


@dataclass(frozen=True)
class AssessmentRequest:
    """Requested attributes with the acceptable span for each."""

    requested: tuple[tuple[str, IntervalNumber], ...]

    def __post_init__(self) -> None:
        if not self.requested:
            raise ValueError("a request must name at least one attribute")
        names = [name for name, _ in self.requested]
        if len(set(names)) != len(names):
            raise ValueError("requested attribute names must be unique")

    def restrict(self, names: list[str]) -> "AssessmentRequest":
        """Sub-request over a subset of the requested attributes."""
        keep = {n for n in names}
        picked = tuple((n, s) for n, s in self.requested if n in keep)
        missing = keep - {n for n, _ in picked}
        if missing:
            raise ValueError(f"attributes not in the request: {', '.join(sorted(missing))}")
        return AssessmentRequest(picked)


@dataclass(frozen=True)
class AssessmentResult:
    request: AssessmentRequest
    candidates: tuple[str, ...]
    context: DecisionContext
    ranking: tuple[RankedProvider, ...]
    profiles: dict[tuple[str, str], ConsistencyProfile]
    elapsed_seconds: float

    @property
    def chain(self) -> str:
        return ranking_chain(self.ranking)


def match_candidates(
    registry: Registry, request: AssessmentRequest
) -> dict[str, tuple[ConsistencyProfile, ...]]:
    """Providers whose actual interval intersects every requested span.

    Missing SLO coverage on any requested attribute excludes a provider. So
    does a zero consistency rate on a cost attribute: the actual interval is
    then [0, 0], whose reciprocal, which normalization takes for cost
    attributes, is undefined. Maps each matched id, sorted for determinism,
    to its profiles in request order.
    """
    matched = {}
    for csp_id in sorted(registry.providers):
        profiles = []
        for name, span in request.requested:
            try:
                profile = actual_slo_interval(registry, csp_id, name)
            except MissingSloError:
                break
            actual = profile.actual_interval
            if not actual.intersects(span):
                break
            if (actual.lower == 0
                    and registry.attributes[profile.attribute].polarity is Polarity.COST):
                break
            profiles.append(profile)
        else:
            matched[csp_id] = tuple(profiles)
    return matched


def assess(registry: Registry, request: AssessmentRequest) -> AssessmentResult:
    """Full assessment pipeline over the matched candidate set."""
    started = time.perf_counter()
    attributes = tuple(registry.resolve_attribute(name) for name, _ in request.requested)
    spellings: dict[str, str] = {}
    for (name, _), attr in zip(request.requested, attributes):
        other = spellings.setdefault(attr.name, name)
        if other != name:
            raise ValueError(f"requested attributes {other!r} and {name!r} both name {attr.name!r}")
    matched = match_candidates(registry, request)
    candidates = tuple(matched)
    if len(candidates) < 2:
        detail = f"only {', '.join(candidates)} matched" if candidates else "no provider matched"
        raise InsufficientCandidatesError(candidates, detail, "relax the requested spans")
    for k, attr in enumerate(attributes):
        if (attr.polarity is Polarity.BENEFIT
                and not any(row[k].satisfied_count for row in matched.values())):
            raise InsufficientCandidatesError(
                candidates, f"no candidate met any of their {attr.name!r} objectives",
                f"leave {attr.name!r} out of the request")
    decision = DecisionMatrix(
        providers=candidates,
        attributes=attributes,
        cells=tuple(tuple(p.actual_interval for p in row) for row in matched.values()),
    )
    context = evaluate(decision)
    ranking = rank(context)
    return AssessmentResult(
        request=request,
        candidates=candidates,
        context=context,
        ranking=ranking,
        profiles={(p.csp_id, p.attribute): p for row in matched.values() for p in row},
        elapsed_seconds=time.perf_counter() - started,
    )


# -- request file and result document ---------------------------------------

def read_request(source: TextIO) -> AssessmentRequest:
    """Parse a request file: header ``attribute,min,max``, one line per attribute."""
    requested = []
    line = None
    try:
        for line, fields in read_rows(source, REQUEST_COLUMNS):
            requested.append(parse_request(fields))
    except ValueError as exc:
        # read_rows names the line of a row the csv module could not read
        where = ("request" if line is None or isinstance(exc.__cause__, csv.Error)
                 else f"request line {line}:")
        raise ValueError(f"{where} {exc}") from exc
    return AssessmentRequest(tuple(requested))


def result_document(result: AssessmentResult) -> dict:
    """Stable, JSON-ready rendering of a result; key order is fixed."""
    ctx = result.context
    return {
        "request": [
            {"attribute": name, "min": span.lower, "max": span.upper}
            for name, span in result.request.requested
        ],
        "candidates": list(result.candidates),
        "chain": result.chain,
        "ranking": [
            {
                "csp_id": r.csp_id,
                "ordering_score": r.ordering_score,
                "trust_level": [r.trust_level.lower, r.trust_level.upper],
                "possibility_vs_next": r.possibility_vs_next,
            }
            for r in result.ranking
        ],
        "weights": {
            attr.name: w
            for attr, w in zip(ctx.decision.attributes, ctx.weights.weights)
        },
        "possibility_matrix": [list(row) for row in ctx.possibility],
        "normalized": [
            [[cell.lower, cell.upper] for cell in row] for row in ctx.normalized.cells
        ],
        "decision": [
            [[cell.lower, cell.upper] for cell in row] for row in ctx.decision.cells
        ],
        "profiles": [
            {
                "csp_id": p.csp_id,
                "attribute": p.attribute,
                "consistency_rate": p.consistency_rate,
                "satisfied": p.satisfied_count,
                "agreed": p.agreed_count,
                "slo_span": [p.slo_span.lower, p.slo_span.upper],
                "actual_interval": [p.actual_interval.lower, p.actual_interval.upper],
            }
            for p in sorted(result.profiles.values(), key=lambda p: (p.csp_id, p.attribute))
        ],
        "elapsed_seconds": result.elapsed_seconds,
    }


def render_human(result: AssessmentResult) -> str:
    """Readable multi-line report with the one-line ranking chain first."""
    ctx = result.context
    lines = [f"ranking: {result.chain}", ""]
    lines.append(f"{'rank':<5}{'provider':<16}{'score':<10}{'trust level':<24}vs next")
    for pos, r in enumerate(result.ranking, start=1):
        vs = "-" if r.possibility_vs_next is None else f"{r.possibility_vs_next:.3f}"
        lines.append(
            f"{pos:<5}{r.csp_id:<16}{r.ordering_score:<10.4f}{str(r.trust_level):<24}{vs}"
        )
    lines.append("")
    lines.append("weights:")
    for attr, w in zip(ctx.decision.attributes, ctx.weights.weights):
        lines.append(f"  {attr.name:<16}{w:.4f} ({attr.polarity.value})")
    return "\n".join(lines)
