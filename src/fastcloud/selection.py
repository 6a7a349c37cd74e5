"""End-to-end assessment: match candidates, build profiles, score and rank.

A request names the attributes the requester cares about together with an
acceptable span per attribute. Providers qualify when, for every requested
attribute, they hold at least one agreed SLO and their actual (rate-scaled)
interval intersects the requested span. ``match_candidates`` decides that in
one pass over the providers: it resolves each requested attribute once,
takes each provider's profiles in request order, and stops at the first
cause that excludes the provider. Its result carries those causes, and a
request that matches fewer than two providers is refused with them. The
qualified set is then scored by the trust engine and returned with every
intermediate retained for audit.

Assessments read one type, a ``ProfileTable``: the attributes and each
pair's ``profile_of`` row, which ``Registry.profile_table()`` builds and
``Store.load(log=False)`` loads. They write nothing, so any number may run
concurrently against the same table.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import TextIO

# actual_slo_interval is no stage of the pass, but stays importable here: the
# benchmark's layer tracer wraps it by this name
from .consistency import ConsistencyProfile, actual_slo_interval, from_row
from .intervals import IntervalNumber
from .registry import (REQUEST_COLUMNS, Polarity, ProfileTable, parse_request, read_rows,
                       refused_at)
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
        missing = set(names) - {n for n, _ in self.requested}
        if missing:
            raise ValueError(f"attributes not in the request: {', '.join(sorted(missing))}")
        return AssessmentRequest(tuple((n, s) for n, s in self.requested if n in names))

    def resolved(self, table: ProfileTable) -> "AssessmentRequest":
        """This request spelled by registered names; two spellings of one attribute are refused."""
        names = table.resolve_names([n for n, _ in self.requested], "requested attributes")
        return AssessmentRequest(tuple((names[name], span) for name, span in self.requested))


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


class Candidates(dict):
    """The matched providers, sorted, each mapped to its profiles in request order.

    ``excluded`` maps every other provider that holds an SLO, sorted, to the
    first cause that excluded it.
    """

    def __init__(self, matched: dict[str, tuple[ConsistencyProfile, ...]],
                 excluded: dict[str, str]):
        super().__init__(matched)
        self.excluded = excluded


def match_candidates(table: ProfileTable, request: AssessmentRequest) -> Candidates:
    """Providers whose actual interval intersects every requested span.

    One pass takes each provider's profiles in request order, each
    ``from_row`` of the table's ``profile_of`` row for a pair it reaches,
    and stops at the provider's first cause of exclusion: no SLO on a
    requested attribute, an actual interval that misses the requested span,
    or a zero consistency rate on a cost attribute (the interval [0, 0] has
    no reciprocal, which normalization takes for cost attributes). Every
    provider that holds an SLO is either matched or excluded.
    """
    requested = [(table.resolve_attribute(name), span) for name, span in request.requested]
    rows, matched, excluded = table.rows, {}, {}
    for csp_id in sorted({csp for csp, _ in rows}):
        profiles = []
        for attr, span in requested:
            row = rows.get((csp_id, attr.name))
            if row is None:
                excluded[csp_id] = f"no SLO on {attr.name!r}"
                break
            profile = from_row(csp_id, attr.name, row)
            actual = profile.actual_interval
            if not actual.intersects(span):
                excluded[csp_id] = f"actual interval {actual} misses {span} on {attr.name!r}"
                break
            if actual.lower == 0 and attr.polarity is Polarity.COST:
                excluded[csp_id] = f"zero consistency rate on cost attribute {attr.name!r}"
                break
            profiles.append(profile)
        else:
            matched[csp_id] = tuple(profiles)
    return Candidates(matched, excluded)


def assess(table: ProfileTable, request: AssessmentRequest) -> AssessmentResult:
    """Full assessment pipeline over the matched candidate set.

    Anything but a ``ProfileTable`` is refused (TypeError) before the
    request is resolved. Attribute names resolve here, once, by
    ``request.resolved``: the result's request spells each attribute by its
    registered name.
    """
    if not isinstance(table, ProfileTable):
        raise TypeError(f"assess reads a ProfileTable, not a {type(table).__name__}: "
                        "pass registry.profile_table()")
    started = time.perf_counter()
    request = request.resolved(table)
    attributes = tuple(table.attributes[name] for name, _ in request.requested)
    matched = match_candidates(table, request)
    candidates = tuple(matched)
    if len(candidates) < 2:
        raise _too_few(candidates, matched.excluded)
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


def _too_few(candidates: tuple[str, ...],
             excluded: dict[str, str]) -> InsufficientCandidatesError:
    """The refusal of a request that matched fewer than two providers.

    It names each excluded provider's first cause, as matching found it, and
    advises relaxing the spans only when a span was a cause.
    """
    detail = "; ".join([
        f"only {', '.join(candidates)} matched" if candidates else "no provider matched",
        *(f"{csp_id} excluded: {cause}" for csp_id, cause in excluded.items())])
    if any(cause.startswith("actual interval") for cause in excluded.values()):
        advice = "relax the requested spans"
    elif excluded:
        advice = "leave the attributes named above out of the request"
    else:
        advice = "the store holds SLOs of fewer than two providers"
    return InsufficientCandidatesError(candidates, detail, advice)


# -- request file and result document ---------------------------------------

def read_request(source: TextIO) -> AssessmentRequest:
    """Parse a request file: header ``attribute,min,max``, one line per attribute."""
    requested = []
    for line, fields in read_rows(source, REQUEST_COLUMNS):
        with refused_at(line=line):
            requested.append(parse_request(fields))
    return AssessmentRequest(tuple(requested))


# The structured layout: one line per top-level key, in this order
_DOCUMENT = ('{\n  "request": %s,\n  "candidates": %s,\n  "chain": %s,\n  "ranking": %s,\n'
             '  "weights": {%s},\n  "possibility_matrix": %s,\n  "normalized": %s,\n'
             '  "decision": %s,\n  "profiles": %s,\n  "elapsed_seconds": %r\n}')
_REQUEST = '{"attribute": %s, "min": %r, "max": %r}'
_RANKING = ('{"csp_id": %s, "ordering_score": %s, "trust_level": [%r, %r], '
            '"possibility_vs_next": %s}')
_PROFILE = ('{"csp_id": %s, "attribute": %s, "consistency_rate": %r, "satisfied": %r, '
            '"agreed": %r, "slo_span": [%r, %r], "actual_interval": %s}')


def _listed(elements: list[str]) -> str:
    """A top-level list, one element per line; every list of a result has one or more."""
    return "[\n    %s\n  ]" % ",\n    ".join(elements)


def _json_numbers(text: str) -> str:
    """Text of float reprs, each non-finite one spelled as ``json.dumps`` spells it.

    ``repr`` spells no finite float with an ``n``, and NaN, Infinity and
    -Infinity are what ``json.dumps`` writes for ``nan``, ``inf`` and ``-inf``.
    """
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def render_structured(result: AssessmentResult) -> str:
    """A result as JSON text, written in one pass over its fields.

    Keys come in a fixed order, one line per top-level key and one per
    element of a top-level list. Every id and name is written by
    ``encode_basestring_ascii``, every number as ``json.dumps`` writes it:
    a float by its ``repr``, and a non-finite one as NaN or ±Infinity.
    Only the values taken from the possibility matrix can be non-finite: an
    entry is NaN when a sum of two trust-level widths overflows. Each float
    is formatted once: a decision cell's text is also its profile's actual
    interval.
    """
    ctx = result.context
    decision = ctx.decision
    ids = {csp_id: encode_basestring_ascii(csp_id) for csp_id in decision.providers}
    names = {attr.name: encode_basestring_ascii(attr.name) for attr in decision.attributes}
    column = {name: k for k, name in enumerate(names)}
    cells = {csp_id: ["[%r, %r]" % (cell.lower, cell.upper) for cell in row]
             for csp_id, row in zip(decision.providers, decision.cells)}
    return _DOCUMENT % (
        _listed([_REQUEST % (encode_basestring_ascii(name), span.lower, span.upper)
                 for name, span in result.request.requested]),
        _listed([ids[csp_id] for csp_id in result.candidates]),
        encode_basestring_ascii(result.chain),
        _listed([_RANKING % (ids[r.csp_id], _json_numbers(repr(r.ordering_score)),
                             r.trust_level.lower, r.trust_level.upper,
                             "null" if r.possibility_vs_next is None
                             else _json_numbers(repr(r.possibility_vs_next)))
                 for r in result.ranking]),
        ", ".join(["%s: %r" % pair for pair in zip(names.values(), ctx.weights.weights)]),
        _json_numbers(_listed(["[%s]" % ", ".join(map(repr, row)) for row in ctx.possibility])),
        _listed(["[%s]" % ", ".join(["[%r, %r]" % cell for cell in row])
                 for row in ctx.normalized]),
        _listed(["[%s]" % ", ".join(row) for row in cells.values()]),
        # the profile tuples order by their (csp_id, attribute) lead, unique in the map
        _listed([_PROFILE % (ids[p.csp_id], names[p.attribute], p.consistency_rate,
                             p.satisfied_count, p.agreed_count, p.slo_span.lower,
                             p.slo_span.upper, cells[p.csp_id][column[p.attribute]])
                 for p in sorted(result.profiles.values())]),
        result.elapsed_seconds,
    )


def result_document(result: AssessmentResult) -> dict:
    """A result as the JSON document that ``render_structured`` writes, parsed."""
    return json.loads(render_structured(result))


def render_human(result: AssessmentResult) -> str:
    """Readable multi-line report with the one-line ranking chain first."""
    ctx = result.context
    lines = [f"ranking: {result.chain}", ""]
    # 16 wide, or wider by as much as the longest id needs to keep a space
    width = max(16, 1 + max(len(r.csp_id) for r in result.ranking))
    levels = [str(r.trust_level) for r in result.ranking]
    # 24 wide, or wider by as much as the longest level needs to keep a space
    level_width = max(24, 1 + max(map(len, levels)))
    lines.append(f"{'rank':<5}{'provider':<{width}}{'score':<10}"
                 f"{'trust level':<{level_width}}vs next")
    for pos, (r, level) in enumerate(zip(result.ranking, levels), start=1):
        vs = "-" if r.possibility_vs_next is None else f"{r.possibility_vs_next:.3f}"
        lines.append(f"{pos:<5}{r.csp_id:<{width}}{r.ordering_score:<10.4f}"
                     f"{level:<{level_width}}{vs}")
    lines.append("")
    lines.append("weights:")
    width = max(16, 1 + max(len(attr.name) for attr in ctx.decision.attributes))
    for attr, w in zip(ctx.decision.attributes, ctx.weights.weights):
        lines.append(f"  {attr.name:<{width}}{w:.4f} ({attr.polarity.value})")
    return "\n".join(lines)
