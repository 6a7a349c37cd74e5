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

Assessments read a ``Registry`` or a ``ProfileTable`` alike and write
neither; any number may run concurrently against the same one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import TextIO

# actual_slo_interval is no stage of the pass, but stays importable here: the
# benchmark's layer tracer wraps it by this name
from .consistency import ConsistencyProfile, actual_slo_interval, from_row
from .intervals import IntervalNumber
from .registry import (REQUEST_COLUMNS, Polarity, ProfileTable, Registry, parse_request,
                       read_rows, refused_at)
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

    def resolved(self, registry: Registry | ProfileTable) -> "AssessmentRequest":
        """This request spelled by registered names; two spellings of one attribute are refused."""
        names = registry.resolve_names([n for n, _ in self.requested], "requested attributes")
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


def match_candidates(registry: Registry | ProfileTable, request: AssessmentRequest) -> Candidates:
    """Providers whose actual interval intersects every requested span.

    One pass takes each provider's profiles in request order, from a
    table's rows or built by a registry for the pairs it reaches,
    and stops at the provider's first cause of exclusion: no SLO on a
    requested attribute, an actual interval that misses the requested span,
    or a zero consistency rate on a cost attribute (the interval [0, 0] has
    no reciprocal, which normalization takes for cost attributes). Every
    provider that holds an SLO is either matched or excluded.
    """
    requested = [(registry.resolve_attribute(name), span) for name, span in request.requested]
    matched, excluded = {}, {}
    for csp_id in sorted(registry.providers):
        profiles = []
        for attr, span in requested:
            row = registry.profile_row(csp_id, attr)
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


def assess(registry: Registry | ProfileTable, request: AssessmentRequest) -> AssessmentResult:
    """Full assessment pipeline over the matched candidate set.

    Attribute names resolve here, once, by ``request.resolved``: the
    result's request spells each attribute by its registered name.
    """
    started = time.perf_counter()
    request = request.resolved(registry)
    attributes = tuple(registry.attributes[name] for name, _ in request.requested)
    matched = match_candidates(registry, request)
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
        "normalized": [[list(cell) for cell in row] for row in ctx.normalized],
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
            # the profile tuples order by their (csp_id, attribute) lead, unique in the map
            for p in sorted(result.profiles.values())
        ],
        "elapsed_seconds": result.elapsed_seconds,
    }


# markers (None: no circular check), default, string encoder, indent, key
# and item separators, sort_keys, skipkeys, allow_nan: but for the markers,
# as json.dumps passes them by default
_encode = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None,
                         ": ", ", ", False, False, True)


def render_structured(document: dict) -> str:
    """A result document as JSON text, with one line per top-level key.

    A non-empty top-level list puts each element on a line of its own;
    every key, element and other value is written as ``json.dumps`` writes
    it, by one C encoder made once with ``json.dumps``'s default settings
    (any ``indent`` would fall back to the pure-Python encoder). The text
    parses to the same document as ``json.dumps(document, indent=2)``.

    One pass pushes every piece of the text onto one list, joined once, so
    no line or element is built as a string of its own first. The encoder
    keeps no markers for a circular check, because a result document is a
    fresh tree that holds no container twice; a document that contains
    itself still raises ``RecursionError`` instead of returning text.
    """
    pieces = ["{\n"]
    push, extend = pieces.append, pieces.extend
    opener = "  "
    for key, value in document.items():
        push(opener)
        extend(_encode(key, 0))
        if isinstance(value, list) and value:
            separator = ": [\n    "
            for element in value:
                push(separator)
                extend(_encode(element, 0))
                separator = ",\n    "
            push("\n  ]")
        else:
            push(": ")
            extend(_encode(value, 0))
        opener = ",\n  "
    push("\n}")
    return "".join(pieces)


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
