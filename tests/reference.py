"""The model, once more, as a naive straight-line computation over plain tuples.

The tests compare the package with it. It imports only the standard library,
nothing of ``fastcloud``, so each comparison is between two independent
computations; a change of the model edits it here once. A test feeds it the
rows that it filed itself, with each attribute by its registered name:

- SLO rows ``(csp, csc, attribute, value)``; a later row of a triple
  replaces the earlier one, in its place;
- AMV rows ``(csp, csc, attribute, value[, sequence])``;
- ``cost_attributes``, the names of the cost attributes;
- decision cells ``(lower, upper)``, a row per provider, and per column
  whether it is a cost column.

The structured result document is built here too, as a dict read field by
field from an assessment result, and written in its layout by one
``json.dumps`` call per key, element and value.
"""

import json
import math


def means(amvs):
    """(csp, csc, attribute) -> the mean of its monitored values."""
    values = {}
    for csp, csc, attribute, value, *_ in amvs:
        values.setdefault((csp, csc, attribute), []).append(value)
    return {triple: math.fsum(v) / len(v) for triple, v in values.items()}


def pair_rows(slos, amvs, cost_attributes):
    """(csp, attribute) -> (satisfied, agreed, span lower, span upper), per pair with an SLO.

    A consumer is satisfied when its mean meets its SLO: at or above it on a
    benefit attribute, at or below it on a cost one. The span is that of the
    SLOs of the consumers with monitored values, or of all when none has one.
    """
    agreed = {}
    for csp, csc, attribute, value in slos:
        agreed.setdefault((csp, attribute), {})[csc] = value
    mean_of = means(amvs)
    rows = {}
    for (csp, attribute), slo_of in agreed.items():
        satisfied, monitored = 0, []
        for csc, slo in slo_of.items():
            mean = mean_of.get((csp, csc, attribute))
            if mean is None:
                continue
            monitored.append(slo)
            if mean <= slo if attribute in cost_attributes else mean >= slo:
                satisfied += 1
        span = monitored or list(slo_of.values())
        rows[csp, attribute] = (satisfied, len(slo_of), min(span), max(span))
    return rows


def profile(row):
    """A pair row's (consistency rate, satisfied, agreed, SLO span, actual cell)."""
    satisfied, agreed, lower, upper = row
    rate = satisfied / agreed
    return rate, satisfied, agreed, (lower, upper), (rate * lower, rate * upper)


def first_cause(rows, csp, requested, cost_attributes):
    """Why a request ``[(attribute, (lower, upper))]`` excludes ``csp``: the first cause, or None."""
    for attribute, (low, high) in requested:
        if (csp, attribute) not in rows:
            return f"no SLO on {attribute!r}"
        lower, upper = profile(rows[csp, attribute])[4]
        if upper < low or high < lower:
            return (f"actual interval [{lower:g}, {upper:g}] misses [{low:g}, {high:g}]"
                    f" on {attribute!r}")
        if lower == 0 and attribute in cost_attributes:
            return f"zero consistency rate on cost attribute {attribute!r}"
    return None


def separation_total(column):
    """The sum over every ordered pair of a column's cells of their L1 separation."""
    return math.fsum(abs(a[0] - b[0]) + abs(a[1] - b[1]) for a in column for b in column)


def possibility(a, b):
    """The min/max degree to which interval ``a`` is at least ``b``.

    Two points, whose widths total 0, compare as numbers: 1, 0 or 0.5.
    """
    total = (a[1] - a[0]) + (b[1] - b[0])
    if total == 0:
        return 1.0 if a[0] > b[0] else 0.0 if a[0] < b[0] else 0.5
    return min(total, max(a[1] - b[0], 0.0)) / total


def normalize(cells, cost_columns):
    """Per column, each cell [lower / sum of uppers, upper / sum of lowers], where a
    cost column's cell [lower, upper] stands as the benefit cell [1 / upper, 1 / lower]."""
    columns = []
    for k, cost in enumerate(cost_columns):
        column = [row[k] for row in cells]
        if cost:
            column = [(1 / upper, 1 / lower) for lower, upper in column]
        sum_lower = math.fsum(lower for lower, _ in column)
        sum_upper = math.fsum(upper for _, upper in column)
        columns.append([(lower / sum_upper, upper / sum_lower) for lower, upper in column])
    return [list(row) for row in zip(*columns)]


def column_weights(normalized):
    """Each column's separation total over all columns' total; uniform if that is 0."""
    totals = [separation_total(column) for column in zip(*normalized)]
    grand = math.fsum(totals)
    return [t / grand for t in totals] if grand else [1 / len(totals)] * len(totals)


def trust_levels(normalized, weights):
    """Each row's weighted interval sum, accumulated left to right."""
    levels = []
    for row in normalized:
        lower = upper = 0.0
        for (lo, hi), w in zip(row, weights):
            lower = lower + w * lo
            upper = upper + w * hi
        levels.append((lower, upper))
    return levels


def ordering(levels):
    """Each provider's possibility row sum, its own 0.5 included, shifted and scaled to sum to 1."""
    n = len(levels)
    return [(math.fsum(possibility(a, b) if i != e else 0.5 for e, b in enumerate(levels))
             + n / 2 - 1) / (n * (n - 1))
            for i, a in enumerate(levels)]


def evaluate(cells, cost_columns):
    """The trust levels and the ordering of decision cells."""
    normalized = normalize(cells, cost_columns)
    levels = trust_levels(normalized, column_weights(normalized))
    return levels, ordering(levels)


def result_document(result):
    """An assessment result's structured document: a dict in the fixed key order."""
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
            for p in sorted(result.profiles.values(), key=lambda p: (p.csp_id, p.attribute))
        ],
        "elapsed_seconds": result.elapsed_seconds,
    }


def render_structured(document):
    """A document's text: one line per top-level key, and one per element of a
    non-empty top-level list, each written by ``json.dumps``."""
    lines = []
    for key, value in document.items():
        head = f"  {json.dumps(key)}: "
        if isinstance(value, list) and value:
            elements = ",\n    ".join(map(json.dumps, value))
            lines.append(f"{head}[\n    {elements}\n  ]")
        else:
            lines.append(head + json.dumps(value))
    return "{\n" + ",\n".join(lines) + "\n}"
