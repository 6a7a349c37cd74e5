"""Interval multi-attribute trust scoring and possibility-degree ranking.

Five stages over an interval-valued decision matrix (providers x attributes):

1. normalize      - dimensionless column ratios, reciprocal form for cost
                    attributes so that larger is always better;
2. deviation_weights - attributes on which providers differ more get more
                    weight (pairwise separation totals, normalized to sum 1);
                    O(P log P) per attribute;
3. trust_levels   - per-provider weighted interval aggregate;
4. possibility_matrix - pairwise "at least as good" degrees between the
                    trust intervals, a row per provider; a row of positive
                    width takes a form without the point convention, which
                    only a point row can need;
5. ordering_vector / rank - scalar priority per provider derived from the
                    possibility matrix, descending order with id tie-break.

Everything here is a stateless transform over immutable inputs. The
decision matrix comes in as ``IntervalNumber`` cells; ``normalize`` turns it
into a grid of ``(lower, upper)`` float pairs, and the weight and trust
stages run on that grid. ``IntervalNumber`` values are built again only for
the trust levels, which leave the core through ``rank``. Only the P x P
possibility matrix is quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter, mul

from .intervals import IntervalNumber, possibility_row
from .registry import Polarity, QosAttribute


# Normalized decision matrix: one row per provider of (lower, upper) pairs.
Grid = tuple[tuple[tuple[float, float], ...], ...]


@dataclass(frozen=True)
class DecisionMatrix:
    """Rectangular grid of the actual service intervals, row per provider.

    Benefit cells are nonnegative and cost cells strictly positive, so every
    normalized cell is a nonnegative pair with lower <= upper.
    """

    providers: tuple[str, ...]
    attributes: tuple[QosAttribute, ...]
    cells: tuple[tuple[IntervalNumber, ...], ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.providers):
            raise ValueError("one cell row required per provider")
        for row in self.cells:
            if len(row) != len(self.attributes):
                raise ValueError("every row must cover every attribute")
        for k, attr in enumerate(self.attributes):
            cost = attr.polarity is Polarity.COST
            for provider, row in zip(self.providers, self.cells):
                if row[k].lower <= 0 and (cost or row[k].lower < 0):
                    raise ValueError(
                        f"{attr.polarity.value} attribute {attr.name!r} has "
                        f"{'non-positive' if cost else 'negative'} lower bound "
                        f"for provider {provider!r}"
                    )


@dataclass(frozen=True)
class WeightVector:
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise ValueError(f"weights must be finite and nonnegative, got {self.weights!r}")
        if self.weights and abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)!r}")


@dataclass(frozen=True)
class RankedProvider:
    csp_id: str
    ordering_score: float
    trust_level: IntervalNumber
    # degree to which this provider is at least the next-ranked one; None for the last
    possibility_vs_next: float | None


@dataclass(frozen=True)
class DecisionContext:
    """Every intermediate of one assessment, retained for audit."""

    decision: DecisionMatrix
    normalized: Grid
    weights: WeightVector
    trust_levels: tuple[IntervalNumber, ...]
    possibility: tuple[tuple[float, ...], ...]
    ordering: tuple[float, ...]


def normalize(decision: DecisionMatrix) -> Grid:
    """Column-wise dimensionless form of the decision matrix.

    Benefit column: lower / sum-of-uppers and upper / sum-of-lowers. Cost
    column: the same ratios on the reciprocals [1 / upper, 1 / lower], which
    flips the direction so a cheaper interval normalizes higher. Benefit columns need a positive
    column sum. A column whose cells overflow (a cost value so near zero that
    its reciprocal is not finite, say) is refused, naming its attribute.
    """
    if not decision.providers:
        raise ValueError("decision matrix has no providers")
    columns = []
    for k, attr in enumerate(decision.attributes):
        lowers = [row[k].lower for row in decision.cells]
        uppers = [row[k].upper for row in decision.cells]
        if attr.polarity is Polarity.COST:
            lowers, uppers = [1.0 / x for x in uppers], [1.0 / x for x in lowers]
        try:
            # fsum: exactly-rounded, so row order cannot perturb the ratios
            sum_lower, sum_upper = math.fsum(lowers), math.fsum(uppers)
        except OverflowError:  # the exact sum is beyond float range
            sum_lower = sum_upper = math.nan  # refused as an overflow below
        if sum_upper <= 0 or sum_lower <= 0:  # cost sums, of reciprocals, never are
            raise ValueError(
                f"benefit attribute {attr.name!r} has no positive values to normalize"
            )
        column = [(lo / sum_upper, hi / sum_lower) for lo, hi in zip(lowers, uppers)]
        # each cell is 0 <= lower <= upper, so the uppers bound the column;
        # a sum, unlike a max, also shows a NaN (inf / inf) wherever it is
        if not math.isfinite(sum(map(itemgetter(1), column))):
            raise ValueError(
                f"{attr.polarity.value} attribute {attr.name!r} overflows when normalized"
            )
        columns.append(column)
    # zip(*columns) alone would lose the rows of a matrix with no attributes
    return tuple(zip(*columns)) if columns else ((),) * len(decision.providers)


def column_deviation(column: list[tuple[float, float]]) -> float:
    """Total separation over all ordered pairs of a column's cells.

    Separation is the L1 distance on endpoints, so the total splits into one
    sum of |x_i - x_j| over the lower endpoints and one over the upper
    endpoints. Each has the sorted-prefix closed form

        sum over i, j of |x_i - x_j| = 2 * sum over i of (2i - n + 1) * x_(i)

    with x_(i) the i-th smallest value, which costs O(n log n) instead of
    O(n^2) and does not depend on row order.
    """
    return (_pairwise_abs_sum([lo for lo, _ in column])
            + _pairwise_abs_sum([hi for _, hi in column]))


def _pairwise_abs_sum(values: list[float]) -> float:
    n = len(values)
    # the coefficients 2i - n + 1 for i = 0 .. n - 1, against the sorted values
    return 2.0 * math.fsum(map(mul, range(1 - n, n, 2), sorted(values)))


def deviation_weights(normalized: Grid, attributes: tuple[QosAttribute, ...]) -> WeightVector:
    """Weights proportional to each column's total pairwise separation.

    An attribute on which all providers score alike carries no ranking
    information and gets weight near zero; if every column is like that the
    weights fall back to uniform (any weighting would produce identical
    aggregates anyway). Each column total comes from ``column_deviation``,
    so the stage is O(P log P) per attribute. A total beyond float range
    (one huge normalized cell among many tiny ones, say) is refused,
    naming its attribute, one of ``attributes`` in column order.
    """
    if len(normalized) < 2:
        raise ValueError("deviation weighting needs at least two providers")
    totals = [column_deviation(column) for column in zip(*normalized)]
    for attr, total in zip(attributes, totals):
        if not math.isfinite(total):
            raise ValueError(f"{attr.polarity.value} attribute {attr.name!r} overflows "
                             "in its deviation total")
    n_attrs = len(totals)
    try:
        grand_total = math.fsum(totals)
    except OverflowError:
        # finite totals whose sum is not: scale them by a power of two, which
        # is exact and leaves the ratios, so that the sum fits
        totals = [t * 2.0 ** -n_attrs.bit_length() for t in totals]
        grand_total = math.fsum(totals)
    if grand_total == 0:
        return WeightVector(tuple(1.0 / n_attrs for _ in range(n_attrs)))
    return WeightVector(tuple(t / grand_total for t in totals))


def trust_levels(normalized: Grid, weights: WeightVector) -> tuple[IntervalNumber, ...]:
    """Weighted interval sum per provider row.

    Endpoints accumulate left to right, one attribute at a time, as repeated
    interval scaling and addition would.
    """
    levels = []
    for row in normalized:
        if len(row) != len(weights.weights):
            raise ValueError(
                f"weight count {len(weights.weights)} does not match "
                f"attribute count {len(row)}"
            )
        lower = upper = 0.0
        for (lo, hi), w in zip(row, weights.weights):
            lower = lower + w * lo
            upper = upper + w * hi
        levels.append(IntervalNumber(lower, upper))
    return tuple(levels)


def possibility_matrix(trust: tuple[IntervalNumber, ...]) -> tuple[tuple[float, ...], ...]:
    """Pairwise possibility degrees, diagonal fixed at 0.5.

    Every entry is computed directly (none as the complement of its mirror),
    so permuting the trust levels permutes the matrix exactly.
    """
    others = [(z.lower, z.width) for z in trust]
    rows = []
    for i, z in enumerate(trust):
        row = possibility_row(z.lower, z.upper, z.width, others)
        row[i] = 0.5
        rows.append(tuple(row))
    return tuple(rows)


def ordering_vector(possibility: tuple[tuple[float, ...], ...]) -> tuple[float, ...]:
    """Priority score per provider; scores sum to 1.

    Row sums of the possibility matrix (diagonal included), shifted and
    scaled so the vector is a distribution over providers.
    """
    n = len(possibility)
    if n < 2:
        raise ValueError("ordering needs at least two providers")
    return tuple(
        (math.fsum(row) + n / 2.0 - 1.0) / (n * (n - 1)) for row in possibility
    )


def rank(context: DecisionContext) -> tuple[RankedProvider, ...]:
    """Providers by descending priority score, ties broken by id ascending."""
    order = sorted(
        range(len(context.decision.providers)),
        key=lambda i: (-context.ordering[i], context.decision.providers[i]),
    )
    ranked = []
    for pos, i in enumerate(order):
        nxt = order[pos + 1] if pos + 1 < len(order) else None
        ranked.append(RankedProvider(
            csp_id=context.decision.providers[i],
            ordering_score=context.ordering[i],
            trust_level=context.trust_levels[i],
            possibility_vs_next=None if nxt is None else context.possibility[i][nxt],
        ))
    return tuple(ranked)


def evaluate(decision: DecisionMatrix) -> DecisionContext:
    """Run all five stages over a decision matrix."""
    normalized = normalize(decision)
    weights = deviation_weights(normalized, decision.attributes)
    levels = trust_levels(normalized, weights)
    possibility = possibility_matrix(levels)
    ordering = ordering_vector(possibility)
    return DecisionContext(
        decision=decision,
        normalized=normalized,
        weights=weights,
        trust_levels=levels,
        possibility=possibility,
        ordering=ordering,
    )


def ranking_chain(ranked: tuple[RankedProvider, ...]) -> str:
    """One-line summary like ``CSP4 > CSP3 > CSP1``."""
    return " > ".join(r.csp_id for r in ranked)
