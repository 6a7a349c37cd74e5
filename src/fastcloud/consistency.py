"""The model's per-(provider, attribute) rule: SLO and AMV submissions to an actual interval.

For one (provider, attribute) pair: average each consumer's monitored values,
check the average against that consumer's agreed objective under the
attribute's polarity, and scale the provider's declared SLO span
[min SLO, max SLO], over the consumers with monitored values, by the
fraction of consumers whose checks pass. The result is the interval the
provider demonstrably delivers.

``profile_of`` gives a pair's row (satisfied, agreed, span lower, span
upper) from its SLOs and their consumers' means: the only verdict and the
only span in the package. ``from_row`` computes a row's profile, and
``actual_slo_interval`` that of a pair named by attribute name or
abbreviation. The registry (``fastcloud.registry``) holds the rule's
inputs and imports it from here.
"""

from __future__ import annotations

import enum
import math
from operator import ge, le
from typing import Collection, Iterable, NamedTuple

from .intervals import IntervalNumber


class Polarity(enum.Enum):
    """Whether a higher attribute value is better (benefit) or worse (cost)."""

    BENEFIT = "benefit"
    COST = "cost"


# the polarity check, as a comparison of (amv, slo)
_MEETS = {Polarity.BENEFIT: ge, Polarity.COST: le}


class MissingSloError(ValueError):
    """A monitored value was submitted for a triple with no agreed objective."""


class ConsistencyProfile(NamedTuple):
    """Per (provider, attribute) compliance summary and derived interval.

    A tuple, built once per (provider, attribute) that matching reaches:
    it takes a third of a frozen dataclass's construction time.
    """

    csp_id: str
    attribute: str
    consistency_rate: float
    satisfied_count: int
    agreed_count: int
    slo_span: IntervalNumber
    actual_interval: IntervalNumber


def satisfies_consistency(polarity: Polarity, slo: float, amv: float) -> bool:
    """Whether a monitored mean meets its objective: benefit amv >= slo, cost amv <= slo."""
    return _MEETS[polarity](amv, slo)


def average_amv(samples: Collection[float]) -> float:
    """Arithmetic mean of a nonempty sample collection: its ``math.fsum`` over its length."""
    if not samples:
        raise ValueError("cannot average an empty sample list")
    return math.fsum(samples) / len(samples)


def profile_of(polarity: Polarity, slos: Collection[float],
               means: Iterable[float | None]) -> tuple[int, int, float, float]:
    """A pair's row (satisfied, agreed, span lower, span upper).

    ``slos`` holds the pair's agreed value per consumer, and ``means`` each
    consumer's monitored mean in the same order, or None where it has no
    monitored value. Each consumer counts as agreed, and as satisfied only
    if its mean passes the polarity check: an unverifiable claim does not
    raise the rate. The span is [min, max] of the SLO values of the
    monitored consumers, so an unverifiable claim does not widen it either.
    A pair with no monitored consumer keeps the span of all its SLOs: its
    rate is 0, so any span scales to [0, 0]. ``from_row`` scales the span
    by the rate the same way for both polarities, which normalization
    honors later.
    """
    meets = _MEETS[polarity]
    satisfied, monitored = 0, []
    for slo, mean in zip(slos, means):
        if mean is not None:
            monitored.append(slo)
            if meets(mean, slo):
                satisfied += 1
    span = monitored or slos
    return satisfied, len(slos), min(span), max(span)


def actual_slo_interval(registry, csp_id: str, attribute: str) -> ConsistencyProfile:
    """The provider's profile on one attribute of a registry or table, by name or abbreviation.

    Raises MissingSloError when the provider agreed no SLO on the attribute.
    """
    attr = registry.resolve_attribute(attribute)
    row = registry.profile_row(csp_id, attr)
    if row is None:
        raise MissingSloError(f"no SLO records for provider {csp_id!r} on {attr.name!r}")
    return from_row(csp_id, attr.name, row)


def from_row(csp_id: str, attribute: str, row: tuple) -> ConsistencyProfile:
    """The profile of a ``profile_of`` row: rate satisfied / agreed, span scaled by it."""
    satisfied, agreed, lower, upper = row
    rate = satisfied / agreed
    return ConsistencyProfile(csp_id, attribute, rate, satisfied, agreed,
                              IntervalNumber(lower, upper),
                              IntervalNumber(rate * lower, rate * upper))
