"""Turns raw SLO and AMV submissions into per-provider actual service intervals.

For one (provider, attribute) pair: average each consumer's monitored values,
check the average against that consumer's agreed objective under the
attribute's polarity, and scale the provider's declared SLO span
[min SLO, max SLO] by the fraction of consumers whose checks pass. The
result is the interval the provider demonstrably delivers.

The registry owns the formula's inputs: ``Registry.profile_row`` gives a
pair's row (satisfied, agreed, span lower, span upper), read from a
read-only registry's profile table or built from any other's SLOs and
means. ``from_row`` computes a row's profile, and ``actual_slo_interval``
that of a pair named by attribute name or abbreviation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .intervals import IntervalNumber
# satisfies_consistency, the polarity check, lives beside Polarity and stays importable here
from .registry import MissingSloError, Registry, satisfies_consistency


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


def average_amv(samples: list[float]) -> float:
    """Arithmetic mean of a nonempty sample list: its ``math.fsum`` over its length."""
    if not samples:
        raise ValueError("cannot average an empty sample list")
    return math.fsum(samples) / len(samples)


def actual_slo_interval(registry: Registry, csp_id: str, attribute: str) -> ConsistencyProfile:
    """The provider's profile on one attribute, named by name or abbreviation.

    Raises MissingSloError when the provider agreed no SLO on the attribute.
    """
    attr = registry.resolve_attribute(attribute)
    row = registry.profile_row(csp_id, attr)
    if row is None:
        raise MissingSloError(f"no SLO records for provider {csp_id!r} on {attr.name!r}")
    return from_row(csp_id, attr.name, row)


def from_row(csp_id: str, attribute: str, row: tuple) -> ConsistencyProfile:
    """The profile of a ``Registry.profile_row``: rate satisfied / agreed, span scaled by it."""
    satisfied, agreed, lower, upper = row
    rate = satisfied / agreed
    return ConsistencyProfile(csp_id, attribute, rate, satisfied, agreed,
                              IntervalNumber(lower, upper),
                              IntervalNumber(rate * lower, rate * upper))
