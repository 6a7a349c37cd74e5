"""Turns raw SLO and AMV submissions into per-provider actual service intervals.

For one (provider, attribute) pair: average each consumer's monitored values,
check the average against that consumer's agreed objective under the
attribute's polarity, and scale the provider's declared SLO span
[min SLO, max SLO] by the fraction of consumers whose checks pass. The
result is the interval the provider demonstrably delivers.

``consistency_profile`` is that formula, over an attribute already resolved
and the provider's objectives on it. Candidate matching calls it once per
(provider, attribute) in its one pass over the registry's SLO index;
``actual_slo_interval`` is the same formula for one pair named by attribute
name or abbreviation.

All functions are pure over a registry snapshot and safe to evaluate in
parallel across (provider, attribute) pairs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

from .intervals import IntervalNumber
from .registry import MissingSloError, Polarity, QosAttribute, Registry, SloRecord


@dataclass(frozen=True, slots=True)
class ConsistencyProfile:
    """Per (provider, attribute) compliance summary and derived interval."""

    csp_id: str
    attribute: str
    consistency_rate: float
    satisfied_count: int
    agreed_count: int
    slo_span: IntervalNumber
    actual_interval: IntervalNumber


def average_amv(samples: list[float]) -> float:
    """Arithmetic mean of a nonempty sample list."""
    if not samples:
        raise ValueError("cannot average an empty sample list")
    return sum(samples) / len(samples)


# the polarity check, as a comparison of (amv, slo)
_MEETS = {Polarity.BENEFIT: operator.ge, Polarity.COST: operator.le}


def satisfies_consistency(polarity: Polarity, slo: float, amv: float) -> bool:
    """Does the monitored average meet the agreed objective?

    Benefit attributes require amv >= slo, cost attributes amv <= slo;
    equality counts as satisfied either way.
    """
    return _MEETS[polarity](amv, slo)


def actual_slo_interval(registry: Registry, csp_id: str, attribute: str) -> ConsistencyProfile:
    """The provider's profile on one attribute, named by name or abbreviation.

    Raises MissingSloError when the provider agreed no SLO on the attribute.
    """
    attr = registry.resolve_attribute(attribute)
    slos = registry.slos_for(csp_id, attr.name)
    if not slos:
        raise MissingSloError(f"no SLO records for provider {csp_id!r} on {attr.name!r}")
    return consistency_profile(registry, csp_id, attr, slos)


def consistency_profile(registry: Registry, csp_id: str, attr: QosAttribute,
                        slos: Iterable[SloRecord]) -> ConsistencyProfile:
    """Declared SLO span scaled by the consistency rate.

    ``slos`` are the provider's objectives on ``attr``, at least one, in
    submission order. The span is [min, max] over their values; scaling by
    the rate shrinks it toward zero as consumers' experience diverges from
    the agreements. The scaling is applied the same way for benefit and cost
    attributes; polarity is honored later, during decision-matrix
    normalization.

    A consumer counts as agreed when it holds an SLO for the attribute, and
    as satisfied only when it also submitted at least one monitored value
    whose average passes the polarity check: an unverifiable claim does not
    raise the rate.
    """
    mean, name, meets = registry.amv_mean, attr.name, _MEETS[attr.polarity]
    satisfied = 0
    values = []
    for record in slos:
        value = record.value
        values.append(value)
        amv = mean(csp_id, record.csc_id, name)
        if amv is not None and meets(amv, value):
            satisfied += 1
    agreed = len(values)
    rate = satisfied / agreed
    lo, hi = min(values), max(values)
    return ConsistencyProfile(csp_id, name, rate, satisfied, agreed,
                              IntervalNumber(lo, hi), IntervalNumber(rate * lo, rate * hi))
