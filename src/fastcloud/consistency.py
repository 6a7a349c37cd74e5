"""Turns raw SLO and AMV submissions into per-provider actual service intervals.

For one (provider, attribute) pair: average each consumer's monitored values,
check the average against that consumer's agreed objective under the
attribute's polarity, and scale the provider's declared SLO span
[min SLO, max SLO] by the fraction of consumers whose checks pass. The
result is the interval the provider demonstrably delivers.

``consistency_profile`` is that formula, over an attribute already resolved
and the provider's objectives on it; it is pure over the registry's SLOs
and means. ``actual_slo_interval`` is the profile of one pair named by
attribute name or abbreviation. Both it and candidate matching read a
read-only registry's profile table, which holds each pair's counts and
span as the store's last writer computed them, and build the profile of any
other registry when asked; either way ``_from_row`` computes the rate and
the actual interval.
"""

from __future__ import annotations

import operator
from typing import Mapping, NamedTuple

from .intervals import IntervalNumber
from .registry import MissingSloError, Polarity, QosAttribute, Registry


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
    row = _profile_of(registry, csp_id, attr)
    if row is None:
        raise MissingSloError(f"no SLO records for provider {csp_id!r} on {attr.name!r}")
    return _from_row(csp_id, attr.name, row)


def consistency_profile(registry: Registry, csp_id: str, attr: QosAttribute,
                        slos: Mapping[str, float]) -> ConsistencyProfile:
    """Declared SLO span scaled by the consistency rate.

    ``slos`` maps each consumer that agreed an objective on ``attr`` with
    the provider, at least one, to the objective's value, in submission
    order. The span is [min, max] over the values; scaling by the rate
    shrinks it toward zero as consumers' experience diverges from the
    agreements. The scaling is applied the same way for benefit and cost
    attributes; polarity is honored later, during decision-matrix
    normalization.

    A consumer counts as agreed when it holds an SLO for the attribute, and
    as satisfied only when it also submitted at least one monitored value
    whose average passes the polarity check: an unverifiable claim does not
    raise the rate.
    """
    return _from_row(csp_id, attr.name, _profile_row(registry, csp_id, attr, slos))


def _profile_row(registry: Registry, csp_id: str, attr: QosAttribute,
                 slos: Mapping[str, float]) -> tuple:
    """The inputs of ``consistency_profile``'s formula, as a row of the profile table.

    The row is (satisfied, agreed, span lower and upper), as the snapshot's
    profile table holds it; ``_from_row`` scales the span by the rate.
    """
    mean, name, meets = registry.amv_mean, attr.name, _MEETS[attr.polarity]
    satisfied = 0
    for csc_id, value in slos.items():
        amv = mean(csp_id, csc_id, name)
        if amv is not None and meets(amv, value):
            satisfied += 1
    values = slos.values()
    return satisfied, len(slos), min(values), max(values)


def _profile_of(registry: Registry, csp_id: str, attr: QosAttribute) -> tuple | None:
    """The row of the provider's profile on ``attr``, or None if it agreed no SLO on it.

    A read-only registry holds the row; any other builds it now.
    """
    if registry._profiles is not None:
        return registry._profiles.get((csp_id, attr.name))
    slos = registry._slo_index.get((csp_id, attr.name))
    return _profile_row(registry, csp_id, attr, slos) if slos else None


def _from_row(csp_id: str, attribute: str, row: tuple) -> ConsistencyProfile:
    """The profile whose inputs a row of the registry's profile table holds."""
    satisfied, agreed, lower, upper = row
    rate = satisfied / agreed
    return ConsistencyProfile(csp_id, attribute, rate, satisfied, agreed,
                              IntervalNumber(lower, upper),
                              IntervalNumber(rate * lower, rate * upper))
