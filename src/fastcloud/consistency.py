"""Turns raw SLO and AMV submissions into per-provider actual service intervals.

For one (provider, attribute) pair: average each consumer's monitored values,
check the average against that consumer's agreed objective under the
attribute's polarity, and scale the provider's declared SLO span
[min SLO, max SLO] by the fraction of consumers whose checks pass. The
result is the interval the provider demonstrably delivers.

All functions are pure over a registry snapshot and safe to evaluate in
parallel across (provider, attribute) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import IntervalNumber
from .registry import MissingSloError, Polarity, Registry


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


def satisfies_consistency(polarity: Polarity, slo: float, amv: float) -> bool:
    """Does the monitored average meet the agreed objective?

    Benefit attributes require amv >= slo, cost attributes amv <= slo;
    equality counts as satisfied either way.
    """
    if polarity is Polarity.BENEFIT:
        return amv >= slo
    return amv <= slo


def actual_slo_interval(registry: Registry, csp_id: str, attribute: str) -> ConsistencyProfile:
    """Declared SLO span scaled by the consistency rate.

    The span is [min, max] over every SLO the provider agreed for this
    attribute; scaling by the rate shrinks it toward zero as consumers'
    experience diverges from the agreements. The scaling is applied the same
    way for benefit and cost attributes; polarity is honored later, during
    decision-matrix normalization.

    A consumer counts as agreed when it holds an SLO for the attribute, and
    as satisfied only when it also submitted at least one monitored value
    whose average passes the polarity check: an unverifiable claim does not
    raise the rate.
    """
    attr = registry.resolve_attribute(attribute)
    slos = registry.slos_for(csp_id, attr.name)
    if not slos:
        raise MissingSloError(f"no SLO records for provider {csp_id!r} on {attr.name!r}")
    satisfied = 0
    for record in slos:
        samples = registry.amv_samples(csp_id, record.csc_id, attr.name)
        if samples and satisfies_consistency(attr.polarity, record.value, average_amv(samples)):
            satisfied += 1
    agreed = len(slos)
    rate = satisfied / agreed
    values = [r.value for r in slos]
    lo, hi = min(values), max(values)
    return ConsistencyProfile(
        csp_id=csp_id,
        attribute=attr.name,
        consistency_rate=rate,
        satisfied_count=satisfied,
        agreed_count=agreed,
        slo_span=IntervalNumber(lo, hi),
        actual_interval=IntervalNumber(rate * lo, rate * hi),
    )

