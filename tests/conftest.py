"""Shared reference scenario: five candidate providers on the six standard
QoS attributes, with frozen golden values for every pipeline stage."""

import pytest

from fastcloud.consistency import ConsistencyProfile
from fastcloud.intervals import IntervalNumber
from fastcloud.registry import (
    AmvRecord,
    Polarity,
    Registry,
    SloRecord,
    STANDARD_ATTRIBUTES,
)
from fastcloud.selection import AssessmentRequest
from fastcloud.trust import DecisionMatrix

CASE_PROVIDERS = ("CSP1", "CSP2", "CSP3", "CSP4", "CSP5")

# Actual service intervals per provider, attribute order av/th/su/re/la/res.
CASE_INTERVALS = (
    ((87, 96), (6, 23), (95, 98), (58, 73), (8, 33), (103, 204)),
    ((62, 97), (9, 30), (63, 99), (56, 83), (9, 29), (113, 246)),
    ((61, 92), (4, 26), (60, 93), (62, 69), (7, 27), (89, 215)),
    ((71, 78), (5, 29), (72, 85), (59, 67), (6, 31), (124, 198)),
    ((70, 81), (7, 21), (69, 82), (63, 74), (8, 26), (92, 193)),
)

# Golden normalized matrix (3 significant figures).
EXPECTED_NORMALIZED = (
    ((0.196, 0.274), (0.0465, 0.742), (0.208, 0.273), (0.159, 0.245), (0.0452, 0.725), (0.101, 0.407)),
    ((0.140, 0.276), (0.0698, 0.968), (0.138, 0.276), (0.153, 0.279), (0.0514, 0.644), (0.0834, 0.371)),
    ((0.137, 0.262), (0.0310, 0.839), (0.131, 0.259), (0.169, 0.232), (0.0552, 0.828), (0.0955, 0.471)),
    ((0.160, 0.222), (0.0388, 0.936), (0.158, 0.237), (0.161, 0.225), (0.0481, 0.966), (0.104, 0.338)),
    ((0.158, 0.231), (0.0543, 0.677), (0.151, 0.228), (0.172, 0.248), (0.0574, 0.725), (0.106, 0.456)),
)

# Golden downstream values. The weight vector is the bundled reference target;
# the trust/possibility/ordering values are each consistent with the stage
# above them (see test_acceptance for the one documented inconsistency).
REFERENCE_WEIGHTS = (0.0295, 0.118, 0.150, 0.167, 0.247, 0.288)

REFERENCE_TRUST = (
    (0.109, 0.474),
    (0.0953, 0.477),
    (0.0968, 0.525),
    (0.102, 0.526),
    (0.107, 0.473),
)

REFERENCE_POSSIBILITY = (
    (0.5, 0.508, 0.476, 0.472, 0.502),
    (0.493, 0.5, 0.469, 0.465, 0.494),
    (0.524, 0.531, 0.5, 0.496, 0.526),
    (0.528, 0.535, 0.504, 0.5, 0.53),
    (0.498, 0.506, 0.474, 0.47, 0.5),
)

REFERENCE_ORDERING = (0.198, 0.196, 0.204, 0.205, 0.197)

# Requested acceptable span per attribute, same order as STANDARD_ATTRIBUTES.
REQUEST_SPANS = ((50, 100), (1, 35), (50, 100), (50, 100), (1, 100), (50, 300))

# the names of the standard cost attributes, as ``reference`` takes them
COST_ATTRIBUTES = {attr.name for attr in STANDARD_ATTRIBUTES if attr.polarity is Polarity.COST}
# every spelling of the standard attributes -> the attribute's name
NAMED = {spelling: attr.name for attr in STANDARD_ATTRIBUTES
         for spelling in (attr.name, attr.abbreviation)}

COST_ONLY_CHAIN = "CSP4 > CSP3 > CSP5 > CSP1 > CSP2"
BENEFIT_ONLY_CHAIN = "CSP2 > CSP4 > CSP1 > CSP3 > CSP5"


def case_decision_matrix() -> DecisionMatrix:
    return DecisionMatrix(
        providers=CASE_PROVIDERS,
        attributes=STANDARD_ATTRIBUTES,
        cells=tuple(
            tuple(IntervalNumber(lo, hi) for lo, hi in row) for row in CASE_INTERVALS
        ),
    )


def fresh_registry(slos=(), amvs=()) -> Registry:
    """A registry of the standard attributes, with the SLO rows, then the AMV rows, submitted."""
    registry = Registry()
    for attr in STANDARD_ATTRIBUTES:
        registry.register_attribute(attr)
    for row in slos:
        registry.submit_slo(SloRecord(*row))
    for row in amvs:
        registry.submit_amv(AmvRecord(*row))
    return registry


def profile_fields(profile: ConsistencyProfile) -> tuple:
    """A profile in the shape of ``reference.profile``."""
    return (profile.consistency_rate, profile.satisfied_count, profile.agreed_count,
            (profile.slo_span.lower, profile.slo_span.upper),
            (profile.actual_interval.lower, profile.actual_interval.upper))


def case_registry() -> Registry:
    """Registry whose actual intervals reproduce CASE_INTERVALS exactly.

    Two consumers per provider carry the interval endpoints as their agreed
    objectives, and each reports a monitored value equal to its objective, so
    every consistency rate is 1 and the actual interval equals the SLO span.
    """
    rows = [(csp_id, f"{csp_id}-c{k}", attr.name, value)
            for csp_id, row in zip(CASE_PROVIDERS, CASE_INTERVALS)
            for attr, interval in zip(STANDARD_ATTRIBUTES, row)
            for k, value in enumerate(interval, 1)]
    return fresh_registry(rows, rows)


def case_request() -> AssessmentRequest:
    return AssessmentRequest(tuple(
        (attr.name, IntervalNumber(lo, hi))
        for attr, (lo, hi) in zip(STANDARD_ATTRIBUTES, REQUEST_SPANS)
    ))


@pytest.fixture
def registry() -> Registry:
    return case_registry()


@pytest.fixture
def request_fixture() -> AssessmentRequest:
    return case_request()
