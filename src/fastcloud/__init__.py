"""QoS-based trust assessment and provider ranking for cloud service selection."""

from .intervals import IntervalNumber, possibility_degree
from .registry import (
    AmvRecord,
    DuplicateSubmissionError,
    ImportSummary,
    MissingSloError,
    Polarity,
    ProfileTable,
    QosAttribute,
    Registry,
    SloRecord,
    Store,
    UnknownAttributeError,
    import_qws,
)
from .consistency import (
    ConsistencyProfile,
    actual_slo_interval,
    average_amv,
    satisfies_consistency,
)
from .trust import (
    DecisionContext,
    DecisionMatrix,
    RankedProvider,
    WeightVector,
    deviation_weights,
    evaluate,
    normalize,
    ordering_vector,
    possibility_matrix,
    rank,
    ranking_chain,
    trust_levels,
)
from .selection import (
    AssessmentRequest,
    AssessmentResult,
    InsufficientCandidatesError,
    assess,
    match_candidates,
)
from .bench import BenchConfig, BenchMode, BenchReport, generate_instance, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "IntervalNumber", "possibility_degree",
    "AmvRecord", "DuplicateSubmissionError", "ImportSummary", "MissingSloError", "Polarity", "ProfileTable",
    "QosAttribute", "Registry", "SloRecord", "Store", "UnknownAttributeError",
    "import_qws",
    "ConsistencyProfile", "actual_slo_interval", "average_amv",
    "satisfies_consistency",
    "DecisionContext", "DecisionMatrix", "RankedProvider",
    "WeightVector", "deviation_weights", "evaluate", "normalize",
    "ordering_vector", "possibility_matrix", "rank", "ranking_chain", "trust_levels",
    "AssessmentRequest", "AssessmentResult", "InsufficientCandidatesError",
    "assess", "match_candidates",
    "BenchConfig", "BenchMode", "BenchReport", "generate_instance", "run_benchmark",
]
