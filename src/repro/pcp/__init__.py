"""Linear PCPs: Zaatar's QAP-based protocol and the Ginger baseline."""

from . import ginger, zaatar
from .oracle import (
    LinearOracle,
    MostlyLinearOracle,
    MutatingOracle,
    NonLinearOracle,
    TargetedCheatOracle,
    VectorOracle,
)
from .soundness import (
    PAPER_PARAMS,
    TEST_PARAMS,
    SoundnessParams,
    delta_star,
    kappa_bound,
)
from .zaatar import CheckResult, ZaatarSchedule, check_answers, generate_schedule, run_pcp

__all__ = [
    "CheckResult",
    "LinearOracle",
    "MostlyLinearOracle",
    "MutatingOracle",
    "NonLinearOracle",
    "PAPER_PARAMS",
    "SoundnessParams",
    "TEST_PARAMS",
    "TargetedCheatOracle",
    "VectorOracle",
    "ZaatarSchedule",
    "check_answers",
    "delta_star",
    "generate_schedule",
    "ginger",
    "kappa_bound",
    "run_pcp",
    "zaatar",
]
