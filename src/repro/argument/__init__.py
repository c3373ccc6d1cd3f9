"""The batched efficient argument system (commitment ∘ linear PCP)."""

from .adversary import MUTATION_CATALOG, MUTATIONS, AdversarialProver
from .checkpoint import (
    BatchCheckpoint,
    CheckpointError,
    transcript_from_checkpoint,
)
from .faults import (
    FaultPlan,
    FaultRule,
    FaultySocket,
    InjectedWorkerFault,
    LinkProfile,
    LinkSocket,
    ProcessFaultPlan,
    ProcessFaultRule,
)
from .hybrid import EncodingDecision, HybridArgument, choose_encoding
from .net import (
    Deadlines,
    NetworkBatchResult,
    RetryPolicy,
    fetch_stats,
    program_hash,
    verify_remote,
)
from .parallel import ParallelBatchResult, WorkerPool, run_parallel_batch
from .serve import (
    GatewayServer,
    ProgramRegistry,
    ProverServer,
    RegisteredProgram,
)
from .protocol import (
    FAILURE_CODES,
    ArgumentConfig,
    BatchResult,
    FailureSummary,
    GingerArgument,
    InstanceResult,
    ProtocolViolation,
    ZaatarArgument,
    ZaatarProver,
    classify_failure,
)
from .stats import BatchStats, PhaseTimer, ProverStats, VerifierStats
from .transcript import (
    Transcript,
    TranscriptError,
    record_batch,
    replay_transcript,
)
from .wire import (
    NetworkTally,
    decode_ciphertexts,
    decode_elements,
    encode_ciphertexts,
    encode_elements,
    transport_costs,
)

__all__ = [
    "AdversarialProver",
    "ArgumentConfig",
    "BatchCheckpoint",
    "BatchResult",
    "BatchStats",
    "CheckpointError",
    "Deadlines",
    "EncodingDecision",
    "FAILURE_CODES",
    "FailureSummary",
    "FaultPlan",
    "FaultRule",
    "FaultySocket",
    "InjectedWorkerFault",
    "LinkProfile",
    "LinkSocket",
    "MUTATIONS",
    "MUTATION_CATALOG",
    "ProcessFaultPlan",
    "ProcessFaultRule",
    "RetryPolicy",
    "classify_failure",
    "transcript_from_checkpoint",
    "GatewayServer",
    "GingerArgument",
    "HybridArgument",
    "choose_encoding",
    "InstanceResult",
    "NetworkBatchResult",
    "NetworkTally",
    "ParallelBatchResult",
    "ProgramRegistry",
    "ProtocolViolation",
    "ProverServer",
    "RegisteredProgram",
    "WorkerPool",
    "fetch_stats",
    "program_hash",
    "verify_remote",
    "decode_ciphertexts",
    "decode_elements",
    "encode_ciphertexts",
    "encode_elements",
    "transport_costs",
    "PhaseTimer",
    "ProverStats",
    "Transcript",
    "TranscriptError",
    "VerifierStats",
    "ZaatarArgument",
    "ZaatarProver",
    "record_batch",
    "replay_transcript",
    "run_parallel_batch",
]
