"""QAP construction, prover pipeline, and verifier query generation."""

from .prover import (
    QAPProof,
    build_proof_vector,
    compute_h,
    witness_poly_evaluations,
)
from .qap import QAPInstance, build_qap
from .verifier import (
    CircuitQueries,
    InstanceScalars,
    circuit_queries,
    divisibility_check,
    instance_scalars,
)

__all__ = [
    "CircuitQueries",
    "QAPInstance",
    "QAPProof",
    "build_proof_vector",
    "build_qap",
    "circuit_queries",
    "compute_h",
    "InstanceScalars",
    "divisibility_check",
    "instance_scalars",
    "witness_poly_evaluations",
]
