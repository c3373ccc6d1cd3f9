"""Cryptographic substrate: ChaCha PRG, ElGamal, linear commitment."""

from .chacha import ChaChaStream, chacha20_blocks, chacha20_packed
from .commitment import (
    CommitmentProver,
    CommitmentVerifier,
    CommitRequest,
    DecommitChallenge,
    DecommitResponse,
    QueryBasis,
)
from .elgamal import (
    ElGamalCiphertext,
    ElGamalKeypair,
    ElGamalPublicKey,
    homomorphic_inner_product,
)
from .groups import (
    GROUP_GOLDILOCKS_512,
    GROUP_P128_512,
    GROUP_P128_1024,
    GROUP_P220_1024,
    SchnorrGroup,
    group_for_field,
    named_group,
)
from .prg import FieldPRG, query_key

__all__ = [
    "ChaChaStream",
    "CommitRequest",
    "CommitmentProver",
    "CommitmentVerifier",
    "DecommitChallenge",
    "DecommitResponse",
    "ElGamalCiphertext",
    "ElGamalKeypair",
    "ElGamalPublicKey",
    "FieldPRG",
    "GROUP_GOLDILOCKS_512",
    "GROUP_P128_1024",
    "GROUP_P128_512",
    "GROUP_P220_1024",
    "QueryBasis",
    "SchnorrGroup",
    "chacha20_blocks",
    "chacha20_packed",
    "group_for_field",
    "homomorphic_inner_product",
    "named_group",
    "query_key",
]
