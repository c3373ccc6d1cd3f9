"""Linear commitment: Commit + Multidecommit (Pepper/Ginger primitive).

This is the machinery that turns a *linear PCP oracle* into a two-party
argument (§2.2, "Linear commitment"):

1. **Commit.**  V draws a secret random vector r, sends Enc(r)
   componentwise; P replies with e = Enc(π(r)) computed homomorphically.
   P has now bound itself to one linear function π (it cannot later
   answer as a different function without guessing r).
2. **Multidecommit.**  V sends the PCP queries q_1..q_μ in the clear
   plus a consistency query t = r + Σ αᵢ·qᵢ for secret random αᵢ.
   P answers every query by inner product with its proof vector.
   V decrypts e to g^(π(r)) and accepts the answers only if

       g^(π(t) − Σ αᵢ·π(qᵢ)) == g^(π(r)).

The soundness error this adds on top of the PCP is bounded by
9·μ·|F|^(−1/3) per [53, Apdx A.2]; ``repro.pcp.soundness`` carries the
numbers.

The expensive operations (`e`, `d`, `h` of the §5.1 microbenchmark
table) are counted where they happen, in ``repro.crypto.elgamal``, as
the ``crypto.encryptions``, ``crypto.decryptions`` and
``crypto.ciphertext_ops`` telemetry counters, so a traced run can be
checked against the Figure-3 cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .. import telemetry
from ..field import PrimeField
from .elgamal import (
    ElGamalCiphertext,
    ElGamalKeypair,
    homomorphic_inner_product,
)
from .groups import SchnorrGroup
from .prg import FieldPRG


@dataclass
class CommitRequest:
    """V → P: componentwise encryption of the secret vector r."""

    ciphertexts: list[ElGamalCiphertext]


@dataclass
class DecommitChallenge:
    """V → P: the PCP queries plus the consistency query t (last)."""

    queries: list[list[int]]


@dataclass
class DecommitResponse:
    """P → V: π applied to every challenge query; ``answers[-1]`` is π(t)."""

    answers: list[int]


class CommitmentVerifier:
    """Verifier side of Commit + Multidecommit for one proof oracle."""

    def __init__(
        self,
        field: PrimeField,
        group: SchnorrGroup,
        vector_length: int,
        prg: FieldPRG,
    ):
        if group.order != field.p:
            raise ValueError(
                f"commitment group order must equal the field modulus "
                f"(group {group.name} has order {group.order:#x}, field is {field.p:#x})"
            )
        self.field = field
        self.group = group
        self.n = vector_length
        self._prg = prg
        self._keypair = ElGamalKeypair.generate(group, prg)
        self._r: list[int] | None = None
        self._alphas: list[int] | None = None

    # -- phase 1: commit -------------------------------------------------------
    #
    # In the batched protocol (§2.2) the commit request and the
    # decommit challenge are generated ONCE per batch; every instance
    # produces its own commitment e_i = Enc(π_i(r)) and its own answer
    # set, verified individually.  This is what lets Figure 3 divide
    # the (e + 2c + ...)·|u| query-construction cost by β.

    def commit_request(self) -> CommitRequest:
        """Draw the secret r and encrypt it componentwise (once per batch)."""
        self._r = self._prg.next_vector(self.n)
        return CommitRequest(self._keypair.encrypt_vector(self._r, self._prg))

    # -- phase 2: decommit --------------------------------------------------------

    def decommit_challenge(self, queries: Sequence[Sequence[int]]) -> DecommitChallenge:
        """Append the consistency query t = r + Σ αᵢ·qᵢ to the PCP queries."""
        if self._r is None:
            raise RuntimeError("commit_request must run before decommit")
        self._alphas = self._prg.next_vector(len(queries))
        for q in queries:
            if len(q) != self.n:
                raise ValueError(f"query length {len(q)} != vector length {self.n}")
        t = self.field.vec_lincomb(self._r, self._alphas, queries)
        # the challenge shares the caller's query lists; nothing mutates them
        return DecommitChallenge([*queries, t])

    def verify(self, commitment: ElGamalCiphertext, response: DecommitResponse) -> bool:
        """Consistency test in the exponent; True iff the answers bind to
        the function committed in ``commitment``.  Called once per
        batch instance."""
        if self._alphas is None:
            raise RuntimeError("decommit_challenge must run before verify")
        *answers, t_answer = response.answers
        if len(answers) != len(self._alphas):
            raise ValueError("answer count does not match query count")
        p = self.field.p
        expected_exp = t_answer
        for alpha, a in zip(self._alphas, answers):
            expected_exp = (expected_exp - alpha * a) % p
        decrypted = self._keypair.decrypt_to_group(commitment)
        return self.group.encode(expected_exp) == decrypted


class CommitmentProver:
    """Prover side: holds the proof vector u and answers linearly.

    A *correct* prover is exactly this class.  Cheating provers in the
    test suite subclass it and misbehave in each of the ways §2.2
    enumerates (non-linear functions, wrong-form linear functions,
    unsatisfying assignments).
    """

    def __init__(self, field: PrimeField, group: SchnorrGroup, proof_vector: Sequence[int]):
        self.field = field
        self.group = group
        self.u = list(proof_vector)

    def commit(self, request: CommitRequest) -> ElGamalCiphertext:
        """e = Enc(π(r)), computed homomorphically — binds this prover to u."""
        if len(request.ciphertexts) != len(self.u):
            raise ValueError(
                f"commit request length {len(request.ciphertexts)} != proof vector "
                f"length {len(self.u)}"
            )
        telemetry.count("crypto.commitments")
        return homomorphic_inner_product(self.group, request.ciphertexts, self.u)

    def answer(self, challenge: DecommitChallenge) -> DecommitResponse:
        """π applied to every challenge query by inner product."""
        answers = [self.field.inner_product(q, self.u) for q in challenge.queries]
        telemetry.count("crypto.decommit_answers", len(answers))
        return DecommitResponse(answers)


def run_commitment_round(
    verifier: CommitmentVerifier,
    prover: CommitmentProver,
    queries: Sequence[Sequence[int]],
) -> tuple[bool, list[int]]:
    """Drive one full Commit + Multidecommit exchange.

    Returns (consistency_ok, pcp_answers).  Callers still have to run
    the PCP checks on the answers; this function only establishes that
    the answers came from *some* fixed linear function.
    """
    request = verifier.commit_request()
    commitment = prover.commit(request)
    challenge = verifier.decommit_challenge(queries)
    response = prover.answer(challenge)
    ok = verifier.verify(commitment, response)
    return ok, response.answers[:-1]
