"""Linear commitment: Commit + Multidecommit (Pepper/Ginger primitive).

This is the machinery that turns a *linear PCP oracle* into a two-party
argument (§2.2, "Linear commitment"):

1. **Commit.**  V draws a secret random vector r, sends Enc(r)
   componentwise; P replies with e = Enc(π(r)) computed homomorphically.
   P has now bound itself to one linear function π (it cannot later
   answer as a different function without guessing r).
2. **Multidecommit.**  V sends the PCP queries q_1..q_μ in the clear
   plus a consistency query t = r + Σ αᵢ·qᵢ for secret random αᵢ.
   P answers every query by inner product with its proof vector
   (:class:`QueryBasis`: each base row once, then the sums).
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
from ..field import PrimeField, WordRows
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


@dataclass(eq=False)
class QueryBasis:
    """PCP queries as sums of base rows, each row on one side of u.

    u is cut into consecutive sides of ``lengths`` (z and h for
    Zaatar); ``sides[s]`` holds the base rows of side s (int lists, or
    :class:`WordRows`), and query i is the sum of the base rows
    ``recipes[i]`` names, by their index in the concatenation of the
    sides, and zero on every other side.  A Zaatar query is one fresh
    linearity row or the sum of two rows on z or on h (§A.2); a flat
    query list is one side whose every row is its own query
    (:meth:`flat`).  Nothing here builds a full-length query unless
    :meth:`queries` is asked to.
    """

    field: PrimeField
    lengths: tuple[int, ...]
    sides: tuple
    recipes: list[tuple[int, ...]]

    @classmethod
    def flat(cls, field: PrimeField, queries: Sequence[Sequence[int]]) -> "QueryBasis":
        """Each of ``queries`` as its own full-length base row."""
        length = len(queries[0]) if queries else 0
        return cls(field, (length,), (queries,), [(i,) for i in range(len(queries))])

    @property
    def num_queries(self) -> int:
        """How many queries the recipes make."""
        return len(self.recipes)

    def answer(self, u: Sequence[int]) -> list[int]:
        """π(q) for every query, in recipe order: one ``mat_vec`` of
        each side's base rows with its slice of u, then one addition per
        derived answer."""
        base: list[int] = []
        offset = 0
        for rows, length in zip(self.sides, self.lengths):
            base += self.field.mat_vec(rows, u[offset : offset + length])
            offset += length
        p = self.field.p
        return [
            base[r[0]] if len(r) == 1 else sum(base[j] for j in r) % p
            for r in self.recipes
        ]

    def fold(self, coeffs: Sequence[int]) -> list[list[int]]:
        """Per side, each base row's Σ of ``coeffs[i]`` over the queries
        i that name it, reduced: Σ cᵢ·qᵢ is these times the rows."""
        folded = [0] * sum(len(rows) for rows in self.sides)
        for c, recipe in zip(coeffs, self.recipes):
            for j in recipe:
                folded[j] += c
        p = self.field.p
        out, start = [], 0
        for rows in self.sides:
            out.append([c % p for c in folded[start : start + len(rows)]])
            start += len(rows)
        return out

    def queries(self) -> list[list[int]]:
        """Every query as a full-length vector (for oracles, tests and
        the full transport's byte count)."""
        embedded = []
        offset, total = 0, sum(self.lengths)
        for rows, length in zip(self.sides, self.lengths):
            for row in rows:
                embedded.append([0] * offset + list(row) + [0] * (total - offset - length))
            offset += length
        p = self.field.p
        return [
            [sum(column) % p for column in zip(*(embedded[j] for j in recipe))]
            for recipe in self.recipes
        ]

    def same_rows(self, other: "QueryBasis") -> bool:
        """Whether ``other`` has these sides, base rows and recipes."""
        if self.lengths != other.lengths or self.recipes != other.recipes:
            return False
        return all(list(a) == list(b) for a, b in zip(self.sides, other.sides))


@dataclass
class DecommitChallenge:
    """V → P: the PCP queries, as base rows, and the consistency query t."""

    basis: QueryBasis
    t: list[int]


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

    def decommit_challenge(self, basis: QueryBasis) -> DecommitChallenge:
        """The PCP queries and the consistency query t = r + Σ αᵢ·qᵢ.

        Each αᵢ is folded onto the base rows its query sums, so t is
        r plus one ``vec_lincomb`` of each side's base rows.
        """
        if self._r is None:
            raise RuntimeError("commit_request must run before decommit")
        total = sum(basis.lengths)
        for rows, length in zip(basis.sides, basis.lengths):
            widths = [rows.width] if isinstance(rows, WordRows) else list(map(len, rows))
            for width in [length, *widths]:
                # a row of one side stands for a query this long
                if width + total - length != self.n:
                    raise ValueError(
                        f"query length {width + total - length} != vector length {self.n}"
                    )
        self._alphas = self._prg.next_vector(basis.num_queries)
        t: list[int] = []
        offset = 0
        for rows, length, coeffs in zip(
            basis.sides, basis.lengths, basis.fold(self._alphas)
        ):
            t += self.field.vec_lincomb(self._r[offset : offset + length], coeffs, rows)
            offset += length
        # the challenge shares the caller's base rows; nothing mutates them
        return DecommitChallenge(basis, t)

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
        """π applied to every challenge query, from its base rows'
        answers, then π(t)."""
        answers = challenge.basis.answer(self.u)
        answers.append(self.field.inner_product(challenge.t, self.u))
        telemetry.count("crypto.decommit_answers", len(answers))
        return DecommitResponse(answers)


def run_commitment_round(
    verifier: CommitmentVerifier,
    prover: CommitmentProver,
    queries: QueryBasis,
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
