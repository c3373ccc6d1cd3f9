"""ElGamal encryption with messages in the exponent.

Ginger's linear commitment (§2.2) needs additively homomorphic
encryption of field elements: the verifier sends Enc(r) componentwise
and the prover returns Enc(π(r)) computed as ∏ Enc(r_i)^{u_i}.  We
instantiate it the way the Pepper/Ginger line does: ElGamal over a
prime-order subgroup of Z_P^*, with the message m carried as g^m.

The subgroup order equals the PCP field modulus p (DSA-style
parameters, see ``groups.py``), so homomorphic exponent arithmetic *is*
field arithmetic and the verifier's consistency check

    g^(π(t) - Σ αᵢ·π(qᵢ))  ==  Dec(e)  ( = g^(π(r)) )

is an equality of field-indexed powers.  The verifier never needs the
discrete log of the decryption — only this equality — which is why
message-in-exponent ElGamal suffices (fully homomorphic encryption is
not required; §2.2 footnote 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import telemetry
from .groups import SchnorrGroup
from .multiexp import multi_pow_pair
from .prg import FieldPRG


@dataclass(frozen=True)
class ElGamalCiphertext:
    """(g^k, g^m · h^k) — both components in the ambient group mod P."""

    c1: int
    c2: int


@dataclass(frozen=True)
class ElGamalPublicKey:
    group: SchnorrGroup
    h: int  # g^x


@dataclass(frozen=True)
class ElGamalKeypair:
    """The verifier's key: only the key's holder encrypts and decrypts.

    In the commitment the verifier both encrypts r and decrypts the
    prover's reply, so both operations use x itself.  Because h = g^x
    and g has order q, g^m · h^k = g^((m + x·k) mod q), and for every
    c1 ≢ 0 (mod P) Fermat gives c1^(P−1−x) = (c1⁻¹)^x: the same
    integers as the textbook formulas, from q-bit exponents of fixed
    or inverted bases.
    """

    public: ElGamalPublicKey
    secret: int

    @classmethod
    def generate(cls, group: SchnorrGroup, prg: FieldPRG) -> "ElGamalKeypair":
        x = prg.next_below(group.order - 1) + 1
        return cls(ElGamalPublicKey(group, group.encode(x)), x)

    def encrypt_vector(self, messages: list[int], prg: FieldPRG) -> list[ElGamalCiphertext]:
        """Componentwise encryption (the commit request's Enc(r)).

        Draws one k per message, in order, and computes (g^k, g^m · h^k)
        as (g^k, g^((m + x·k) mod q)): two reads of the group's
        generator table per element.
        """
        group = self.public.group
        q = group.order
        n = len(messages)
        if telemetry.enabled():
            telemetry.count("crypto.encryptions", n)
            telemetry.count("crypto.exponentiations", 3 * n)
        ks = prg.next_below_vector(q, n)
        g = group.generator_table.pow
        x = self.secret
        return [ElGamalCiphertext(g(k), g((m + x * k) % q)) for m, k in zip(messages, ks)]

    def decrypt_to_group(self, ct: ElGamalCiphertext) -> int:
        """Recover g^m (not m itself — the exponent stays hidden).

        c2 · (c1⁻¹)^x, which equals c2 · c1^(P−1−x) mod P; a c1 ≡ 0
        (mod P) has no inverse and decrypts to 0, as 0^(P−1−x) does.
        """
        if telemetry.enabled():
            telemetry.count("crypto.decryptions")
            telemetry.count("crypto.exponentiations")
        P = self.public.group.modulus
        if ct.c1 % P == 0:
            return 0
        return ct.c2 * pow(ct.c1, -self.secret, P) % P


def homomorphic_inner_product(
    group: SchnorrGroup, ciphertexts: list[ElGamalCiphertext], weights: list[int]
) -> ElGamalCiphertext:
    """∏ Enc(r_i)^{u_i} = Enc(<r, u>) — the prover's commitment step.

    Each term is the cost-model parameter ``h`` ("ciphertext add plus
    multiply", §5.1); the prover pays one ``h`` per entry of the proof
    vector (Figure 3, "Issue responses").  Zero weights are skipped,
    matching what an optimized prover does for sparse vectors.
    ``multiexp.multi_pow_pair`` reads the weights reduced mod q, keeps
    one entry per nonzero one and folds both ciphertext components at
    once: Bos–Coster's heap method below ``multiexp.PIPPENGER_MIN_TERMS``
    terms (every perfbench and gateway fold), Pippenger's buckets from
    it on (the figure benches' apps at their default sizes).
    """
    if len(ciphertexts) != len(weights):
        raise ValueError("ciphertext/weight length mismatch")
    if telemetry.enabled():
        terms = sum(1 for w in weights if w)
        telemetry.count("crypto.ciphertext_ops", terms)
        telemetry.count("crypto.exponentiations", 2 * terms)
    q = group.order
    return ElGamalCiphertext(
        *multi_pow_pair(
            ((ct.c1, ct.c2) for ct in ciphertexts),
            (w % q for w in weights),
            group.modulus,
            q.bit_length(),
        )
    )
