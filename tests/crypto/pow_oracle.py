"""The commitment round computed with one ``pow`` per exponentiation.

This is the reference the exponentiation kernels
(``repro.crypto.multiexp``) and the key holder's Enc(r) and decryption
(``ElGamalKeypair``) must reproduce integer for integer: the parity
suite (``tests/property/test_crypto_kernels.py``) and the
commitment section of ``benchmarks/bench_kernels.py`` compare against
it.
"""

from __future__ import annotations

from repro.crypto import (
    ElGamalCiphertext,
    ElGamalKeypair,
    ElGamalPublicKey,
    FieldPRG,
    SchnorrGroup,
)


def encrypt_pow(public: ElGamalPublicKey, message: int, prg: FieldPRG) -> ElGamalCiphertext:
    """One scalar encryption: (g^k, g^m · h^k) with k drawn from ``prg``."""
    group = public.group
    P = group.modulus
    k = prg.next_below(group.order)
    c1 = pow(group.generator, k, P)
    c2 = pow(group.generator, message % group.order, P) * pow(public.h, k, P) % P
    return ElGamalCiphertext(c1, c2)


def encrypt_vector_pow(
    public: ElGamalPublicKey, messages: list[int], prg: FieldPRG
) -> list[ElGamalCiphertext]:
    """n scalar encryptions, drawing their k in order."""
    return [encrypt_pow(public, m, prg) for m in messages]


def decrypt_pow(keypair: ElGamalKeypair, ct: ElGamalCiphertext) -> int:
    """Textbook decryption g^m = c2 · c1^(P−1−x) mod P."""
    P = keypair.public.group.modulus
    return ct.c2 * pow(ct.c1, P - 1 - keypair.secret, P) % P


def inner_product_pow(
    group: SchnorrGroup, ciphertexts: list[ElGamalCiphertext], weights: list[int]
) -> ElGamalCiphertext:
    """∏ Enc(r_i)^{u_i}, one ``pow`` per nonzero weight and component."""
    P = group.modulus
    acc1, acc2 = 1, 1
    for ct, w in zip(ciphertexts, weights):
        if w == 0:
            continue
        s = w % group.order
        acc1 = acc1 * pow(ct.c1, s, P) % P
        acc2 = acc2 * pow(ct.c2, s, P) % P
    return ElGamalCiphertext(acc1, acc2)
