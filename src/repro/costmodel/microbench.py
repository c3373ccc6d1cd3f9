"""Microbenchmarks for the cost-model parameters (§5.1).

The paper measures, per field size, the average cost of:

    e       encrypting a field element            (ElGamal encrypt)
    d       decrypting                            (ElGamal decrypt)
    h       ciphertext add plus multiply          (one homomorphic fold step)
    f_lazy  field multiply without the final mod
    f       field multiply
    f_div   field division
    c       pseudorandomly generating an element  (ChaCha PRG draw)

"We run a program that executes each operation 1000 times and report
the average CPU time."  ``run_microbench`` does exactly that for any
(field, group) pair and returns the parameters that feed Figure 3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..crypto import (
    ElGamalKeypair,
    FieldPRG,
    SchnorrGroup,
    group_for_field,
    homomorphic_inner_product,
)
from ..field import PrimeField


@dataclass(frozen=True)
class MicrobenchParams:
    """Per-operation CPU seconds; the Figure-3 model's inputs."""

    field_bits: int
    e: float
    d: float
    h: float
    f_lazy: float
    f: float
    f_div: float
    c: float

    def as_row(self) -> dict[str, float]:
        """The seven parameters as a name → seconds mapping."""
        return {
            "e": self.e,
            "d": self.d,
            "h": self.h,
            "f_lazy": self.f_lazy,
            "f": self.f,
            "f_div": self.f_div,
            "c": self.c,
        }


def _timeit(fn, reps: int) -> float:
    start = time.process_time()
    for _ in range(reps):
        fn()
    return (time.process_time() - start) / reps


def run_microbench(
    field: PrimeField,
    group: SchnorrGroup | None = None,
    *,
    reps: int = 1000,
    crypto_reps: int = 50,
    seed: bytes = b"microbench",
) -> MicrobenchParams:
    """Measure all seven parameters on this machine.

    ``e``, ``h`` and ``c`` are what the protocol pays per element: one
    ``ElGamalKeypair.encrypt_vector`` call and one
    ``homomorphic_inner_product`` call over a vector of ``crypto_reps``
    elements, and one ``next_vector`` call of ``reps`` elements, each
    divided by its length (the kernels amortize table reads, the
    fold's heap steps and keystream blocks over the vector, so ``h``
    depends on the vector's length and weights).  ``d`` is one ``decrypt_to_group``: like
    ``e``, the verifier's own route, which uses the secret key.
    ``crypto_reps`` is smaller than ``reps`` because modular
    exponentiation is ~10³× slower than a field multiply; the paper's
    1000-rep protocol is retained for the field operations.
    """
    if group is None:
        group = group_for_field(field)
    prg = FieldPRG(field, seed, "microbench")
    keypair = ElGamalKeypair.generate(group, prg)

    a = prg.next_nonzero()
    b = prg.next_nonzero()
    messages = prg.next_vector(crypto_reps)
    weights = [prg.next_nonzero() for _ in range(crypto_reps)]
    cts = keypair.encrypt_vector(messages, prg)

    e = _timeit(lambda: keypair.encrypt_vector(messages, prg), 1) / crypto_reps
    d = _timeit(lambda: keypair.decrypt_to_group(cts[0]), crypto_reps)
    h = _timeit(lambda: homomorphic_inner_product(group, cts, weights), 1) / crypto_reps
    f_lazy = _timeit(lambda: field.mul_lazy(a, b), reps)
    f = _timeit(lambda: field.mul(a, b), reps)
    f_div = _timeit(lambda: field.div(a, b), reps)
    c = _timeit(lambda: prg.next_vector(reps), 1) / reps
    return MicrobenchParams(
        field_bits=field.bits, e=e, d=d, h=h, f_lazy=f_lazy, f=f, f_div=f_div, c=c
    )


#: The paper's measured values (Xeon E5540, GMP, CUDA-free CPU path),
#: in seconds — §5.1's table.  Useful for reproducing the paper's
#: Ginger-vs-Zaatar *estimates* exactly rather than with this machine's
#: Python-flavoured constants.
PAPER_MICROBENCH_128 = MicrobenchParams(
    field_bits=128,
    e=65e-6, d=170e-6, h=91e-6, f_lazy=68e-9, f=210e-9, f_div=2e-6, c=160e-9,
)
PAPER_MICROBENCH_220 = MicrobenchParams(
    field_bits=220,
    e=88e-6, d=170e-6, h=130e-6, f_lazy=90e-9, f=320e-9, f_div=3e-6, c=260e-9,
)
