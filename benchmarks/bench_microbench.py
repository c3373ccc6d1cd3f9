"""§5.1 microbenchmark table: e, d, h, f_lazy, f, f_div, c per field size.

Paper's table (Xeon E5540, GMP, 1024-bit ElGamal):

    field   e      d      h      f_lazy  f      f_div  c
    128b    65us   170us  91us   68ns    210ns  2us    160ns
    220b    88us   170us  130us  90ns    320ns  3us    260ns

This bench regenerates the same rows on this machine (pure Python, so
absolute values are larger; the *orderings* — crypto ops ~10²-10³×
field ops, f_div ~10× f, larger field slower — must reproduce).
"""

import pytest

from repro.costmodel import run_microbench
from repro.crypto import ElGamalKeypair, FieldPRG, group_for_field
from repro.field import P128, P220, PrimeField

from _harness import RESULTS, print_table

FIELD_128 = PrimeField(P128, check_prime=False)
FIELD_220 = PrimeField(P220, check_prime=False)


def test_microbench_table(benchmark):
    """Regenerate the §5.1 table (both field sizes) and sanity-check order."""
    measurements = benchmark.pedantic(
        lambda: [
            run_microbench(field, reps=2000, crypto_reps=10)
            for field in (FIELD_128, FIELD_220)
        ],
        rounds=1,
        iterations=1,
    )
    rows = []
    for field, mb in zip((FIELD_128, FIELD_220), measurements):
        RESULTS[("microbench", field.bits)] = mb
        rows.append(
            [
                f"{field.bits} bits",
                f"{mb.e * 1e6:.0f} us",
                f"{mb.d * 1e6:.0f} us",
                f"{mb.h * 1e6:.0f} us",
                f"{mb.f_lazy * 1e9:.0f} ns",
                f"{mb.f * 1e9:.0f} ns",
                f"{mb.f_div * 1e6:.2f} us",
                f"{mb.c * 1e9:.0f} ns",
            ]
        )
        # shape assertions mirroring the paper's table
        assert mb.e > 50 * mb.f, "encryption must dwarf a field multiply"
        assert mb.d > 50 * mb.f
        assert mb.h > 10 * mb.f
        assert mb.f_div > mb.f
    print_table(
        "Section 5.1 microbenchmarks (this machine)",
        ["field size", "e", "d", "h", "f_lazy", "f", "f_div", "c"],
        rows,
    )


@pytest.mark.parametrize("field", [FIELD_128, FIELD_220], ids=["p128", "p220"])
def test_field_multiply(benchmark, field):
    """The `f` parameter as a pytest-benchmark measurement."""
    prg = FieldPRG(field, b"bench-f")
    a, b = prg.next_nonzero(), prg.next_nonzero()
    benchmark(field.mul, a, b)


@pytest.mark.parametrize("field", [FIELD_128, FIELD_220], ids=["p128", "p220"])
def test_field_divide(benchmark, field):
    prg = FieldPRG(field, b"bench-fdiv")
    a, b = prg.next_nonzero(), prg.next_nonzero()
    benchmark(field.div, a, b)


@pytest.mark.parametrize("field", [FIELD_128, FIELD_220], ids=["p128", "p220"])
def test_prg_draw(benchmark, field):
    """The `c` parameter."""
    prg = FieldPRG(field, b"bench-c")
    benchmark(prg.next_element)


def test_elgamal_encrypt(benchmark):
    """The `e` parameter (paper-scale 1024-bit group over P128)."""
    group = group_for_field(FIELD_128, paper_scale=True)
    prg = FieldPRG(FIELD_128, b"bench-e")
    keypair = ElGamalKeypair.generate(group, prg)
    benchmark(lambda: keypair.encrypt_vector([123456], prg))


def test_elgamal_decrypt(benchmark):
    """The `d` parameter."""
    group = group_for_field(FIELD_128, paper_scale=True)
    prg = FieldPRG(FIELD_128, b"bench-d")
    keypair = ElGamalKeypair.generate(group, prg)
    (ct,) = keypair.encrypt_vector([123456], prg)
    benchmark(keypair.decrypt_to_group, ct)
