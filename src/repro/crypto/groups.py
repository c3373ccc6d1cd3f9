"""Prime-order groups for the ElGamal linear commitment.

Each group is a subgroup of Z_P^* whose order is *exactly* one of the
PCP field moduli (DSA-style parameters: P = k·p + 1, generator of the
order-p subgroup).  This alignment is what makes the commitment's
consistency check an honest field identity: ElGamal exponents reduce
mod the group order, and the group order is the field modulus.

The paper uses ElGamal with 1024-bit keys (§5.1); the 512-bit groups
exist so the test suite and small benchmarks don't spend their time in
modular exponentiation.  All parameters below were generated with a
Miller-Rabin search and are verified by ``tests/crypto/test_groups.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..field import GOLDILOCKS, P128, P220, PrimeField
from .multiexp import FixedBaseTable


@dataclass(frozen=True)
class SchnorrGroup:
    """Subgroup of Z_modulus^* with prime ``order`` and ``generator``."""

    name: str
    modulus: int
    order: int
    generator: int

    @property
    def bits(self) -> int:
        """Bit length of the ambient modulus (the \"key size\")."""
        return self.modulus.bit_length()

    def contains(self, x: int) -> bool:
        """Membership test for the order-q subgroup."""
        return 0 < x < self.modulus and pow(x, self.order, self.modulus) == 1

    def encode(self, m: int) -> int:
        """g^m — the exponent embedding used by the commitment check."""
        return self.generator_table.pow(m % self.order)

    @cached_property
    def generator_table(self) -> FixedBaseTable:
        """Fixed-base table for g, built on first use.

        Every g^x of the commitment (key generation, Enc, ``encode``)
        reads it, so one build serves the process.  The table is built
        fully before it is stored on the group and never mutated after,
        so threads racing on the first use each get a complete table; a
        racing double build stores one of the identical copies.
        """
        return FixedBaseTable(self.generator, self.modulus, self.order.bit_length())


#: 512-bit group of order GOLDILOCKS (test configurations).
GROUP_GOLDILOCKS_512 = SchnorrGroup(
    name="goldilocks-512",
    modulus=0xDF53C2DB48663AD9452551A2E72F0438709E514F4229DE4D0D4252FA0D092CE299D4937F4F2ADB1E11E4D4D81188C2A29D5C07F1016190DDA06AE95C27E610E3,
    order=GOLDILOCKS.modulus,
    generator=0x693D6A72083059121D26C638B1F3F9447F0BCEF0D26F86A846A0CD635569BBC82D49658063821631BA5E5863B08C6C743D8BDD72EC5EC2EBBC94C0B89F83D89,
)

#: 512-bit group of order P128 (fast benchmarks over the paper's field).
GROUP_P128_512 = SchnorrGroup(
    name="p128-512",
    modulus=0xD64B95283532FC1F5369A40BE14422813988AF735E9626E4187B6D177BAC1FE13D3603B23515062AA56B6F803A6ADB6CC4FF43220963A9DAF96FC4DFC96CD485,
    order=P128.modulus,
    generator=0x91162C4BB014BB17B214494808305F55F4492825B176C5D67033F7708FF817EC731E3EAFE8F4A7F0035640E2DA101472DC339A404E460B62A85869596B04F68E,
)

#: 1024-bit group of order P128 — the paper's configuration (§5.1).
GROUP_P128_1024 = SchnorrGroup(
    name="p128-1024",
    modulus=0xAEA4446C388B4836A9D34774EA3DD6756BFEE45956C50D2E67E8FA847F90FF4208382EB4CBA99AE60FFF14438B6F96DE7C010C789ECF963EB83ED5B950CD1E01F133C0285452EF35704F3E4558F78DD870BB4FEAE05C6844B20F6335F326308782F8A0624CB2F3A98127FFC0335FB6FFEC541AC3C877C8663C547C929A9753AD,
    order=P128.modulus,
    generator=0x6FF84C2E7EE2993392DAEC69ED8261F9E84BF0A9772E6E19D41453B1B0ED1280CCE4F41FA72DD75F7E716C10E207940C820B75DD78A318FB4197B08AD6C134BFB841B72F0F08048322C94BABABE2A8845506F1BDBA4AACFF11BB1799BAA65018184B703EC6DB351233C376928A3BE7081449FAA27D667172A840F2E292C6EF1B,
)

#: 1024-bit group of order P220 (rational-number benchmark configuration).
GROUP_P220_1024 = SchnorrGroup(
    name="p220-1024",
    modulus=0xBB49BF863D59CED2C20DECA8DF2187E7C09C7B1AEE427DCD3CE8696DCE94BF01CC1C0962EDF3CCAD01D32ED4A1EA7092D1D62547759BF72187A5F687D1F4687E11200D8152FE9B415561A2F9FF74121D9499D98C349589D51463C382F074A3EAC96634A2B155E5847DE9609D226C6E22D8C33AF5702FC141F0253A3225380F79,
    order=P220.modulus,
    generator=0x31149D24E11AC3613CD1248C5AB134A09581A07D2CA752757C6E3C5302D11481D528FF8605F9664747738D6D594BDD3A51030205ADCE0FBF9DC9798BE196E92F8FF137C83A347F36B36D6C2B9CB48678DCCBA779388FEDD525FB4EAAD65DF3655BE25D681D8E781DB89F856448F24367C1BB44487A8056CD265D9D1F8590DD1A,
)

_GROUPS = {
    g.name: g
    for g in (GROUP_GOLDILOCKS_512, GROUP_P128_512, GROUP_P128_1024, GROUP_P220_1024)
}

#: preferred group per field modulus, smallest first (tests) then paper-scale
_BY_ORDER = {
    GOLDILOCKS.modulus: [GROUP_GOLDILOCKS_512],
    P128.modulus: [GROUP_P128_512, GROUP_P128_1024],
    P220.modulus: [GROUP_P220_1024],
}


def group_for_field(field: PrimeField, *, paper_scale: bool = False) -> SchnorrGroup:
    """Commitment group whose order matches ``field``'s modulus.

    ``paper_scale=True`` selects the 1024-bit modulus the paper used;
    the default picks the smallest available group for speed.
    """
    options = _BY_ORDER.get(field.p)
    if not options:
        raise KeyError(
            f"no commitment group generated for field modulus {field.p:#x}; "
            "add one to repro.crypto.groups"
        )
    return options[-1] if paper_scale else options[0]


def named_group(name: str) -> SchnorrGroup:
    """Look up a hardcoded group by name."""
    try:
        return _GROUPS[name]
    except KeyError:
        raise KeyError(f"unknown group {name!r}; known: {sorted(_GROUPS)}") from None
