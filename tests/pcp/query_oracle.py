"""The query path by embedded queries: every query a full-length vector.

This is the route ``repro.pcp.zaatar`` and ``repro.crypto.commitment``
replaced with base rows, kept as the reference they must reproduce:

* :func:`embed_z_query` and :func:`embed_h_query` lift a query on one
  half of u = (z, h) to full length, zero on the other half;
* :func:`embedded_queries` draws a schedule's queries exactly as the
  schedule does (4·ρ_lin fresh vectors per repetition in one draw, then
  τ) and builds every one of the ρ·(6ρ_lin + 4) queries as a list of
  |u| ints, zero-padded on the half it does not touch;
* :func:`consistency_query` is t = r + Σ αᵢ·qᵢ over all of them;
* :func:`answers` is one inner product per query, then π(t).

``tests/pcp/test_query_rows.py`` checks t and every answer against it,
and the query-path rows of ``benchmarks/bench_kernels.py`` time it.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

from repro.qap import circuit_queries


def embed_z_query(qap, q: Sequence[int]) -> list[int]:
    """Lift a πz query (length |Z|) into full-proof-vector coordinates."""
    if len(q) != qap.n_prime:
        raise ValueError(f"z-query length {len(q)} != {qap.n_prime}")
    return list(q) + [0] * qap.h_length


def embed_h_query(qap, q: Sequence[int]) -> list[int]:
    """Lift a πh query (length |C|+1) into full-proof-vector coordinates."""
    if len(q) != qap.h_length:
        raise ValueError(f"h-query length {len(q)} != {qap.h_length}")
    return [0] * qap.n_prime + list(q)


def embedded_queries(qap, params, prg) -> list[list[int]]:
    """The schedule's queries, in answer order, each of length |u|."""
    field = qap.field
    n_prime, h_len = qap.n_prime, qap.h_length
    queries: list[list[int]] = []
    for _ in range(params.rho):
        draws = iter(prg.next_vector(params.rho_lin * 2 * (n_prime + h_len)))
        first_q5 = first_q8 = None
        for _ in range(params.rho_lin):
            q5 = list(islice(draws, n_prime))
            q6 = list(islice(draws, n_prime))
            queries += [embed_z_query(qap, q) for q in (q5, q6, field.vec_add(q5, q6))]
            q8 = list(islice(draws, h_len))
            q9 = list(islice(draws, h_len))
            queries += [embed_h_query(qap, q) for q in (q8, q9, field.vec_add(q8, q9))]
            if first_q5 is None:
                first_q5, first_q8 = q5, q8
        while True:
            try:
                circuit = circuit_queries(qap, prg.next_nonzero())
                break
            except ValueError:
                continue
        for q in (circuit.qa, circuit.qb, circuit.qc):
            queries.append(embed_z_query(qap, field.vec_add(q, first_q5)))
        queries.append(embed_h_query(qap, field.vec_add(circuit.qd, first_q8)))
    return queries


def consistency_query(field, r, alphas, queries) -> list[int]:
    """t = r + Σ αᵢ·qᵢ over every embedded query."""
    return field.vec_lincomb(r, alphas, queries)


def answers(field, queries, t, u) -> list[int]:
    """π(q) for every query by inner product, then π(t)."""
    return [field.inner_product(q, u) for q in queries] + [field.inner_product(t, u)]
