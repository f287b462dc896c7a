"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete (they also appear in captured output without -s).
"""

from __future__ import annotations

import functools
import itertools
import time

import oracle
from asymqec import galois
from asymqec.aqec import (
    build_stabilizer_matrix,
    check_css_commutativity,
    extend_by_defining_set,
    extend_by_polynomial,
    subsystem_euclidean,
    trade_dimension,
)
from asymqec.audit import audit_rows
from asymqec.cyclic import bch, code_sum, contains, generator_matrix, intersect
from asymqec.polyring import coset_of, minimal_polynomial
from asymqec.search import all_cyclic_codes, search
from asymqec.weights import macwilliams_transform, min_weight, min_weight_difference, weight_distribution
import asymqec.weights


def criterion(num: int, summary: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE CRITERION {num}: FAIL - {summary}")
                raise
            print(f"\nACCEPTANCE CRITERION {num}: PASS - {summary}")
        return wrapper
    return decorate


def _cold_caches():
    galois._invalidate_derived_caches()


@criterion(1, "reference rows at n=15 reproduced ([[15,3,5/3]] and [[15,0,5/4]]) within 10 s")
def test_criterion_1_table_rows_n15():
    start = time.monotonic()
    audits = {a.index: a for a in audit_rows([1, 2])}
    elapsed = time.monotonic() - start

    row1 = audits[1]
    assert row1.verdict == "REPRODUCED"
    assert row1.computed.label() == "[[15,3,5/3]]_2"
    assert row1.computed.dz.method == "exhaustive"
    assert row1.computed.dx.method == "exhaustive"
    assert row1.computed.k == 3

    row2 = audits[2]
    assert row2.verdict == "REPRODUCED"
    assert row2.computed.label() == "[[15,0,5/4]]_2"
    # some [15,8,4] candidate was found and recorded
    assert any("candidate defining set" in note for note in row2.notes)
    resolved_c1 = row2.computed.c1
    assert resolved_c1.k == 8
    assert min_weight(resolved_c1).value == 4

    assert elapsed < 10.0, f"n=15 rows took {elapsed:.1f}s"


@criterion(2, "reference rows at n=31: 3,4,6,7 exact, row 5 flagged with computed k=11, "
               "enumeration <= 2^26 per side, within 30 min")
def test_criterion_2_table_rows_n31():
    start = time.monotonic()
    audits = {a.index: a for a in audit_rows([3, 4, 5, 6, 7])}
    elapsed = time.monotonic() - start

    expected = {3: "[[31,6,7/5]]_2", 4: "[[31,11,7/3]]_2",
                6: "[[31,6,11/3]]_2", 7: "[[31,1,15/3]]_2"}
    for index, label in expected.items():
        audit = audits[index]
        assert audit.verdict == "REPRODUCED", f"row {index}: {audit.verdict}"
        assert audit.computed.label() == label
        for side in (audit.computed.dz, audit.computed.dx):
            assert side.method == "exhaustive"
            assert side.enumerated <= 2**26

    row5 = audits[5]
    assert row5.verdict == "NOT-REPRODUCED"
    assert row5.computed.k == 11
    assert any("identical classical inputs as row 4" in note for note in row5.notes)

    assert elapsed < 1800.0, f"n=31 rows took {elapsed:.1f}s"


@criterion(3, "reference rows at n=127: k=64 and k=56 exact in under 1 s, distances "
               "bound-only at the designed distances, 25-vs-27 conflict flagged")
def test_criterion_3_table_rows_n127():
    _cold_caches()
    start = time.monotonic()
    audits = {a.index: a for a in audit_rows([8, 9])}
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"n=127 rows took {elapsed:.2f}s"

    row8 = audits[8]
    assert row8.computed.k == 64
    assert row8.computed.dz.method == "bound-only"
    assert row8.computed.dx.method == "bound-only"
    # dz bounded by the designed distance of C2, dx by that of C1
    assert row8.computed.dz.value == row8.computed.c2.designed_distance_bound == 15
    assert row8.computed.dx.value == row8.computed.c1.designed_distance_bound == 5

    row9 = audits[9]
    assert row9.computed.k == 56
    assert row9.computed.dz.method == row9.computed.dx.method == "bound-only"
    assert row9.computed.dz.value == row9.computed.c2.designed_distance_bound
    assert row9.computed.dx.value == row9.computed.c1.designed_distance_bound == 7
    assert any("self-inconsistent" in note for note in row9.notes), \
        "the 25/7-vs-27 conflict must be flagged"


def _qary_calculus_mismatches(n: int, q: int) -> int:
    """Criterion 4 over GF(q) for every code with q^k <= 4096: the calculus
    against spans of generator rows. A dual or a sum is pinned by its size
    (|C| |C-dual| = q^n, |C1 + C2| |C1 ^ C2| = |C1| |C2|) and, where it fits,
    by its words: orthogonal to C, or containing C1 and C2."""
    codes = [c for c in all_cyclic_codes(n, q) if q**c.k <= 4096]
    field = codes[0].field
    rows = {c: generator_matrix(c).rows for c in codes}
    sets = {c: oracle.span_q(rows[c], n, field) for c in codes}

    def dot(u, v):
        return functools.reduce(field.add_i, map(field.mul_i, u, v), 0)

    def sized(code, size):
        return q**code.k == size and (size > 4096 or len(sets[code]) == size)

    mismatches = 0
    for c in codes:
        d = c.dual()
        if not (sized(d, q**n // len(sets[c])) and (
                d not in sets or all(dot(u, v) == 0 for u in rows[c] for v in rows[d]))):
            mismatches += 1
    for c1, c2 in itertools.combinations_with_replacement(codes, 2):
        meet = sets[c1] & sets[c2]
        if sets[intersect(c1, c2)] != meet:
            mismatches += 1
        total = code_sum(c1, c2)
        if not (sized(total, len(sets[c1]) * len(sets[c2]) // len(meet)) and (
                total not in sets or sets[c1] | sets[c2] <= sets[total])):
            mismatches += 1
    for c1, c2 in itertools.product(codes, repeat=2):
        if contains(c1, c2) != (sets[c2] <= sets[c1]):
            mismatches += 1
    return mismatches


@criterion(4, "defining-set calculus matches brute-force codeword sets on every pair "
               "at n=7 and n=15 over GF(2) and at (8,3), (5,4), (9,4) (0 mismatches) "
               "in under 1 min")
def test_criterion_4_set_calculus_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    for n in (7, 15):
        codes = all_cyclic_codes(n, 2)
        assert len(codes) == {7: 8, 15: 32}[n]
        sets = {c: oracle.span(generator_matrix(c).bitmask_rows()) for c in codes}
        rows = {c: generator_matrix(c).bitmask_rows() for c in codes}
        for c in codes:
            brute_dual = oracle.span(oracle.nullspace(rows[c], n))
            if sets[c.dual()] != brute_dual:
                mismatches += 1
        for c1, c2 in itertools.combinations_with_replacement(codes, 2):
            if sets[intersect(c1, c2)] != sets[c1] & sets[c2]:
                mismatches += 1
            if sets[code_sum(c1, c2)] != oracle.span(rows[c1] + rows[c2]):
                mismatches += 1
        for c1, c2 in itertools.product(codes, repeat=2):
            if contains(c1, c2) != (sets[c2] <= sets[c1]):
                mismatches += 1
    for n, q in ((8, 3), (5, 4), (9, 4)):
        mismatches += _qary_calculus_mismatches(n, q)
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"


@criterion(5, "stabilizer blocks commute for every nested pair discovered by "
               "search at n=15 and n=31 (100%)")
def test_criterion_5_commutativity_of_search_results():
    checked = 0
    for n, budget in ((15, 1 << 20), (31, 1 << 16)):
        for params in search(n, 2, "css", budget):
            hx, hz = build_stabilizer_matrix(params.c1, params.c2)
            assert check_css_commutativity(hx, hz), \
                f"pair {params.c1.descriptor()} / {params.c2.descriptor()}"
            checked += 1
    assert checked > 2000


@criterion(6, "generator-polynomial and defining-set extensions agree on all admissible "
               "blocks at n=15, with the dimension identity and discrepancy note on each")
def test_criterion_6_cross_route_equality():
    c1 = bch(15, 2, 3)  # the [15,11,3] Hamming code
    admissible = c1.dual().T.members - c1.T.members
    blocks = [coset_of(15, 2, s) for s in sorted({min(coset_of(15, 2, s).members)
                                                   for s in admissible})]
    derivations = 0
    for size in range(1, len(blocks) + 1):
        for chosen in itertools.combinations(blocks, size):
            members: set[int] = set()
            f = None
            for coset in chosen:
                members.update(coset.members)
                mp = minimal_polynomial(15, 2, coset)
                f = mp if f is None else f * mp
            c2_set, p_set = extend_by_defining_set(c1, members)
            c2_poly, p_poly = extend_by_polynomial(c1, f)
            assert c2_set == c2_poly
            assert (p_set.k, p_set.dz.value, p_set.dx.value, p_set.pure) == \
                   (p_poly.k, p_poly.dz.value, p_poly.dx.value, p_poly.pure)
            for params in (p_set, p_poly):
                # ground-truth dimension identity, recomputed here
                assert params.k == params.c1.k - params.c2.dual().k
                assert any("disagree with the computed logical dimension" in note
                           for note in params.notes), "discrepancy report missing"
            derivations += 1
    assert derivations == 7  # nonempty unions of {0}, coset(3), coset(5)


@criterion(7, "subsystem construction from [15,7,5] gives [[15,4,3]] and [[15,3,4]] with "
               "exact bookkeeping, and trades preserve k + r")
def test_criterion_7_subsystem_bookkeeping():
    c1 = bch(15, 2, 5)
    first, swapped = subsystem_euclidean(c1)
    k1, k2 = c1.k, first.c2.k
    assert (first.n, first.k, first.r) == (15, 4, 3)
    assert (swapped.n, swapped.k, swapped.r) == (15, 3, 4)
    assert first.k == 15 - (k1 + k2)
    assert first.r == k1 - k2
    assert first.k + first.r + 2 * k2 == 15
    assert swapped.k + swapped.r + 2 * k2 == 15

    current = first
    total = current.k + current.r
    steps = 0
    while current.k > 1:
        current = trade_dimension(current)
        assert current.k + current.r == total
        steps += 1
    assert steps == first.k - 1


@criterion(8, "weight engine: classical minima 3/7/11/15, MacWilliams double transform "
               "on all n=15 codes, two cold runs equal bit for bit")
def test_criterion_8_weight_engine():
    assert min_weight(bch(15, 2, 3)).value == 3
    assert min_weight(bch(31, 2, 7)).value == 7
    assert min_weight(bch(31, 2, 11)).value == 11
    assert min_weight(bch(31, 2, 15)).value == 15

    for code in all_cyclic_codes(15, 2):
        dist = weight_distribution(code)
        dual_dist = macwilliams_transform(dist, 15, 2, code.k)
        assert macwilliams_transform(dual_dist, 15, 2, 15 - code.k) == dist
        assert dual_dist == weight_distribution(code.dual())

    code = bch(31, 2, 7)
    outer, inner = bch(31, 2, 5), bch(31, 2, 7).dual()
    asymqec.weights._clear_caches()
    first = min_weight(code)
    first_diff = min_weight_difference(outer, inner)
    asymqec.weights._clear_caches()
    second = min_weight(code)
    second_diff = min_weight_difference(outer, inner)
    assert first == second
    assert first_diff == second_diff
