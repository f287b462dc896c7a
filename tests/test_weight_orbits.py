"""Weight distributions split over shift orbits of a minimal ideal.

A cyclic code is M_lead (+) rest, and the shifts and nonzero scalars act
freely on M_lead minus 0 in orbits of size o_s, so the distribution is
A(rest) plus o_s times the histogram of a + rest for one word a per orbit.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from math import gcd

import pytest

import oracle
import asymqec.weights
from asymqec.cyclic import bch, from_defining_set, generator_matrix, hamming
from asymqec.errors import InternalConsistencyError
from asymqec.galois import clear_modulus_overrides, make_field, prime_power, set_modulus_override
from asymqec.polyring import cyclotomic_cosets
from asymqec.search import all_cyclic_codes
from asymqec.weights import min_weight, weight_distribution

LENGTHS = [(9, 2), (15, 2), (21, 2), (8, 3), (13, 3), (9, 4), (6, 5), (7, 8), (10, 9)]


def fresh():
    asymqec.weights._clear_caches()


def brute_distribution(code):
    if code.q == 2:
        words = oracle.span(generator_matrix(code).bitmask_rows())
        return tuple(sorted(oracle.weights_of(words).items()))
    words = oracle.span_q(generator_matrix(code).rows, code.n, code.field)
    return tuple(sorted(Counter(oracle.weight_q(w) for w in words).items()))


def shift_scalar_order(n, q, s):
    """Order of <alpha^s, GF(q)*> in GF(q^d)*: the least common multiple of
    the smallest j > 0 with j*s = 0 mod n and q - 1."""
    j = next(j for j in range(1, n + 1) if j * s % n == 0)
    return j * (q - 1) // gcd(j, q - 1)


def ideal_words(n, q, coset):
    """Every word of the minimal ideal with nonzeros `coset`, as tuples."""
    ideal = from_defining_set(n, q, set(range(n)) - set(coset.members))
    return ideal, oracle.span_q(generator_matrix(ideal).rows, n, ideal.field)


def representatives(n, q, coset):
    """The orbit representatives of M_s, built as packed planes, as coordinate tuples."""
    field = make_field(*prime_power(q))
    width = asymqec.weights._lane_bits(field.p)
    reps = asymqec.weights._orbit_representatives(n, q, coset)
    return [oracle.unpack_planes(a, n, field, width) for a in reps]


def orbit(word, field):
    """Closure of a word under every cyclic shift and every nonzero scalar."""
    out = set()
    for c in range(1, field.q):
        scaled = tuple(field.mul_i(c, x) for x in word)
        for j in range(len(word)):
            out.add(scaled[-j:] + scaled[:-j] if j else scaled)
    return out


@pytest.mark.parametrize("n,q", LENGTHS)
def test_split_against_brute_force(n, q):
    fresh()
    for code in all_cyclic_codes(n, q):
        if code.k == 0 or q**code.k > 4**6:
            continue
        split = asymqec.weights._distribution_split(code, asymqec.weights._lead(code))
        assert split == brute_distribution(code), code.descriptor()


@pytest.mark.parametrize("n,q", LENGTHS)
def test_orbits_partition_each_minimal_ideal(n, q):
    fresh()
    for coset in cyclotomic_cosets(n, q):
        if q ** len(coset.members) > 4**6:
            continue
        ideal, words = ideal_words(n, q, coset)
        field = ideal.field
        reps = representatives(n, q, coset)
        size = shift_scalar_order(n, q, coset.representative)
        assert asymqec.weights._orbit_size(n, q, coset.representative) == size
        covered = set()
        for a in reps:
            found = orbit(a, field)
            assert len(found) == size
            assert not found & covered
            covered |= found
        assert len(reps) * size == q**ideal.k - 1
        assert covered == words - {(0,) * n}


def test_the_representatives_of_a_large_ideal_take_little_memory():
    # M_s for s = 1 mod 46 over GF(3) has 3^11 - 1 nonzero words in 3,851 orbits of 46
    fresh()
    coset = cyclotomic_cosets(46, 3)[1]
    tracemalloc.start()
    try:
        reps = asymqec.weights._orbit_representatives(46, 3, coset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reps) == 3851
    assert peak < 1 << 20
    fresh()


@pytest.mark.parametrize("n,q", [(15, 2), (9, 4), (8, 3)])
def test_an_orbit_of_the_wrong_size_raises(n, q, monkeypatch):
    fresh()
    real = asymqec.weights._orbit_size
    monkeypatch.setattr(asymqec.weights, "_orbit_size", lambda n, q, s: real(n, q, s) + 1)
    with pytest.raises(InternalConsistencyError, match=r"nonzero words, not r \* o_s"):
        asymqec.weights._orbit_representatives(n, q, cyclotomic_cosets(n, q)[1])
    assert not asymqec.weights._ORBIT_CACHE


@pytest.mark.parametrize("n,q", LENGTHS)
def test_lead_has_the_largest_orbits_then_the_smallest_representative(n, q):
    for code in all_cyclic_codes(n, q):
        if code.k == 0:
            continue
        nonzeros = [c for c in cyclotomic_cosets(n, q) if c.representative not in code.T.members]
        best = max(shift_scalar_order(n, q, c.representative) for c in nonzeros)
        lead = asymqec.weights._lead(code)
        assert lead in nonzeros
        assert shift_scalar_order(n, q, lead.representative) == best
        assert lead.representative == min(
            c.representative for c in nonzeros
            if shift_scalar_order(n, q, c.representative) == best)


def test_word_count_rule(monkeypatch):
    calls = []
    real = asymqec.weights._distribution_split
    monkeypatch.setattr(asymqec.weights, "_distribution_split",
                        lambda code, lead: calls.append(code) or real(code, lead))
    fresh()
    # hamming(3, 2) is [7,4]; its distribution walks the [7,3] dual, where the
    # split would walk 1 * 2^0 words and build 1 representative at 100 steps,
    # against 7
    assert weight_distribution(hamming(3, 2)) == ((0, 1), (3, 7), (4, 7), (7, 1))
    assert calls == []
    # each [43,15] binary code: 381 * 2^1 + 100 * 381 against 2^15 - 1, where
    # the split took twice the plain walk's time
    cosets = cyclotomic_cosets(43, 2)
    assert [len(c.members) for c in cosets] == [1, 14, 14, 14]
    for kept in cosets[1:]:
        code = from_defining_set(43, 2, [s for c in cosets[1:] if c != kept for s in c.members])
        assert code.k == 15
        weight_distribution(code)
    assert calls == []
    # the [89,22] binary code with nonzeros the first two 11-cosets:
    # 23 * 2^11 + 100 * 23 against 2^22 - 1
    cosets = cyclotomic_cosets(89, 2)
    code = from_defining_set(89, 2, [s for c in cosets[:1] + cosets[3:] for s in c.members])
    assert code.k == 22
    weight_distribution(code)
    assert calls == [code]
    # the [127,21] dual of bch(127, 2, 7): 1 * 2^14 + 100 * 1 against 2^21 - 1
    weight_distribution(bch(127, 2, 7))
    assert calls[1] == bch(127, 2, 7).dual()
    fresh()


def test_orbit_cache_follows_a_modulus_override():
    fresh()
    default = make_field(2, 3).modulus
    other = (1, 0, 1, 1) if default == (1, 1, 0, 1) else (1, 1, 0, 1)
    for code in all_cyclic_codes(7, 8):
        weight_distribution(code)
        if code.k:  # no length-7 code pays for the split, so fill the orbit cache here
            asymqec.weights._distribution_split(code, asymqec.weights._lead(code))
    assert asymqec.weights._ORBIT_CACHE
    try:
        set_modulus_override(2, 3, other)
        assert make_field(2, 3).modulus == other
        assert not asymqec.weights._ORBIT_CACHE
        for code in all_cyclic_codes(7, 8):
            if code.k > 4:
                continue
            expected = brute_distribution(code)
            assert weight_distribution(code) == expected
            if code.k:
                lead = asymqec.weights._lead(code)
                assert asymqec.weights._distribution_split(code, lead) == expected
        assert asymqec.weights._ORBIT_CACHE
        for (n, q, s), reps in asymqec.weights._ORBIT_CACHE.items():
            # every coset mod 7 over GF(8) is a single residue
            ideal = from_defining_set(n, q, set(range(n)) - {s})
            assert all(ideal.is_codeword(oracle.unpack_planes(a, n, ideal.field, 1))
                       for a in reps)
    finally:
        clear_modulus_overrides()
        fresh()


def test_cached_lead_representatives_cost_no_build(monkeypatch):
    calls = []
    real = asymqec.weights._distribution_split
    monkeypatch.setattr(asymqec.weights, "_distribution_split",
                        lambda code, lead: calls.append(code) or real(code, lead))
    # each [43,15] binary code: cold, 381 * 2^1 + 100 * 381 against 2^15 - 1
    # picks the plain walk; with its lead ideal's representatives cached the
    # split walks 381 * 2^1 words and builds nothing
    cosets = cyclotomic_cosets(43, 2)
    read = 0
    for kept in cosets[1:]:
        code = from_defining_set(43, 2, [s for c in cosets[1:] if c != kept for s in c.members])
        fresh()
        cold = min_weight(code.dual()), weight_distribution(code)
        assert calls == []
        fresh()
        asymqec.weights._orbit_representatives(43, 2, asymqec.weights._lead(code))
        # the [43,28] dual's report reads this code's distribution or not, alike
        warm = min_weight(code.dual()), weight_distribution(code)
        assert calls == [code]
        assert warm == cold
        read += cold[0].enumerated > asymqec.weights._messages(2, 15)
        calls.clear()
    assert read == 2
    fresh()
