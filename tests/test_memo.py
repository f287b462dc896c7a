"""Algebra facts computed once per job: divisibility answers, exact
quotients, root sets of divisors of x^n - 1, the per-code k and designed
bound, and each code's identity facts (its field and descriptor).

The memos are keyed by polynomial values, never by code identity, and every
check they feed is still made: a corrupted generator or parity polynomial
must still trip the containment cross-check after the pair was cached.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import asymqec.cyclic
import asymqec.polyring
import asymqec.weights
from asymqec.aqec import extend_by_polynomial
from asymqec.cyclic import (CyclicCode, DefiningSet, bch, divisor_roots, from_defining_set,
                            full_space, roots_of, rs)
from asymqec.errors import InternalConsistencyError
from asymqec.galois import (
    clear_modulus_overrides,
    field_of_size,
    make_field,
    set_modulus_override,
)
from asymqec.polyring import Polynomial, parse_poly
from asymqec.search import search
from asymqec.weights import min_weight, min_weight_difference, weight_distribution


@pytest.fixture(autouse=True)
def cold():
    clear_modulus_overrides()
    yield
    clear_modulus_overrides()


def memo_sizes() -> tuple[int, int, int]:
    polyring = asymqec.polyring
    return len(polyring._DIVIDES), len(polyring._QUOTIENTS), len(asymqec.cyclic._ROOTS_CACHE)


def test_clearing_the_modulus_table_empties_both_memos_and_overrides_move_root_sets():
    f2 = make_field(2, 1)
    f = parse_poly("x^3 + x + 1", f2)
    default = make_field(2, 3).modulus
    other = (1, 0, 1, 1) if default == (1, 1, 0, 1) else (1, 1, 0, 1)
    # one exact division, one divisibility check, one root set
    extend_by_polynomial(full_space(7, 2), f)
    before = divisor_roots(f, 7)
    assert all(memo_sizes())
    try:
        set_modulus_override(2, 3, other)
        assert memo_sizes() == (0, 0, 0)
        after = divisor_roots(f, 7)
        # alpha is now a root of the reciprocal modulus: f vanishes at its inverses
        assert after == frozenset((-s) % 7 for s in before) != before
        assert after == roots_of(f, 7)
        assert asymqec.cyclic._ROOTS_CACHE[f, 7] == after
        full_space(7, 2).parity_polynomial
        assert asymqec.polyring._QUOTIENTS
    finally:
        clear_modulus_overrides()
    assert memo_sizes() == (0, 0, 0)
    assert divisor_roots(f, 7) == before


@pytest.mark.parametrize("code_name,slot", [("outer", "_g"), ("inner", "_h")])
def test_contains_rechecks_every_criterion_after_a_cached_answer(code_name, slot):
    codes = {"outer": bch(15, 2, 3), "inner": bch(15, 2, 5)}
    assert codes["outer"].contains(codes["inner"])
    field = codes["outer"].field
    # x^15 - 1 divides neither g(inner) nor h(outer): one criterion flips
    setattr(codes[code_name], slot, Polynomial.monomial(field, 15) - Polynomial.one(field))
    with pytest.raises(InternalConsistencyError, match="criteria disagree"):
        codes["outer"].contains(codes["inner"])


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("side", ["generator", "parity"])
def test_contains_rejects_a_wrong_divisibility_answer_hit_or_miss(q, side):
    outer, inner = bch(13 if q == 3 else 15, q, 2), bch(13 if q == 3 else 15, q, 4)
    assert outer.contains(inner)
    pair = ((outer.generator_polynomial, inner.generator_polynomial) if side == "generator"
            else (inner.parity_polynomial, outer.parity_polynomial))
    asymqec.polyring._DIVIDES[pair] = False  # a memo hit with the wrong answer
    with pytest.raises(InternalConsistencyError, match="criteria disagree"):
        outer.contains(inner)
    clear_modulus_overrides()
    outer, inner = bch(outer.n, q, 2), bch(outer.n, q, 4)
    # a miss on a corrupted polynomial: x^n - 1 divides neither g(inner) nor h(outer)
    code, slot = (outer, "_g") if side == "generator" else (inner, "_h")
    code._polynomials()
    xn1 = Polynomial.monomial(code.field, code.n) - Polynomial.one(code.field)
    setattr(code, slot, xn1)
    with pytest.raises(InternalConsistencyError, match="criteria disagree"):
        outer.contains(inner)


def test_clearing_the_modulus_table_drops_each_codes_weight_facts():
    # d(outer) = 3 meets inner's designed bound, so both distributions are read
    outer, inner = bch(15, 2, 3), from_defining_set(15, 2, {1, 2, 4, 5, 8, 10})
    report = min_weight_difference(outer, inner)
    d, scanned, words = asymqec.weights._MIN_CACHE[outer]
    assert (d, words) == (min_weight(outer).value, min_weight(outer).enumerated)
    assert report.enumerated >= words >= scanned > 0
    for code in (outer, inner):
        counts, walked = asymqec.weights._DIST_CACHE[code]
        assert counts == [dict(weight_distribution(code)).get(w, 0) for w in range(16)]
        assert walked in (code, code.dual())
    clear_modulus_overrides()
    assert not asymqec.weights._MIN_CACHE and not asymqec.weights._DIST_CACHE
    inner = from_defining_set(15, 2, inner.T.members)
    assert min_weight_difference(bch(15, 2, 3), inner) == report


def test_a_family_search_divides_each_pair_and_roots_each_divisor_once(monkeypatch):
    divisions, root_sets = Counter(), Counter()
    reduce, roots = Polynomial._reduce, asymqec.cyclic.roots_of

    def counted_reduce(self, divisor, quotient):
        divisions[divisor, self] += 1
        return reduce(self, divisor, quotient)

    def counted_roots(f, n):
        root_sets[f, n] += 1
        return roots(f, n)

    monkeypatch.setattr(Polynomial, "_reduce", counted_reduce)
    monkeypatch.setattr(asymqec.cyclic, "roots_of", counted_roots)
    results = search(21, 2, "extend-poly")
    assert results
    assert divisions and max(divisions.values()) == 1
    assert root_sets and max(root_sets.values()) == 1


@pytest.mark.parametrize("n,q,route", [(21, 2, "css"), (21, 2, "subsystem"), (8, 3, "css")])
def test_family_searches_divide_each_pair_at_most_once(monkeypatch, n, q, route):
    divisions = Counter()
    reduce = Polynomial._reduce

    def counted_reduce(self, divisor, quotient):
        divisions[divisor, self] += 1
        return reduce(self, divisor, quotient)

    # both div_rem and a divides miss run the one division loop
    monkeypatch.setattr(Polynomial, "_reduce", counted_reduce)
    assert search(n, q, route)
    assert divisions and max(divisions.values()) == 1


def test_k_and_designed_bound_are_computed_once_per_code(monkeypatch):
    bounds = Counter()
    run_bound = asymqec.cyclic.consecutive_run_bound

    def counted(n, members):
        bounds[n, members] += 1
        return run_bound(n, members)

    monkeypatch.setattr(asymqec.cyclic, "consecutive_run_bound", counted)
    search(15, 2, "css")
    interned = asymqec.cyclic._CODE_CACHE
    assert sum(bounds.values()) == len(bounds) == len(interned)
    assert {"k", "designed_distance_bound"} <= set(CyclicCode.__slots__)
    for code in interned.values():
        assert code.k == code.n - len(code.T.members)
        assert code.designed_distance_bound == run_bound(code.n, code.T.members)


def test_membership_tests_leave_the_root_memo_alone():
    code = bch(15, 2, 5)
    extend_by_polynomial(code, code.parity_polynomial)
    size = len(asymqec.cyclic._ROOTS_CACHE)
    assert size
    rng = random.Random(15)
    words = [[rng.randrange(2) for _ in range(15)] for _ in range(200)]
    verdicts = [code.is_codeword(w) for w in words]
    assert len(asymqec.cyclic._ROOTS_CACHE) == size
    assert not all(verdicts)
    # asked directly, only divisors of x^15 - 1 enter the memo
    for w in words:
        divisor_roots(Polynomial.from_coeffs(code.field, w), 15)
    xn1 = Polynomial.monomial(code.field, 15) - Polynomial.one(code.field)
    for (f, n), roots in asymqec.cyclic._ROOTS_CACHE.items():
        assert f.is_monic and f.divides(xn1) and len(roots) == f.degree


def test_each_interned_code_renders_its_descriptor_once(monkeypatch):
    renders = Counter()
    render = DefiningSet.__str__

    def counted(self):
        renders[self] += 1
        return render(self)

    monkeypatch.setattr(DefiningSet, "__str__", counted)
    results = search(15, 2, "subsystem")
    first = [(p.c1.descriptor(), p.c2.descriptor()) for p in results]
    assert first == [(p.c1.descriptor(), p.c2.descriptor()) for p in results]
    described = {code.T for p in results for code in (p.c1, p.c2)}
    assert set(renders) == described
    assert max(renders.values()) == 1
    for code in asymqec.cyclic._CODE_CACHE.values():
        assert code.T.sorted_members is code.T.sorted_members == tuple(sorted(code.T.members))


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_a_code_carries_the_field_of_its_size(q):
    code = full_space(7, q)
    assert code.field is field_of_size(code.q)
    assert "field" in CyclicCode.__slots__


def test_codes_built_after_a_modulus_override_carry_the_new_field():
    before = rs(8, 3)
    default = before.field.modulus
    other = (1, 0, 1, 1) if default == (1, 1, 0, 1) else (1, 1, 0, 1)
    try:
        set_modulus_override(2, 3, other)
        after = rs(8, 3)
        assert after is not before
        assert after.field is field_of_size(8)
        assert after.field.modulus == other
        assert after.descriptor() == before.descriptor()
        assert before.field.modulus == default  # a code keeps the field it was built with
    finally:
        clear_modulus_overrides()
    assert rs(8, 3).field.modulus == default


@pytest.mark.parametrize("p,m", [(2, 1), (2, 4), (3, 2), (5, 1), (2, 8)])
def test_field_hash_is_the_hash_of_its_identity(p, m):
    field = make_field(p, m)
    assert hash(field) == hash((p, m, field.modulus))
