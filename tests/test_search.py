"""Family search: ordering, records built once, determinism, space limits."""

from __future__ import annotations

import importlib
import itertools

import pytest

import oracle
from asymqec.aqec import extend_by_defining_set, subsystem_euclidean
from asymqec.cyclic import CyclicCode, from_defining_set
from asymqec.galois import clear_modulus_overrides
from asymqec.polyring import cyclotomic_cosets
from asymqec.search import ROUTES, all_cyclic_codes, search
from asymqec.weights import min_weight, min_weight_difference

# the package re-exports the function `search` under the module's name
search_module = importlib.import_module("asymqec.search")


def test_all_cyclic_codes_counts():
    assert len(all_cyclic_codes(7, 2)) == 8
    assert len(all_cyclic_codes(15, 2)) == 32
    assert len(all_cyclic_codes(31, 2)) == 128


def test_all_cyclic_codes_space_limit():
    with pytest.raises(ValueError, match="exceeds the limit"):
        all_cyclic_codes(127, 2)
    with pytest.raises(ValueError, match="exceeds the limit"):
        all_cyclic_codes(31, 2, max_codes=127)
    assert len(all_cyclic_codes(31, 2, max_codes=128)) == 128


def test_search_sorted_by_falling_asymmetry_then_k():
    results = search(15, 2, "css")
    keys = [(p.dz.value - p.dx.value, p.k) for p in results]
    assert keys == sorted(keys, key=lambda t: (-t[0], -t[1]))


def record_key(params):
    """What tells two records apart: the parameters and both defining sets."""
    return (
        params.n,
        params.k,
        getattr(params, "r", None),
        params.dz.value,
        params.dx.value,
        params.c1.T.members,
        params.c2.T.members,
    )


def test_search_deduplicates():
    """Every route builds each record once, so no search returns a duplicate."""
    for n, q in [(15, 2), (8, 3), (4, 3), (10, 3), (9, 4), (7, 8), (5, 4)]:
        for route in ROUTES:
            keys = [record_key(p) for p in search(n, q, route)]
            assert len(keys) == len(set(keys)), (n, q, route)


def test_the_subsystem_search_keeps_one_record_per_c1_where_k_equals_r():
    """Both of subsystem_euclidean's records per C1 with 0 < k1 < n, except
    where k = r (so n = 2 k1) and the role swap is the same record."""
    n, q = 8, 3
    expected, twins = [], 0
    for c1 in all_cyclic_codes(n, q):
        if 0 < c1.k < n:
            first, swapped = subsystem_euclidean(c1)
            assert swapped.k == first.r and swapped.r == first.k
            twins += first.k == first.r
            expected += [first] if first.k == first.r else [first, swapped]
    results = search(n, q, "subsystem")
    assert twins == 6 and len(results) == 54
    assert results == sorted(expected, key=search_module._sort_key)


def test_search_deterministic_across_calls():
    first = search(7, 2, "css")
    second = search(7, 2, "css")
    assert [(p.label(), p.c1.descriptor(), p.c2.descriptor()) for p in first] == \
           [(p.label(), p.c1.descriptor(), p.c2.descriptor()) for p in second]


def weight_reports(n, q, cold):
    """min_weight of every nonzero code and min_weight_difference of every
    nested pair, each after clearing every derived cache when `cold`."""
    sets = [c.T.members for c in all_cyclic_codes(n, q) if c.k]
    out = {}
    for a in sets:
        for b in [None, *sets]:
            if cold:
                clear_modulus_overrides()
            outer = from_defining_set(n, q, a)
            if b is None:
                out[a] = min_weight(outer)
            elif b != a and outer.contains(inner := from_defining_set(n, q, b)):
                out[a, b] = min_weight_difference(outer, inner)
    return out


@pytest.mark.parametrize("n,q", [(15, 2), (8, 3), (9, 4)])
def test_records_and_reports_are_the_same_cold_and_warm(n, q):
    cold = {}
    for route in ROUTES:
        clear_modulus_overrides()
        cold[route] = search(n, q, route)
    # records compare every field, each side's enumerated word count included
    for route, warmer in itertools.permutations(ROUTES, 2):
        clear_modulus_overrides()
        search(n, q, warmer)
        assert search(n, q, route) == cold[route]
    clear_modulus_overrides()
    for route in ROUTES:
        search(n, q, route)
    warm = weight_reports(n, q, cold=False)
    assert warm == weight_reports(n, q, cold=True)
    assert any(isinstance(key, tuple) for key in warm)  # pairs as well as single codes


def singleton_slack(p):
    """n - dz - dx + 2 - k: at least 0 by the asymmetric Singleton bound
    k <= n - dz - dx + 2 of a stabilizer code (Sarvepalli, Klappenecker and
    Roetteler, Proc. R. Soc. A 2009), which lower bounds on dz, dx meet too."""
    return p.n - p.dz.value - p.dx.value + 2 - p.k


@pytest.mark.parametrize("route", ["css", "extend-poly", "extend-set"])
@pytest.mark.parametrize("n,q", [(15, 2), (21, 2), (13, 3), (8, 3), (9, 4), (7, 8)])
def test_stabilizer_records_meet_the_asymmetric_singleton_bound(n, q, route):
    records = search(n, q, route)
    assert records
    assert [p.label() for p in records if singleton_slack(p) < 0] == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the subsystem route reports wt(C2-dual minus C1) and wt(C1-dual minus "
    "C2), not the dressed distance; this record has n - k - r = 0 stabilizer generators, "
    "so it detects no error and its dressed distance is 1/1"))
def test_the_subsystem_record_with_no_stabilizers_meets_the_singleton_bound():
    record = next(p for p in search(15, 2, "subsystem") if p.label() == "[[15,1,14,15/1]]_2")
    assert singleton_slack(record) - record.r >= 0  # k + r <= n - dz - dx + 2


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "aqec._extension_params says the closed forms disagree with b even when one of them "
    "equals b, as at even n; search-qary's reference pins the text, so it stays until the "
    "benchmark references may be regenerated"))
@pytest.mark.parametrize("route", ["extend-poly", "extend-set"])
@pytest.mark.parametrize("n,q", [(8, 3), (4, 3)])
def test_the_extension_note_says_disagree_only_when_no_closed_form_is_b(n, q, route):
    wrong = []
    for p in search(n, q, route):
        closed_forms = (2 * p.c1.k - p.k - p.n, 2 * p.c1.k + p.k - p.n)
        disagrees = any("closed forms" in note and "disagree" in note for note in p.notes)
        if disagrees == (p.k in closed_forms):
            wrong.append(p.label())
    assert wrong == []


def test_search_max_results():
    assert len(search(15, 2, "css", max_results=7)) == 7


def test_search_rejects_negative_max_results():
    with pytest.raises(ValueError, match="non-negative"):
        search(15, 2, "css", max_results=-1)
    assert search(7, 2, "css", max_results=0) == []


@pytest.mark.parametrize("n,q", [(7, 2), (15, 2), (8, 3), (5, 4)])
def test_css_search_derives_exactly_the_nested_pairs(monkeypatch, n, q):
    derived = []
    real = search_module.css_aqec

    def recording(c1, c2, budget):
        derived.append((c1, c2))
        return real(c1, c2, budget)

    monkeypatch.setattr(search_module, "css_aqec", recording)
    search(n, q, "css")
    assert derived == oracle.css_pairs(all_cyclic_codes(n, q))


def extend_set_by_every_block(n, q):
    """The extend-set results derived from every admissible block T, duplicates
    of one T union -T included, then deduplicated by `record_key` and sorted
    as search does."""
    cosets = cyclotomic_cosets(n, q)
    derived = []
    for c1 in all_cyclic_codes(n, q):
        allowed = [c for c in cosets
                   if c.representative in c1.dual().T.members - c1.T.members]
        for size in range(len(allowed) + 1):
            for chosen in itertools.combinations(allowed, size):
                block = [s for c in chosen for s in c.members]
                if c1.k and (block or c1.k < n):
                    derived.append(extend_by_defining_set(c1, block)[1])
    unique = {}
    for params in derived:
        unique.setdefault(record_key(params), params)
    return derived, sorted(unique.values(), key=search_module._sort_key)


@pytest.mark.parametrize("n,q", [(15, 2), (8, 3), (9, 4), (21, 2), (13, 3), (7, 8)])
def test_extend_set_search_derives_each_closed_block_once(monkeypatch, n, q):
    every, expected = extend_set_by_every_block(n, q)
    blocks = []
    real = search_module.extend_by_defining_set

    def recording(c1, members, budget):
        blocks.append((c1, frozenset(members) | {-s % n for s in members}))
        return real(c1, members, budget)

    monkeypatch.setattr(search_module, "extend_by_defining_set", recording)
    results = search(n, q, "extend-set")
    assert len(blocks) == len(set(blocks)) == len(results) < len(every)
    assert [p.as_dict() for p in results] == [p.as_dict() for p in expected]
    assert results == expected


def test_css_search_asks_contains_only_of_nested_pairs(monkeypatch):
    answers = []
    real = CyclicCode.contains

    def counting(self, other):
        answers.append(real(self, other))
        return answers[-1]

    monkeypatch.setattr(CyclicCode, "contains", counting)
    assert len(search(15, 2, "css")) == 241
    assert answers and all(answers)


def test_search_routes_return_expected_members():
    assert any(p.label() == "[[7,1,3/3]]_2" for p in search(7, 2, "css"))
    assert any(p.label() == "[[15,3,5/3]]_2" for p in search(15, 2, "css"))
    assert any(p.label() == "[[15,4,3,4/3]]_2" for p in search(15, 2, "subsystem"))
    # both extension routes rediscover the [[15,4,4/3]] family member
    assert any(p.k == 4 and p.dz.value == 4 for p in search(15, 2, "extend-set"))
    assert any(p.k == 4 and p.dz.value == 4 for p in search(15, 2, "extend-poly"))


def test_search_rejects_unknown_route():
    with pytest.raises(ValueError, match="unknown route"):
        search(15, 2, "teleport")


@pytest.mark.parametrize("route,derivation", [
    ("css", "css_aqec"),
    ("extend-poly", "extend_by_polynomial"),
    ("extend-set", "extend_by_defining_set"),
    ("subsystem", "subsystem_euclidean"),
])
def test_search_propagates_derivation_errors(monkeypatch, route, derivation):
    def broken(*args, **kwargs):
        raise ValueError("derivation bug")

    monkeypatch.setattr(search_module, derivation, broken)
    with pytest.raises(ValueError, match="derivation bug"):
        search(7, 2, route)
