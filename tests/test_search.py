"""Family search: ordering, deduplication, determinism, space limits."""

from __future__ import annotations

import importlib

import pytest

import oracle
from asymqec.cyclic import CyclicCode
from asymqec.search import all_cyclic_codes, search

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


def test_search_deduplicates():
    results = search(15, 2, "css")
    identities = [
        (p.n, p.k, p.dz.value, p.dx.value, p.c1.T.members, p.c2.T.members)
        for p in results
    ]
    assert len(identities) == len(set(identities))


def test_search_deterministic_across_calls():
    first = search(7, 2, "css")
    second = search(7, 2, "css")
    assert [(p.label(), p.c1.descriptor(), p.c2.descriptor()) for p in first] == \
           [(p.label(), p.c1.descriptor(), p.c2.descriptor()) for p in second]


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
