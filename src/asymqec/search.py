"""Family search: derive every admissible quantum code at a length.

Codes and partners are coset unions from one enumerator (`coset_unions`);
the space doubles per coset, so a cap guards against unusable lengths.
Pairs are built, not filtered: C2-dual lies in C1 exactly when T(C1) lies
in T(C2-dual), so the css partners of C2 are the unions inside T(C2-dual),
and each derivation still checks its own nesting and dimensions. C2 of
the extend-set route depends on T only through T union -T, so that route
enumerates subsets of the +-classes {s, -s} of the admissible cosets, one T
(all admissible cosets of the chosen classes) per block.
Each record is built once, so none is dropped: every route visits each pair
(C1, C2) at most once, as a css partner mask, a divisor f or a block T
union -T, once per C1. The subsystem route gives each C1 its record and the
role swap, and keeps one when k = r, where the swap is the same record.
Results come back sorted by falling distance asymmetry dz - dx, then
falling logical dimension, then defining sets.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from . import DEFAULT_BUDGET, DEFAULT_MAX_CODES, ROUTES
from .aqec import (
    AqecParams,
    SubsystemParams,
    css_aqec,
    extend_by_defining_set,
    extend_by_polynomial,
    subsystem_euclidean,
)
from .cyclic import CyclicCode, from_defining_set
from .polyring import CyclotomicCoset, coset_unions, cyclotomic_cosets, mask_residues


def all_cyclic_codes(n: int, q: int, max_codes: int = DEFAULT_MAX_CODES) -> tuple[CyclicCode, ...]:
    """Every cyclic code of length n over GF(q), ordered deterministically."""
    cosets = cyclotomic_cosets(n, q)
    if 2 ** len(cosets) > max_codes:
        raise ValueError(
            f"search space of 2^{len(cosets)} defining sets exceeds the limit {max_codes}"
        )
    return tuple(from_defining_set(n, q, mask_residues(mask)) for mask in coset_unions(cosets))


def _cosets_within(cosets: Sequence[CyclotomicCoset],
                   members: frozenset[int]) -> list[CyclotomicCoset]:
    """The cosets inside a coset-closed residue set."""
    return [c for c in cosets if c.representative in members]


def _sort_key(params: AqecParams | SubsystemParams):
    gauge = getattr(params, "r", 0)
    return (
        -(params.dz.value - params.dx.value),
        -params.k,
        -gauge,
        params.c1.T.sorted_members,
        params.c2.T.sorted_members,
    )


def search(n: int, q: int, route: str = "css", budget: int = DEFAULT_BUDGET, *,
           max_results: int | None = None,
           max_codes: int = DEFAULT_MAX_CODES) -> list[AqecParams | SubsystemParams]:
    """Derive all codes of the given route at length n; see module docstring.

    Pairs involving the zero code (no nonzero codewords, so no distance) are
    skipped; any error raised by a derivation propagates.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    if max_results is not None and max_results < 0:
        raise ValueError(f"max_results={max_results} must be non-negative")
    codes = all_cyclic_codes(n, q, max_codes)
    cosets = cyclotomic_cosets(n, q)
    code_of = dict(zip(coset_unions(cosets), codes))
    results: list[AqecParams | SubsystemParams] = []
    if route == "css":
        zero = (1 << n) - 1
        for c2 in codes:
            if c2.k == 0:
                continue
            for mask in coset_unions(_cosets_within(cosets, c2.dual().T.members)):
                if mask != zero:
                    results.append(css_aqec(code_of[mask], c2, budget))
    elif route == "extend-poly":
        for c1 in codes:
            outside = _cosets_within(cosets, c1.T.complement().members)
            for mask in coset_unions(outside):
                if mask:
                    f = code_of[mask].generator_polynomial
                    results.append(extend_by_polynomial(c1, f, budget)[1])
    elif route == "extend-set":
        for c1 in codes:
            if c1.k == 0:
                continue
            classes: dict[int, int] = {}  # block mask -> its admissible cosets
            for coset in _cosets_within(cosets, c1.dual().T.members - c1.T.members):
                mask = sum(1 << s for s in coset.members)
                block = mask | sum(1 << -s % n for s in coset.members)
                classes[block] = classes.get(block, 0) | mask
            for size in range(len(classes) + 1):
                for mask in map(sum, combinations(classes.values(), size)):
                    # the full space with the empty block would pair with the zero code
                    if mask or c1.k < n:
                        results.append(extend_by_defining_set(c1, mask_residues(mask), budget)[1])
    else:  # subsystem
        for c1 in codes:
            if c1.k == 0 or c1.k == n:
                continue
            first, swapped = subsystem_euclidean(c1, budget)
            results.append(first)
            if swapped.k != first.k:  # at k = r the swap is the same record
                results.append(swapped)
    results.sort(key=_sort_key)
    return results if max_results is None else results[:max_results]
