"""Family search: derive every admissible quantum code at a given length.

All coset-union cyclic codes of length n are generated (the space doubles
per coset, so a cap guards against unusable lengths), every admissible
input combination for the requested route is derived, duplicates are
suppressed and results come back sorted by falling distance asymmetry
dz - dx, then falling logical dimension, then defining sets.
"""

from __future__ import annotations

from itertools import combinations

from .aqec import (
    AqecParams,
    SubsystemParams,
    css_aqec,
    extend_by_defining_set,
    extend_by_polynomial,
    subsystem_euclidean,
)
from .cyclic import CyclicCode, from_defining_set
from .polyring import cyclotomic_cosets, minimal_polynomial
from .weights import DEFAULT_BUDGET

ROUTES = ("css", "extend-poly", "extend-set", "subsystem")

#: refuse to enumerate more defining sets than this
DEFAULT_MAX_CODES = 4096


def all_cyclic_codes(n: int, q: int, max_codes: int = DEFAULT_MAX_CODES) -> tuple[CyclicCode, ...]:
    """Every cyclic code of length n over GF(q), ordered deterministically."""
    cosets = cyclotomic_cosets(n, q)
    if 2 ** len(cosets) > max_codes:
        raise ValueError(
            f"search space of 2^{len(cosets)} defining sets exceeds the limit {max_codes}"
        )
    codes = []
    for size in range(len(cosets) + 1):
        for chosen in combinations(cosets, size):
            members: set[int] = set()
            for coset in chosen:
                members.update(coset.members)
            codes.append(from_defining_set(n, q, members))
    return tuple(codes)


def _sort_key(params: AqecParams | SubsystemParams):
    gauge = getattr(params, "r", 0)
    return (
        -(params.dz.value - params.dx.value),
        -params.k,
        -gauge,
        params.c1.T.sorted_members,
        params.c2.T.sorted_members,
    )


def _dedup_key(params: AqecParams | SubsystemParams):
    return (
        params.n,
        params.k,
        getattr(params, "r", None),
        params.dz.value,
        params.dx.value,
        params.c1.T.members,
        params.c2.T.members,
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
    codes = all_cyclic_codes(n, q, max_codes)
    results: list[AqecParams | SubsystemParams] = []
    if route == "css":
        for c2 in codes:
            if c2.k == 0:
                continue
            c2perp = c2.dual()
            for c1 in codes:
                if c1.k and c1.contains(c2perp):
                    results.append(css_aqec(c1, c2, budget))
    elif route == "extend-poly":
        for c1 in codes:
            outside = [c for c in cyclotomic_cosets(n, q)
                       if c.representative not in c1.T.members]
            for size in range(1, len(outside) + 1):
                for chosen in combinations(outside, size):
                    f = minimal_polynomial(n, q, chosen[0])
                    for coset in chosen[1:]:
                        f = f * minimal_polynomial(n, q, coset)
                    results.append(extend_by_polynomial(c1, f, budget)[1])
    elif route == "extend-set":
        for c1 in codes:
            if c1.k == 0:
                continue
            allowed_members = c1.dual().T.members - c1.T.members
            allowed = [c for c in cyclotomic_cosets(n, q)
                       if set(c.members) <= allowed_members]
            # the full space with the empty block would pair with the zero code
            for size in range(0 if c1.k < n else 1, len(allowed) + 1):
                for chosen in combinations(allowed, size):
                    members: set[int] = set()
                    for coset in chosen:
                        members.update(coset.members)
                    results.append(extend_by_defining_set(c1, members, budget)[1])
    else:  # subsystem
        for c1 in codes:
            if c1.k == 0 or c1.k == n:
                continue
            results.extend(subsystem_euclidean(c1, budget))
    seen = set()
    unique = []
    for params in results:
        key = _dedup_key(params)
        if key not in seen:
            seen.add(key)
            unique.append(params)
    unique.sort(key=_sort_key)
    if max_results is not None:
        unique = unique[:max_results]
    return unique
