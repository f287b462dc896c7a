"""Reference-table audit: candidate defining sets, and failures inside code
resolution are not swallowed."""

from __future__ import annotations

import itertools

import pytest

import asymqec.audit as audit_module
from asymqec.audit import REFERENCE_TABLE, _candidate_sets, audit_row
from asymqec.cyclic import consecutive_run_bound
from asymqec.polyring import cyclotomic_cosets


@pytest.mark.parametrize("n,q,picked", [
    (15, 2, None),
    (21, 2, None),
    (31, 2, None),
    (31, 2, (0, 2, 3, 5, 6)),
    (13, 3, (1, 2, 3, 4)),
])
def test_candidate_sets_against_brute_force(n, q, picked):
    cosets = cyclotomic_cosets(n, q)
    allowed = cosets if picked is None else [cosets[i] for i in picked]
    unions = [
        frozenset(s for coset, take in zip(allowed, flags) if take for s in coset.members)
        for flags in itertools.product((False, True), repeat=len(allowed))
    ]
    for target in range(n + 1):
        ranked = sorted(
            (members for members in unions if len(members) == target),
            key=lambda members: (-consecutive_run_bound(n, members),
                                 sum(1 << s for s in members)),
        )
        expected = [sum(1 << s for s in members) for members in ranked]
        assert _candidate_sets(n, target, allowed) == expected


def test_audit_row_propagates_construction_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("construction bug")

    monkeypatch.setattr(audit_module, "bch", broken)
    with pytest.raises(ValueError, match="construction bug"):
        audit_row(REFERENCE_TABLE[0])
