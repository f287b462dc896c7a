"""Reference-table audit: candidate defining sets, and failures inside code
resolution are not swallowed."""

from __future__ import annotations

import itertools

import pytest

import asymqec.audit as audit_module
from asymqec.audit import REFERENCE_TABLE, _best_candidates, _candidate_sets, audit_row
from asymqec.cyclic import bch, consecutive_run_bound, consecutive_run_bound_mask
from asymqec.polyring import coset_unions, cyclotomic_cosets


def _cosets_avoiding_negated(c1):
    """Indices of the cosets of c1's length that avoid -T(c1): those a C2 search may use."""
    forbidden = {(-s) % c1.n for s in c1.T.members}
    return tuple(i for i, coset in enumerate(cyclotomic_cosets(c1.n, c1.q))
                 if not set(coset.members) & forbidden)


@pytest.mark.parametrize("n,q,picked,targets", [
    pytest.param(15, 2, None, None, id="15-2-None"),
    pytest.param(21, 2, None, None, id="21-2-None"),
    pytest.param(31, 2, None, None, id="31-2-None"),
    pytest.param(31, 2, (0, 2, 3, 5, 6), None, id="31-2-picked3"),
    pytest.param(13, 3, (1, 2, 3, 4), None, id="13-3-picked4"),
    # coset sizes 1, 2, 3 and 6: several count vectors reach most targets
    pytest.param(63, 2, None, None, id="63-2-None"),
    # row 9's C2 search: the 16 cosets avoiding -T(bch(127, 2, 7)), sizes 1 and 7
    pytest.param(127, 2, _cosets_avoiding_negated(bch(127, 2, 7)),
                 (0, 1, 2, 7, 49, 50, 51, 113), id="127-2-row9"),
])
def test_candidate_sets_against_brute_force(n, q, picked, targets):
    cosets = cyclotomic_cosets(n, q)
    allowed = cosets if picked is None else [cosets[i] for i in picked]
    if targets is not None:
        # 2^16 frozensets would need hundreds of MB: filter every union's mask
        # by size and rank it by (-bound, mask) instead
        for target in targets:
            masks = [mask for mask in coset_unions(allowed) if mask.bit_count() == target]
            expected = sorted(masks, key=lambda mask: (-consecutive_run_bound_mask(n, mask), mask))
            assert _candidate_sets(n, target, allowed) == expected
            assert _best_candidates(n, target, allowed, 3) == (len(expected), expected[:3])
        return
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
        assert _best_candidates(n, target, allowed, 3) == (len(expected), expected[:3])


def test_audit_row_propagates_construction_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("construction bug")

    monkeypatch.setattr(audit_module, "bch", broken)
    with pytest.raises(ValueError, match="construction bug"):
        audit_row(REFERENCE_TABLE[0])
