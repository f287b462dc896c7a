"""Reference-table audit: candidate defining sets, and failures inside code
resolution are not swallowed."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

import asymqec.audit as audit_module
from asymqec.audit import REFERENCE_TABLE, _best_candidates, audit_row, audit_rows
from asymqec.cyclic import bch, consecutive_run_bound, consecutive_run_bound_mask
from asymqec.polyring import coset_unions, cyclotomic_cosets


def _cosets_avoiding_negated(c1):
    """Indices of the cosets of c1's length that avoid -T(c1): those a C2 search may use."""
    forbidden = {(-s) % c1.n for s in c1.T.members}
    return tuple(i for i, coset in enumerate(cyclotomic_cosets(c1.n, c1.q))
                 if not set(coset.members) & forbidden)


def _brute_force_rankings(n, allowed, targets):
    """{target: the unions of that size, ranked by (-bound, mask)}; every target
    (the empty and the full union too) when `targets` is None."""
    if targets is not None:
        # 2^16 frozensets would need hundreds of MB: filter every union's mask
        # by size and rank it by (-bound, mask) instead
        return {target: sorted((mask for mask in coset_unions(allowed)
                                if mask.bit_count() == target),
                               key=lambda mask: (-consecutive_run_bound_mask(n, mask), mask))
                for target in targets}
    unions = [
        frozenset(s for coset, take in zip(allowed, flags) if take for s in coset.members)
        for flags in itertools.product((False, True), repeat=len(allowed))
    ]
    rankings = {}
    for target in range(n + 1):
        ranked = sorted(
            (members for members in unions if len(members) == target),
            key=lambda members: (-consecutive_run_bound(n, members),
                                 sum(1 << s for s in members)),
        )
        rankings[target] = [sum(1 << s for s in members) for members in ranked]
    return rankings


@pytest.mark.parametrize("n,q,picked,targets", [
    pytest.param(15, 2, None, None, id="15-2-None"),
    pytest.param(21, 2, None, None, id="21-2-None"),
    pytest.param(31, 2, None, None, id="31-2-None"),
    pytest.param(31, 2, (0, 2, 3, 5, 6), None, id="31-2-picked3"),
    pytest.param(13, 3, (1, 2, 3, 4), None, id="13-3-picked4"),
    # coset sizes 1, 2, 3 and 6: several count vectors reach most targets
    pytest.param(63, 2, None, None, id="63-2-None"),
    # coset sizes 1 and 3 over GF(4)
    pytest.param(21, 4, None, None, id="21-4-None"),
    # row 9's C2 search: the 16 cosets avoiding -T(bch(127, 2, 7)), sizes 1 and 7;
    # target 0 is the empty union alone, target 127 has no union
    pytest.param(127, 2, _cosets_avoiding_negated(bch(127, 2, 7)),
                 (0, 1, 2, 7, 49, 50, 51, 113, 127), id="127-2-row9"),
])
def test_candidate_sets_against_brute_force(n, q, picked, targets):
    cosets = cyclotomic_cosets(n, q)
    allowed = cosets if picked is None else [cosets[i] for i in picked]
    for target, expected in _brute_force_rankings(n, allowed, targets).items():
        count = len(expected)
        assert _best_candidates(n, target, allowed) == (count, expected)
        for keep in (1, 2, 3, 7, count + 2):
            assert _best_candidates(n, target, allowed, keep) == (count, expected[:keep])


def _row9_allowed():
    cosets = cyclotomic_cosets(127, 2)
    return [cosets[i] for i in _cosets_avoiding_negated(bch(127, 2, 7))]


def test_row9_ranking_builds_few_unions(monkeypatch):
    """Row 9's top three come from the few unions that hold its longest runs,
    not from all 6,435 candidates."""
    built = 0
    unions = audit_module._unions

    def counted(blocks):
        nonlocal built
        for mask in unions(blocks):
            built += 1
            yield mask

    monkeypatch.setattr(audit_module, "_unions", counted)
    count, best = _best_candidates(127, 50, _row9_allowed(), 3)
    assert (count, len(best)) == (6435, 3)
    assert 0 < built <= 64


def test_row9_ranking_traced_peak_stays_small():
    """Ranking row 9's 6,435 C2 candidates for the top three holds only the
    unions built from its longest runs, not every candidate at once."""
    allowed = _row9_allowed()
    tracemalloc.start()
    try:
        count, best = _best_candidates(127, 50, allowed, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (count, len(best)) == (6435, 3)
    assert peak < 128 * 1024


def test_audit_rows_names_the_table_range_for_unknown_rows():
    last = len(REFERENCE_TABLE)
    with pytest.raises(ValueError, match=rf"unknown row indices \[0, {last + 1}\]; "
                                         rf"table has rows 1\.\.{last}$"):
        audit_rows([1, 0, last + 1])


def test_audit_row_propagates_construction_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("construction bug")

    monkeypatch.setattr(audit_module, "bch", broken)
    with pytest.raises(ValueError, match="construction bug"):
        audit_row(REFERENCE_TABLE[0])
