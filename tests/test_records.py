"""The value records: immutable, equal by value, hashed by value.

Memo keys (`_DIVIDES` holds polynomial pairs, `_ROOTS_CACHE` polynomials,
the coset caches cosets) rely on equal fields giving equal objects with
equal hashes. All records but `DefiningSet` are named tuples, so they also
unpack, compare and take `len()` like tuples, and `_replace` makes a
modified copy.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import asymqec.aqec
from asymqec.aqec import (
    AqecParams,
    CorrectionCapability,
    SubsystemParams,
    correction_capability,
    css_aqec,
    subsystem_euclidean,
)
from asymqec.audit import REFERENCE_TABLE, ReferenceRow, RowAudit, audit_rows
from asymqec.cyclic import (
    CheckMatrix,
    DefiningSet,
    bch,
    from_defining_set,
    hamming,
    parity_check_matrix,
)
from asymqec.galois import FieldElement, make_field
from asymqec.polyring import CyclotomicCoset, Polynomial, coset_of
from asymqec.weights import WeightReport, min_weight


def records():
    """One instance of each record type, built through the library."""
    gf16 = make_field(2, 4)
    row1 = css_aqec(bch(15, 2, 3), bch(15, 2, 5))
    return {
        FieldElement: gf16.alpha_power(3),
        Polynomial: Polynomial.from_coeffs(gf16, [1, 0, 3, 1]),
        CyclotomicCoset: coset_of(15, 2, 3),
        DefiningSet: hamming(4, 2).T,
        CheckMatrix: parity_check_matrix(hamming(3, 2)),
        WeightReport: min_weight(bch(15, 2, 5)),
        AqecParams: row1,
        SubsystemParams: subsystem_euclidean(bch(15, 2, 5))[0],
        CorrectionCapability: correction_capability(row1),
        ReferenceRow: REFERENCE_TABLE[0],
        RowAudit: audit_rows([1])[0],
    }


RECORDS = records()


@pytest.mark.parametrize("kind", list(RECORDS), ids=lambda kind: kind.__name__)
def test_assigning_an_attribute_raises(kind):
    record = RECORDS[kind]
    first = getattr(kind, "_fields", ("n",))[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, first)


@pytest.mark.parametrize("kind", list(RECORDS), ids=lambda kind: kind.__name__)
def test_equal_fields_give_equal_objects_with_equal_hashes(kind):
    record = RECORDS[kind]
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
                 records()[kind]):
        assert type(twin) is kind
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert {record: 1}[twin] == 1


@pytest.mark.parametrize("kind", [k for k in RECORDS if k is not DefiningSet],
                         ids=lambda kind: kind.__name__)
def test_records_behave_as_tuples(kind):
    record = RECORDS[kind]
    assert len(record) == len(kind._fields)
    assert tuple(record) == tuple(getattr(record, name) for name in kind._fields)
    assert kind(*record) == record
    name = kind._fields[-1]
    changed = record._replace(**{name: None})
    assert getattr(changed, name) is None and getattr(record, name) is not None


def test_records_differ_when_a_field_differs():
    gf16 = make_field(2, 4)
    assert Polynomial.from_coeffs(gf16, [1, 1]) != Polynomial.from_coeffs(gf16, [1, 2])
    assert gf16.alpha_power(3) != make_field(2, 2).alpha_power(3)
    assert hamming(4, 2).T != DefiningSet(15, 2, frozenset({1, 2, 4, 8, 0}))
    assert hamming(4, 2).T != DefiningSet(15, 4, frozenset({1, 2, 4, 8}))
    assert hamming(4, 2).T != (15, 2, frozenset({1, 2, 4, 8}))


def test_defining_set_sorts_its_members_once():
    members = DefiningSet.closed(15, 2, {8, 4, 2, 1, 3, 6, 12, 9})
    assert members.sorted_members == (1, 2, 3, 4, 6, 8, 9, 12)
    assert members.sorted_members is members.sorted_members
    assert str(members) == "{1,2,3,4,6,8,9,12}"
    assert repr(members) == f"DefiningSet(n=15, q=2, members={members.members!r})"


def test_bound_only_path_returns_a_new_report(monkeypatch):
    # C1's side is exact (6) while C2's degrades to its bound (2), so dz, the
    # exact side, is marked bound-only by _replace
    sides = []
    real = asymqec.aqec._difference_side

    def recording(outer, inner, budget):
        sides.append(real(outer, inner, budget))
        return sides[-1]

    monkeypatch.setattr(asymqec.aqec, "_difference_side", recording)
    c1 = from_defining_set(15, 2, {0, 1, 2, 3, 4, 6, 8, 9, 12})
    c2 = from_defining_set(15, 2, {5, 10})
    params = css_aqec(c1, c2, budget=4096)
    exact = next(side for side in sides if side.is_exact)
    assert exact.value == 6
    assert params.dz is not exact
    assert params.dz == exact._replace(method="bound-only")
    assert exact.method in ("exhaustive", "macwilliams")
    # the cached per-code facts still give the exact side
    assert real(c1, c2.dual(), 4096) == exact
