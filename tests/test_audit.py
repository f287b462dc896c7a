"""Reference-table audit: failures inside code resolution are not swallowed."""

from __future__ import annotations

import pytest

import asymqec.audit as audit_module
from asymqec.audit import REFERENCE_TABLE, audit_row


def test_audit_row_propagates_construction_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("construction bug")

    monkeypatch.setattr(audit_module, "bch", broken)
    with pytest.raises(ValueError, match="construction bug"):
        audit_row(REFERENCE_TABLE[0])
