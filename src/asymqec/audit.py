"""Audit of the bundled reference table of asymmetric cyclic code families.

The nine rows are embedded verbatim as printed in the source table,
including the rows now known to be wrong, so the audit is against the table
as published. Each row's classical inputs are rebuilt (narrow-sense BCH by
designed distance where the stated dimension matches; otherwise an
exhaustive search over coset-union defining sets with the stated dimension,
subject to the nesting premise), the quantum code is derived, and the
computed parameters are compared with the printed ones. The search counts
only the unions whose size is the stated redundancy n - k, as sums of
same-size cosets, and ranks them by consecutive-run bound. Where the stated
distance is beyond verification only the three best unions and their count
are kept, and the best are found from the runs they must cover: row 9's C2
counts 6,435 of the 65,536 unions of its 16 allowed cosets and builds 12.

    REPRODUCED      n, k and both distances match exactly, distances exhaustive
    PARTIAL         n, k match; a distance is only available as a lower bound
                    that does not contradict the printed value
    NOT-REPRODUCED  anything else

Verdicts are deterministic across runs.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, prod
from typing import Iterator, NamedTuple, Sequence

from .aqec import AqecParams, _int, _params_json, _str, _strings_json, css_aqec
from .cyclic import CyclicCode, bch, consecutive_run_bound_mask, from_defining_set
from .polyring import CyclotomicCoset, cyclotomic_cosets, mask_residues
from .weights import DEFAULT_BUDGET, min_weight

#: exhaustive distance verification of searched candidates is capped here
_CANDIDATE_DISTANCE_CAP = 1 << 20

REPRODUCED = "REPRODUCED"
PARTIAL = "PARTIAL"
NOT_REPRODUCED = "NOT-REPRODUCED"


class ReferenceRow(NamedTuple):
    """One printed row: classical inputs [n,k,d] and the claimed [[n,k,dz/dx]]."""

    index: int
    q: int
    c1: tuple[int, int, int]
    c2: tuple[int, int, int]
    aqec: tuple[int, int, int, int]  # (n, k, dz, dx)

    @property
    def expected_label(self) -> str:
        n, k, dz, dx = self.aqec
        return f"[[{n},{k},{dz}/{dx}]]_{self.q}"

    def classical_label(self, params: tuple[int, int, int]) -> str:
        return "[" + ",".join(str(v) for v in params) + "]"


REFERENCE_TABLE: tuple[ReferenceRow, ...] = (
    ReferenceRow(1, 2, (15, 11, 3), (15, 7, 5), (15, 3, 5, 3)),
    ReferenceRow(2, 2, (15, 8, 4), (15, 7, 5), (15, 0, 5, 4)),
    ReferenceRow(3, 2, (31, 21, 5), (31, 16, 7), (31, 6, 7, 5)),
    ReferenceRow(4, 2, (31, 26, 3), (31, 16, 7), (31, 11, 7, 3)),
    ReferenceRow(5, 2, (31, 26, 3), (31, 16, 7), (31, 10, 8, 3)),
    ReferenceRow(6, 2, (31, 26, 3), (31, 11, 11), (31, 6, 11, 3)),
    ReferenceRow(7, 2, (31, 26, 3), (31, 6, 15), (31, 1, 15, 3)),
    ReferenceRow(8, 2, (127, 113, 5), (127, 78, 15), (127, 64, 15, 5)),
    ReferenceRow(9, 2, (127, 106, 7), (127, 77, 27), (127, 56, 25, 7)),
)


class RowAudit(NamedTuple):
    """Outcome of auditing one reference row.

    `c1`/`c2` are the resolved input codes' canonical descriptors (reparse to
    the codes used); `c1_printed`/`c2_printed` are the classical parameters
    as printed in the source table.
    """

    index: int
    q: int
    c1: str
    c2: str
    c1_printed: str
    c2_printed: str
    expected: str
    computed: AqecParams | None
    verdict: str
    notes: tuple[str, ...]

    def as_dict(self) -> dict:
        """The fields in order, `index` as "row"."""
        return dict(zip(("row",) + self._fields[1:], self),
                    computed=self.computed.as_dict() if self.computed else None,
                    notes=list(self.notes))


def _audit_json(a: RowAudit, pad: str = "") -> str:
    """json.dumps(a.as_dict(), indent=2), each line after the first indented
    by `pad`, written straight from the fields in as_dict's key order; the
    computed record is aqec._params_json's."""
    i = pad + "  "
    computed = _params_json(a.computed, i) if a.computed else "null"
    return (f'{{\n{i}"row": {_int(a.index)},\n{i}"q": {_int(a.q)},'
            f'\n{i}"c1": {_str(a.c1)},\n{i}"c2": {_str(a.c2)},'
            f'\n{i}"c1_printed": {_str(a.c1_printed)},\n{i}"c2_printed": {_str(a.c2_printed)},'
            f'\n{i}"expected": {_str(a.expected)},\n{i}"computed": {computed},'
            f'\n{i}"verdict": {_str(a.verdict)},\n{i}"notes": {_strings_json(a.notes, i)}'
            f'\n{pad}}}')


def _union_blocks(target: int, masks: Sequence[int]) -> list[list[tuple[list[int], int]]]:
    """Each way to take `target` residues from the cosets whose residue
    bitmasks are `masks`: per coset size, the masks of that size and how many
    of them to take."""
    by_size: dict[int, list[int]] = {}
    for mask in masks:
        by_size.setdefault(mask.bit_count(), []).append(mask)
    sizes = list(by_size)
    return [[(by_size[size], count) for size, count in zip(sizes, counts)]
            for counts in product(*(range(len(by_size[size]) + 1) for size in sizes))
            if sum(size * count for size, count in zip(sizes, counts)) == target]


def _unions(blocks: list) -> Iterator[int]:
    """The residue bitmask of each union of `blocks` (see `_union_blocks`)."""
    for block in blocks:
        for choice in product(*(combinations(masks, take) for masks, take in block)):
            yield sum(map(sum, choice))


def _best_candidates(n: int, target: int, allowed: Sequence[CyclotomicCoset],
                     keep: int | None = None) -> tuple[int, list[int]]:
    """(number of candidate sets, the first `keep` of them, or all of them
    when `keep` is None).

    The candidates are the residue bitmasks of the unions of `allowed`
    cosets with exactly `target` members, ranked by falling
    designed-distance bound, then by bitmask. Only unions of that size are
    counted or built: per choice of how many cosets to take of each size,
    sums of `combinations` within each size class.

    When every candidate is kept, each is ranked by
    `consecutive_run_bound_mask`. Otherwise the search starts from the runs:
    a union's bound is at least r + 1 exactly when it holds the cosets that
    cover r consecutive residues (r = n for the full union). From each start,
    the run grows one residue at a time, and each set of cosets it needs is
    recorded with the longest run it covers, while those cosets fit in
    `target`. The unions holding each set are built, longest run first; a
    union's bound is that of the first run that builds it. Once a run length
    ends with `keep` unions held, no shorter run can displace them.
    """
    masks = [sum(1 << s for s in coset.members) for coset in allowed]
    blocks = _union_blocks(target, masks)
    count = sum(prod(comb(len(group), take) for group, take in block) for block in blocks)
    if keep is None or keep >= count:
        return count, sorted(_unions(blocks),
                             key=lambda mask: (-consecutive_run_bound_mask(n, mask), mask))
    owner = {s: mask for coset, mask in zip(allowed, masks) for s in coset.members}
    # run length -> the unions of cosets (as residue bitmasks) whose longest run it is
    runs: dict[int, set[int]] = {}
    for start in range(n):
        cover = 0  # the residues of the cosets the run from `start` needs so far
        for r in range(n + 1):
            residue = (start + r) % n
            if r < n and cover >> residue & 1:
                continue
            if cover:
                runs.setdefault(r, set()).add(cover)
            if r == n or residue not in owner:
                break
            cover |= owner[residue]
            if cover.bit_count() > target:
                break
    bounds: dict[int, int] = {}
    for r in sorted(runs, reverse=True):
        if len(bounds) >= keep:
            break
        for cover in runs[r]:
            rest = [mask for mask in masks if not mask & cover]
            for mask in _unions(_union_blocks(target - cover.bit_count(), rest)):
                bounds.setdefault(cover | mask, r + 1)
    return count, sorted(bounds, key=lambda mask: (-bounds[mask], mask))[:keep]


def _resolve_narrow_sense(n: int, q: int, k: int, d: int) -> CyclicCode | None:
    if not 2 <= d <= n:
        return None
    code = bch(n, q, d)
    return code if code.k == k else None


def _resolve_by_search(stated: tuple[int, int, int], q: int,
                       allowed: Sequence[CyclotomicCoset],
                       budget: int, notes: list[str],
                       role: str) -> list[CyclicCode]:
    """Search coset unions with the stated dimension; candidate codes, best first.

    Candidates are distance-verified exhaustively when the stated code is
    small enough; beyond that only their designed-distance ranking is used
    and the codes themselves are built lazily (first candidate only).
    """
    n, k, d = stated
    label = f"[{n},{k},{d}]"
    notes.append(
        f"{role}: no narrow-sense designed-distance construction has dimension {k}; "
        f"searching coset unions"
    )
    check_distance = q**k <= min(budget, _CANDIDATE_DISTANCE_CAP)
    if check_distance:
        candidates = [
            code
            for mask in _best_candidates(n, n - k, allowed)[1]
            for code in (from_defining_set(n, q, mask_residues(mask)),)
            if min_weight(code, budget).value == d
        ]
        count = len(candidates)
        preview = [c.T.sorted_members for c in candidates[:3]]
    else:
        notes.append(
            f"{role}: stated distance {d} of {label} not verifiable at this scale; "
            f"candidates ranked by designed-distance bound"
        )
        count, best = _best_candidates(n, n - k, allowed, 3)
        candidates = [from_defining_set(n, q, mask_residues(best[0]))] if best else []
        preview = [mask_residues(mask) for mask in best]
    if count:
        shown = ", ".join("T={" + ",".join(map(str, s)) + "}" for s in preview)
        more = "" if count <= 3 else f" (+{count - 3} more)"
        notes.append(f"{role}: {count} candidate defining set(s): {shown}{more}")
    else:
        notes.append(f"{role}: no coset-union code matches {label}")
    return candidates


def audit_row(row: ReferenceRow, budget: int = DEFAULT_BUDGET) -> RowAudit:
    notes: list[str] = []
    n, q = row.c1[0], row.q
    cosets = cyclotomic_cosets(n, q)
    c1 = _resolve_narrow_sense(n, q, row.c1[1], row.c1[2])
    c2 = _resolve_narrow_sense(n, q, row.c2[1], row.c2[2])

    c1_candidates = [c1] if c1 is not None else []
    if c1 is None and c2 is not None:
        # the X-side code must contain the dual of the Z-side code
        target_T = c2.dual().T.members
        allowed = [c for c in cosets if set(c.members) <= target_T]
        c1_candidates = _resolve_by_search(row.c1, q, allowed, budget, notes, "C1")
    if c2 is None and c1 is not None:
        # the Z-side defining set must avoid the negated defining set of C1
        forbidden = {(-s) % n for s in c1.T.members}
        allowed = [c for c in cosets if not (set(c.members) & forbidden)]
        c2_candidates = _resolve_by_search(row.c2, q, allowed, budget, notes, "C2")
        c2 = c2_candidates[0] if c2_candidates else None

    if not c1_candidates or c2 is None:
        return RowAudit(
            row.index, q,
            c1_candidates[0].descriptor() if c1_candidates else "",
            c2.descriptor() if c2 is not None else "",
            row.classical_label(row.c1), row.classical_label(row.c2),
            row.expected_label, None, NOT_REPRODUCED,
            tuple(notes + ["could not realise the stated classical inputs"]),
        )

    _, exp_k, exp_dz, exp_dx = row.aqec

    def reproduces(p: AqecParams) -> bool:
        return (p.dz.is_exact and p.dx.is_exact
                and (p.k, p.dz.value, p.dx.value) == (exp_k, exp_dz, exp_dx))

    # the first C1 candidate that reproduces the row, else the first candidate
    tried = []
    for cand in c1_candidates:
        tried.append((css_aqec(cand, c2, budget), cand))
        if reproduces(tried[-1][0]):
            break
    params, c1 = tried[-1] if reproduces(tried[-1][0]) else tried[0]

    if reproduces(params):
        verdict = REPRODUCED
    elif (params.k == exp_k and not (params.dz.is_exact and params.dx.is_exact)
          and params.dz.value <= exp_dz and params.dx.value <= exp_dx):
        verdict = PARTIAL
        notes.append(
            f"distances only bounded at this scale: dz >= {params.dz.value}, "
            f"dx >= {params.dx.value}"
        )
    else:
        verdict = NOT_REPRODUCED
        notes.append(f"computed {params.label()}, printed {row.expected_label}")

    return RowAudit(
        row.index, q, c1.descriptor(), c2.descriptor(),
        row.classical_label(row.c1), row.classical_label(row.c2),
        row.expected_label, params, verdict, tuple(notes),
    )


def _cross_row_notes(audits: list[RowAudit]) -> list[RowAudit]:
    """Flag duplicated classical inputs and self-inconsistent printed rows."""
    rows = {row.index: row for row in REFERENCE_TABLE}
    out = []
    for audit in audits:
        notes = list(audit.notes)
        row = rows[audit.index]
        twins = [str(r.index) for r in REFERENCE_TABLE
                 if r.index != row.index and (r.q, r.c1, r.c2) == (row.q, row.c1, row.c2)]
        if twins:
            notes.append("identical classical inputs as row " + ", ".join(twins))
        dz, d2 = row.aqec[2], row.c2[2]
        if dz < d2:
            notes.append(
                f"printed dz={dz} is below the printed minimum distance {d2} of the "
                f"Z-side input {row.classical_label(row.c2)}; the printed row is "
                f"self-inconsistent"
            )
        out.append(audit._replace(notes=tuple(notes)))
    return out


def audit_rows(indices: Sequence[int] | None = None,
               budget: int = DEFAULT_BUDGET) -> list[RowAudit]:
    """Audit the requested rows (default: all) of the reference table."""
    wanted = set(indices) if indices is not None else {r.index for r in REFERENCE_TABLE}
    unknown = wanted - {r.index for r in REFERENCE_TABLE}
    if unknown:
        raise ValueError(f"unknown row indices {sorted(unknown)}; "
                         f"table has rows 1..{len(REFERENCE_TABLE)}")
    audits = [audit_row(row, budget) for row in REFERENCE_TABLE if row.index in wanted]
    return _cross_row_notes(audits)
