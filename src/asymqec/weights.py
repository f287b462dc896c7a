"""Exhaustive minimum-weight search, weight distributions and transforms.

Every search is one serial scan over message indices. A set difference
C_outer minus C_inner is scanned over a nested basis of the outer code: the
rows x^j g_outer for j < c = k_outer - k_inner, then the generator rows of
C_inner. Nesting means g_outer divides g_inner, so these rows span C_outer,
and a word lies outside C_inner exactly when one of its first c message
digits is nonzero. A plain minimum weight is the case with no inner code,
c = k. The binary kernel walks all 2^k messages in Gray-code order,
re-encoding incrementally (one row XOR per step) with codewords held as
integer bitmasks, and flags the first c digits the same way. For q > 2 one
representative per projective class is walked (weights and
inner-membership are scalar-invariant), only those with their leading digit
below c, so no word of the inner code is generated: each step adds one
precomputed scaled row per changed message digit to a word updated in place.

A search may stop early once it finds a word whose weight equals the
consecutive-root lower bound (the result is then still exact). The reported
`enumerated` count is the message index at which the scan stopped, rounded
up to a multiple of CHUNK = 2^16 and capped at the message count; a scan
that did not stop early reports every message it walked: 2^k - 1 over
GF(2), (q^k_outer - q^k_inner)/(q - 1) for q > 2. The `workers` keyword of
`min_weight` and `min_weight_difference` is accepted and ignored.

Set differences: wt(C_outer minus C_inner) with C_inner equal to C_outer is
an empty set; this arises exactly for derived codes with zero logical
dimension, where the convention is the minimum weight of the full outer
code (the minimum stabilizer weight), and that is what is reported.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from math import comb
from typing import Iterator, Sequence

from . import galois
from .cyclic import CyclicCode, generator_matrix
from .errors import BudgetExceeded, InternalConsistencyError, NotNested

#: default cap on codeword enumerations
DEFAULT_BUDGET = 1 << 28
#: reporting unit of `enumerated` for scans that stop early
CHUNK = 1 << 16

_INF = 1 << 62


@dataclass(frozen=True)
class WeightReport:
    """Outcome of a minimum-weight computation.

    method "exhaustive" and "macwilliams" are exact; "bound-only" means
    `value` is only a lower bound and must be displayed as such.
    """

    value: int
    method: str  # "exhaustive" | "macwilliams" | "bound-only"
    enumerated: int
    budget: int

    @property
    def is_exact(self) -> bool:
        return self.method != "bound-only"

    def render(self) -> str:
        return str(self.value) if self.is_exact else f">={self.value}"

    def as_dict(self) -> dict:
        return {"value": self.value, "method": self.method}


def bound_only_report(code: CyclicCode, budget: int) -> WeightReport:
    """Lower bound from consecutive roots, flagged as bound-only."""
    return WeightReport(code.designed_distance_bound, "bound-only", 0, budget)


# ---------------------------------------------------------------------------
# Scan kernels: each returns (minimum, message index where `lb` was reached
# or None); lb = 0 never stops a scan early
# ---------------------------------------------------------------------------

def _scan_binary(rows: Sequence[int], flags: Sequence[int] | None, total: int,
                 lb: int) -> tuple[int, int | None]:
    """Gray walk over messages 1..total; with `flags`, words whose flag is 0 are skipped."""
    cw = 0
    flag = 0
    best = _INF
    if flags is None:
        for t in range(1, total + 1):
            cw ^= rows[(t & -t).bit_length() - 1]
            w = cw.bit_count()
            if w < best:
                best = w
                if best <= lb:
                    return best, t
    else:
        for t in range(1, total + 1):
            j = (t & -t).bit_length() - 1
            cw ^= rows[j]
            flag ^= flags[j]
            if flag:
                w = cw.bit_count()
                if w < best:
                    best = w
                    if best <= lb:
                        return best, t
    return best, None


def _projective_walk(field: galois.Field, rows: Sequence[Sequence[int]],
                     leads: int) -> Iterator[list[int]]:
    """Yield the word of every projective-class representative, in order.

    Representatives have leading digit 1 at position `lead` (0..leads-1), the
    later digits counted base q with the last position fastest. The yielded
    list is one word updated in place.
    """
    add, mul, sub = field.add_i, field.mul_i, field.sub_i
    q, k, xor = field.q, len(rows), field.p == 2
    scaled: dict[tuple[int, int], list[tuple[int, int]]] = {}
    word = [0] * len(rows[0])
    digits = [0] * k

    def set_digit(i: int, value: int) -> None:
        c = sub(value, digits[i])
        digits[i] = value
        step = scaled.get((i, c))
        if step is None:
            step = [(j, mul(c, x)) for j, x in enumerate(rows[i]) if c and x]
            scaled[(i, c)] = step
        if xor:
            for j, x in step:
                word[j] ^= x
        else:
            for j, x in step:
                word[j] = add(word[j], x)

    for lead in range(leads):
        if lead:
            set_digit(lead - 1, 0)
        set_digit(lead, 1)
        for i in range(lead + 1, k):
            set_digit(i, 0)
        yield word
        pos = k - 1
        while pos > lead:
            d = digits[pos]
            if d == q - 1:
                set_digit(pos, 0)
                pos -= 1
            else:
                set_digit(pos, d + 1)
                yield word
                pos = k - 1


def _scan_qary(field: galois.Field, rows: Sequence[Sequence[int]], leads: int,
               lb: int) -> tuple[int, int | None]:
    """Projective walk over the representatives led below `leads`."""
    n = len(rows[0])
    best = _INF
    for t, word in enumerate(_projective_walk(field, rows, leads), 1):
        w = n - word.count(0)
        if w < best:
            best = w
            if best <= lb:
                return best, t
    return best, None


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

_MIN_CACHE: dict[tuple, WeightReport] = {}
_DIST_CACHE: dict[CyclicCode, tuple[tuple[int, int], ...]] = {}
_W_LOCK = threading.Lock()


def _total_messages(code: CyclicCode) -> int:
    if code.q == 2:
        return (1 << code.k) - 1
    return (code.q**code.k - 1) // (code.q - 1)


def _exhaustive(outer: CyclicCode, inner: CyclicCode | None, budget: int,
                early_stop: bool) -> WeightReport:
    """Scan `outer` over its nested basis, skipping the words of `inner` when given."""
    key = (outer, inner, early_stop)
    report = _MIN_CACHE.get(key)
    if report is None:
        lb = outer.designed_distance_bound if early_stop else 0
        q, k = outer.q, outer.k
        # nested basis: rows x^j g_outer for j < c, then the rows of `inner`
        c = k if inner is None else k - inner.k
        if q == 2:
            rows = generator_matrix(outer).bitmask_rows()[:c]
            flags = None
            if inner is not None:
                rows += generator_matrix(inner).bitmask_rows()
                flags = [1 << j for j in range(c)] + [0] * inner.k
            total = (1 << k) - 1
            best, stop = _scan_binary(rows, flags, total, lb)
        else:
            rows = generator_matrix(outer).rows[:c]
            if inner is not None:
                rows += generator_matrix(inner).rows
            total = (q**k - q**(k - c)) // (q - 1)
            best, stop = _scan_qary(outer.field, rows, c, lb)
        if best < lb:
            raise InternalConsistencyError(
                f"found weight {best} below the proven lower bound {lb}"
            )
        if best >= _INF:
            raise InternalConsistencyError(
                "no nonzero codeword found in a k > 0 code" if inner is None
                else "set difference of strictly nested codes cannot be empty"
            )
        enumerated = total if stop is None else min(total, -(-stop // CHUNK) * CHUNK)
        report = WeightReport(best, "exhaustive", enumerated, budget)
        with _W_LOCK:
            _MIN_CACHE[key] = report
    return replace(report, budget=budget)


def min_weight(code: CyclicCode, budget: int = DEFAULT_BUDGET, *,
               workers: int = 1, early_stop: bool = True) -> WeightReport:
    """Exact minimum nonzero Hamming weight over all q^k codewords.

    Falls back to the dual-side route (enumerate the dual, MacWilliams back)
    when q^k exceeds the budget but q^(n-k) does not; raises BudgetExceeded
    when neither side fits. `workers` is accepted and ignored: the scan is
    serial.
    """
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    space = code.q**code.k
    if space > budget:
        dual_space = code.q ** (code.n - code.k)
        if dual_space <= budget:
            value = min(w for w, c in weight_distribution(code, budget) if w > 0)
            return WeightReport(value, "macwilliams", _total_messages(code.dual()), budget)
        raise BudgetExceeded(space, budget)
    return _exhaustive(code, None, budget, early_stop)


def min_weight_difference(outer: CyclicCode, inner: CyclicCode,
                          budget: int = DEFAULT_BUDGET, *,
                          workers: int = 1, early_stop: bool = True) -> WeightReport:
    """Exact minimum weight over codewords of `outer` not in `inner`.

    Requires inner to be nested in outer. An inner equal to outer leaves an
    empty difference (the zero-logical-dimension situation); the minimum
    weight of the full outer code is reported then, matching the stabilizer
    convention. An inner zero code reduces to plain min_weight. `workers` is
    accepted and ignored: the scan is serial.
    """
    if (outer.n, outer.q) != (inner.n, inner.q):
        raise ValueError(
            f"mismatched codes: (n={outer.n}, q={outer.q}) vs (n={inner.n}, q={inner.q})"
        )
    if not outer.contains(inner):
        raise NotNested(f"{inner.descriptor()} is not a subcode of {outer.descriptor()}")
    if inner.k == 0 or inner.k == outer.k:
        return min_weight(outer, budget, early_stop=early_stop)
    space = outer.q**outer.k
    if space > budget:
        raise BudgetExceeded(space, budget)
    return _exhaustive(outer, inner, budget, early_stop)


def weight_distribution(code: CyclicCode,
                        budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, int], ...]:
    """All (weight, count) pairs with nonzero count; counts sum to q^k.

    Enumerates the code directly when q^k fits the budget, otherwise the
    dual side followed by a MacWilliams transform; BudgetExceeded when
    neither fits.
    """
    space = code.q**code.k
    dual_space = code.q ** (code.n - code.k)
    if min(space, dual_space) > budget:
        raise BudgetExceeded(min(space, dual_space), budget)
    cached = _DIST_CACHE.get(code)
    if cached is not None:
        return cached
    if space <= budget:
        dist = _distribution_direct(code)
    else:
        dual_dist = _distribution_direct(code.dual())
        dist = macwilliams_transform(dual_dist, code.n, code.q, code.n - code.k)
    with _W_LOCK:
        _DIST_CACHE[code] = dist
    return dist


def _distribution_direct(code: CyclicCode) -> tuple[tuple[int, int], ...]:
    counts = [0] * (code.n + 1)
    counts[0] = 1
    if code.k:
        if code.q == 2:
            rows = generator_matrix(code).bitmask_rows()
            cw = 0
            for t in range(1, 1 << code.k):
                cw ^= rows[(t & -t).bit_length() - 1]
                counts[cw.bit_count()] += 1
        else:
            for word in _projective_walk(code.field, generator_matrix(code).rows, code.k):
                counts[code.n - word.count(0)] += code.q - 1
    return tuple((w, c) for w, c in enumerate(counts) if c)


def macwilliams_transform(dist: Sequence[tuple[int, int]], n: int, q: int,
                          k: int) -> tuple[tuple[int, int], ...]:
    """Weight distribution of the dual of a code with the given distribution.

    Exact integer Krawtchouk sums; rejects inputs that are not a plausible
    [n, k]_q distribution (wrong total, negative or fractional output).
    """
    a = [0] * (n + 1)
    total = 0
    for w, c in dist:
        w, c = int(w), int(c)
        if not 0 <= w <= n:
            raise ValueError(f"weight {w} outside 0..{n}")
        if c < 0 or a[w]:
            raise ValueError("malformed weight distribution")
        a[w] = c
        total += c
    qk = q**k
    if total != qk:
        raise ValueError(f"distribution sums to {total}, expected q^k = {qk}")
    out = []
    for j in range(n + 1):
        s = 0
        for i in range(n + 1):
            if a[i]:
                kraw = sum(
                    (-1) ** t * (q - 1) ** (j - t) * comb(i, t) * comb(n - i, j - t)
                    for t in range(min(i, j) + 1)
                )
                s += a[i] * kraw
        if s % qk or s < 0:
            raise ValueError("not a valid linear-code weight distribution")
        b = s // qk
        if b:
            out.append((j, b))
    return tuple(out)


def symplectic_weight(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of positions where the pair (a_i, b_i) is not (0, 0)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x or y)


def _clear_caches() -> None:
    _MIN_CACHE.clear()
    _DIST_CACHE.clear()


galois.register_invalidation_hook(_clear_caches)
