"""Minimum weights, set-difference weights, weight distributions, transforms.

Every distance is read off two facts cached per code:

- a scan of the code's own projective classes (leading message digit 1)
  that stops at a word of weight equal to the consecutive-root lower bound
  (then exact), capped at the class count of the cheaper side. Over every
  GF(p^m) a word is m planes of n lanes in one int (one bit per lane over
  characteristic 2; over odd p a few bits with a guard bit, so that one
  integer sum and a guard correction add two words). Per lead row i the
  scan starts at row i and Gray-walks the GF(p)-expansion of rows i+1..,
  one addition per class, and a weight is the popcount of the OR of the
  planes' nonzero lanes. The distribution walks, the fibers and the orbit
  builder below walk the same words;
- the weight distribution, from the cheaper side: the code's own words when
  k <= n - k, otherwise the MacWilliams transform (Krawtchouk columns by
  their three-term recurrence) of the dual's distribution.

A full walk (no cap, no early stop) over characteristic 2 of at least
`_SLICE_MIN` rows counts its words in 2^min(rows, `_SLICE_MAX`) lanes of big
ints instead, the other rows walked outside them (`bitslice`).

A cyclic code is the direct sum of minimal ideals M_s, one per cyclotomic
coset s of its nonzeros. On M_s = GF(q^d) a cyclic shift multiplies by
alpha^s, so shifts and scalars permute M_s minus 0 freely in orbits of
o_s = lcm(n / gcd(n, s), q - 1) words, each mapping a + rest (rest: the other
ideals) onto a fiber of the same weights. So with the lead ideal of largest
o_s, A(code) = A(rest) + o_s * sum of hist(a + rest) over one a per orbit.
This split is used when its reps * q^(k - d) fiber words, plus the q^d words
of M_s marked to find the representatives at `_MARK_STEPS` walk steps each
(nothing when they are already cached), are fewer than the direct walk's
(q^k - 1)/(q - 1) projective classes. All fibers are walked in one call that
builds the steps once.

`min_weight` is the scan's minimum when the scan reached the bound or walked
the whole code, and otherwise the first nonzero weight of the distribution.
A set difference C_outer minus C_inner of nested codes has no scan of its
own: if d(outer) is below the designed bound of inner, every nonzero word of
inner is heavier and the answer is d(outer); otherwise it is the first w > 0
with A_w(outer) > A_w(inner), exact because inner lies inside outer. So a
search walks each code of a length at most twice, whatever its pair count.

`enumerated` counts the codewords accounted for in an answer: the classes
scanned plus, per distribution read, the cheaper side's (q^k - 1)/(q - 1)
classes, cached or not, walked one by one or met in orbits. Per code,
`_MIN_CACHE` holds (d, classes scanned, words counted) and `_DIST_CACHE`
(the count of each weight 0..n as a list, the code walked for it), so a
pair's answer is lookups plus the one pass over two lists that checks them.
Nesting is symmetric (C2-dual in C1 iff C1-dual in C2), so a search derives
each pair (C1, C2) and its mirror (C2, C1), whose two sides are the same
reports swapped: `_PAIR_CACHE` holds a pair's two sides and purity until
its mirror reads them (the subsystem route drops its pair's entry at once).

An inner code equal to the outer one leaves an empty difference; this arises
exactly for derived codes with zero logical dimension, where the convention
is the minimum weight of the full outer code, and that is what is reported.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import DEFAULT_BUDGET, bitslice, galois
from .cyclic import CyclicCode, from_defining_set
from .errors import BudgetExceeded, InternalConsistencyError, NotNested
from .polyring import CyclotomicCoset, cyclotomic_cosets

_INF = 1 << 62

#: walk steps that marking one word of a minimal ideal costs (3.1-4.0 measured
#: over GF(2), 3.7 over GF(4), 1.0-1.7 over GF(3), each against a Gray step)
_MARK_STEPS = 4

#: rows from which full characteristic-2 walks run in lanes (at 10 rows faster for every
#: n, m measured but n >= 127 over GF(2) and n = 255 over GF(4)), and the most held as lanes
_SLICE_MIN, _SLICE_MAX = 10, 12

Distribution = tuple[tuple[int, int], ...]


class WeightReport(NamedTuple):
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
# Packed words: over GF(p^m) a word is m planes of n lanes in one int, lane j
# of plane c (bits from (c*n + j) * W) holding digit c of coordinate j. Over
# characteristic 2 a lane is one bit and adding two words is one XOR. Over odd
# p a lane is L bits, 2^L >= p, plus a guard bit L: the sum s of two words
# leaves each lane at a + b <= 2p - 2, and s plus 2^L - p in every lane sets
# the guard exactly where a + b >= p, carrying into no other lane (a + b +
# 2^L - p < 2^(L+1) as p - 2 < 2^L), so the sum mod p is s minus p times
# those guard bits.
# ---------------------------------------------------------------------------

def _lane_bits(p: int) -> int:
    """W, the bits of a lane: one over characteristic 2, else L plus the guard."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def _guards(lanes: int, p: int) -> tuple[int, int, int]:
    """(L, 2^L - p in every lane, the guard bit of every lane) for odd p."""
    bit, spread = _lane_bits(p) - 1, bitslice.lanes
    return bit, spread(lanes, bit + 1, (1 << bit) - p), spread(lanes, bit + 1, 1 << bit)


def _adder(n: int, p: int, m: int) -> Callable[[int, int], int]:
    """The sum of two packed words of length n over GF(p^m)."""
    if p == 2:
        return int.__xor__
    guard_bit, offset, guards = _guards(m * n, p)

    def add(x: int, y: int) -> int:
        s = x + y
        return s - (((s + offset) & guards) >> guard_bit) * p

    return add


@lru_cache(maxsize=None)
def _digit_table(p: int, c: int) -> bytes:
    """The byte table x -> ASCII digit for digit c of x in base p, for `bytes.translate`."""
    return bytes(b"0123456789abcdefghijklmnopqrstuv"[x // p**c % p] for x in range(256))


def _pack(n: int, field: galois.Field, word: Iterable[int]) -> int:
    """The planes of a word over GF(p^m). Where coordinates fit a byte
    (q <= 256) and a lane is one digit of an `int` base (2^W <= 32, so
    p <= 13), plane c is the word's bytes, last coordinate first, translated
    to the ASCII digits of digit c and read by one int(s, 2^W)."""
    p, width = field.p, _lane_bits(field.p)
    if field.q > 256 or width > 5:
        return sum(x // p**c % p << (c * n + j) * width
                   for j, x in enumerate(word) for c in range(field.m))
    raw = bytes(word)[::-1]
    return sum(int(raw.translate(_digit_table(p, c)) or b"0", 1 << width) << c * n * width
               for c in range(field.m))


def _plane_rows(code: CyclicCode) -> list[int]:
    """The GF(p)-expansion alpha^b * x^i g of the generator rows, m per row."""
    field, g, n = code.field, code.generator_polynomial.coeffs, code.n
    expansion = [_pack(n, field, [field.mul_i(field.p**b, c) for c in g]) for b in range(field.m)]
    # deg g + i < n, so shifting the planes shifts every coordinate within its plane
    width = _lane_bits(field.p)
    return [row << i * width for i in range(code.k) for row in expansion]


def _steps(rows: Sequence[int], p: int) -> Callable[[], Iterator[int]]:
    """A walk of the zero row, then rows[v_p(t)] for t = 1 .. p^k - 1 (k rows).
    From t - 1 to t the p-ary Gray code of t (digit i: t_i - t_(i+1) mod p)
    moves only digit v_p(t), up by one, so adding these to a start word walks
    the start plus each GF(p) combination of the rows once. The first half of
    the rows runs from one list, the rest carries between its repeats. The
    lists are built once and each call of the returned function walks them
    again; the walks share a list, so only one may run at a time."""
    def ruler(part: Sequence[int]) -> list[int]:
        seq: list[int] = []
        for row in part:
            seq = (seq + [row]) * (p - 1) + seq
        return seq

    half = len(rows) // 2
    block, carries = [0, *ruler(rows[:half])], [0, *ruler(rows[half:])]

    def blocks() -> Iterator[list[int]]:
        for carry in carries:
            block[0] = carry
            yield block

    def walk() -> Iterator[int]:
        return chain.from_iterable(blocks())

    return walk


def _plane_walk(starts: Iterable[int], rows: Sequence[int], n: int, field: galois.Field,
                counts: list[int], cap: int, lb: int = -1) -> int:
    """Add to `counts` the weight of each start plus each GF(p) combination of
    `rows` in Gray order, at most `cap` words per start and stopping after the
    first of weight <= lb; returns the words walked. The steps and the plane
    fold are set up once for all starts. A weight is the popcount of the OR of
    the m planes' nonzero lanes. Full walks over characteristic 2 of at least
    `_SLICE_MIN` rows go to `bitslice.walk`, in any order; the rest walk here."""
    p, m = field.p, field.m
    if p == 2 and lb < 0 and len(rows) >= _SLICE_MIN and cap >= 1 << len(rows):
        low = min(len(rows), _SLICE_MAX)
        return bitslice.walk(starts, rows[:low], _steps(rows[low:], 2), n, m, counts)
    limit, width, reached = min(cap, p ** len(rows)), _lane_bits(p), 0
    while p**reached < limit:  # steps t < limit add only rows[v_p(t)] with p^v_p(t) <= t
        reached += 1
    walk = _steps(rows[:reached], p)
    shifts, planes = [], m
    while planes > 1:  # OR the upper half of the planes onto the lower half
        planes = (planes + 1) // 2
        shifts.append(planes * n * width)
    walked = 0
    if p == 2 and m == 1:  # a single plane needs no fold
        for word in starts:
            for t, row in zip(range(limit), walk()):
                word ^= row
                w = word.bit_count()
                counts[w] += 1
                if w <= lb:
                    return walked + t + 1
            walked += limit
    elif p == 2:
        mask = (1 << n) - 1
        for word in starts:
            for t, row in zip(range(limit), walk()):
                word ^= row
                x = word
                for s in shifts:
                    x |= x >> s
                w = (x & mask).bit_count()
                counts[w] += 1
                if w <= lb:
                    return walked + t + 1
            walked += limit
    else:
        guard_bit, offset, guards = _guards(m * n, p)
        # a lane plus 2^L - 1 reaches its guard exactly when it is nonzero
        nonzero, low = guards - (guards >> guard_bit), guards & ((1 << n * width) - 1)
        for word in starts:
            for t, row in zip(range(limit), walk()):
                y = word + row
                word = y - (((y + offset) & guards) >> guard_bit) * p
                x = (word + nonzero) & guards
                for s in shifts:
                    x |= x >> s
                w = (x & low).bit_count()
                counts[w] += 1
                if w <= lb:
                    return walked + t + 1
            walked += limit
    return walked


def _plane_scan(code: CyclicCode, counts: list[int], cap: int, lb: int = -1) -> int:
    """Projective walk: per lead i, row i plus every combination of the
    expansion of rows i+1.., so q^(k-1-i) words per lead; at most `cap`
    words, stopping after the first weight <= lb. Returns the words walked."""
    rows, m, walked = _plane_rows(code), code.field.m, 0
    for i in range(code.k):
        if walked >= cap or any(counts[1:lb + 1]):
            break
        walked += _plane_walk((rows[i * m],), rows[(i + 1) * m:], code.n, code.field, counts,
                              cap - walked, lb)
    return walked


# ---------------------------------------------------------------------------
# Per-code facts, cached
# ---------------------------------------------------------------------------

#: code -> (d, messages scanned, words counted: those plus any distribution read)
_MIN_CACHE: dict[CyclicCode, tuple[int, int, int]] = {}
#: code -> (the count of each weight 0..n, the code walked for the distribution)
_DIST_CACHE: dict[CyclicCode, tuple[list[int], CyclicCode]] = {}
#: (c1, c2, budget, purity) -> (side1, side2, pure) of a derived pair, until its mirror reads it
_PAIR_CACHE: dict[tuple, tuple[WeightReport, WeightReport, bool | None]] = {}
#: (n, q, coset representative) -> one packed word per orbit of the minimal ideal
_ORBIT_CACHE: dict[tuple[int, int, int], tuple[int, ...]] = {}


def _messages(q: int, k: int) -> int:
    """Words walked for a code of dimension k: its projective classes."""
    return (q**k - 1) // (q - 1)


def _distribution(code: CyclicCode) -> tuple[list[int], CyclicCode]:
    """(the count of each weight 0..n, the code walked for it), from the
    cheaper side."""
    hit = _DIST_CACHE.get(code)
    if hit is None:
        if code.k <= code.n - code.k:
            dist, walked = _distribution_direct(code), code
        else:
            dual_counts, walked = _distribution(code.dual())
            dist = macwilliams_transform(enumerate(dual_counts), code.n, code.q, code.n - code.k)
        counts = [0] * (code.n + 1)
        for w, c in dist:
            counts[w] = c
        hit = _DIST_CACHE[code] = counts, walked
    return hit


def _least_nonzero(counts: list[int]) -> int:
    return next(w for w in range(1, len(counts)) if counts[w])


def _min(code: CyclicCode) -> tuple[int, int, int]:
    """(d, messages scanned, words counted) of a k > 0 code."""
    hit = _MIN_CACHE.get(code)
    if hit is None:
        lb = code.designed_distance_bound
        total = _messages(code.q, code.k)
        cap = _messages(code.q, min(code.k, code.n - code.k))
        counts = [0] * (code.n + 1)
        scanned = _plane_scan(code, counts, cap, lb)
        best, words = next((w for w, c in enumerate(counts) if c), _INF), scanned
        if best > lb and scanned < total:
            dist, walked = _distribution(code)
            best, words = _least_nonzero(dist), scanned + _messages(walked.q, walked.k)
        if best < lb:
            raise InternalConsistencyError(f"found weight {best} below the proven lower bound {lb}")
        hit = _MIN_CACHE[code] = (best, scanned, words)
    return hit


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def min_weight(code: CyclicCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Exact minimum nonzero Hamming weight of the code.

    "exhaustive" when the q^k codewords fit the budget, otherwise
    "macwilliams" (the dual side's distribution) when q^(n-k) fits;
    BudgetExceeded when neither side fits.
    """
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    space = code.q**code.k
    if space <= budget:
        value, _, words = _min(code)
        return WeightReport(value, "exhaustive", words, budget)
    if code.q ** (code.n - code.k) > budget:
        raise BudgetExceeded(space, budget)
    counts, side = _distribution(code)
    return WeightReport(_least_nonzero(counts), "macwilliams", _messages(side.q, side.k), budget)


def min_weight_difference(outer: CyclicCode, inner: CyclicCode,
                          budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Exact minimum weight over codewords of `outer` not in `inner`.

    Requires inner to be nested in outer. An inner equal to outer leaves an
    empty difference (the zero-logical-dimension situation); the minimum
    weight of the full outer code is reported then, matching the stabilizer
    convention. An inner zero code reduces to plain min_weight. Raises
    BudgetExceeded when q^k_outer exceeds the budget.
    """
    outer.T.check_matching(inner.T)
    if not outer.contains(inner):
        raise NotNested(f"{inner.descriptor()} is not a subcode of {outer.descriptor()}")
    return min_weight_difference_unchecked(outer, inner, budget)


def min_weight_difference_unchecked(outer: CyclicCode, inner: CyclicCode,
                                    budget: int = DEFAULT_BUDGET) -> WeightReport:
    """min_weight_difference of a pair the caller knows to be nested."""
    if inner.k == 0 or inner.k == outer.k:
        return min_weight(outer, budget)
    space = outer.q**outer.k
    if space > budget:
        raise BudgetExceeded(space, budget)
    value, scanned, words = _min(outer)
    # below inner's designed bound, a minimum word of outer cannot lie in inner
    if value >= inner.designed_distance_bound:
        outer_counts, outer_walked = _distribution(outer)
        inner_counts, inner_walked = _distribution(inner)
        # each code walked for a distribution is counted once, outer's scan too
        words = scanned + sum(_messages(c.q, c.k) for c in {outer_walked, inner_walked})
        value = next((w for w, (a, b) in enumerate(zip(outer_counts, inner_counts))
                      if a > b), _INF)
        if value >= _INF or value < outer.designed_distance_bound or any(
                map(int.__lt__, outer_counts, inner_counts)):
            raise InternalConsistencyError(
                f"weight distribution of {inner.descriptor()} does not fit inside that "
                f"of {outer.descriptor()} above its designed bound"
            )
    return WeightReport(value, "exhaustive", words, budget)


def weight_distribution(code: CyclicCode, budget: int = DEFAULT_BUDGET) -> Distribution:
    """All (weight, count) pairs with nonzero count; counts sum to q^k.

    Computed on the cheaper side: the code itself when k <= n - k, otherwise
    the dual followed by a MacWilliams transform; BudgetExceeded when even
    the cheaper side exceeds the budget.
    """
    cheaper = code.q ** min(code.k, code.n - code.k)
    if cheaper > budget:
        raise BudgetExceeded(cheaper, budget)
    return tuple((w, c) for w, c in enumerate(_distribution(code)[0]) if c)


def _orbit_size(n: int, q: int, s: int) -> int:
    """o_s, the order of the group the shifts and scalars generate on M_s."""
    return lcm(n // gcd(n, s), q - 1)


def _lead(code: CyclicCode) -> CyclotomicCoset:
    """The coset of nonzeros with the largest o_s, ties to the smallest representative."""
    n, q = code.n, code.q
    return max((c for c in cyclotomic_cosets(n, q) if c.representative not in code.T.members),
               key=lambda c: (_orbit_size(n, q, c.representative), -c.representative))


def _orbit_representatives(n: int, q: int, coset: CyclotomicCoset) -> tuple[int, ...]:
    """One packed word of each orbit of the shifts and nonzero scalars on M_s
    minus 0.

    Each unmarked word of M_s opens an orbit: the rotation cycles of its
    multiples by the powers of alpha. Words are marked in a set of packed
    words. An orbit of other than o_s words raises InternalConsistencyError.
    """
    key = (n, q, coset.representative)
    if key not in _ORBIT_CACHE:
        ideal = from_defining_set(n, q, set(range(n)).difference(coset.members))
        _ORBIT_CACHE[key] = _plane_orbits(ideal, coset, _orbit_size(n, q, coset.representative))
    return _ORBIT_CACHE[key]


def _orbit_closed(count: int, size: int, coset: CyclotomicCoset) -> None:
    if count != size:
        raise InternalConsistencyError(
            f"an orbit of M_s, s in {coset} mod {coset.n}, has {count} words, not {size}")


def _plane_orbits(ideal: CyclicCode, coset: CyclotomicCoset, size: int) -> tuple[int, ...]:
    n, p, m = ideal.n, ideal.field.p, ideal.field.m
    width = _lane_bits(p)
    plane = n * width
    add = _adder(n, p, m)
    full = (1 << m * plane) - 1
    wrap = bitslice.lanes(m, plane, (1 << width) - 1)  # coordinate 0 of each plane
    keep, last = full ^ wrap, plane - width
    # alpha * y: plane c moves to c + 1 and the top plane folds back through
    # x^m = -(the lower terms of the modulus), one addition per unit
    top = (m - 1) * plane
    units = [c * plane for c, coeff in enumerate(ideal.field.modulus[:m])
             for _ in range(-coeff % p)]
    seen = {0}
    reps = []
    word = 0
    for row in _steps(_plane_rows(ideal), p)():
        word = add(word, row)
        if word in seen:
            continue
        marked, y = len(seen), word
        for _ in range(ideal.q - 1):
            # seen is a union of whole rotation cycles, so y's cycle is all in or all out
            x = y
            while x not in seen:
                seen.add(x)
                x = ((x << width) & keep) | ((x >> last) & wrap)  # one cyclic shift
            z, y = y >> top, (y << plane) & full
            for shift in units:
                y = add(y, z << shift)
        reps.append(word)
        _orbit_closed(len(seen) - marked, size, coset)
    return tuple(reps)


def _distribution_split(code: CyclicCode, lead: CyclotomicCoset) -> Distribution:
    """A(code) = A(rest) + o_s * sum of hist(a + rest) over orbit representatives a."""
    n, q = code.n, code.q
    rest = from_defining_set(n, q, code.T.members.union(lead.members))
    fibers = [0] * (n + 1)
    _plane_walk(_orbit_representatives(n, q, lead), _plane_rows(rest), n, code.field, fibers,
                _INF)
    counts = [_orbit_size(n, q, lead.representative) * c for c in fibers]
    for w, c in enumerate(_distribution(rest)[0]):
        counts[w] += c
    return tuple((w, c) for w, c in enumerate(counts) if c)


def _distribution_direct(code: CyclicCode) -> Distribution:
    """Weight distribution from the code's own words, split when that walks fewer."""
    if code.k == 0:
        return ((0, 1),)
    q, lead = code.q, _lead(code)
    d = len(lead.members)
    reps = (q**d - 1) // _orbit_size(code.n, q, lead.representative)
    marking = 0 if (code.n, q, lead.representative) in _ORBIT_CACHE else _MARK_STEPS * q**d
    if reps * q ** (code.k - d) + marking < _messages(q, code.k):
        return _distribution_split(code, lead)
    counts = [0] * (code.n + 1)
    _plane_scan(code, counts, _INF)
    counts = [(q - 1) * c for c in counts]
    counts[0] = 1
    return tuple((w, c) for w, c in enumerate(counts) if c)


def macwilliams_transform(dist: Iterable[tuple[int, int]], n: int, q: int,
                          k: int) -> tuple[tuple[int, int], ...]:
    """Weight distribution of the dual of a code with the given distribution.

    Exact integer Krawtchouk sums, each column K_0(i), ..., K_n(i) by the
    three-term recurrence; rejects inputs that are not a plausible [n, k]_q
    distribution (wrong total, negative or fractional output).
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
    sums = [0] * (n + 1)
    for i, c in enumerate(a):
        if c:
            prev, kraw = 0, 1
            for j in range(n + 1):
                sums[j] += c * kraw
                # (j+1) K_{j+1} = (j + (q-1)(n-j) - q i) K_j - (q-1)(n-j+1) K_{j-1}
                prev, kraw = kraw, ((j + (q - 1) * (n - j) - q * i) * kraw
                                    - (q - 1) * (n - j + 1) * prev) // (j + 1)
    if any(s % qk or s < 0 for s in sums):
        raise ValueError("not a valid linear-code weight distribution")
    return tuple((j, s // qk) for j, s in enumerate(sums) if s)


def symplectic_weight(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of positions where the pair (a_i, b_i) is not (0, 0)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x or y)


def _clear_caches() -> None:
    _MIN_CACHE.clear()
    _DIST_CACHE.clear()
    _PAIR_CACHE.clear()
    _ORBIT_CACHE.clear()


galois.register_invalidation_hook(_clear_caches)
