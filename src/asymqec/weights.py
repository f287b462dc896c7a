"""Minimum weights, set-difference weights, weight distributions, transforms.

Every distance is read off two facts cached per code:

- a scan of the code's own projective classes (leading message digit 1)
  that stops at a word of weight equal to the consecutive-root lower bound
  (then exact), capped at the class count of the cheaper side. Over GF(2^m),
  GF(2) included, a word is m n-bit planes in one int: per lead row i the
  scan starts at row i and Gray-walks the GF(2)-expansion of rows i+1..,
  one XOR per class, and a weight is the popcount of the OR of the planes.
  The distribution walks and the fibers below run the same kernel. For odd
  p it walks the classes as coordinate lists, adding one cached scaled row
  per changed digit;
- the weight distribution, from the cheaper side: the code's own words when
  k <= n - k, otherwise the MacWilliams transform (Krawtchouk columns by
  their three-term recurrence) of the dual's distribution.

A cyclic code is the direct sum of minimal ideals M_s, one per cyclotomic
coset s of its nonzeros. On M_s = GF(q^d) a cyclic shift multiplies by
alpha^s, so shifts and scalars permute M_s minus 0 freely in orbits of
o_s = lcm(n / gcd(n, s), q - 1) words, each mapping a + rest (rest: the other
ideals) onto a fiber of the same weights. So with the lead ideal of largest
o_s, A(code) = A(rest) + o_s * sum of hist(a + rest) over one a per orbit.
This split is used when its reps * q^(k - d) + q^d words are fewer than the
direct walk's (q^k - 1)/(q - 1) projective classes.

`min_weight` is the scan's minimum when the scan reached the bound or walked
the whole code, and otherwise the first nonzero weight of the distribution.
A set difference C_outer minus C_inner of nested codes has no scan of its
own: if d(outer) is below the designed bound of inner, every nonzero word of
inner is heavier and the answer is d(outer); otherwise it is the first w > 0
with A_w(outer) > A_w(inner), exact because inner lies inside outer. So a
search walks each code of a length at most twice, whatever its pair count.

`enumerated` counts the codewords accounted for in an answer: the classes
scanned plus, per distribution read, the cheaper side's (q^k - 1)/(q - 1)
classes, cached or not, walked one by one or met in orbits.
`early_stop=False` skips the scan; `workers` is ignored.

An inner code equal to the outer one leaves an empty difference; this arises
exactly for derived codes with zero logical dimension, where the convention
is the minimum weight of the full outer code, and that is what is reported.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from . import galois
from .cyclic import CyclicCode, from_defining_set, generator_matrix
from .errors import BudgetExceeded, InternalConsistencyError, NotNested
from .polyring import CyclotomicCoset, cyclotomic_cosets

#: default cap on codeword enumerations
DEFAULT_BUDGET = 1 << 28

_INF = 1 << 62

Distribution = tuple[tuple[int, int], ...]


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
# Characteristic 2: a word over GF(2^m) is m n-bit planes in one int, bit
# c*n + j holding bit c of coordinate j, so adding two words is one XOR. A
# generator row r expands over GF(2) into the m rows (1 << b) * r, and d * r is
# the XOR of those for the set bits of d.
# ---------------------------------------------------------------------------

def _pack(n: int, word: Iterable[int]) -> int:
    """The planes of a word over GF(2^m)."""
    packed = 0
    for j, x in enumerate(word):
        for c in range(x.bit_length()):
            if (x >> c) & 1:
                packed |= 1 << (c * n + j)
    return packed


def _plane_rows(code: CyclicCode) -> list[list[int]]:
    """Per generator row x^i g, the planes of its GF(2)-expansion (1 << b) * x^i g."""
    field, g = code.field, code.generator_polynomial.coeffs
    expansion = [_pack(code.n, [field.mul_i(1 << b, c) for c in g]) for b in range(field.m)]
    # deg g + i < n, so shifting the planes shifts every coordinate within its plane
    return [[row << i for row in expansion] for i in range(code.k)]


def _plane_walk(start: int, rows: Sequence[int], n: int, m: int, counts: list[int],
                cap: int, lb: int = -1) -> int:
    """Add to `counts` the weight of `start` plus each GF(2) combination of `rows`
    in Gray order, at most `cap` words and stopping after the first of weight
    <= lb; returns the words walked. A weight is the popcount of the OR of
    the m planes."""
    limit = min(cap, 1 << len(rows))
    rows = [*rows, 0]  # step 0 flips rows[-1], the zero row, so the walk starts at `start`
    word = start
    if m == 1:  # a single plane needs no fold
        for t in range(limit):
            word ^= rows[(t & -t).bit_length() - 1]
            w = word.bit_count()
            counts[w] += 1
            if w <= lb:
                return t + 1
        return limit
    mask, shifts, planes = (1 << n) - 1, [], m
    while planes > 1:  # OR the upper half of the planes onto the lower half
        planes = (planes + 1) // 2
        shifts.append(planes * n)
    for t in range(limit):
        word ^= rows[(t & -t).bit_length() - 1]
        x = word
        for s in shifts:
            x |= x >> s
        w = (x & mask).bit_count()
        counts[w] += 1
        if w <= lb:
            return t + 1
    return limit


def _plane_scan(code: CyclicCode, counts: list[int], cap: int, lb: int = -1) -> int:
    """Projective walk over GF(2^m): per lead i, row i plus every combination
    of the expansion of rows i+1.., so q^(k-1-i) words per lead; at most `cap`
    words, stopping after the first weight <= lb. Returns the words walked."""
    rows, m, walked = _plane_rows(code), code.field.m, 0
    for i, lead in enumerate(rows):
        if walked >= cap or any(counts[1:lb + 1]):
            break
        later = [r for row in rows[i + 1:] for r in row]
        walked += _plane_walk(lead[0], later, code.n, m, counts, cap - walked, lb)
    return walked


# ---------------------------------------------------------------------------
# Odd characteristic: words as coordinate lists
# ---------------------------------------------------------------------------

def _walk(field: galois.Field, rows: Sequence[Sequence[int]],
          start: Sequence[int]) -> Iterator[list[int]]:
    """Yield `start` plus each GF(q) combination of `rows`, digits counted base q
    with the last row fastest; the yielded list is one word updated in place."""
    add, mul, sub = field.add_i, field.mul_i, field.sub_i
    q, last = field.q, len(rows) - 1
    # moves[i][d]: the (position, change) pairs taking digit i from d to d + 1 mod q
    moves: list[list] = [[None] * q for _ in rows]
    word, digits = list(start), [0] * len(rows)
    yield word
    pos = last
    while pos >= 0:
        d = digits[pos]
        move = moves[pos][d]
        if move is None:
            c = sub((d + 1) % q, d)
            move = moves[pos][d] = [(j, mul(c, x)) for j, x in enumerate(rows[pos]) if x]
        for j, x in move:
            word[j] = add(word[j], x)
        if d == q - 1:
            digits[pos] = 0
            pos -= 1
        else:
            digits[pos] = d + 1
            yield word
            pos = last


def _projective_walk(field: galois.Field, rows: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Yield every projective-class representative (leading digit 1) in order:
    per lead, one odometer over the later rows."""
    for lead in range(len(rows)):
        yield from _walk(field, rows[lead + 1:], rows[lead])


def _scan_qary(field: galois.Field, rows: Sequence[Sequence[int]], cap: int,
               lb: int) -> tuple[int, int]:
    """Projective walk over the first `cap` representatives."""
    n = len(rows[0])
    best = _INF
    for t, word in enumerate(islice(_projective_walk(field, rows), cap), 1):
        w = n - word.count(0)
        if w < best:
            best = w
            if best <= lb:
                return best, t
    return best, cap


# ---------------------------------------------------------------------------
# Per-code facts, cached
# ---------------------------------------------------------------------------

#: (code, early_stop) -> (d, messages scanned, codes walked for distributions)
_MIN_CACHE: dict[tuple[CyclicCode, bool], tuple[int, int, frozenset[CyclicCode]]] = {}
#: code -> (weight distribution, the code walked for it)
_DIST_CACHE: dict[CyclicCode, tuple[Distribution, CyclicCode]] = {}
#: (n, q, coset representative) -> one word per orbit of the minimal ideal, as
#: packed planes over GF(2^m) and coordinate tuples otherwise
_ORBIT_CACHE: dict[tuple[int, int, int], tuple] = {}


def _messages(q: int, k: int) -> int:
    """Words walked for a code of dimension k: its projective classes."""
    return (q**k - 1) // (q - 1)


def _words(scanned: int, walked: frozenset[CyclicCode]) -> int:
    return scanned + sum(_messages(c.q, c.k) for c in walked)


def _distribution(code: CyclicCode) -> tuple[Distribution, CyclicCode]:
    """(weight distribution, the code walked for it), from the cheaper side."""
    hit = _DIST_CACHE.get(code)
    if hit is None:
        if code.k <= code.n - code.k:
            hit = _distribution_direct(code), code
        else:
            dual_dist, walked = _distribution(code.dual())
            hit = macwilliams_transform(dual_dist, code.n, code.q, code.n - code.k), walked
        _DIST_CACHE[code] = hit
    return hit


def _min(code: CyclicCode, early_stop: bool) -> tuple[int, int, frozenset[CyclicCode]]:
    """(d, messages scanned, codes walked for the distribution read) of a k > 0 code."""
    key = (code, early_stop)
    hit = _MIN_CACHE.get(key)
    if hit is None:
        lb = code.designed_distance_bound
        total = _messages(code.q, code.k)
        cap = _messages(code.q, min(code.k, code.n - code.k)) if early_stop else 0
        if code.q % 2 == 0:
            counts = [0] * (code.n + 1)
            scanned = _plane_scan(code, counts, cap, lb)
            best = next((w for w, c in enumerate(counts) if c), _INF)
        else:
            best, scanned = _scan_qary(code.field, generator_matrix(code).rows, cap, lb)
        walked: frozenset[CyclicCode] = frozenset()
        if best > lb and scanned < total:
            dist, walked_code = _distribution(code)
            best = dist[1][0]
            walked = frozenset((walked_code,))
        if best < lb:
            raise InternalConsistencyError(f"found weight {best} below the proven lower bound {lb}")
        hit = _MIN_CACHE[key] = (best, scanned, walked)
    return hit


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def min_weight(code: CyclicCode, budget: int = DEFAULT_BUDGET, *,
               workers: int = 1, early_stop: bool = True) -> WeightReport:
    """Exact minimum nonzero Hamming weight of the code.

    "exhaustive" when the q^k codewords fit the budget, otherwise
    "macwilliams" (the dual side's distribution) when q^(n-k) fits;
    BudgetExceeded when neither side fits. `workers` is ignored.
    """
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    space = code.q**code.k
    if space <= budget:
        value, scanned, walked = _min(code, early_stop)
        return WeightReport(value, "exhaustive", _words(scanned, walked), budget)
    if code.q ** (code.n - code.k) > budget:
        raise BudgetExceeded(space, budget)
    dist, side = _distribution(code)
    return WeightReport(dist[1][0], "macwilliams", _messages(side.q, side.k), budget)


def min_weight_difference(outer: CyclicCode, inner: CyclicCode,
                          budget: int = DEFAULT_BUDGET, *,
                          workers: int = 1, early_stop: bool = True) -> WeightReport:
    """Exact minimum weight over codewords of `outer` not in `inner`.

    Requires inner to be nested in outer. An inner equal to outer leaves an
    empty difference (the zero-logical-dimension situation); the minimum
    weight of the full outer code is reported then, matching the stabilizer
    convention. An inner zero code reduces to plain min_weight. Raises
    BudgetExceeded when q^k_outer exceeds the budget. `workers` is ignored.
    """
    if (outer.n, outer.q) != (inner.n, inner.q):
        raise ValueError(
            f"mismatched codes: (n={outer.n}, q={outer.q}) vs (n={inner.n}, q={inner.q})"
        )
    if not outer.contains(inner):
        raise NotNested(f"{inner.descriptor()} is not a subcode of {outer.descriptor()}")
    return min_weight_difference_unchecked(outer, inner, budget, early_stop=early_stop)


def min_weight_difference_unchecked(outer: CyclicCode, inner: CyclicCode,
                                    budget: int = DEFAULT_BUDGET, *,
                                    early_stop: bool = True) -> WeightReport:
    """min_weight_difference of a pair the caller knows to be nested."""
    if inner.k == 0 or inner.k == outer.k:
        return min_weight(outer, budget, early_stop=early_stop)
    space = outer.q**outer.k
    if space > budget:
        raise BudgetExceeded(space, budget)
    value, scanned, walked = _min(outer, early_stop)
    # below inner's designed bound, a minimum word of outer cannot lie in inner
    if value >= inner.designed_distance_bound:
        a_outer, outer_walked = _distribution(outer)
        a_inner, inner_walked = _distribution(inner)
        walked = walked | {outer_walked, inner_walked}
        outer_counts, inner_counts = dict(a_outer), dict(a_inner)
        value = next((w for w, c in a_outer if c > inner_counts.get(w, 0)), _INF)
        if value >= _INF or value < outer.designed_distance_bound or any(
                c > outer_counts.get(w, 0) for w, c in a_inner):
            raise InternalConsistencyError(
                f"weight distribution of {inner.descriptor()} does not fit inside that "
                f"of {outer.descriptor()} above its designed bound"
            )
    return WeightReport(value, "exhaustive", _words(scanned, walked), budget)


def weight_distribution(code: CyclicCode, budget: int = DEFAULT_BUDGET) -> Distribution:
    """All (weight, count) pairs with nonzero count; counts sum to q^k.

    Computed on the cheaper side: the code itself when k <= n - k, otherwise
    the dual followed by a MacWilliams transform; BudgetExceeded when even
    the cheaper side exceeds the budget.
    """
    cheaper = code.q ** min(code.k, code.n - code.k)
    if cheaper > budget:
        raise BudgetExceeded(cheaper, budget)
    return _distribution(code)[0]


def _orbit_size(n: int, q: int, s: int) -> int:
    """o_s, the order of the group the shifts and scalars generate on M_s."""
    return lcm(n // gcd(n, s), q - 1)


def _lead(code: CyclicCode) -> CyclotomicCoset:
    """The coset of nonzeros with the largest o_s, ties to the smallest representative."""
    n, q = code.n, code.q
    return max((c for c in cyclotomic_cosets(n, q) if c.representative not in code.T.members),
               key=lambda c: (_orbit_size(n, q, c.representative), -c.representative))


def _orbit_representatives(n: int, q: int, coset: CyclotomicCoset) -> tuple:
    """One word of each orbit of the shifts and nonzero scalars on M_s minus 0:
    packed planes over GF(2^m), coordinate tuples otherwise.

    Each unmarked word of M_s opens an orbit, closed under one rotation and
    one primitive scalar (over GF(2^m): the rotation cycles of its scalar
    multiples); words are marked by their first d coordinates, an
    information set of any [n, d] cyclic code. An orbit of other than o_s
    words raises InternalConsistencyError.
    """
    key = (n, q, coset.representative)
    if key not in _ORBIT_CACHE:
        ideal = from_defining_set(n, q, set(range(n)).difference(coset.members))
        build = _plane_orbits if q % 2 == 0 else _tuple_orbits
        _ORBIT_CACHE[key] = build(ideal, coset, _orbit_size(n, q, coset.representative))
    return _ORBIT_CACHE[key]


def _orbit_closed(count: int, size: int, coset: CyclotomicCoset) -> None:
    if count != size:
        raise InternalConsistencyError(
            f"an orbit of M_s, s in {coset} mod {coset.n}, has {count} words, not {size}")


def _plane_orbits(ideal: CyclicCode, coset: CyclotomicCoset, size: int) -> tuple[int, ...]:
    n, m, d = ideal.n, ideal.field.m, ideal.k
    full = (1 << (m * n)) - 1
    wrap = sum(1 << (c * n) for c in range(m))  # coordinate 0 of each plane
    keep, last = full ^ wrap, n - 1
    # alpha * x: plane c moves to c + 1 and the top plane folds back through
    # x^m = the lower terms of the modulus
    top = (m - 1) * n
    spread = sum(1 << (c * n) for c in range(m) if ideal.field.modulus[c])
    # the first d coordinates of every plane, gathered into m*d bits
    gather = [(c * (n - d), ((1 << d) - 1) << (c * d)) for c in range(m)]

    def gathered(x: int) -> int:
        i = 0
        for shift, mask in gather:
            i |= (x >> shift) & mask
        return i

    # over GF(2) the index is the low d bits, taken without a Python-level call
    index = ((1 << d) - 1).__and__ if m == 1 else gathered
    seen = bytearray(1 << (m * d))
    seen[0] = 1  # the zero word
    reps = []
    rows = [r for row in _plane_rows(ideal) for r in row]
    word = 0
    for t in range(1, 1 << len(rows)):
        word ^= rows[(t & -t).bit_length() - 1]
        if seen[index(word)]:
            continue
        # the orbit is the rotation cycles of the multiples alpha^a * word
        count, y = 0, word
        for _ in range(ideal.q - 1):
            if not seen[index(y)]:
                x = y
                while True:
                    seen[index(x)] = 1
                    count += 1
                    x = ((x << 1) & keep) | ((x >> last) & wrap)  # one cyclic shift
                    if x == y:
                        break
            y = ((y << n) & full) ^ (y >> top) * spread
        reps.append(word)
        _orbit_closed(count, size, coset)
    return tuple(reps)


def _tuple_orbits(ideal: CyclicCode, coset: CyclotomicCoset,
                  size: int) -> tuple[tuple[int, ...], ...]:
    n, q, field = ideal.n, ideal.q, ideal.field
    powers = [q**i for i in range(ideal.k)]
    scale = [field.mul_i(field.alpha.value, x) for x in range(q)].__getitem__
    seen, reps = bytearray(q**ideal.k), []
    seen[0] = 1  # the zero word
    for word in map(tuple, _walk(field, generator_matrix(ideal).rows, [0] * n)):
        stack, count = [word], 0
        while stack:
            x = stack.pop()
            i = sum(map(operator.mul, x, powers))
            if not seen[i]:
                seen[i] = 1
                count += 1
                stack += (x[-1:] + x[:-1], tuple(map(scale, x)))
        if count:
            reps.append(word)
            _orbit_closed(count, size, coset)
    return tuple(reps)


def _distribution_split(code: CyclicCode, lead: CyclotomicCoset) -> Distribution:
    """A(code) = A(rest) + o_s * sum of hist(a + rest) over orbit representatives a."""
    n, q = code.n, code.q
    rest = from_defining_set(n, q, code.T.members.union(lead.members))
    fibers = [0] * (n + 1)
    if q % 2 == 0:
        rows = [r for row in _plane_rows(rest) for r in row]
        for a in _orbit_representatives(n, q, lead):
            _plane_walk(a, rows, n, code.field.m, fibers, _INF)
    else:
        rows = generator_matrix(rest).rows
        for a in _orbit_representatives(n, q, lead):
            for word in _walk(code.field, rows, a):
                fibers[n - word.count(0)] += 1
    counts = [_orbit_size(n, q, lead.representative) * c for c in fibers]
    for w, c in _distribution(rest)[0]:
        counts[w] += c
    return tuple((w, c) for w, c in enumerate(counts) if c)


def _distribution_direct(code: CyclicCode) -> Distribution:
    """Weight distribution from the code's own words, split when that walks fewer."""
    if code.k == 0:
        return ((0, 1),)
    q, lead = code.q, _lead(code)
    d = len(lead.members)
    reps = (q**d - 1) // _orbit_size(code.n, q, lead.representative)
    if reps * q ** (code.k - d) + q**d < _messages(q, code.k):
        return _distribution_split(code, lead)
    counts = [0] * (code.n + 1)
    if q % 2 == 0:
        _plane_scan(code, counts, _INF)
    else:
        for word in _projective_walk(code.field, generator_matrix(code).rows):
            counts[code.n - word.count(0)] += 1
    counts = [(q - 1) * c for c in counts]
    counts[0] = 1
    return tuple((w, c) for w, c in enumerate(counts) if c)


def macwilliams_transform(dist: Sequence[tuple[int, int]], n: int, q: int,
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
    _ORBIT_CACHE.clear()


galois.register_invalidation_hook(_clear_caches)
