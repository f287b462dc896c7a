"""Brute-force linear-algebra oracles for the test suite.

GF(2) codeword sets are built by folding the span of generator rows
(bitmask ints), duals by nullspace computation on those rows; GF(q) spans
and combinations add every multiple of each row to the words built from
the rows before it; polynomial products and long division are schoolbook
loops of field operations. `order_of_x` walks the powers of x modulo f
with that division over plain integers mod p (`IntegersMod`). Everything
here is independent of the defining-set calculus and the weight kernels
under test, except `css_pairs`, the all-pairs reference for the css
search, which asks `contains` (sets and both polynomial divisions) of
every pair of codes. `macwilliams_transform` is the closed-form
Krawtchouk reference for the library's recurrence.
"""

from __future__ import annotations

from math import comb
from typing import Sequence


def span(rows: Sequence[int]) -> frozenset[int]:
    """All XOR combinations of the given rows (2^rank words)."""
    words = {0}
    for row in rows:
        words |= {w ^ row for w in words}
    return frozenset(words)


def rref(rows: Sequence[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2); returns (nonzero rows, pivot columns)."""
    mat = [int(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(mat):
            break
        bit = 1 << c
        pivot = next((i for i in range(r, len(mat)) if mat[i] & bit), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pivots.append(c)
        for i in range(len(mat)):
            if i != r and mat[i] & bit:
                mat[i] ^= mat[r]
        r += 1
    return [m for m in mat[:r] if m], pivots


def rank(rows: Sequence[int], ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(rows: Sequence[int], ncols: int) -> list[int]:
    """Basis of the right kernel of the matrix given by bitmask rows."""
    rref_rows, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, pcol in zip(rref_rows, pivots):
            if row & (1 << free):
                v |= 1 << pcol
        basis.append(v)
    return basis


def weights_of(words: frozenset[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for w in words:
        counts[w.bit_count()] = counts.get(w.bit_count(), 0) + 1
    return counts


def _add_multiples(words: list[tuple[int, ...]], rows: Sequence[Sequence[int]],
                   scalars: range, field) -> list[tuple[int, ...]]:
    """Each word plus every sum of `scalars` multiples of the rows, repeats
    kept: one row at a time, the list so far plus each nonzero multiple of
    the row added to every word in it."""
    for row in rows:
        multiples = [tuple(field.mul_i(m, x) for x in row) for m in scalars if m]
        words = words + [tuple(map(field.add_i, w, mrow)) for mrow in multiples for w in words]
    return words


def span_q(rows: Sequence[Sequence[int]], n: int, field) -> frozenset[tuple[int, ...]]:
    """Every message times the generator rows, by plain GF(q) arithmetic."""
    return frozenset(_add_multiples([(0,) * n], rows, range(field.q), field))


def unpack_planes(packed: int, n: int, field, width: int) -> tuple[int, ...]:
    """The coordinates of a GF(p^m) word stored as m planes of n lanes of
    `width` bits in one int, lane j of plane c holding digit c of coordinate
    j; a lane holding p or more is rejected."""
    lane = (1 << width) - 1
    coords = []
    for j in range(n):
        value = 0
        for c in reversed(range(field.m)):
            digit = packed >> ((c * n + j) * width) & lane
            if digit >= field.p:
                raise ValueError(f"lane {j} of plane {c} holds {digit} >= p = {field.p}")
            value = value * field.p + digit
        coords.append(value)
    return tuple(coords)


def combinations(start: Sequence[int], rows: Sequence[Sequence[int]],
                 field) -> list[tuple[int, ...]]:
    """`start` plus each of the p^len(rows) GF(p) combinations of rows (p the
    characteristic), repeats kept."""
    return _add_multiples([tuple(start)], rows, range(field.p), field)


def projective_classes(rows: Sequence[Sequence[int]], field) -> list[tuple[int, ...]]:
    """One word per projective class of the span of rows: per lead row, the
    lead row plus each GF(q) combination of the later rows."""
    return [word for lead in range(len(rows))
            for word in _add_multiples([tuple(rows[lead])], rows[lead + 1:], range(field.q), field)]


def weight_q(word: Sequence[int]) -> int:
    return sum(1 for x in word if x)


def css_pairs(codes: Sequence) -> list[tuple]:
    """(C1, C2) for every pair of nonzero codes with C2-dual inside C1, C2 in
    the outer loop, by testing all len(codes)^2 pairs."""
    return [(c1, c2) for c2 in codes if c2.k
            for c1 in codes if c1.k and c1.contains(c2.dual())]


def macwilliams_transform(dist: Sequence[tuple[int, int]], n: int, q: int,
                          k: int) -> tuple[tuple[int, int], ...]:
    """Dual weight distribution by the closed Krawtchouk sums, one binomial
    sum per (j, i) pair, with the library's validations and messages."""
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


def poly_mul(a: Sequence[int], b: Sequence[int], field) -> list[int]:
    """Schoolbook product of ascending coefficient lists, one field call per
    term, trailing zeros stripped."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add_i(out[i + j], field.mul_i(x, y))
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_div_rem(a: Sequence[int], b: Sequence[int], field) -> tuple[list[int], list[int]]:
    """Schoolbook long division of ascending coefficient lists (b nonzero, no
    trailing zeros): cancel the leading term of the remainder until its
    degree drops below deg b."""
    rem, quot = list(a), [0] * max(0, len(a) - len(b) + 1)
    inv = field.inv_i(b[-1])
    while rem and len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = field.mul_i(rem[-1], inv)
        quot[shift] = factor
        for j, c in enumerate(b):
            rem[shift + j] = field.sub_i(rem[shift + j], field.mul_i(factor, c))
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


class IntegersMod:
    """GF(p) as plain integers mod p, with the `Field` methods the polynomial
    oracles call; it needs no modulus and builds no tables."""

    def __init__(self, p: int):
        self.p = self.q = p

    def add_i(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub_i(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul_i(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv_i(self, a: int) -> int:
        return pow(a, -1, self.p)


def order_of_x(f: Sequence[int], p: int) -> int | None:
    """The multiplicative order of x modulo the monic f over GF(p): multiply by
    x and reduce with `poly_div_rem` until the residue is 1. None when no
    power of x is 1 (deg f < 1, or x shares a factor with f); a unit's order
    is at most p^deg f - 1, the number of nonzero residues."""
    zp, residue = IntegersMod(p), [1]
    for k in range(1, p ** (len(f) - 1)):
        residue = poly_div_rem([0] + residue, f, zp)[1]
        if residue == [1]:
            return k
    return None
