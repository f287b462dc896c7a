"""Weight engine: exhaustive minima, set differences, distributions, transforms."""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter

import pytest

import oracle
import asymqec.bitslice
import asymqec.weights
from asymqec import cli
from test_polyring import ORACLE_FIELDS
from asymqec.cyclic import (
    bch,
    from_defining_set,
    full_space,
    generator_matrix,
    hamming,
    parse_code,
    repetition,
    rs,
    zero_code,
)
from asymqec.errors import BudgetExceeded, InternalConsistencyError, NotNested
from asymqec.galois import make_field
from asymqec.polyring import coset_of, coset_unions, cyclotomic_cosets, mask_residues
from asymqec.search import all_cyclic_codes
from asymqec.weights import (
    macwilliams_transform,
    min_weight,
    min_weight_difference,
    symplectic_weight,
    weight_distribution,
)


def fresh():
    asymqec.weights._clear_caches()


def cheaper_side(code):
    """The code a weight distribution walks: the code itself or its dual."""
    return code if code.k <= code.n - code.k else code.dual()


def messages(code):
    """Words walked for `code`: 2^k - 1, or the projective classes for q > 2."""
    return (code.q**code.k - 1) // (code.q - 1)


def test_min_weight_examples():
    assert min_weight(bch(15, 2, 3)).value == 3
    assert min_weight(repetition(15, 2)).value == 15
    assert min_weight(bch(31, 2, 7)).value == 7
    report = min_weight(bch(15, 2, 3))
    assert report.method == "exhaustive"
    assert report.is_exact


def test_min_weight_zero_code():
    with pytest.raises(ValueError, match="zero code"):
        min_weight(zero_code(7, 2))


def test_min_weight_agrees_with_brute_force_n15():
    for code in all_cyclic_codes(15, 2):
        if code.k == 0:
            continue
        words = oracle.span(generator_matrix(code).bitmask_rows())
        expected = min(w.bit_count() for w in words if w)
        assert min_weight(code).value == expected


def test_min_weight_difference_row1_values():
    c1, c2 = bch(15, 2, 3), bch(15, 2, 5)
    assert min_weight_difference(c1, c2.dual()).value == 3
    assert min_weight_difference(c2, c1.dual()).value == 5


def test_min_weight_difference_trivial_inner():
    code = bch(7, 2, 3)
    assert min_weight_difference(code, zero_code(7, 2)).value == min_weight(code).value


def test_min_weight_difference_empty_difference_convention():
    code = bch(15, 2, 5).dual()  # [15,8,4]
    report = min_weight_difference(code, code)
    assert report.value == 4  # full-code minimum under the k = 0 convention


def test_min_weight_difference_requires_nesting():
    with pytest.raises(NotNested):
        min_weight_difference(bch(15, 2, 5), bch(15, 2, 3))


def test_min_weight_difference_brute_force_nested_pairs_n15():
    codes = all_cyclic_codes(15, 2)
    spans = {c: oracle.span(generator_matrix(c).bitmask_rows()) for c in codes}
    fresh()
    checked = 0
    for outer, inner in itertools.product(codes, repeat=2):
        if outer.k == 0 or inner.k == 0 or inner.k >= outer.k:
            continue
        if not outer.contains(inner):
            continue
        diff = [w.bit_count() for w in spans[outer] - spans[inner]]
        assert min_weight_difference(outer, inner).value == min(diff)
        # subset minimum can only rise
        assert min(diff) >= min_weight(outer).value
        checked += 1
    assert checked > 30


def test_budget_exceeded_carries_required_count():
    with pytest.raises(BudgetExceeded) as err:
        min_weight(bch(31, 2, 3), budget=8)
    assert err.value.required == 2**26
    with pytest.raises(BudgetExceeded):
        min_weight_difference(bch(31, 2, 3), bch(31, 2, 7).dual(), budget=1024)


def test_min_weight_macwilliams_fallback():
    report = min_weight(bch(31, 2, 3), budget=1 << 20)
    assert report.value == 3
    assert report.method == "macwilliams"
    # over GF(3) the dual [13,3] side is walked projectively: (27 - 1) / 2 words
    report = min_weight(hamming(3, 3), 27)
    assert (report.value, report.method, report.enumerated) == (3, "macwilliams", 13)


def test_weight_distribution_examples():
    assert weight_distribution(bch(7, 2, 3)) == ((0, 1), (3, 7), (4, 7), (7, 1))
    assert weight_distribution(zero_code(9, 2)) == ((0, 1),)
    dist = weight_distribution(rs(8, 3))
    assert sum(c for _, c in dist) == 8**5
    assert dist[0] == (0, 1)


def test_weight_distribution_dual_route():
    code = bch(31, 2, 3)  # 2^26 direct, 2^5 dual side
    dist = weight_distribution(code, budget=1 << 10)
    assert sum(c for _, c in dist) == 2**26
    assert min(w for w, _ in dist if w) == 3
    with pytest.raises(BudgetExceeded):
        weight_distribution(bch(31, 2, 7), budget=4)


def test_weight_distribution_budget_ignores_cache():
    fresh()
    code = bch(31, 2, 7)  # [31,16]: 2^16 direct, 2^15 dual side
    with pytest.raises(BudgetExceeded) as err:
        weight_distribution(code, 16)
    assert err.value.required == 2**15
    weight_distribution(code)
    with pytest.raises(BudgetExceeded) as err:
        weight_distribution(code, 16)
    assert err.value.required == 2**15


def test_distribution_matches_brute_force_n15():
    for code in all_cyclic_codes(15, 2):
        words = oracle.span(generator_matrix(code).bitmask_rows())
        expected = sorted(oracle.weights_of(words).items())
        assert list(weight_distribution(code)) == expected


def test_min_weight_equals_first_nonzero_distribution_index_n15():
    for code in all_cyclic_codes(15, 2):
        dist = weight_distribution(code)
        assert dist[0] == (0, 1)
        assert sum(c for _, c in dist) == 2**code.k
        if code.k:
            assert min_weight(code).value == min(w for w, _ in dist if w)


def test_macwilliams_transform_examples():
    # full space -> zero code
    full_dist = weight_distribution(full_space(5, 2))
    assert macwilliams_transform(full_dist, 5, 2, 5) == ((0, 1),)
    # simplex from the length-15 Hamming code
    ham_dist = weight_distribution(bch(15, 2, 3))
    assert macwilliams_transform(ham_dist, 15, 2, 11) == ((0, 1), (8, 15))
    # involution
    h7 = weight_distribution(bch(7, 2, 3))
    once = macwilliams_transform(h7, 7, 2, 4)
    assert macwilliams_transform(once, 7, 2, 3) == h7


def test_macwilliams_cross_check_15_7_5():
    code = bch(15, 2, 5)
    direct = weight_distribution(code)
    via_dual = macwilliams_transform(weight_distribution(code.dual()), 15, 2, 8)
    assert direct == via_dual


def test_macwilliams_malformed():
    with pytest.raises(ValueError):
        macwilliams_transform([(0, 1), (3, 5)], 7, 2, 4)  # wrong total
    with pytest.raises(ValueError):
        macwilliams_transform([(9, 16)], 7, 2, 4)  # weight out of range
    with pytest.raises(ValueError):
        macwilliams_transform([(0, 2), (1, 14)], 7, 2, 4)  # no valid code has A0=2


MACWILLIAMS_CODES = (
    "bch:n=63,q=2,delta=7",
    "hamming:m=7,q=2",
    "bch:n=127,q=2,delta=7",
    "bch:n=255,q=2,delta=3",
    "bch:n=85,q=4,delta=3",
    "rs:q=32,delta=4",
)


@pytest.mark.parametrize("n,q", [(15, 2), (21, 2), (8, 3), (9, 4), (7, 8), (13, 3)])
def test_macwilliams_recurrence_matches_closed_sums(n, q):
    for code in all_cyclic_codes(n, q):
        dist = weight_distribution(code)
        expected = oracle.macwilliams_transform(dist, n, q, code.k)
        assert macwilliams_transform(dist, n, q, code.k) == expected
        assert expected == weight_distribution(code.dual())


@pytest.mark.parametrize("descriptor", MACWILLIAMS_CODES)
def test_macwilliams_recurrence_matches_closed_sums_classical(descriptor):
    # transform the side that is walked, whose distribution has few weights
    side = cheaper_side(parse_code(descriptor))
    dist = weight_distribution(side)
    transformed = macwilliams_transform(dist, side.n, side.q, side.k)
    assert transformed == oracle.macwilliams_transform(dist, side.n, side.q, side.k)
    assert transformed == weight_distribution(side.dual())


@pytest.mark.parametrize("dist,n,q,k", [
    ([(0, 1), (3, 5)], 7, 2, 4),  # wrong total
    ([(9, 16)], 7, 2, 4),  # weight out of range
    ([(-1, 16)], 7, 2, 4),  # negative weight
    ([(0, 2), (1, 14)], 7, 2, 4),  # no valid code has A0=2
    ([(0, 1), (3, 8), (3, 7)], 7, 2, 4),  # a weight listed twice
    ([(0, 17), (3, -1)], 7, 2, 4),  # negative count
    ([(0, 1), (1, 3)], 3, 2, 2),  # sums right, fractional dual counts
])
def test_macwilliams_rejects_what_the_closed_sums_reject(dist, n, q, k):
    with pytest.raises(ValueError) as expected:
        oracle.macwilliams_transform(dist, n, q, k)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        macwilliams_transform(dist, n, q, k)


def test_symplectic_weight():
    assert symplectic_weight((0, 0, 0), (0, 0, 0)) == 0
    assert symplectic_weight((1, 0, 1, 0), (0, 0, 1, 1)) == 3
    a = (1, 0, 1, 1, 0)
    assert symplectic_weight(a, (0,) * 5) == sum(a)
    with pytest.raises(ValueError, match="length"):
        symplectic_weight((1,), (1, 0))


def test_min_weight_repeatable_after_cache_reset_31_16_7():
    code = bch(31, 2, 7)
    fresh()
    first = min_weight(code)
    fresh()
    second = min_weight(code)
    assert first == second
    assert first.value == 7


def test_min_weight_difference_repeatable_after_cache_reset():
    outer, inner = bch(31, 2, 5), bch(31, 2, 7).dual()
    fresh()
    first = min_weight_difference(outer, inner)
    fresh()
    second = min_weight_difference(outer, inner)
    assert first == second


def test_bch_bound_within_budget():
    cap = 1 << 24
    for n in (7, 15, 31, 63):
        for delta in range(2, n + 1):
            code = bch(n, 2, delta)
            if 2**code.k > cap or code.k == 0:
                continue
            assert min_weight(code).value >= delta
    for q, n in ((4, 3), (8, 7)):
        for delta in range(2, n + 1):
            code = rs(q, delta)
            assert min_weight(code).value >= delta
            assert min_weight(code).value == delta  # MDS


def test_rs_generic_kernel_against_structure():
    # [7,5,3]_8 Reed-Solomon: distribution must be scalar-class balanced
    code = rs(8, 3)
    dist = dict(weight_distribution(code))
    assert min(w for w in dist if w) == 3
    assert all(c % 7 == 0 for w, c in dist.items() if w)


def test_generic_difference_kernel():
    outer = rs(8, 2)
    inner = rs(8, 3)  # T={1} subset of T={1,2}: inner is the smaller code
    assert outer.contains(inner)
    report = min_weight_difference(outer, inner)
    assert report.value == 2


@pytest.mark.parametrize("n,q", [(8, 3), (4, 3), (5, 4), (9, 4)])
def test_qary_kernels_against_brute_force_span(n, q):
    codes = [c for c in all_cyclic_codes(n, q) if q**c.k <= 4**6]
    spans = {c: oracle.span_q(generator_matrix(c).rows, n, c.field) for c in codes}
    for code in codes:
        if code.k == 0:
            continue
        weights = [oracle.weight_q(w) for w in spans[code]]
        expected = min(w for w in weights if w)
        fresh()
        assert min_weight(code).value == expected
        assert weight_distribution(code) == tuple(sorted(Counter(weights).items()))
    for outer in codes:
        for inner in codes:
            if inner == outer or not outer.contains(inner):
                continue
            expected = min(oracle.weight_q(w) for w in spans[outer] - spans[inner])
            fresh()
            report = min_weight_difference(outer, inner)
            assert report.value == expected
            # the answer counts the scan of outer and the cheaper side of each
            # distribution read: outer's when its scan did not settle, and both
            # codes' unless d(outer) is below inner's designed bound
            _, scanned, words = asymqec.weights._MIN_CACHE[outer]
            walked = {cheaper_side(outer)} if words > scanned else set()
            assert words == scanned + sum(messages(c) for c in walked)
            d_outer = min(oracle.weight_q(w) for w in spans[outer] if any(w))
            if d_outer >= inner.designed_distance_bound:
                walked |= {cheaper_side(outer), cheaper_side(inner)}
            assert report.enumerated == scanned + sum(messages(c) for c in walked)


@pytest.mark.parametrize("n,q", [(8, 3), (13, 3), (9, 4), (15, 4), (6, 5), (8, 7), (7, 8),
                                 (10, 9), (5, 16)])
def test_plane_kernel_against_brute_force_span(n, q, monkeypatch):
    real_walk = asymqec.weights._plane_walk
    calls = []

    def recording_walk(starts, rows, length, field, counts, cap, lb=-1):
        starts, before = list(starts), list(counts)
        walked = real_walk(starts, rows, length, field, counts, cap, lb)
        calls.append((starts, list(rows), walked, [a - b for a, b in zip(counts, before)]))
        return walked

    monkeypatch.setattr(asymqec.weights, "_plane_walk", recording_walk)
    for code in all_cyclic_codes(n, q):
        if code.k == 0 or q**code.k > 4**6:
            continue
        field, rows = code.field, generator_matrix(code).rows
        width = asymqec.weights._lane_bits(field.p)

        def unpack(word):
            return oracle.unpack_planes(word, n, field, width)

        def walked_words(starts, walk_rows):
            return [w for start in starts
                    for w in oracle.combinations(unpack(start), [unpack(r) for r in walk_rows],
                                                 field)]

        # the scan visits each projective class once: every recorded walk is
        # its one start plus every GF(p) combination of its rows, with the
        # weights it counted
        calls.clear()
        asymqec.weights._plane_scan(code, [0] * (n + 1), asymqec.weights._INF)
        visited = Counter()
        for starts, walk_rows, walked, added in calls:
            assert len(starts) == 1
            words = walked_words(starts, walk_rows)
            assert walked == len(words)
            histogram = Counter(oracle.weight_q(w) for w in words)
            assert added == [histogram[w] for w in range(n + 1)]
            visited.update(words)
        assert visited == Counter(oracle.projective_classes(rows, field))
        words = oracle.span_q(rows, n, field)
        expected = tuple(sorted(Counter(oracle.weight_q(w) for w in words).items()))
        fresh()
        assert min_weight(code).value == expected[1][0]
        assert weight_distribution(code) == expected
        lead = asymqec.weights._lead(code)
        calls.clear()
        assert asymqec.weights._distribution_split(code, lead) == expected
        # the split walks every orbit representative's fiber in one call
        (starts, walk_rows, walked, added), *_ = calls
        assert starts == list(asymqec.weights._orbit_representatives(n, q, lead))
        words = walked_words(starts, walk_rows)
        assert walked == len(words)
        histogram = Counter(oracle.weight_q(w) for w in words)
        assert added == [histogram[w] for w in range(n + 1)]


def test_lanes_match_the_division_formula():
    # the shapes of `_guards` (2^L - p and the guard bit 2^L in lanes of L + 1
    # bits), of low bits of a wider lane (the byte ones of `bitslice.walk`) and
    # of the lane patterns (the upper half of a lane)
    for width in range(1, 10):
        values = {1 << width - 1, *((1 << k) - 1 for k in range(1, width + 1))}
        values |= {(1 << width - 1) - p for p in range(3, 1 << width, 2)
                   if asymqec.weights._lane_bits(p) == width}
        if width % 2 == 0:
            values.add(((1 << width // 2) - 1) << width // 2)
        for lanes in range(1, 65):
            for value in values:
                assert asymqec.bitslice.lanes(lanes, width, value) == (
                    value * ((1 << lanes * width) - 1) // ((1 << width) - 1)), (lanes, width, value)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 256])
@pytest.mark.parametrize("n", [1, 7, 64, 127, 255])
def test_sliced_walk_matches_the_word_walk(n, q, monkeypatch):
    weights = asymqec.weights
    field = make_field(2, q.bit_length() - 1)
    m, rng = field.m, random.Random(1000 * q + n)
    top = (1 << m * n) - 1
    for count in (weights._SLICE_MIN - 1, weights._SLICE_MIN, weights._SLICE_MAX,
                  weights._SLICE_MAX + 3):  # the last walks outer words
        rows = [rng.getrandbits(m * n) for _ in range(count)]
        for starts in ([0], [top], [rng.getrandbits(m * n)],
                       [0, top, rng.getrandbits(m * n), rng.getrandbits(m * n)]):
            sliced, by_word = [0] * (n + 1), [0] * (n + 1)
            monkeypatch.setattr(weights, "_SLICE_MIN", 0)
            walked = weights._plane_walk(starts, rows, n, field, sliced, weights._INF)
            monkeypatch.setattr(weights, "_SLICE_MIN", 1 << 20)
            assert walked == weights._plane_walk(starts, rows, n, field, by_word, weights._INF)
            monkeypatch.undo()
            assert sliced == by_word, (count, starts)
            if (1 << count) * count * n <= 1 << 17:
                unpacked = [oracle.unpack_planes(r, n, field, 1) for r in rows]
                histogram = Counter(
                    oracle.weight_q(w) for start in starts
                    for w in oracle.combinations(oracle.unpack_planes(start, n, field, 1),
                                                 unpacked, field))
                assert sliced == [histogram[w] for w in range(n + 1)]


@pytest.mark.parametrize("n,q", [(31, 2), (15, 4), (21, 4), (9, 8), (15, 16)])
def test_reports_do_not_depend_on_the_lanes(n, q, monkeypatch):
    # every code whose cheaper side has at most 2^16 words
    codes = [from_defining_set(n, q, mask_residues(mask))
             for mask in coset_unions(cyclotomic_cosets(n, q))
             if q ** min(mask.bit_count(), n - mask.bit_count()) <= 1 << 16]

    def reports():
        fresh()
        return [(min_weight(c)[:3] if c.k else None, weight_distribution(c)) for c in codes]

    sliced = reports()
    monkeypatch.setattr(asymqec.weights, "_SLICE_MIN", 1 << 20)
    assert reports() == sliced
    fresh()


@pytest.mark.parametrize("descriptor", ["bch:n=127,q=2,delta=7", "rs:q=16,delta=5"])
def test_full_walks_take_the_lanes(descriptor, monkeypatch, capsys):
    real, calls = asymqec.bitslice.walk, []

    def counting_walk(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(asymqec.bitslice, "walk", counting_walk)
    fresh()
    assert cli.main(["code", descriptor, "--format", "json"]) == 0
    capsys.readouterr()
    assert calls
    fresh()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("m", [1, 2])
def test_lane_addition_at_its_boundary(p, m):
    # the walk from [top, a, top] along the row [top, b, top] for every pair of
    # elements, top the largest element (p - 1 in every plane): each step is the
    # walk's inline lane addition, and a carry out of a lane or a lane left at p
    # or above changes which lanes read as nonzero
    weights = asymqec.weights
    field = make_field(p, m)
    n, top, width = 3, field.q - 1, weights._lane_bits(p)
    # the oracle's walk of [top, a, top] is its walk of [a] between two of [top]
    corners = oracle.combinations((top,), [(top,)], field)
    for a in range(field.q):
        start = weights._pack(n, field, [top, a, top])
        assert oracle.unpack_planes(start, n, field, width) == (top, a, top)
        for b in range(field.q):
            row, counts = weights._pack(n, field, [top, b, top]), [0] * (n + 1)
            assert weights._plane_walk([start], [row], n, field, counts, weights._INF) == p
            middles = oracle.combinations((a,), [(b,)], field)
            histogram = Counter(2 * oracle.weight_q(c) + oracle.weight_q(x)
                                for c, x in zip(corners, middles))
            assert counts == [histogram[w] for w in range(n + 1)], (a, b)


@pytest.mark.parametrize("field", ORACLE_FIELDS + [
    make_field(2, 4), make_field(2, 5), make_field(3, 3), make_field(5, 2), make_field(13),
    make_field(17), make_field(2, 9),  # the last two: a lane too wide for int(), q > 256
], ids=repr)
@pytest.mark.parametrize("n", [1, 7, 64, 255])
def test_pack_matches_the_digit_expression(field, n):
    p, width = field.p, asymqec.weights._lane_bits(field.p)
    rng = random.Random(n * field.q)
    words = [[field.q - 1] * n, [0] * n] + [[rng.randrange(field.q) for _ in range(n)]
                                          for _ in range(20)]
    for word in words + [word[:n // 2] for word in words]:  # a generator's g is shorter than n
        expected = sum(x // p**c % p << (c * n + j) * width
                       for j, x in enumerate(word) for c in range(field.m))
        assert asymqec.weights._pack(n, field, word) == expected
        assert asymqec.weights._pack(n, field, iter(word)) == expected


def test_split_of_a_large_odd_lead_ideal():
    # [46,12]_3 with nonzeros {0} and the coset of 1: its lead ideal has
    # d = 11, 3^11 words in 3,851 orbits of 46
    code = from_defining_set(46, 3, set(range(46)) - {0} - set(coset_of(46, 3, 1).members))
    lead = asymqec.weights._lead(code)
    assert (code.k, lead.representative, len(lead.members)) == (12, 1, 11)
    fresh()
    assert len(asymqec.weights._orbit_representatives(46, 3, lead)) == 3851
    counts = [0] * 47
    asymqec.weights._plane_scan(code, counts, asymqec.weights._INF)
    counts = [2 * c for c in counts]
    counts[0] = 1
    expected = tuple((w, c) for w, c in enumerate(counts) if c)
    assert asymqec.weights._distribution_split(code, lead) == expected
    fresh()


@pytest.mark.parametrize("n,q", [(31, 2), (13, 3), (9, 4)])
def test_min_weight_walks_at_most_twice_the_cheaper_side(n, q):
    fresh()
    for code in all_cyclic_codes(n, q):
        if code.k == 0:
            continue
        report = min_weight(code)
        dist = weight_distribution(code)
        assert report.value == dist[1][0]
        cheaper = messages(cheaper_side(code))
        # the scan decides within the cheaper side's count, or it walked
        # exactly that many messages and the distribution walked as many again
        assert report.enumerated <= cheaper or report.enumerated == 2 * cheaper


def test_min_weight_counts_scan_and_distribution_exactly():
    # [13,10,3]_3: designed bound 2 is never met, so all 13 messages of the
    # cheaper (dual) side are scanned, then the dual's 13 classes are walked
    for warm in (False, True):
        if not warm:
            fresh()
        report = min_weight(hamming(3, 3))
        assert (report.value, report.method, report.enumerated) == (3, "exhaustive", 26)


def test_min_weight_rejects_a_distribution_below_the_designed_bound():
    code = hamming(3, 3)  # [13,10,3]_3, designed bound 2: the scan never settles it
    fresh()
    # a corrupt distribution of the cheaper (dual) side with two weight-1 words
    asymqec.weights._DIST_CACHE[code] = ([1, 2, 0, 3**10 - 3] + [0] * 10, code.dual())
    with pytest.raises(InternalConsistencyError, match="below the proven lower bound"):
        min_weight(code)
    fresh()


def test_min_weight_difference_rejects_inconsistent_distributions():
    outer = bch(15, 2, 3)  # [15,11,3]
    inner = from_defining_set(15, 2, {1, 2, 4, 5, 8, 10})  # [15,9], designed bound 3
    fresh()
    assert min_weight(outer).value >= inner.designed_distance_bound  # no shortcut
    a_outer = dict(weight_distribution(outer))
    # inner claims more weight-3 words than the outer code that contains it
    corrupt = tuple((w, a_outer[3] + 1 if w == 3 else c)
                    for w, c in weight_distribution(inner))
    asymqec.weights._DIST_CACHE[inner] = ([dict(corrupt).get(w, 0) for w in range(16)], inner)
    with pytest.raises(InternalConsistencyError, match="does not fit"):
        min_weight_difference(outer, inner)
    fresh()
