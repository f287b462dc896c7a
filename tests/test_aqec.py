"""CSS derivations, extension routes, subsystem codes, trading rules."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

import oracle
from asymqec import aqec, weights
from asymqec.aqec import (
    aqec_to_subsystem,
    build_stabilizer_matrix,
    check_css_commutativity,
    correction_capability,
    css_aqec,
    extend_by_defining_set,
    extend_by_polynomial,
    subsystem_euclidean,
    subsystem_to_stabilizer,
    trade_dimension,
)
from asymqec.cyclic import (
    CheckMatrix,
    CyclicCode,
    bch,
    from_defining_set,
    generator_matrix,
    roots_of,
)
from asymqec.errors import NotNested
from asymqec.galois import (
    clear_modulus_overrides,
    make_field,
    nth_root_field,
    prime_power,
    subfield_embedding,
)
from asymqec.polyring import (
    coset_of,
    coset_unions,
    cyclotomic_cosets,
    mask_residues,
    minimal_polynomial,
    parse_poly,
)
from asymqec.search import ROUTES, all_cyclic_codes, search

F2 = make_field(2)
HAM15 = bch(15, 2, 3)
BCH15_5 = bch(15, 2, 5)


def test_css_row1():
    params = css_aqec(HAM15, BCH15_5)
    assert params.label() == "[[15,3,5/3]]_2"
    assert params.k == 3
    assert params.pure is True
    assert params.dz.method == params.dx.method == "exhaustive"
    assert any("[[15,3,3]]_2" in note for note in params.notes)  # symmetric corollary


def test_css_steane():
    params = css_aqec(bch(7, 2, 3), bch(7, 2, 3))
    assert params.label() == "[[7,1,3/3]]_2"
    assert params.dz.value == params.dx.value == 3
    assert params.pure is True


def test_css_zero_logical_dimension():
    c2 = BCH15_5
    params = css_aqec(c2.dual(), c2)
    assert params.label() == "[[15,0,5/4]]_2"
    assert params.k == 0


@pytest.mark.parametrize("d1,d2,expected", [
    (5, 7, "[[31,6,7/5]]_2"),
    (3, 7, "[[31,11,7/3]]_2"),
    (3, 11, "[[31,6,11/3]]_2"),
    (3, 15, "[[31,1,15/3]]_2"),
])
def test_css_n31_families(d1, d2, expected):
    params = css_aqec(bch(31, 2, d1), bch(31, 2, d2))
    assert params.label() == expected
    assert params.pure is True


def test_css_requires_nesting_and_matching_codes():
    # dual([15,7,5]) has dimension 8 and cannot sit inside the [15,4] simplex
    with pytest.raises(NotNested):
        css_aqec(HAM15.dual(), BCH15_5)
    with pytest.raises(ValueError, match="mismatched"):
        css_aqec(HAM15, bch(7, 2, 3))


def test_css_swapped_roles_same_unordered_distances():
    forward = css_aqec(HAM15, BCH15_5)
    # the reverse nesting holds too for this pair
    swapped = css_aqec(BCH15_5, HAM15)
    assert {forward.dz.value, forward.dx.value} == {swapped.dz.value, swapped.dx.value}
    assert forward.k == swapped.k
    assert forward.dz.value >= forward.dx.value


def test_css_monotonicity_enlarging_c2perp():
    # growing the partner's dual inside C1 never increases the logical dimension
    base = css_aqec(HAM15, BCH15_5)            # C2-dual = [15,8]
    grown = css_aqec(HAM15, HAM15.dual())      # C2-dual = [15,11] = C1 itself
    assert BCH15_5.dual().k < HAM15.k
    assert grown.k <= base.k
    assert grown.k == 0


def test_css_bound_only_n127():
    params = css_aqec(bch(127, 2, 5), bch(127, 2, 15))
    assert params.k == 64
    assert params.dz.method == "bound-only" and params.dz.value == 15
    assert params.dx.method == "bound-only" and params.dx.value == 5
    assert params.pure is None
    assert params.label() == "[[127,64,>=15/>=5]]_2"


def test_build_stabilizer_matrix():
    hx, hz = build_stabilizer_matrix(HAM15, BCH15_5)
    assert hx.row_count == 4 and hz.row_count == 8
    assert hx.role == hz.role == "parity"
    assert check_css_commutativity(hx, hz)
    with pytest.raises(NotNested):
        build_stabilizer_matrix(HAM15.dual(), BCH15_5)


def test_commutativity_counterexample_and_empty():
    bad = CheckMatrix(F2, 3, ((1, 1, 0), (0, 1, 1)), "parity")
    assert not check_css_commutativity(bad, bad)
    empty = CheckMatrix(F2, 3, (), "parity")
    assert check_css_commutativity(bad, empty)
    with pytest.raises(ValueError, match="column"):
        check_css_commutativity(bad, CheckMatrix(F2, 4, ((1, 0, 0, 1),), "parity"))


def test_stabilizer_blocks_commute_for_all_nested_pairs_n7_n15():
    for n in (7, 15):
        codes = all_cyclic_codes(n, 2)
        for c1, c2 in itertools.product(codes, repeat=2):
            if c1.contains(c2.dual()):
                hx, hz = build_stabilizer_matrix(c1, c2)
                assert check_css_commutativity(hx, hz)


def test_extend_by_polynomial_hamming():
    f = minimal_polynomial(15, 2, coset_of(15, 2, 3))
    c2, params = extend_by_polynomial(HAM15, f)
    assert c2 == BCH15_5.dual()
    assert params.k == 4  # = deg f
    assert params.label() == "[[15,4,4/3]]_2"
    assert params.route == "extend-poly"
    assert any("2k-b-n = 3" in note and "2k+b-n = 11" in note for note in params.notes)


def test_extend_by_polynomial_x_plus_1():
    c2, params = extend_by_polynomial(bch(7, 2, 3), parse_poly("x + 1", F2))
    assert params.k == 1
    assert c2.dual().T.sorted_members == (0, 1, 2, 4)  # even-weight subcode


def test_extend_by_polynomial_errors():
    with pytest.raises(ValueError, match="does not divide"):
        extend_by_polynomial(HAM15, parse_poly("x^4 + x + 1", F2))  # g1's own factor
    with pytest.raises(ValueError, match="degree"):
        extend_by_polynomial(HAM15, parse_poly("1", F2))
    gf4_code = from_defining_set(5, 4, {1, 4})
    non_monic = parse_poly("a*x + a", make_field(2, 2))  # a*(x + 1)
    with pytest.raises(ValueError, match="monic"):
        extend_by_polynomial(gf4_code, non_monic)


@pytest.mark.parametrize("n,q", [(15, 2), (21, 2), (8, 3), (9, 4), (7, 8)])
def test_roots_of_matches_evaluation_at_every_residue(n, q):
    ext, alpha = nth_root_field(n, q)
    embed, _ = subfield_embedding(make_field(*prime_power(q)), ext)
    for mask in coset_unions(cyclotomic_cosets(n, q)):
        if not mask:
            continue
        code = from_defining_set(n, q, mask_residues(mask))
        f = code.generator_polynomial
        expected = set()
        for i in range(n):  # Horner at alpha^i by plain field calls
            x, acc = ext.pow_i(alpha.value, i), 0
            for c in reversed(f.coeffs):
                acc = ext.add_i(ext.mul_i(acc, x), embed[c])
            if acc == 0:
                expected.add(i)
        assert expected == code.T.members
        assert roots_of(f, n) == expected


def test_extend_by_defining_set_example():
    c2, params = extend_by_defining_set(HAM15, {3, 6, 9, 12})
    assert c2.T.sorted_members == (0, 1, 2, 4, 5, 8, 10)
    assert c2.k == 8
    assert c2.dual() == BCH15_5
    assert params.k == 4
    assert params.route == "extend-set"


def test_extend_by_defining_set_empty_block():
    c2, params = extend_by_defining_set(HAM15, set())
    assert c2 == HAM15.dual()
    assert params.k == 0


def test_extend_by_defining_set_errors():
    with pytest.raises(ValueError, match="admissible"):
        extend_by_defining_set(HAM15, {7, 11, 13, 14})  # inside neither allowed coset
    with pytest.raises(ValueError, match="not closed"):
        extend_by_defining_set(HAM15, {3})


def test_cross_route_equality_all_admissible_blocks():
    c1 = HAM15
    allowed_cosets = [coset_of(15, 2, s) for s in (0, 3, 5)]
    for size in range(1, 4):
        for chosen in itertools.combinations(allowed_cosets, size):
            members = set()
            f = None
            for coset in chosen:
                members.update(coset.members)
                mp = minimal_polynomial(15, 2, coset)
                f = mp if f is None else f * mp
            c2_set, p_set = extend_by_defining_set(c1, members)
            c2_poly, p_poly = extend_by_polynomial(c1, f)
            assert c2_set == c2_poly
            assert (p_set.n, p_set.k, p_set.dz.value, p_set.dx.value) == \
                   (p_poly.n, p_poly.k, p_poly.dz.value, p_poly.dx.value)


def test_correction_capability():
    params = css_aqec(HAM15, BCH15_5)
    cap = correction_capability(params)
    assert (cap.t_x, cap.t_z, cap.exact) == (1, 2, True)
    bound = css_aqec(bch(127, 2, 5), bch(127, 2, 15))
    cap = correction_capability(bound)
    assert not cap.exact
    assert (cap.t_x, cap.t_z) == (2, 7)


def test_aqec_to_subsystem():
    params = css_aqec(HAM15, BCH15_5)
    sub = aqec_to_subsystem(params, 2)
    assert sub.label() == "[[15,1,2,5/3]]_2"
    assert aqec_to_subsystem(params, 0).label() == "[[15,3,0,5/3]]_2"
    with pytest.raises(ValueError, match="out of range"):
        aqec_to_subsystem(params, 4)


def test_subsystem_euclidean_15_7_5():
    first, swapped = subsystem_euclidean(BCH15_5)
    assert first.label() == "[[15,4,3,4/3]]_2"
    assert swapped.label() == "[[15,3,4,4/3]]_2"
    k2 = first.c2.k
    assert first.k == 15 - (BCH15_5.k + k2)
    assert first.r == BCH15_5.k - k2
    assert first.k + first.r + 2 * k2 == 15
    assert (swapped.k, swapped.r) == (first.r, first.k)


def test_subsystem_euclidean_degenerate_dual_containing():
    first, swapped = subsystem_euclidean(bch(7, 2, 3))
    assert (first.k, first.r) == (0, 1)
    assert (swapped.k, swapped.r) == (1, 0)


def test_subsystem_euclidean_trivial_intersection():
    # T={0}: the even-weight-sum code of length 7; C1 ^ C1-dual = 0 here
    c1 = from_defining_set(7, 2, {0})
    first, swapped = subsystem_euclidean(c1)
    assert first.c2.k == 0
    assert (first.k, first.r) == (7 - c1.k, c1.k)


def test_subsystem_distances_match_symplectic_product_route():
    # Exhaustive dual route at n=7: the subsystem distances equal the extremal
    # symplectic weights over pairs from the product construction,
    #   dz/dx = max/min over (C2-dual x C2-dual) \ (C1 x C1)
    #           and (C1-dual x C1-dual) \ (C2 x C2).
    from asymqec.weights import symplectic_weight

    c1 = from_defining_set(7, 2, {0})  # even-weight code, trivial self-intersection
    first, _ = subsystem_euclidean(c1)
    c2 = first.c2
    assert c2.k == 0

    def words(code):
        out = []
        for v in range(128):
            vec = tuple((v >> i) & 1 for i in range(7))
            if code.is_codeword(vec):
                out.append(vec)
        return out

    def min_swt_difference(outer, excluded):
        outer_words, excl = words(outer), set(words(excluded))
        return min(
            symplectic_weight(a, b)
            for a in outer_words
            for b in outer_words
            if not (a in excl and b in excl)
        )

    side_a = min_swt_difference(c2.dual(), c1)
    side_b = min_swt_difference(c1.dual(), c2)
    assert first.dx.value == min(side_a, side_b)
    assert first.dz.value == max(side_a, side_b)


def test_trade_dimension_chain():
    first, _ = subsystem_euclidean(BCH15_5)
    total = first.k + first.r
    current = first
    while current.k > 1:
        nxt = trade_dimension(current)
        assert nxt.k + nxt.r == total
        assert (nxt.k, nxt.r) == (current.k - 1, current.r + 1)
        assert nxt.dz.method == nxt.dx.method == "bound-only"
        assert (nxt.dz.value, nxt.dx.value) == (current.dz.value, current.dx.value)
        current = nxt
    with pytest.raises(ValueError, match="k > 1"):
        trade_dimension(current)


def test_subsystem_to_stabilizer():
    _, swapped = subsystem_euclidean(BCH15_5)
    assert swapped.pure is True
    promoted = subsystem_to_stabilizer(swapped)
    assert promoted.label() == "[[15,7,4/3]]_2"
    assert promoted.k == swapped.k + swapped.r
    impure = trade_dimension(swapped)  # purity unknown after trading
    with pytest.raises(ValueError, match="pure"):
        subsystem_to_stabilizer(impure)
    # r = 0 input comes back with unchanged parameters
    params = css_aqec(HAM15, BCH15_5)
    zero_gauge = aqec_to_subsystem(params, 0)
    again = subsystem_to_stabilizer(zero_gauge)
    assert (again.n, again.k, again.dz, again.dx) == (params.n, params.k, params.dz, params.dx)


def test_three_way_dimension_agreement_runs_on_all_nested_pairs_n15():
    codes = all_cyclic_codes(15, 2)
    for c1, c2 in itertools.product(codes, repeat=2):
        if 0 in (c1.k, c2.k):
            continue  # the zero/full boundary pairs have no weighable difference
        if c1.contains(c2.dual()):
            params = css_aqec(c1, c2, budget=1 << 16)
            assert params.k == c1.k + c2.k - 15
            assert params.dz.value >= params.dx.value


def test_dz_dx_ordering_exact_pairs():
    params = css_aqec(bch(31, 2, 3), bch(31, 2, 11))
    assert params.dz.value == 11 and params.dx.value == 3


def test_css_mixed_exactness_orders_by_value_and_drops_false_corollary():
    # the C1 side is exact (6) while the C2 side degrades to its bound (2)
    c1 = from_defining_set(15, 2, {0, 1, 2, 3, 4, 6, 8, 9, 12})
    c2 = from_defining_set(15, 2, {5, 10})
    params = css_aqec(c1, c2, budget=4096)
    assert params.label() == "[[15,4,>=6/>=2]]_2"
    assert params.dz.method == params.dx.method == "bound-only"
    assert not any("corollary" in note for note in params.notes)
    full = css_aqec(c1, c2)
    assert full.label() == "[[15,4,6/2]]_2"
    assert "symmetric stabilizer corollary [[15,4,2]]_2" in full.notes
    # on a tie the exact side is dx: an exact 2 is the true minimum
    tie = css_aqec(from_defining_set(15, 2, {3, 6, 9, 12}), c2, budget=4096)
    assert tie.label() == "[[15,9,>=2/2]]_2"
    assert "symmetric stabilizer corollary [[15,9,2]]_2" in tie.notes


def test_subsystem_mixed_exactness_marks_dz_as_bound():
    c1 = from_defining_set(13, 3, {0, 1, 3, 9})
    first, swapped = subsystem_euclidean(c1, budget=256)
    assert first.label() == "[[13,1,6,>=7/>=2]]_3"
    assert swapped.label() == "[[13,6,1,>=7/>=2]]_3"
    assert subsystem_euclidean(c1)[0].label() == "[[13,1,6,7/3]]_3"


def _check_ordering_rule(small, full):
    assert small.dz.value >= small.dx.value
    assert small.dx.is_exact or not small.dz.is_exact
    assert full.dz.is_exact and full.dx.is_exact
    for side, truth in ((small.dz, full.dz), (small.dx, full.dx)):
        assert side.value == truth.value if side.is_exact else side.value <= truth.value


def test_ordering_rule_holds_for_every_derivation_n15_at_small_budget():
    codes = all_cyclic_codes(15, 2)
    budget = 1 << 12
    checked = 0
    for c1, c2 in itertools.product(codes, repeat=2):
        if c1.k == 0 or c2.k == 0 or not c1.contains(c2.dual()):
            continue
        small, full = css_aqec(c1, c2, budget), css_aqec(c1, c2)
        _check_ordering_rule(small, full)
        corollary = [note for note in small.notes if "corollary" in note]
        assert corollary == (list(full.notes) if small.dx.is_exact else [])
        checked += 1
    for c1 in codes:
        if c1.k in (0, 15):
            continue
        for small, full in zip(subsystem_euclidean(c1, budget), subsystem_euclidean(c1)):
            _check_ordering_rule(small, full)
            checked += 1
    assert checked > 250


@pytest.mark.parametrize("n,q", [(15, 2), (8, 3), (5, 4)])
def test_css_distances_against_brute_force_set_differences(n, q, monkeypatch):
    codes = [c for c in all_cyclic_codes(n, q) if q**c.k <= 4**6]
    spans = {c: oracle.span_q(generator_matrix(c).rows, n, c.field) for c in codes}

    def lightest(words):
        return min(oracle.weight_q(w) for w in words if any(w))

    read = []
    real = weights._distribution

    def spy(code):
        read.append(code)
        return real(code)

    monkeypatch.setattr(weights, "_distribution", spy)
    paths = Counter()
    for c1, c2 in oracle.css_pairs(codes):
        weights._clear_caches()
        read.clear()
        params = css_aqec(c1, c2)
        sides = []
        for outer, inner in ((c1, c2.dual()), (c2, c1.dual())):
            # an empty difference (k = 0) reports the whole outer code
            sides.append(lightest(spans[outer] - spans[inner] or spans[outer]))
            if 0 < inner.k < outer.k:
                if lightest(spans[outer]) < inner.designed_distance_bound:
                    paths["lemma"] += 1
                else:
                    assert inner in read
                    paths["distribution"] += 1
        assert (params.dz.value, params.dx.value) == (max(sides), min(sides))
        assert params.dz.is_exact and params.dx.is_exact
    assert paths["lemma"] and paths["distribution"]


def _derived_against_brute_force(n, q):
    """(route, params, brute-force (dz, dx)) of every extend-poly, extend-set and
    subsystem derivation at (n, q) whose four codes have at most 4^6 words:
    the brute-force sides are the lightest words of span(outer) minus
    span(inner) for the derivation's two nested pairs."""
    codes = all_cyclic_codes(n, q)
    spans = {c: oracle.span_q(generator_matrix(c).rows, n, c.field)
             for c in codes if q**c.k <= 4**6}
    cosets = cyclotomic_cosets(n, q)

    def brute(pairs):
        if not all(c in spans for pair in pairs for c in pair):
            return None
        sides = [min(oracle.weight_q(w) for w in spans[outer] - spans[inner] or spans[outer]
                     if any(w)) for outer, inner in pairs]
        return max(sides), min(sides)

    for c1 in codes:
        if c1.k == 0:
            continue
        c1perp = c1.dual()
        # f: the generator of a nonzero-degree code whose roots avoid T(C1)
        for other in codes:
            if other.k < n and not other.T.members & c1.T.members:
                c2, params = extend_by_polynomial(c1, other.generator_polynomial)
                yield "extend-poly", params, brute(((c1, c2.dual()), (c2, c1perp)))
        allowed = [c for c in cosets if c.representative in c1perp.T.members - c1.T.members]
        for mask in coset_unions(allowed):
            if mask:
                c2, params = extend_by_defining_set(c1, mask_residues(mask))
                yield "extend-set", params, brute(((c1, c2.dual()), (c2, c1perp)))
        if c1.k < n:
            first, swapped = subsystem_euclidean(c1)
            outer = first.c2.dual()
            truth = brute(((outer, c1), (c1perp, first.c2)))
            yield "subsystem", first, truth
            yield "subsystem", swapped, truth


@pytest.mark.parametrize("n,q", [(8, 3), (5, 4), (9, 4)])
def test_extension_and_subsystem_distances_against_brute_force_set_differences(n, q):
    checked = Counter()
    for route, params, truth in _derived_against_brute_force(n, q):
        if truth is None:
            continue
        assert (params.dz.value, params.dx.value) == truth, (route, params.label())
        assert params.dz.is_exact and params.dx.is_exact
        checked[route] += 1
    assert set(checked) == {"extend-poly", "extend-set", "subsystem"}, checked


def test_each_derivation_checks_nesting_once(monkeypatch):
    pairs = oracle.css_pairs(all_cyclic_codes(15, 2)) + oracle.css_pairs(all_cyclic_codes(8, 3))
    calls = []
    real = CyclicCode.contains

    def counting(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(CyclicCode, "contains", counting)
    for c1, c2 in pairs:
        calls.clear()
        css_aqec(c1, c2)
        assert calls == [(c1, c2.dual())]
    for c1, _ in pairs:
        if c1.k < c1.n:
            calls.clear()
            subsystem_euclidean(c1)
            assert len(calls) == 1


def _cold_css(c1, c2, *args, **kwargs):
    clear_modulus_overrides()
    return css_aqec(c1, c2, *args, **kwargs)


#: a [[15,5,3/3]]_2 pair whose two sides tie at 3 but count 9 and 1 words
TIED = from_defining_set(15, 2, {1, 2, 4, 5, 8, 10}), from_defining_set(15, 2, {1, 2, 4, 8})


@pytest.mark.parametrize("n,q", [(15, 2), (8, 3), (9, 4), (7, 8)])
def test_a_mirror_reads_its_pairs_sides_and_matches_a_cold_derivation(n, q):
    pairs = oracle.css_pairs(all_cyclic_codes(n, q))
    if n == 15:
        assert TIED in pairs
    for c1, c2 in pairs:
        expected = _cold_css(c2, c1)
        clear_modulus_overrides()
        css_aqec(c1, c2)
        assert list(weights._PAIR_CACHE) == [(c1, c2, weights.DEFAULT_BUDGET)]
        # whole records: each side's method and enumerated count included
        assert css_aqec(c2, c1) == expected
        assert not weights._PAIR_CACHE


def test_a_tied_pair_and_its_mirror_order_their_own_sides():
    c1, c2 = TIED
    first = _cold_css(c1, c2)
    mirror = css_aqec(c2, c1)
    assert first.label() == mirror.label() == "[[15,5,3/3]]_2"
    assert (first.dz.enumerated, first.dx.enumerated) == (1, 9)
    assert (mirror.dz.enumerated, mirror.dx.enumerated) == (9, 1)
    assert mirror == _cold_css(c2, c1)


def test_the_pair_cache_is_keyed_by_budget():
    c1, c2 = TIED
    small = _cold_css(c1, c2, 16)
    assert small.dz.method == small.dx.method == "bound-only" and small.pure is None
    mirror = css_aqec(c2, c1)  # at the default budget: the entry is not its own
    assert list(weights._PAIR_CACHE) == [(c1, c2, 16), (c2, c1, weights.DEFAULT_BUDGET)]
    assert mirror.pure is True and mirror == _cold_css(c2, c1)


@pytest.mark.parametrize("route", ROUTES)
def test_purity_is_reported_past_length_31_from_cached_facts(route, monkeypatch):
    """At n = 33 every record whose two sides are exact says whether it is
    pure, and deciding it adds no entry to either per-code weight cache."""
    sizes = []
    evaluate = aqec._evaluate_purity

    def counted(*args):
        before = len(weights._MIN_CACHE), len(weights._DIST_CACHE)
        pure = evaluate(*args)
        sizes.append((before, (len(weights._MIN_CACHE), len(weights._DIST_CACHE))))
        return pure

    monkeypatch.setattr(aqec, "_evaluate_purity", counted)
    clear_modulus_overrides()
    records = search(33, 2, route)
    assert records and sizes
    assert all(before == after for before, after in sizes)
    exact = [p for p in records if p.dz.is_exact and p.dx.is_exact]
    assert all(p.pure is not None for p in exact)
    if route != "subsystem":  # no subsystem record at (33, 2) has two exact sides
        assert exact


def test_the_pair_cache_is_emptied_with_the_weight_caches():
    for clear in (weights._clear_caches, clear_modulus_overrides):
        _cold_css(*TIED)
        assert weights._PAIR_CACHE
        clear()
        assert not weights._PAIR_CACHE


def test_a_css_search_leaves_only_the_pairs_that_are_their_own_mirror():
    clear_modulus_overrides()
    search(15, 2, "css")
    left = list(weights._PAIR_CACHE)
    assert len(left) == 3 and all(c1 == c2 for c1, c2, _ in left)


class _Forgetful(dict):
    """A pair cache that stores nothing, so every derivation computes its sides."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("n,q", [(15, 2), (21, 2), (8, 3), (9, 4), (7, 8)])
def test_a_subsystem_search_leaves_the_pair_cache_empty(n, q, monkeypatch):
    """No subsystem search derives its pairs' mirrors, so it keeps no entry,
    and its records (enumerated counts included) are those of a search that
    caches no pair at all."""
    clear_modulus_overrides()
    records = search(n, q, "subsystem")
    assert records and not weights._PAIR_CACHE
    clear_modulus_overrides()
    monkeypatch.setattr(aqec, "_PAIR_CACHE", _Forgetful())
    assert repr(search(n, q, "subsystem")) == repr(records)


def test_non_nested_pairs_raise_not_nested_on_every_route():
    checked = 0
    for n, q in ((15, 2), (8, 3)):
        codes = [c for c in all_cyclic_codes(n, q) if c.k]
        for c1, c2 in itertools.product(codes, repeat=2):
            if c1.contains(c2.dual()):
                continue
            with pytest.raises(NotNested):
                css_aqec(c1, c2)
            with pytest.raises(NotNested):
                build_stabilizer_matrix(c1, c2)
            for outer, inner in ((c1, c2.dual()), (c2, c1.dual())):
                with pytest.raises(NotNested):
                    weights.min_weight_difference(outer, inner)
            checked += 1
    assert checked > 100
