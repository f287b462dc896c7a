"""Cyclic-code calculus: construction, duals, containment, matrices, descriptors."""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

import oracle
from asymqec import cyclic
from asymqec.cyclic import (
    CheckMatrix,
    CyclicCode,
    DefiningSet,
    bch,
    code_sum,
    consecutive_run_bound,
    consecutive_run_bound_mask,
    contains,
    from_defining_set,
    full_space,
    generator_matrix,
    hamming,
    intersect,
    parity_check_matrix,
    parse_code,
    parse_residue_set,
    product_is_zero,
    repetition,
    rs,
    zero_code,
)
from asymqec.errors import InternalConsistencyError
from asymqec.galois import clear_modulus_overrides, field_of_size, make_field
from asymqec.polyring import (
    Polynomial,
    coset_of,
    coset_unions,
    cyclotomic_cosets,
    factor_xn_minus_1,
    mask_residues,
    parse_poly,
    render_poly,
)
from asymqec.search import all_cyclic_codes

F2 = make_field(2)


def test_from_defining_set_examples():
    code = from_defining_set(15, 2, {1, 2, 4, 8})
    assert (code.n, code.k) == (15, 11)
    assert render_poly(code.generator_polynomial) == "x^4 + x + 1"
    assert from_defining_set(15, 2, {1, 2, 3, 4, 6, 8, 9, 12}).k == 7
    free = from_defining_set(9, 2, ())
    assert free.k == 9 and render_poly(free.generator_polynomial) == "1"


def test_non_closed_defining_set_rejected():
    with pytest.raises(ValueError) as err:
        from_defining_set(15, 2, {1, 2, 3})
    assert "not closed" in str(err.value)
    assert "coset" in str(err.value)
    # one text for every container and spelling of the residues
    message = ("defining set is not closed under multiplication by 2 mod 15: residue 3 needs "
               "its whole coset {3,6,9,12}, missing [12]")
    for spell in (frozenset, tuple, list, set):
        for members in ([3, 6, 9], [-12, 21, 9], [3, 3, 6, 9, 24]):
            for build in (from_defining_set, DefiningSet.closed):
                with pytest.raises(ValueError) as err:
                    build(15, 2, spell(members))
                assert str(err.value) == message


@pytest.mark.parametrize("n,q", [(7, 2), (9, 2), (8, 3), (10, 3), (9, 4)])
def test_closed_accepts_exactly_the_coset_unions(n, q):
    cosets = cyclotomic_cosets(n, q)
    unions = {frozenset(mask_residues(mask)) for mask in coset_unions(cosets)}
    for mask in range(1 << n):
        mset = frozenset(mask_residues(mask))
        if mset in unions:
            assert DefiningSet.closed(n, q, mset).members == mset
            continue
        # the error names the smallest residue whose coset is incomplete
        s = min(t for t in mset if not set(coset_of(n, q, t).members) <= mset)
        with pytest.raises(ValueError, match=f"residue {s} needs its whole coset"):
            DefiningSet.closed(n, q, mset)


def test_from_defining_set_accepts_a_generator():
    code = from_defining_set(15, 2, (s for s in (1, 2, 4, 8)))
    assert code is bch(15, 2, 3)


def test_from_defining_set_lookup_skips_validation(monkeypatch):
    code = from_defining_set(15, 2, {1, 2, 4, 8})
    calls = []
    real = cyclic.coset_of

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cyclic, "coset_of", counting)
    assert from_defining_set(15, 2, [8, 4, 2, 16]) is code  # 16 = 1 mod 15
    assert calls == []


def test_from_defining_set_interns_every_spelling_of_a_set():
    code = from_defining_set(15, 2, frozenset({1, 2, 4, 8}))
    # s + n and -s name the same residues; the normalized key is the frozenset above
    for members in ({1, 2, 4, 8}, [8, 4, 2, 1], (1, 2, 4, 8), frozenset({16, 2, 19, -7}),
                    [16, 17, 4, -7], (s for s in (1, 2, 4, 8))):
        assert from_defining_set(15, 2, members) is code
    assert from_defining_set(15, 2, frozenset({1, 2, 4, 8})) is code
    assert bch(15, 2, 3) is code
    for spell in (frozenset, tuple, list, set):  # duplicates too, and each builds it first
        members = spell([1, 1, 2, 4, -7, 8, 16, 31, -14])
        assert from_defining_set(15, 2, members) is code
        clear_modulus_overrides()
        fresh = from_defining_set(15, 2, members)
        assert fresh is not code and fresh.T.members == frozenset({1, 2, 4, 8})
        assert from_defining_set(15, 2, frozenset({1, 2, 4, 8})) is fresh
        code = fresh


def test_a_frozenset_that_is_not_closed_is_rejected_on_every_call():
    from_defining_set(15, 2, frozenset({1, 2, 4, 8}))
    for members in [frozenset({1, 2, 4})] * 3 + [frozenset({16, 2, 4})]:
        with pytest.raises(ValueError, match="not closed"):
            from_defining_set(15, 2, members)
    assert (15, 2, frozenset({1, 2, 4})) not in cyclic._CODE_CACHE


def test_invalid_sets_rejected_after_their_closure_is_interned():
    from_defining_set(15, 2, {1, 2, 4, 8})
    with pytest.raises(ValueError, match="not closed"):
        from_defining_set(15, 2, {1, 2, 4})
    with pytest.raises(ValueError, match="not closed"):
        from_defining_set(15, 2, (s for s in (1, 2, 4, 8, 3)))
    from_defining_set(5, 3, ())
    with pytest.raises(ValueError, match="gcd"):
        from_defining_set(15, 3, ())
    with pytest.raises(ValueError, match="positive"):
        from_defining_set(0, 2, (1,))


def test_dual_examples():
    ham = from_defining_set(15, 2, {1, 2, 4, 8})
    dual = ham.dual()
    assert dual.k == 4
    assert dual.T.sorted_members == (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12)
    b5 = bch(15, 2, 5)
    assert b5.dual().T.sorted_members == (0, 1, 2, 4, 5, 8, 10)
    assert b5.dual().k == 8
    assert full_space(15, 2).dual() == zero_code(15, 2)


@pytest.mark.parametrize("n", [7, 15])
def test_dual_involution_exhaustive(n):
    for code in all_cyclic_codes(n, 2):
        assert code.dual().dual() == code
        assert code.k + code.dual().k == n


def test_intersect_sum_examples():
    b5 = bch(15, 2, 5)
    meet = intersect(b5, b5.dual())
    assert meet.k == 4
    assert len(meet.T.members) == 11
    assert code_sum(b5, b5) == b5
    assert intersect(b5, full_space(15, 2)) == b5
    with pytest.raises(ValueError, match="mismatched"):
        intersect(b5, bch(7, 2, 3))


def test_contains_examples():
    ham = bch(15, 2, 3)
    b5 = bch(15, 2, 5)
    assert contains(ham, b5)
    assert contains(ham, b5.dual())
    assert contains(b5, b5)
    assert not contains(b5, ham)


@pytest.mark.parametrize("n", [7, 15])
def test_dual_containment_symmetry(n):
    codes = all_cyclic_codes(n, 2)
    for c1, c2 in itertools.product(codes, repeat=2):
        assert contains(c1, c2.dual()) == contains(c2, c1.dual())


def test_bch_parameters():
    assert (bch(15, 2, 3).n, bch(15, 2, 3).k) == (15, 11)
    assert bch(15, 2, 5).k == 7
    assert bch(31, 2, 5).k == 21
    assert bch(31, 2, 7).k == 16
    assert bch(31, 2, 11).k == 11
    assert bch(31, 2, 15).k == 6
    assert bch(127, 2, 5).k == 113
    assert bch(127, 2, 15).k == 78
    with pytest.raises(ValueError, match="out of range"):
        bch(15, 2, 16)
    with pytest.raises(ValueError, match="out of range"):
        bch(15, 2, 1)


def test_bch_offset():
    narrow = bch(15, 2, 3, b=1)
    shifted = bch(15, 2, 3, b=2)
    assert narrow.T.sorted_members == (1, 2, 4, 8)
    assert shifted.T.sorted_members == (1, 2, 3, 4, 6, 8, 9, 12)


@pytest.mark.parametrize("n,q", [(15, 2), (31, 2), (63, 2), (127, 2), (13, 3), (21, 4)])
def test_bch_defining_set_is_the_closure_of_its_run(n, q):
    """T is the union of the residues' own cosets, for b = 0, narrow sense
    and a run that wraps past n."""
    for b in (0, 1, n - 3):
        for delta in range(2, n + 1):
            closure = set()
            for i in range(b, b + delta - 1):
                closure.update(coset_of(n, q, i).members)
            assert bch(n, q, delta, b).T.members == closure


def test_rs_parameters():
    code = rs(8, 3)
    assert (code.n, code.q, code.k) == (7, 8, 5)
    assert rs(4, 2).k == 2
    assert rs(4, 3).k == 1
    with pytest.raises(ValueError):
        rs(8, 9)
    assert rs(3, 2).k == 1
    with pytest.raises(ValueError, match="q=2 too small"):
        rs(2, 2)


def test_hamming_constructor():
    assert hamming(4, 2) == bch(15, 2, 3)
    assert hamming(3, 2).n == 7
    with pytest.raises(ValueError, match="not cyclic"):
        hamming(3, 4)


def test_repetition_and_boundary_codes():
    rep = repetition(15, 2)
    assert rep.k == 1
    assert zero_code(7, 2).k == 0
    assert full_space(7, 2).k == 7
    assert parity_check_matrix(full_space(7, 2)).row_count == 0


@pytest.mark.parametrize("code", [bch(15, 2, 5), bch(7, 2, 3), bch(31, 2, 7), rs(8, 3)])
def test_generator_parity_orthogonal(code):
    G = generator_matrix(code)
    H = parity_check_matrix(code)
    assert G.row_count == code.k
    assert H.row_count == code.n - code.k
    assert product_is_zero(G, H)


@pytest.mark.parametrize("code", [bch(8, 3, 3), bch(15, 4, 3), bch(10, 9, 3), rs(8, 3)])
def test_qary_matrix_products_match_the_dot_products(code):
    f = code.field

    def dot(x, y):
        acc = 0
        for a, b in zip(x, y):
            acc = f.add_i(acc, f.mul_i(a, b))
        return acc

    G, H = generator_matrix(code), parity_check_matrix(code)
    for a, b in [(G, H), (H, G), (G, G), (H, H)]:
        assert product_is_zero(a, b) == all(dot(x, y) == 0 for x in a.rows for y in b.rows)
    assert product_is_zero(G, H) and not product_is_zero(G, G)
    # a column count mismatch is reported before mixed fields
    other = make_field(5)
    with pytest.raises(ValueError, match="mixed fields"):
        product_is_zero(G, CheckMatrix(other, code.n, ((1,) * code.n,), "generator"))
    with pytest.raises(ValueError, match="column count mismatch"):
        product_is_zero(G, CheckMatrix(other, code.n + 1, ((1,) * (code.n + 1),), "generator"))


@pytest.mark.parametrize("code", [bch(15, 2, 5), bch(7, 2, 3), bch(15, 2, 3).dual()])
def test_matrices_full_rank(code):
    G = generator_matrix(code).bitmask_rows()
    H = parity_check_matrix(code).bitmask_rows()
    assert oracle.rank(G, code.n) == code.k
    assert oracle.rank(H, code.n) == code.n - code.k


def test_parity_annihilates_exactly_the_code():
    code = bch(7, 2, 3)
    H = parity_check_matrix(code)
    members = [v for v in range(128)
               if all(s == 0 for s in H.syndrome(tuple((v >> i) & 1 for i in range(7))))]
    assert len(members) == 16
    span = oracle.span(generator_matrix(code).bitmask_rows())
    assert set(members) == set(span)


def test_encode():
    code = bch(7, 2, 3)
    assert code.encode(Polynomial.zero(F2)) == (0,) * 7
    assert code.encode(Polynomial.one(F2)) == (1, 1, 0, 1, 0, 0, 0)
    m1 = parse_poly("x + 1", F2)
    m2 = parse_poly("x^3 + x", F2)
    lhs = code.encode(m1 + m2)
    rhs = tuple(a ^ b for a, b in zip(code.encode(m1), code.encode(m2)))
    assert lhs == rhs
    with pytest.raises(ValueError, match="too long"):
        code.encode(parse_poly("x^4", F2))


def test_is_codeword():
    code = bch(7, 2, 3)
    assert code.is_codeword((0,) * 7)
    word = code.encode(Polynomial.one(F2))
    assert code.is_codeword(word)
    assert code.is_codeword(word[-1:] + word[:-1])  # cyclic shift
    assert not code.is_codeword((1, 1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="length"):
        code.is_codeword((0,) * 6)


def test_is_codeword_agrees_with_parity():
    for code in all_cyclic_codes(7, 2):
        H = parity_check_matrix(code)
        for v in range(128):
            vec = tuple((v >> i) & 1 for i in range(7))
            assert code.is_codeword(vec) == all(s == 0 for s in H.syndrome(vec))


@pytest.mark.parametrize("n,q", [(8, 3), (5, 4), (9, 4)])
def test_is_codeword_agrees_with_parity_over_gf3_and_gf4(n, q):
    rng = random.Random(n * 100 + q)
    for code in all_cyclic_codes(n, q):
        G, H = generator_matrix(code), parity_check_matrix(code)
        vectors = list(G.rows) + [tuple(rng.randrange(q) for _ in range(n)) for _ in range(200)]
        if code.k:  # and random codewords, so both answers are exercised
            msgs = (Polynomial.from_coeffs(code.field, [rng.randrange(q) for _ in range(code.k)])
                    for _ in range(20))
            vectors += [code.encode(m) for m in msgs]
        for vec in vectors:
            assert code.is_codeword(vec) == all(s == 0 for s in H.syndrome(vec))
        assert all(code.is_codeword(row) for row in G.rows)


def test_containment_criteria_consistency_all_pairs_n15():
    codes = all_cyclic_codes(15, 2)
    for c1, c2 in itertools.product(codes, repeat=2):
        contains(c1, c2)  # raises InternalConsistencyError on any disagreement


@pytest.mark.parametrize(
    "n,q", [(15, 2), (21, 2), (31, 2), (8, 3), (13, 3), (5, 4), (9, 4), (15, 4), (7, 8)]
)
def test_g_and_h_are_the_factor_products_of_t_and_of_its_complement(n, q):
    # every size of T, so g is multiplied up for some codes and divided out for others
    field = field_of_size(q)
    factors = factor_xn_minus_1(n, q)
    xn1 = Polynomial.monomial(field, n) - Polynomial.one(field)
    for mask in coset_unions([coset for coset, _ in factors]):
        code = from_defining_set(n, q, mask_residues(mask))
        g = h = Polynomial.one(field)
        for coset, factor in factors:
            if mask >> coset.representative & 1:
                g = g * factor
            else:
                h = h * factor
        assert code.generator_polynomial == g
        assert code.parity_polynomial == h
        assert g * h == xn1
        assert g.degree == len(code.T.members)


@pytest.mark.parametrize("members", [
    (1, 2, 4, 8),                                          # |T| <= n/2: g is multiplied up
    tuple(s for s in range(15) if s not in (1, 2, 4, 8)),  # |T| > n/2: h is multiplied up
])
def test_a_corrupted_coset_factor_trips_the_polynomial_checks(monkeypatch, members):
    clear_modulus_overrides()  # build the code afresh
    factors = factor_xn_minus_1(15, 2)
    field = factors[0][1].field
    xn1 = Polynomial.monomial(field, 15) - Polynomial.one(field)
    corrupted = tuple(
        (coset, factor + Polynomial.monomial(field, 2) if coset.representative == 1 else factor)
        for coset, factor in factors
    )
    assert not corrupted[1][1].divides(xn1)
    monkeypatch.setattr(cyclic, "factor_xn_minus_1", lambda n, q: corrupted)
    code = from_defining_set(15, 2, members)
    with pytest.raises(InternalConsistencyError, match="does not divide"):
        code.generator_polynomial


@pytest.mark.parametrize("members", [
    (1, 2, 4, 8),                                          # g is multiplied up
    tuple(s for s in range(15) if s not in (1, 2, 4, 8)),  # h is multiplied up
])
def test_a_wrong_degree_factor_that_divides_trips_the_generator_degree_check(
        monkeypatch, members):
    # the coset of 1's factor swapped for the coset of 5's: x^15 - 1 still
    # divides exactly, but deg g is no longer |T|
    factors = factor_xn_minus_1(15, 2)
    by_rep = dict((coset.representative, factor) for coset, factor in factors)
    swapped = tuple((coset, by_rep[5] if coset.representative == 1 else factor)
                    for coset, factor in factors)
    monkeypatch.setattr(cyclic, "factor_xn_minus_1", lambda n, q: swapped)
    code = CyclicCode(DefiningSet.closed(15, 2, members))  # not interned
    with pytest.raises(InternalConsistencyError, match=r"generator degree \d+ != \|T\| = "):
        code.generator_polynomial


@pytest.mark.parametrize("n,q", [(15, 2), (8, 3), (9, 4), (7, 8), (13, 3)])
def test_dual_generator_is_the_scaled_reversal_of_h(n, q):
    field = field_of_size(q)
    h0_values = set()
    for code in all_cyclic_codes(n, q):
        h = code.parity_polynomial
        h0 = h.coefficient(0)
        h0_values.add(h0)
        expected = h.reverse().scale(field.inv_i(h0))
        assert code.dual_generator_polynomial == expected
        assert code.dual_generator_polynomial.coeffs == expected.coeffs
        assert code.dual().generator_polynomial == expected
    assert (h0_values == {1}) == (q == 2)  # over GF(2) h(0) is 1; otherwise not always


def test_a_corrupted_parity_polynomial_trips_the_dual_cross_check():
    code = CyclicCode(bch(15, 2, 5).T)  # a copy outside the intern table
    g, h = code._polynomials()
    # one middle coefficient flipped: h(0) stays 1, the reversal no longer matches
    code._h = Polynomial(h.field, h.coeffs[:1] + (1 - h.coeffs[1],) + h.coeffs[2:])
    with pytest.raises(InternalConsistencyError, match="dual generator mismatch"):
        code.dual()
    code._h = Polynomial(h.field, (0,) + h.coeffs[1:])
    with pytest.raises(InternalConsistencyError, match="zero constant term"):
        code.dual()
    code._h = h
    assert code.dual() is bch(15, 2, 5).dual()


@pytest.mark.parametrize("n,q,members", [(15, 2, (1, 2, 4, 8)), (8, 3, (1, 3)), (9, 4, ()),
                                         (7, 8, tuple(range(7)))])
def test_codes_hash_by_value_through_copies_and_pickles(n, q, members):
    code = from_defining_set(n, q, members)
    clear_modulus_overrides()  # a second, separately built code of the same value
    twin = from_defining_set(n, q, members)
    assert twin is not code
    for other in (twin, CyclicCode(code.T), copy.copy(code), copy.deepcopy(code),
                  pickle.loads(pickle.dumps(code))):
        assert other == code
        assert hash(other) == hash(code) == hash((n, q, frozenset(members)))
        assert {other: 1}[code] == 1


def test_descriptor_round_trip():
    for text in ["q=2 n=15 T={1,2,4,8}", "bch:n=15,q=2,delta=5", "hamming:m=4,q=2",
                 "rs:q=8,delta=3", "q=2,n=15,T={1,2,4,8}", "bch:n=15,q=2,delta=3,b=2"]:
        code = parse_code(text)
        assert parse_code(code.descriptor()) == code
    for code in all_cyclic_codes(15, 2):
        assert parse_code(code.descriptor()) == code


def test_descriptor_errors():
    with pytest.raises(ValueError):
        parse_code("q=2 n=15")
    with pytest.raises(ValueError):
        parse_code("mystery:n=15")
    with pytest.raises(ValueError):
        parse_code("q=2 n=15 T={1,2,3}")


def test_parse_residue_set():
    assert parse_residue_set("{3,6,9,12}") == (3, 6, 9, 12)
    assert parse_residue_set("3,6") == (3, 6)
    assert parse_residue_set("{}") == ()


def test_designed_distance_bound():
    assert bch(15, 2, 5).designed_distance_bound == 5
    assert bch(15, 2, 3).designed_distance_bound == 3
    assert full_space(15, 2).designed_distance_bound == 1
    assert zero_code(15, 2).designed_distance_bound == 16
    assert bch(15, 2, 3).dual().designed_distance_bound == 8  # run 0..6


def test_consecutive_run_bound_against_brute_force():
    for n in range(1, 13):
        for mask in range(1 << n):
            members = frozenset(s for s in range(n) if mask >> s & 1)
            longest = max(
                (next((r for r in range(n) if (s + r) % n not in members), n)
                 for s in members),
                default=0,
            )
            assert consecutive_run_bound_mask(n, mask) == longest + 1
            assert consecutive_run_bound(n, members) == longest + 1
