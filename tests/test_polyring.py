"""Polynomial ring, cyclotomic cosets, minimal polynomials, x^n - 1 factors."""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

import pytest

import oracle
from asymqec import polyring
from asymqec.errors import InternalConsistencyError
from asymqec.galois import FieldElement, field_of_size, make_field, nth_root_field, subfield_embedding
from asymqec.polyring import (
    NEG_INF,
    CyclotomicCoset,
    Polynomial,
    coset_of,
    coset_unions,
    cyclotomic_cosets,
    factor_xn_minus_1,
    mask_residues,
    minimal_polynomial,
    parse_poly,
    poly_gcd,
    render_poly,
)

F2 = make_field(2)
F4 = make_field(2, 2)
F5 = make_field(5)


def P(text, field=F2):
    return parse_poly(text, field)


def test_char2_square():
    assert P("x + 1") * P("x + 1") == P("x^2 + 1")


def test_div_rem_example():
    q, r = P("x^4 + x + 1").div_rem(P("x^2 + x + 1"))
    assert q == P("x^2 + x")
    assert r == P("1")


def test_gcd_with_zero_is_monic_input():
    f = P("x^4 + x + 1")
    assert poly_gcd(f, Polynomial.zero(F2)) == f
    g = Polynomial.from_coeffs(F5, (1, 0, 3))  # 3x^2 + 1, leading 3
    assert poly_gcd(g, Polynomial.zero(F5)).is_monic
    with pytest.raises(ValueError):
        poly_gcd(Polynomial.zero(F2), Polynomial.zero(F2))


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        P("x").div_rem(Polynomial.zero(F2))
    with pytest.raises(ValueError, match="mixed fields"):
        P("x") + parse_poly("x", F4)


def test_zero_polynomial_degree_sentinel():
    z = Polynomial.zero(F2)
    assert z.degree == NEG_INF
    f = P("x^3 + 1")
    assert (z * f).degree == NEG_INF == z.degree + f.degree
    assert (f * f).degree == f.degree + f.degree


@pytest.mark.parametrize("field,seed", [(F2, 1), (F4, 2), (F5, 3)])
def test_div_rem_round_trip_random(field, seed):
    rng = random.Random(seed)
    for _ in range(10_000):
        a = Polynomial.from_coeffs(field, [rng.randrange(field.q) for _ in range(rng.randrange(9))])
        b = Polynomial.from_coeffs(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 6))])
        if b.is_zero:
            continue
        q, r = a.div_rem(b)
        assert q * b + r == a
        assert r.degree < b.degree


# GF(9) has odd characteristic and m > 1, so it runs the field-call loops
ORACLE_FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5),
                 make_field(2, 3), make_field(3, 2)]
# products over GF(7) and GF(13) need two-byte lanes from 8 and 2 coefficients
# on, over GF(17) from one
LANE_EDGE_FIELDS = [make_field(7), make_field(13), make_field(17)]


def random_poly(rng, field, length):
    return Polynomial.from_coeffs(field, [rng.randrange(field.q) for _ in range(length)])


def check_div_rem(a, d):
    quot, rem = a.div_rem(d)
    assert [list(quot.coeffs), list(rem.coeffs)] == list(
        oracle.poly_div_rem(a.coeffs, d.coeffs, a.field))
    assert quot * d + rem == a
    assert rem.degree < d.degree


@pytest.mark.parametrize("field", [F2, make_field(3), F4], ids=repr)
def test_pow_with_a_modulus_is_the_reduced_repeated_product(field):
    rng = random.Random(17 * field.q)
    for _ in range(200):
        u = random_poly(rng, field, rng.randrange(7))
        h = random_poly(rng, field, rng.randrange(1, 6))
        if h.is_zero:
            with pytest.raises(ZeroDivisionError):
                pow(u, 1, h)
            continue
        product = Polynomial.one(field)
        for e in range(12):
            assert u ** e == product
            assert pow(u, e, h) == product % h, (u, e, h)
            product = product * u
    with pytest.raises(ValueError, match="negative"):
        pow(Polynomial.x(field), -1, Polynomial.x(field))
    with pytest.raises(ValueError, match="mixed fields"):
        pow(Polynomial.x(field), 2, parse_poly("x^2 + 1", F5))


@pytest.mark.parametrize("field", ORACLE_FIELDS + LANE_EDGE_FIELDS, ids=repr)
def test_div_rem_and_mul_match_the_schoolbook_oracle(field):
    rng = random.Random(field.q)
    top = field.q - 1
    if field.m == 1:
        # a product lane sums up to min(len a, len b) * (p - 1)^2, reached by
        # all-top factors: lengths around the first needing two-byte lanes
        edge = -(-256 // top**2)
        for la, lb in [(length, length) for length in (edge - 1, edge, edge + 1) if length] + [
                (3, 600), (edge, 3 * edge + 1)]:
            for a, b in [(Polynomial(field, (top,) * la), Polynomial(field, (top,) * lb)),
                         (random_poly(rng, field, la - 1) + Polynomial.monomial(field, la - 1),
                          random_poly(rng, field, lb))]:
                assert list((a * b).coeffs) == oracle.poly_mul(a.coeffs, b.coeffs, field)
                assert list((b * a).coeffs) == oracle.poly_mul(b.coeffs, a.coeffs, field)
                if not b.is_zero:
                    check_div_rem(a * b + random_poly(rng, field, lb - 1), b)
                    check_div_rem(random_poly(rng, field, 2 * la + lb), b)
    for d in [Polynomial.monomial(field, 0, c) for c in range(1, field.q)] + [
            random_poly(rng, field, 9) + Polynomial.monomial(field, 9)]:
        for a in (Polynomial.zero(field), random_poly(rng, field, len(d.coeffs) - 1),
                  random_poly(rng, field, 40)):
            check_div_rem(a, d)
        assert Polynomial.zero(field).div_rem(d) == (Polynomial.zero(field),) * 2
    for _ in range(1500):
        d = random_poly(rng, field, rng.randrange(1, 7))
        if d.is_zero:
            continue
        if field.q > 2 and rng.random() < 0.5:  # non-monic divisors
            d = d.scale(rng.randrange(2, field.q))
        c = random_poly(rng, field, rng.randrange(8))
        shorter = random_poly(rng, field, rng.randrange(len(d.coeffs)))
        for a in (random_poly(rng, field, rng.randrange(12)), c * d, shorter):
            check_div_rem(a, d)
        assert (c * d).div_rem(d) == (c, Polynomial.zero(field))
        assert shorter.div_rem(d) == (Polynomial.zero(field), shorter)
        assert list((c * d).coeffs) == oracle.poly_mul(c.coeffs, d.coeffs, field)
        assert list((d * c).coeffs) == oracle.poly_mul(d.coeffs, c.coeffs, field)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_divides_answers_what_the_remainder_of_div_rem_says(field):
    rng = random.Random(field.q)
    zero = Polynomial.zero(field)
    cases = []
    for _ in range(300):
        d = random_poly(rng, field, rng.randrange(1, 7))
        if d.is_zero:
            continue
        c = random_poly(rng, field, rng.randrange(1, 8))
        shorter = random_poly(rng, field, rng.randrange(len(d.coeffs)))
        cases += [(d, zero), (d, shorter), (d, c * d), (d, c * d + Polynomial.one(field)),
                  (d, random_poly(rng, field, rng.randrange(12))),
                  (Polynomial.monomial(field, 0, rng.randrange(1, field.q)), c)]
    answers = set()
    for d, a in cases:
        polyring._DIVIDES.clear()  # every answer from the division, none from the memo
        exact = a.div_rem(d)[1].is_zero
        polyring._DIVIDES.clear()
        assert d.divides(a) is exact
        answers.add(exact)
    assert answers == {True, False}
    with pytest.raises(ZeroDivisionError):
        zero.divides(Polynomial.one(field))
    polyring._DIVIDES.clear()


@pytest.mark.parametrize("base,ext", [
    ((2, 1), (2, 4)), ((3, 1), (3, 2)), ((2, 2), (2, 6)), ((5, 1), (5, 1)),
    ((5, 1), (5, 2)), ((2, 3), (2, 6)), ((3, 2), (3, 4)),
], ids=str)
def test_evaluate_embedded_matches_evaluate_of_the_lifted_polynomial(base, ext):
    # both sides run Field.horner, whose arithmetic test_galois checks term by term
    base, ext = make_field(*base), make_field(*ext)
    embed, _ = subfield_embedding(base, ext)
    rng = random.Random(ext.q)
    for _ in range(40):
        f = random_poly(rng, base, rng.randrange(9))
        lifted = Polynomial.from_coeffs(ext, [embed[c] for c in f.coeffs])
        for point in ext.elements():
            assert f.evaluate_embedded(point, embed) == lifted.evaluate(point).value


def test_gcd_divides_both():
    rng = random.Random(4)
    for _ in range(300):
        a = Polynomial.from_coeffs(F4, [rng.randrange(4) for _ in range(rng.randrange(1, 7))])
        b = Polynomial.from_coeffs(F4, [rng.randrange(4) for _ in range(rng.randrange(1, 7))])
        if a.is_zero and b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert g.is_monic
        assert a.is_zero or g.divides(a)
        assert b.is_zero or g.divides(b)


def test_cosets_examples():
    assert [c.members for c in cyclotomic_cosets(7, 2)] == [(0,), (1, 2, 4), (3, 5, 6)]
    assert [c.members for c in cyclotomic_cosets(15, 2)] == [
        (0,), (1, 2, 4, 8), (3, 6, 9, 12), (5, 10), (7, 11, 13, 14)]
    # q = 1 mod n fixes every residue
    assert all(len(c.members) == 1 for c in cyclotomic_cosets(5, 16))


def test_cosets_reject_repeated_roots():
    with pytest.raises(ValueError, match="gcd"):
        cyclotomic_cosets(6, 2)


PARTITION_CASES = (
    [(n, 2) for n in (1, 3, 5, 7, 9, 15, 17, 21, 23, 31, 45, 63, 85, 89, 93, 127, 255)]
    + [(n, 3) for n in (4, 8, 13, 16, 40, 80)]
    + [(n, 4) for n in (3, 5, 15, 17, 51, 85)]
    + [(n, 5) for n in (4, 8, 24, 62, 124)]
    + [(n, 8) for n in (7, 9, 21, 63)]
    + [(n, 9) for n in (5, 8, 16, 40, 80)]
)


@pytest.mark.parametrize("n,q", PARTITION_CASES)
def test_coset_partition_and_factorisation(n, q):
    assert gcd(n, q) == 1
    cosets = cyclotomic_cosets(n, q)
    union = sorted(m for c in cosets for m in c.members)
    assert union == list(range(n))
    for c in cosets:
        assert c.representative == min(c.members)
        assert {(s * q) % n for s in c.members} == set(c.members)
    # the product check inside factor_xn_minus_1 raises on any mismatch
    factors = factor_xn_minus_1(n, q)
    assert sum(int(f.degree) for _, f in factors) == n
    for coset, f in factors:
        assert f.is_monic
        assert int(f.degree) == len(coset.members)


@pytest.mark.parametrize("n,q", PARTITION_CASES)
def test_coset_of_is_the_brute_force_orbit(n, q):
    for s in range(n):
        orbit = sorted({s * pow(q, j, n) % n for j in range(n)})
        coset = coset_of(n, q, s)
        assert coset.members == tuple(orbit)
        assert coset.representative == orbit[0]
        assert coset in cyclotomic_cosets(n, q)


def test_minimal_polynomials_n15():
    expected = {
        (0,): "x + 1",
        (1, 2, 4, 8): "x^4 + x + 1",
        (3, 6, 9, 12): "x^4 + x^3 + x^2 + x + 1",
        (5, 10): "x^2 + x + 1",
        (7, 11, 13, 14): "x^4 + x^3 + 1",
    }
    for coset in cyclotomic_cosets(15, 2):
        assert render_poly(minimal_polynomial(15, 2, coset)) == expected[coset.members]


@pytest.mark.parametrize("n,q", [(15, 2), (7, 2), (5, 4), (21, 2)])
def test_minimal_polynomial_roots_exactly_its_coset(n, q):
    ext, alpha = nth_root_field(n, q)
    base = field_of_size(q)
    embed, _ = subfield_embedding(base, ext)
    for coset in cyclotomic_cosets(n, q):
        poly = minimal_polynomial(n, q, coset)
        for i in range(n):
            point = FieldElement(ext, ext.pow_i(alpha.value, i))
            value = poly.evaluate_embedded(point, embed)
            assert (value == 0) == (i in coset.members)


def test_minimal_polynomial_rejects_non_cosets():
    bogus = CyclotomicCoset(15, 2, 1, (1, 2, 3))
    with pytest.raises(ValueError):
        minimal_polynomial(15, 2, bogus)


@pytest.mark.parametrize("n,q", PARTITION_CASES)
def test_minimal_polynomial_is_the_stored_factor(n, q):
    for coset, factor in factor_xn_minus_1(n, q):
        assert minimal_polynomial(n, q, coset) is factor


def test_a_coefficient_outside_the_lift_is_an_internal_error(monkeypatch):
    def short_lift(base, ext):
        embed, lift = subfield_embedding(base, ext)
        return embed, {v: b for v, b in lift.items() if b != 2}

    monkeypatch.setattr(polyring, "subfield_embedding", short_lift)
    factor_xn_minus_1.cache_clear()
    with pytest.raises(InternalConsistencyError, match=r"not in GF\(4\)"):
        minimal_polynomial(15, 4, coset_of(15, 4, 1))
    with pytest.raises(InternalConsistencyError, match=r"not in GF\(4\)"):
        factor_xn_minus_1(15, 4)


def test_factor_x7_minus_1():
    rendered = sorted(render_poly(f) for _, f in factor_xn_minus_1(7, 2))
    assert rendered == ["x + 1", "x^3 + x + 1", "x^3 + x^2 + 1"]


def test_factor_x3_minus_1():
    rendered = sorted(render_poly(f) for _, f in factor_xn_minus_1(3, 2))
    assert rendered == ["x + 1", "x^2 + x + 1"]


def test_render_parse_round_trip():
    rng = random.Random(7)
    for field in (F2, F4, F5):
        for _ in range(200):
            poly = Polynomial.from_coeffs(field, [rng.randrange(field.q) for _ in range(rng.randrange(8))])
            assert parse_poly(render_poly(poly), field) == poly


def test_parse_poly_errors():
    with pytest.raises(ValueError):
        parse_poly("x^2 + y", F2)
    with pytest.raises(ValueError):
        parse_poly("3*x", F2)


def test_evaluate():
    f = P("x^3 + x + 1")
    one = F2.one
    assert f.evaluate(one) == one
    assert f.evaluate(F2.zero) == one
    g = parse_poly("a*x + 1", F4)
    assert g.evaluate(F4.alpha) == F4.alpha * F4.alpha + F4.one


@pytest.mark.parametrize("n,q", [(1, 2), (7, 2), (15, 2), (21, 2), (8, 3), (13, 3), (5, 4)])
def test_coset_unions_by_size_then_combinations(n, q):
    cosets = cyclotomic_cosets(n, q)
    masks = list(coset_unions(cosets))
    assert len(masks) == 2 ** len(cosets)
    expected = [
        frozenset(s for coset in chosen for s in coset.members)
        for size in range(len(cosets) + 1)
        for chosen in combinations(cosets, size)
    ]
    assert [frozenset(mask_residues(mask)) for mask in masks] == expected
    assert masks[0] == 0 and masks[-1] == (1 << n) - 1


def test_mask_residues_and_the_empty_union():
    assert list(coset_unions(())) == [0]
    assert mask_residues(0) == ()
    assert mask_residues(0b1011) == (0, 1, 3)
    assert mask_residues(1 << 126) == (126,)


@pytest.mark.parametrize("n,q", [(15, 2), (21, 2), (13, 3), (63, 2)])
def test_a_wrong_factor_fails_the_product_check(monkeypatch, n, q):
    cosets = cyclotomic_cosets(n, q)
    wrong = []
    for i, coset in enumerate(cosets):
        wrong.append(cosets[:i] + cosets[i + 1:])  # one factor missing
        wrong.append(cosets[:i + 1] + cosets[i:])  # one factor twice
        negated = coset_of(n, q, -coset.representative)
        if negated != coset:  # one factor of the right degree swapped for another
            wrong.append(cosets[:i] + (negated,) + cosets[i + 1:])
    for partition in wrong:
        monkeypatch.setattr(polyring, "cyclotomic_cosets", lambda n, q: partition)
        factor_xn_minus_1.cache_clear()
        with pytest.raises(InternalConsistencyError, match="do not multiply to"):
            factor_xn_minus_1(n, q)
    monkeypatch.undo()
    factor_xn_minus_1.cache_clear()
    assert [coset for coset, _ in factor_xn_minus_1(n, q)] == list(cosets)
