"""Field arithmetic: moduli, tables, axioms, roots of unity, embeddings."""

from __future__ import annotations

import itertools
import random
import re

import pytest

import oracle
from asymqec import galois
from asymqec.galois import (
    clear_modulus_overrides,
    default_modulus,
    field_of_size,
    make_field,
    multiplicative_order,
    nth_root_field,
    prime_power,
    set_modulus_override,
    subfield_embedding,
)

# classical lex-smallest primitive polynomials, ascending coefficients
KNOWN_MODULI = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),           # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),        # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),     # x^5 + x^2 + 1
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),  # x^8 + x^4 + x^3 + x^2 + 1
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (5, 1): (2, 1),
}

FIELDS_UNDER_TEST = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 7), (2, 8),
                     (3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (7, 1), (13, 1)]


@pytest.mark.parametrize("pm,expected", sorted(KNOWN_MODULI.items()))
def test_default_modulus_table(pm, expected):
    assert default_modulus(*pm) == expected


@pytest.mark.parametrize("p,m", FIELDS_UNDER_TEST)
def test_primitive_element_generates_everything(p, m):
    field = make_field(p, m)
    seen = set()
    v = 1
    for _ in range(field.q - 1):
        seen.add(v)
        v = field.mul_i(v, field.alpha.value)
    assert v == 1
    assert len(seen) == field.q - 1


def test_gf16_forced_relations():
    f = make_field(2, 4)
    a = f.alpha
    assert a**4 == a + f.one
    assert a**5 == a * a + a
    assert a.inverse() == a**14
    assert (a**15).value == 1


def test_gf2_is_boolean():
    f = make_field(2, 1)
    one = f.one
    assert (one + one).value == 0
    assert f.alpha.value == 1


@pytest.mark.parametrize("p,m", FIELDS_UNDER_TEST)
def test_frobenius(p, m):
    field = make_field(p, m)
    rng = random.Random(1000 * p + m)
    for _ in range(1000):
        a = field.element(rng.randrange(field.q))
        b = field.element(rng.randrange(field.q))
        assert (a + b) ** p == a**p + b**p


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (2, 7), (2, 8), (3, 1), (3, 2), (3, 3), (3, 4),
                                 (3, 5), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2),
                                 (11, 1), (13, 1)])
def test_inverse_exhaustive_small_fields(p, m):
    field = make_field(p, m)
    assert field.q <= 256
    for v in range(1, field.q):
        assert field.mul_i(v, field.inv_i(v)) == 1


def test_element_errors():
    f16 = make_field(2, 4)
    f8 = make_field(2, 3)
    with pytest.raises(ValueError, match="mixed fields"):
        f16.alpha + f8.alpha
    with pytest.raises(ZeroDivisionError):
        f16.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        f16.zero ** -1
    assert (f16.zero**0).value == 1


def test_power_laws():
    field = make_field(3, 2)
    rng = random.Random(9)
    for _ in range(200):
        a = field.element(rng.randrange(1, field.q))
        assert (a ** (field.q - 1)).value == 1
        assert a**-1 == a.inverse()


def test_make_field_errors():
    with pytest.raises(ValueError, match="not prime"):
        make_field(4, 1)
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        make_field(2, 25)
    with pytest.raises(ValueError, match="must be >= 1"):
        make_field(2, 0)


def test_prime_power():
    assert prime_power(16) == (2, 4)
    assert prime_power(27) == (3, 3)
    assert prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        prime_power(12)


def test_nth_root_field_examples():
    ext, alpha = nth_root_field(15, 2)
    assert ext.q == 16 and alpha == ext.alpha
    orders = {i for i in range(1, 16) if (alpha**i).value == 1}
    assert orders == {15}

    ext, alpha = nth_root_field(7, 2)
    assert ext.q == 8
    assert (alpha**7).value == 1
    assert all((alpha**j).value != 1 for j in range(1, 7))

    ext, alpha = nth_root_field(5, 4)
    assert ext.q == 16
    assert alpha == ext.alpha**3

    ext, alpha = nth_root_field(127, 2)
    assert ext.q == 128


def test_nth_root_field_rejects_repeated_roots():
    with pytest.raises(ValueError, match="gcd"):
        nth_root_field(6, 2)


@pytest.mark.parametrize("n,q,message", [
    (0, 2, "must be positive"), (-3, 5, "must be positive"),
    (6, 2, "repeated-root"), (9, 3, "repeated-root"), (10, 4, "repeated-root"),
    (5, 6, "not a prime power"), (7, 1, "not a prime power"), (7, 10, "not a prime power"),
])
def test_check_length_rejects_on_every_call_and_after_a_reset(n, q, message):
    galois.check_length(15, 2)  # an accepted pair is remembered beside the rejections
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            galois.check_length(n, q)
    clear_modulus_overrides()
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            galois.check_length(n, q)
    galois.check_length(15, 2)


def test_check_length_is_forgotten_with_the_derived_caches():
    clear_modulus_overrides()
    assert galois.check_length.cache_info().currsize == 0
    galois.check_length(15, 2)
    galois.check_length(15, 2)
    assert galois.check_length.cache_info().currsize == 1
    clear_modulus_overrides()
    assert galois.check_length.cache_info().currsize == 0


def test_multiplicative_order():
    assert multiplicative_order(2, 15) == 4
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(4, 5) == 2
    with pytest.raises(ValueError):
        multiplicative_order(3, 6)


def test_length_one_has_order_one_and_the_base_field():
    assert multiplicative_order(2, 1) == 1
    assert multiplicative_order(5, 1) == 1
    for q in (2, 3, 4, 8, 9):
        ext, alpha = nth_root_field(1, q)
        assert ext == field_of_size(q)
        assert alpha.value == 1


@pytest.mark.parametrize("base_q,ext_pm", [(4, (2, 4)), (8, (2, 6)), (9, (3, 4)), (4, (2, 6))])
def test_subfield_embedding_is_ring_homomorphism(base_q, ext_pm):
    base = field_of_size(base_q)
    ext = make_field(*ext_pm)
    embed, lift = subfield_embedding(base, ext)
    assert embed[0] == 0 and embed[1] == 1
    assert len(set(embed)) == base.q
    for x in range(base.q):
        for y in range(base.q):
            assert embed[base.add_i(x, y)] == ext.add_i(embed[x], embed[y])
            assert embed[base.mul_i(x, y)] == ext.mul_i(embed[x], embed[y])
    for x in range(base.q):
        assert lift[embed[x]] == x


@pytest.mark.parametrize("n,q", [(1, 2), (3, 7), (4, 3), (5, 2), (19, 2)])
def test_horner_is_the_sum_of_the_coefficients_times_the_powers(n, q):
    """GF(2), GF(7), GF(9), GF(16) and the table-free GF(2^18), the splitting
    fields of these lengths, against the sum of c_i x^i term by term."""
    field, alpha = nth_root_field(n, q)
    assert field.q == {1: 2, 3: 7, 4: 9, 5: 16, 19: 2**18}[n]
    assert (field._log is None) == (n == 19)
    rng = random.Random(field.q)
    points = {0, 1, alpha.value, *(rng.randrange(field.q) for _ in range(8))}
    polys = [(), (0,), (0, 0, 1), *(tuple(rng.randrange(field.q) for _ in range(rng.randrange(1, 9)))
                                    for _ in range(20))]
    for coeffs in polys:
        for x in points:
            terms = 0
            for i, c in enumerate(coeffs):
                terms = field.add_i(terms, field.mul_i(c, field.pow_i(x, i)))
            assert field.horner(coeffs, x) == terms, (coeffs, x)


def test_generic_arithmetic_above_table_limit():
    # GF(2^17) and GF(3^11) exceed the log/antilog limit; residue arithmetic only
    for p, m in ((2, 17), (3, 11)):
        field = make_field(p, m)
        assert field._log is None
        a = field.alpha
        b = a * a + field.one
        assert a * a.inverse() == field.one
        assert b * b.inverse() == field.one
        assert (a ** (field.q - 1)).value == 1
        assert (a + b) ** p == a**p + b**p


def test_modulus_override_roundtrip():
    try:
        set_modulus_override(2, 4, (1, 0, 0, 1, 1))  # x^4 + x^3 + 1, also primitive
        f = make_field(2, 4)
        assert f.modulus == (1, 0, 0, 1, 1)
        a = f.alpha
        assert a**4 == a**3 + f.one
    finally:
        clear_modulus_overrides()
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)


def test_modulus_override_rejects_bad_polynomials():
    # irreducible but not primitive: x^4 + x^3 + x^2 + x + 1 (root of order 5)
    with pytest.raises(ValueError, match="not primitive"):
        set_modulus_override(2, 4, (1, 1, 1, 1, 1))
    # reducible: x^4 + 1 = (x+1)^4
    with pytest.raises(ValueError, match="not irreducible"):
        set_modulus_override(2, 4, (1, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="monic"):
        set_modulus_override(2, 4, (1, 1, 0, 0))


def test_modulus_table_with_a_bad_line_changes_nothing(tmp_path):
    from asymqec.cyclic import bch, generator_matrix
    from asymqec.galois import load_modulus_table

    table = tmp_path / "moduli.txt"
    # a valid override followed by an irreducible but not primitive one
    table.write_text("2 4 1 0 0 1 1\n2 4 1 1 1 1 1\n")
    code = bch(15, 2, 5)
    row = generator_matrix(code).rows[0]
    try:
        with pytest.raises(ValueError, match="not primitive"):
            load_modulus_table(str(table))
        assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)
        assert bch(15, 2, 5).is_codeword(row)
        assert bch(15, 2, 5).is_codeword(generator_matrix(bch(15, 2, 5)).rows[0])
    finally:
        clear_modulus_overrides()


def test_modulus_table_file(tmp_path):
    table = tmp_path / "moduli.txt"
    table.write_text("# override for GF(16)\n2 4 1 0 0 1 1\n")
    try:
        from asymqec.galois import load_modulus_table

        assert load_modulus_table(str(table)) == 1
        assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)
    finally:
        clear_modulus_overrides()


def test_modulus_table_errors_name_the_path(tmp_path):
    from asymqec.galois import load_modulus_table

    missing = tmp_path / "missing.txt"
    with pytest.raises(ValueError, match=re.escape(f"cannot read modulus table {missing}: ")):
        load_modulus_table(str(missing))
    table = tmp_path / "moduli.txt"
    table.write_bytes(b"\xff2 4 1 1 0 0 1\n")
    with pytest.raises(ValueError, match=re.escape(f"cannot read modulus table {table}: 'utf-8'")):
        load_modulus_table(str(table))
    table.write_text("# header\n2 x 1 0 1\n")
    with pytest.raises(ValueError, match=re.escape(f"{table}:2: invalid literal")):
        load_modulus_table(str(table))
    table.write_text("2 4 1 1 1 1 1\n")
    with pytest.raises(ValueError, match=re.escape(f"{table}:1: ") + ".*not primitive"):
        load_modulus_table(str(table))
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)


def test_failed_environment_table_raises_on_every_field(tmp_path, monkeypatch):
    monkeypatch.setenv(galois.ENV_MODULUS_TABLE, str(tmp_path / "missing.txt"))
    monkeypatch.setattr(galois, "_env_loaded", False)
    for _ in range(2):  # no silent fallback to the default moduli after a failure
        with pytest.raises(ValueError, match="cannot read modulus table"):
            make_field(2, 4)
    table = tmp_path / "missing.txt"
    table.write_text("2 4 1 0 0 1 1\n")
    try:
        assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)
        assert galois._env_loaded
    finally:
        clear_modulus_overrides()


def _monic(p: int, m: int):
    """Every monic polynomial of degree m over GF(p), ascending coefficients,
    in lexicographic order from the highest degree down."""
    for lower in itertools.product(range(p), repeat=m):
        yield tuple(reversed(lower)) + (1,)


def _reducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg f // 2;
    constants count as reducible, as the modulus check words them."""
    zp = oracle.IntegersMod(p)
    m = len(f) - 1
    return m < 1 or any(not oracle.poly_div_rem(list(f), list(g), zp)[1]
                        for d in range(1, m // 2 + 1) for g in _monic(p, d))


@pytest.mark.parametrize("p,top", [(2, 4), (3, 4), (5, 3), (7, 3)])
def test_modulus_check_accepts_exactly_the_polynomials_where_x_has_full_order(p, top):
    for m in range(top + 1):
        for f in _monic(p, m):
            if oracle.order_of_x(f, p) == p ** m - 1:
                assert galois._validated_modulus(p, m, f) == f
                continue
            reason = "is not irreducible" if _reducible(f, p) else "is irreducible but not primitive"
            with pytest.raises(ValueError, match=re.escape(f"modulus {f} {reason} over GF({p})")):
                galois._validated_modulus(p, m, f)


def test_default_modulus_is_the_first_polynomial_where_x_has_full_order():
    pairs = [(p, m) for p in range(2, 1 << 10) if galois.is_prime(p)
             for m in range(1, 11) if p ** m <= 1 << 10]
    assert len(pairs) == 198
    for p, m in pairs:
        first = next(f for f in _monic(p, m) if oracle.order_of_x(f, p) == p ** m - 1)
        assert default_modulus(p, m) == first, (p, m)


def test_modulus_table_rejects_a_constant_modulus(tmp_path):
    from asymqec.galois import load_modulus_table

    table = tmp_path / "moduli.txt"
    # primitivity alone would pass it: q - 1 = 0 has no prime factors, and x^0 = 1
    table.write_text("2 0 1\n")
    with pytest.raises(ValueError, match=re.escape(f"{table}:1: modulus (1,) is not irreducible")):
        load_modulus_table(str(table))
    assert galois._overrides == {}
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)


@pytest.mark.parametrize("p,m", [(3, 11), (5, 7)])
def test_table_free_product_is_the_schoolbook_product_reduced_by_the_modulus(p, m):
    field = make_field(p, m)
    assert field._log is None
    zp = oracle.IntegersMod(p)
    rng = random.Random(31 * p + m)
    for _ in range(500):
        a, b = rng.randrange(1, field.q), rng.randrange(1, field.q)
        digits_a, digits_b = ([x // p ** i % p for i in range(m)] for x in (a, b))
        product = oracle.poly_mul(digits_a, digits_b, zp)
        residue = oracle.poly_div_rem(product, list(field.modulus), zp)[1]
        assert field.mul_i(a, b) == sum(d * p ** i for i, d in enumerate(residue))


@pytest.mark.parametrize("p,m", [(3, 4), (5, 3), (7, 2), (13, 1)])
def test_antilog_table_is_the_successive_alpha_multiples(p, m):
    field = make_field(p, m)
    powers = [1]
    for _ in range(2 * (field.q - 1) - 1):
        powers.append(field._mul_raw(powers[-1], field.alpha.value))
    assert field._exp == powers
    assert all(field._log[v] == i for i, v in enumerate(powers[: field.q - 1]))


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_zech_addition_and_negation_are_the_digitwise_sum(p, m):
    # the digits are computed here: oracle's own arithmetic calls add_i
    field = make_field(p, m)
    assert field._zech is not None and len(field._zech) == field.q - 1

    def digits(v):
        return [v // p ** i % p for i in range(m)]

    def encode(ds):
        return sum(d * p ** i for i, d in enumerate(ds))

    for a in range(field.q):
        da = digits(a)
        assert field.neg_i(a) == encode([-x % p for x in da])
        for b in range(field.q):
            total = encode([(x + y) % p for x, y in zip(da, digits(b))])
            assert field.add_i(a, b) == total, (a, b)
            assert field.sub_i(total, b) == a


def test_only_odd_extension_fields_under_the_table_limit_get_zech_logs():
    assert make_field(3, 2)._zech is not None
    for p, m in ((2, 1), (2, 4), (3, 1), (13, 1), (3, 11)):
        assert make_field(p, m)._zech is None
