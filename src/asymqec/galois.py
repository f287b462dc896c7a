"""Exact arithmetic in prime-power Galois fields GF(p^m).

Elements are encoded as integers: the element with polynomial-residue digits
(a_0, a_1, ..., a_{m-1}) over GF(p) is stored as sum(a_i * p**i), so for
characteristic 2 the encoding is the familiar bitmask. Every field carries
log/antilog tables (for q <= 2^16) making multiplication and inversion two
array lookups; over GF(p^m) with p odd and m > 1 a Zech-logarithm table
makes addition and negation lookups too. Larger fields fall back to residue
arithmetic modulo the field modulus. Fields and elements are immutable after
construction and safe to share between threads.

The one GF(p)[x] layer lives here too: one product (Kronecker substitution)
and one division loop, behind `polyring`'s prime-field polynomials,
odd-characteristic residue arithmetic and the modulus search.

The default modulus for each (p, m) is the lexicographically smallest monic
primitive polynomial of degree m over GF(p) (x^4 + x + 1 for GF(16)), so
generator polynomials and everything derived from them are reproducible
bit-for-bit. Overrides are accepted either programmatically via
`set_modulus_override` / `load_modulus_table`, or from a table file named by
the ASYMQEC_MODULUS_TABLE environment variable. Table files hold one field
per line, ascending coefficients, `#` comments allowed:

    # p m c0 c1 ... cm
    2 4 1 1 0 0 1

A supplied modulus must be monic, irreducible and primitive; anything else
is rejected. Both the search and the check test primitivity alone: if x has
order p^m - 1 modulo f, every nonzero residue is a unit, so f is irreducible.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import gcd
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import InternalConsistencyError

#: log/antilog tables are built up to this field size.
TABLE_LIMIT = 1 << 16
#: fields beyond this size are out of scope.
MAX_FIELD_SIZE = 1 << 20

ENV_MODULUS_TABLE = "ASYMQEC_MODULUS_TABLE"

_invalidation_hooks: list[Callable[[], None]] = []


def register_invalidation_hook(hook: Callable[[], None]) -> None:
    """Register a cache clearer to run whenever the modulus table changes."""
    _invalidation_hooks.append(hook)


def _invalidate_derived_caches() -> None:
    _FIELD_CACHE.clear()
    check_length.cache_clear()
    subfield_embedding.cache_clear()
    for hook in _invalidation_hooks:
        hook()


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == (n,)


def prime_power(q: int) -> tuple[int, int]:
    """Split q = p^s with p prime, or raise ValueError."""
    ps = prime_factors(q)  # () for q < 2
    if len(ps) != 1:
        raise ValueError(f"q={q} is not a prime power")
    p, s = ps[0], 0
    while q > 1:
        q //= p
        s += 1
    return p, s


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/nZ)*; requires gcd(a, n) = 1."""
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1, no multiplicative order")
    order, v = 1, a
    while v != 1 % n:  # 1 % n: in Z/1Z the identity is 0
        v = (v * a) % n
        order += 1
    return order


@lru_cache(maxsize=None)
def check_length(n: int, q: int) -> None:
    """Reject lengths with no simple-root cyclic codes over GF(q), and any q
    that is not a field size. A pair that passes is remembered with the
    other derived caches; a rejection is not, so it raises on every call."""
    if n < 1:
        raise ValueError(f"length n={n} must be positive")
    if gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) != 1: unsupported repeated-root length")
    prime_power(q)


# ---------------------------------------------------------------------------
# GF(p)[x], coefficients ascending: the one product and the one division.
# The modulus search tests primitivity alone, which implies irreducibility;
# trial division only words the rejection of a modulus that is not primitive.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _residues(p: int) -> bytes:
    """The byte table i -> i mod p, for `bytes.translate`."""
    return bytes(i % p for i in range(256))


def _kronecker(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """The product of two nonzero coefficient sequences over GF(p): each
    packed as w-byte lanes of one int, multiplied once, each lane read back
    mod p. No lane of the integer product exceeds min(len a, len b) *
    (p - 1)^2, and w is the bytes of that bound, so no lane carries."""
    size = len(a) + len(b) - 1
    w = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
    if w == 1:
        prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
        return tuple(prod.to_bytes(size, "little").translate(_residues(p)))
    x, y = (int.from_bytes(b"".join(c.to_bytes(w, "little") for c in t), "little") for t in (a, b))
    raw = (x * y).to_bytes(size * w, "little")
    return tuple(int.from_bytes(raw[i:i + w], "little") % p for i in range(0, size * w, w))


def _divide(work: list[int], b: Sequence[int], p: int) -> list[int]:
    """Divide the coefficient list `work` by the nonzero b over GF(p), in
    place: the quotient ends in work[deg b:], and the remainder, trimmed of
    trailing zeros, is returned. Entries are reduced mod p only when they
    lead or at the end, so `work` may hold any integers."""
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    lower = [(j, c) for j, c in enumerate(b[:-1]) if c]
    for shift in range(len(work) - 1 - db, -1, -1):
        factor = work[shift + db] = work[shift + db] * inv_lead % p
        if factor:
            for j, c in lower:
                work[shift + j] -= factor * c
    rem = [c % p for c in work[:db]]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg f // 2."""
    m = len(f) - 1
    return m >= 1 and all(_divide(list(f), _decode_digits(enc, p, d) + [1], p)
                          for d in range(1, m // 2 + 1) for enc in range(p ** d))


def _x_power(e: int, f: Sequence[int], p: int) -> list[int]:
    """x^e mod f over GF(p) (f(0) != 0, so no power vanishes): squares from
    the top bit of e down, and each set bit multiplies by x as a shift."""
    acc = [1]
    for bit in bin(e)[2:]:
        acc = _divide(list(_kronecker(acc, acc, p)), f, p)
        if bit == "1":
            acc = _divide([0] + acc, f, p)
    return acc


def _is_primitive(f: Sequence[int], p: int) -> bool:
    """True if the residue class of x generates GF(p^deg f)*, which also
    makes f irreducible."""
    m = len(f) - 1
    if m < 1 or f[0] == 0:
        return False
    q = p ** m
    return _x_power(q - 1, f, p) == [1] and all(
        _x_power((q - 1) // r, f, p) != [1] for r in prime_factors(q - 1))


def _decode_digits(value: int, p: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        value, d = divmod(value, p)
        digits.append(d)
    return digits


def _encode_digits(digits: Sequence[int], p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _check_field_size(p: int, m: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree m={m} must be >= 1")
    if p ** m > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p}^{m} exceeds the supported bound {MAX_FIELD_SIZE}")


@lru_cache(maxsize=None)
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic primitive polynomial of degree m over GF(p).

    Lexicographic order compares coefficient tuples from the highest degree
    down, which for the integer encoding used here is plain numeric order on
    the lower coefficients.
    """
    _check_field_size(p, m)
    for enc in range(p ** m):
        f = tuple(_decode_digits(enc, p, m)) + (1,)
        if _is_primitive(f, p):
            return f
    raise InternalConsistencyError(f"no primitive polynomial found for GF({p}^{m})")


# ---------------------------------------------------------------------------
# Modulus overrides
# ---------------------------------------------------------------------------

_overrides: dict[tuple[int, int], tuple[int, ...]] = {}
_env_loaded = False


def _validated_modulus(p: int, m: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    mod = tuple(int(c) % p for c in coeffs)
    if len(mod) != m + 1 or mod[-1] != 1:
        raise ValueError(f"modulus for GF({p}^{m}) must be monic of degree {m}")
    if not _is_primitive(mod, p):  # primitive implies irreducible; tell the two failures apart
        if not _is_irreducible(mod, p):
            raise ValueError(f"modulus {mod} is not irreducible over GF({p})")
        raise ValueError(f"modulus {mod} is irreducible but not primitive over GF({p})")
    return mod


def set_modulus_override(p: int, m: int, coeffs: Sequence[int]) -> None:
    """Override the default modulus for GF(p^m); must be monic primitive."""
    _overrides[(p, m)] = _validated_modulus(p, m, coeffs)
    _invalidate_derived_caches()


def clear_modulus_overrides() -> None:
    _overrides.clear()
    _invalidate_derived_caches()


def load_modulus_table(path: str) -> int:
    """Load overrides from a table file; returns the number of entries read.

    Every line is validated before any takes effect, so a file with a bad
    line raises ValueError naming `path:line` and leaves the overrides and
    the derived caches as they were; an unreadable file raises ValueError too.
    """
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    count = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:  # strerror is the OSError text without the path
        raise ValueError(f"cannot read modulus table {path}: {getattr(exc, 'strerror', exc)}") from None
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) < 3:
            raise ValueError(f"{path}:{lineno}: expected 'p m c0 ... cm'")
        try:
            p, m, *coeffs = map(int, parts)
            if not is_prime(p):
                raise ValueError(f"p={p} is not prime")
            table[(p, m)] = _validated_modulus(p, m, coeffs)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        count += 1
    _overrides.update(table)
    _invalidate_derived_caches()
    return count


def _maybe_load_env_table() -> None:
    global _env_loaded
    if _env_loaded:
        return
    path = os.environ.get(ENV_MODULUS_TABLE)
    if path:
        load_modulus_table(path)  # a failed load raises again on the next call
    _env_loaded = True


# ---------------------------------------------------------------------------
# Field and FieldElement
# ---------------------------------------------------------------------------

class Field:
    """The Galois field GF(p^m) with a fixed primitive modulus.

    Provides integer-level arithmetic (`add_i`, `mul_i`, ...) on encoded
    values for hot loops, and a `FieldElement` wrapper for everything else.
    """

    __slots__ = ("p", "m", "q", "modulus", "_hash", "_alpha_value", "_mod_int", "_exp", "_log",
                 "_zech")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        # fields are interned and immutable: hash once
        self._hash = hash((p, m, modulus))
        # integer encoding of the modulus, used by the GF(2^m) fast path
        self._mod_int = _encode_digits(modulus, p)
        self._alpha_value = (-modulus[0]) % p if m == 1 else p  # the residue class of x
        self._zech = None
        if self.q <= TABLE_LIMIT:
            self._build_tables()
        else:
            self._exp = self._log = None

    def _build_tables(self) -> None:
        p, q, mod = self.p, self.q, self._mod_int
        exp = [0] * (q - 1)
        log = [-1] * q
        v = 1
        digits, lower = [1] + [0] * (self.m - 1), self.modulus[:-1]
        for i in range(q - 1):
            exp[i] = v
            log[v] = i
            if p == 2:  # alpha is x (1 for GF(2), modulus x + 1): shift, then reduce
                v <<= 1
                if v & q:
                    v ^= mod
            else:  # times x: shift the digits up, less the top digit c times the modulus
                c = digits.pop()
                digits.insert(0, 0)
                if c:
                    digits = [(d - c * f) % p for d, f in zip(digits, lower)]
                v = _encode_digits(digits, p)
        if v != 1:
            raise InternalConsistencyError(f"modulus of GF({self.q}) is not primitive")
        if p != 2 and self.m > 1:
            # Zech logarithms: zech[i] = log(1 + alpha^i), -1 where 1 + alpha^i = 0;
            # adding 1 raises the lowest digit, v % p, by one mod p
            self._zech = [log[v - v % p + (v + 1) % p] for v in exp]
        exp.extend(exp)  # a second period: a sum of two logs needs no reduction
        self._exp, self._log = exp, log

    # -- raw residue arithmetic (no tables) --------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        if self.p == 2:
            top = 1 << self.m
            mod = self._mod_int
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return acc
        p = self.p
        prod = _kronecker(_decode_digits(a, p, self.m), _decode_digits(b, p, self.m), p)
        return _encode_digits(_divide(list(prod), self.modulus, p), p)

    # -- integer-level field operations ------------------------------------

    def add_i(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        if self.m == 1:
            return (a + b) % p
        if self._zech is not None:  # alpha^la + alpha^lb = alpha^la (1 + alpha^(lb - la))
            if not a or not b:
                return a or b
            log = self._log
            la = log[a]
            z = self._zech[(log[b] - la) % (self.q - 1)]
            return self._exp[la + z] if z >= 0 else 0
        da = _decode_digits(a, p, self.m)
        db = _decode_digits(b, p, self.m)
        return _encode_digits([(x + y) % p for x, y in zip(da, db)], p)

    def neg_i(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        if self.m == 1:
            return -a % p
        if self._zech is not None:  # -1 = alpha^((q - 1) / 2)
            return self._exp[self._log[a] + (self.q - 1) // 2] if a else 0
        return _encode_digits([(-d) % p for d in _decode_digits(a, p, self.m)], p)

    def sub_i(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero has no inverse in GF({self.q})")
        if self._log is not None:
            return self._exp[(self.q - 1) - self._log[a]]
        return self.pow_i(a, self.q - 2)

    def pow_i(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError(f"zero has no inverse in GF({self.q})")
            return 0
        if self._log is not None:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        e %= self.q - 1
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self._mul_raw(acc, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return acc

    def log_i(self, a: int) -> int:
        """Discrete log base alpha; requires tables and a nonzero argument."""
        if a == 0:
            raise ValueError("zero has no discrete log")
        if self._log is None:
            raise ValueError(f"GF({self.q}) has no log table")
        return self._log[a]

    def horner(self, coeffs: Sequence[int], x: int) -> int:
        """sum(coeffs[i] * x^i) by Horner's rule, coefficients ascending."""
        acc = 0
        if self.p == 2 and self._log is not None and x:  # sums are XOR, products two lookups
            exp, log = self._exp, self._log
            lx = log[x]
            for c in reversed(coeffs):
                acc = (exp[log[acc] + lx] if acc else 0) ^ c
        else:
            add, mul = self.add_i, self.mul_i
            for c in reversed(coeffs):
                acc = add(mul(acc, x), c)
        return acc

    # -- element layer -------------------------------------------------------

    def element(self, value: int) -> FieldElement:
        if not 0 <= value < self.q:
            raise ValueError(f"value {value} outside GF({self.q})")
        return FieldElement(self, value)

    def from_coeffs(self, digits: Sequence[int]) -> FieldElement:
        if len(digits) > self.m:
            raise ValueError("too many coefficients")
        return self.element(_encode_digits([d % self.p for d in digits], self.p))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    @property
    def alpha(self) -> FieldElement:
        """The primitive element: the residue class of x modulo the modulus."""
        return FieldElement(self, self._alpha_value)

    def alpha_power(self, e: int) -> FieldElement:
        return FieldElement(self, self.pow_i(self._alpha_value, e))

    def elements(self) -> Iterator[FieldElement]:
        for v in range(self.q):
            yield FieldElement(self, v)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def render_value(self, value: int) -> str:
        """Human-readable element: digits for prime fields, powers of `a` above."""
        if self.m == 1 or value in (0, 1):
            return str(value)
        e = self.log_i(value) if self._log is not None else None
        if e is None:
            return f"#{value}"
        return "a" if e == 1 else f"a^{e}"


class FieldElement(NamedTuple):
    """An element of a `Field`, closed under the usual operator protocol."""

    field: Field
    value: int

    def _check(self, other: FieldElement) -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} vs {other.field}")

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.field, self.field.add_i(self.value, other.value))

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.field, self.field.sub_i(self.value, other.value))

    def __neg__(self) -> FieldElement:
        return FieldElement(self.field, self.field.neg_i(self.value))

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.field, self.field.mul_i(self.value, other.value))

    def __truediv__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.field, self.field.mul_i(self.value, self.field.inv_i(other.value)))

    def __pow__(self, e: int) -> FieldElement:
        return FieldElement(self.field, self.field.pow_i(self.value, e))

    def inverse(self) -> FieldElement:
        return FieldElement(self.field, self.field.inv_i(self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.field!r}:{self.field.render_value(self.value)}"


_FIELD_CACHE: dict[tuple[int, int, tuple[int, ...]], Field] = {}


def make_field(p: int, m: int = 1, modulus: Sequence[int] | None = None) -> Field:
    """Construct (or fetch the cached) GF(p^m).

    Without an explicit `modulus` the override table and then the built-in
    default are consulted. Raises ValueError for non-prime p, unsupported
    sizes, or a modulus that is not monic/irreducible/primitive.
    """
    _maybe_load_env_table()
    _check_field_size(p, m)
    if modulus is not None:
        mod = _validated_modulus(p, m, modulus)
    elif (p, m) in _overrides:
        mod = _overrides[(p, m)]
    else:
        mod = default_modulus(p, m)
    key = (p, m, mod)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = _FIELD_CACHE[key] = Field(p, m, mod)
    return field


def field_of_size(q: int) -> Field:
    """GF(q) for a prime power q."""
    p, s = prime_power(q)
    return make_field(p, s)


def nth_root_field(n: int, q: int) -> tuple[Field, FieldElement]:
    """Smallest extension of GF(q) containing a primitive n-th root of unity.

    Returns (GF(q^m'), alpha) where m' is the multiplicative order of q
    modulo n and alpha has multiplicative order exactly n. Rejects
    gcd(n, q) != 1 (repeated-root lengths are unsupported).
    """
    check_length(n, q)
    p, s = prime_power(q)
    m_ext = s * multiplicative_order(q, n)
    if p ** m_ext > MAX_FIELD_SIZE:
        raise ValueError(
            f"length n={n} over GF({q}) needs GF({p}^{m_ext}), beyond the supported bound"
        )
    ext = make_field(p, m_ext)
    alpha = ext.alpha_power((ext.q - 1) // n)
    return ext, alpha


@lru_cache(maxsize=None)
def subfield_embedding(base: Field, ext: Field) -> tuple[tuple[int, ...], dict[int, int]]:
    """Identify GF(q) inside GF(q^t): returns (embed, lift).

    `embed[v]` is the extension-field encoding of the base element v, and
    `lift` inverts it (KeyError for values outside the subfield). The image
    of the base primitive element is located among the powers
    alpha^(j * (Q-1)/(q-1)) — the unique order-(q-1) subgroup — by testing
    which of them are roots of the base modulus; the smallest encoding wins,
    making the embedding deterministic and a ring homomorphism.
    """
    if base.p != ext.p:
        raise ValueError(f"different characteristic: {base} vs {ext}")
    if ext.m % base.m != 0:
        raise ValueError(f"{base} does not embed in {ext}")
    if base == ext:
        identity = tuple(range(base.q))
        return identity, {v: v for v in identity}
    step = (ext.q - 1) // (base.q - 1)
    roots = []
    for j in range(1, base.q):
        y = ext.pow_i(ext._alpha_value, j * step)
        if ext.horner(base.modulus, y) == 0:  # prime-field coefficients embed as themselves
            roots.append(y)
    if not roots:
        raise InternalConsistencyError(f"no root of the {base} modulus inside {ext}")
    y = min(roots)
    embed = [ext.horner(_decode_digits(v, base.p, base.m), y) for v in range(base.q)]
    lift = {img: v for v, img in enumerate(embed)}
    if len(lift) != base.q:
        raise InternalConsistencyError(f"embedding of {base} into {ext} is not injective")
    return tuple(embed), lift
