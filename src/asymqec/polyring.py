"""Polynomials over GF(q), cyclotomic cosets, and the factorisation of x^n - 1.

Everything a defining set rests on lives here: the coset partition of Z_n
under multiplication by q (built from the one orbit walker, `coset_of`), the
one enumerator of coset unions (the defining sets, as residue bitmasks), the
minimal polynomial of each coset (a product of Polynomials over the splitting
field, mapped back to GF(q)), and the resulting complete factorisation of
x^n - 1. All values are immutable and all operations pure; divisibility
answers are memoized by value and dropped with the other derived caches.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import galois
from .errors import InternalConsistencyError
from .galois import (Field, FieldElement, check_length, field_of_size, nth_root_field,
                     subfield_embedding)

#: degree of the zero polynomial; chosen so deg(a*b) = deg a + deg b always holds
NEG_INF = float("-inf")


class Polynomial(NamedTuple):
    """Polynomial over a Field; coefficients ascending, no trailing zeros.

    Products, division and embedded evaluation add inline where the field
    allows: integers reduced mod p over a prime field, XOR with the log and
    antilog tables over GF(2^m); other fields go through the Field methods.
    """

    field: Field
    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, field: Field, coeffs: Iterable[int]) -> Polynomial:
        out = [int(c) for c in coeffs]
        for c in out:
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient {c} outside GF({field.q})")
        while out and out[-1] == 0:
            out.pop()
        return cls(field, tuple(out))

    @classmethod
    def zero(cls, field: Field) -> Polynomial:
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> Polynomial:
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> Polynomial:
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field: Field, degree: int, coeff: int = 1) -> Polynomial:
        if coeff == 0:
            return cls.zero(field)
        return cls(field, (0,) * degree + (coeff,))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _check(self, other: Polynomial) -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:  # fields are interned
            raise ValueError(f"mixed fields: {self.field} vs {other.field}")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add_i(out[i], c)
        while out and out[-1] == 0:
            out.pop()
        return Polynomial(f, tuple(out))

    def __neg__(self) -> Polynomial:
        f = self.field
        return Polynomial(f, tuple(f.neg_i(c) for c in self.coeffs))

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        f = self.field
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        if f.m == 1:  # integers mod p, reduced once at the end
            terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in terms:
                        out[i + j] += a * b
            out = [c % f.p for c in out]
        elif f.p == 2 and f._log is not None:  # sums are XOR, products two lookups
            exp, log = f._exp, f._log
            terms = [(j, log[b]) for j, b in enumerate(other.coeffs) if b]
            for i, a in enumerate(self.coeffs):
                if a:
                    la = log[a]
                    for j, lb in terms:
                        out[i + j] ^= exp[la + lb]
        else:
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] = f.add_i(out[i + j], f.mul_i(a, b))
        return Polynomial(f, tuple(out))

    def scale(self, c: int) -> Polynomial:
        f = self.field
        if c == 0:
            return Polynomial.zero(f)
        return Polynomial(f, tuple(f.mul_i(a, c) for a in self.coeffs))

    def div_rem(self, divisor: Polynomial) -> tuple[Polynomial, Polynomial]:
        """(quotient, remainder) with deg(remainder) < deg(divisor)."""
        self._check(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        f = self.field
        rem = list(self.coeffs)
        db = len(divisor.coeffs) - 1
        inv_lead = f.inv_i(divisor.leading)
        quot = [0] * max(0, len(rem) - db)
        shifts = range(len(rem) - 1 - db, -1, -1)
        if f.m == 1:  # integers mod p, each reduced when it leads or at the end
            p = f.p
            lower = [(j, c) for j, c in enumerate(divisor.coeffs[:-1]) if c]
            for shift in shifts:
                factor = rem[shift + db] * inv_lead % p
                if factor:
                    quot[shift] = factor
                    for j, c in lower:
                        rem[shift + j] -= factor * c
            rem = [c % p for c in rem[:db]]
        elif f.p == 2 and f._log is not None:  # sums are XOR, products two lookups
            exp, log = f._exp, f._log
            order, log_inv = f.q - 1, log[inv_lead]
            lower = [(j, log[c]) for j, c in enumerate(divisor.coeffs[:-1]) if c]
            for shift in shifts:
                top = rem[shift + db]
                if top:
                    lf = (log[top] + log_inv) % order
                    quot[shift] = exp[lf]
                    for j, lc in lower:
                        rem[shift + j] ^= exp[lf + lc]
            rem = rem[:db]
        else:
            for shift in shifts:
                top = rem[shift + db]
                if top:
                    factor = quot[shift] = f.mul_i(top, inv_lead)
                    for j, c in enumerate(divisor.coeffs[:-1]):
                        if c:
                            rem[shift + j] = f.sub_i(rem[shift + j], f.mul_i(factor, c))
            rem = rem[:db]
        while rem and rem[-1] == 0:
            rem.pop()
        return Polynomial(f, tuple(quot)), Polynomial(f, tuple(rem))

    def exact_quotient(self, divisor: Polynomial) -> Polynomial | None:
        """self / divisor when the division is exact, else None. The answer
        settles `divisor.divides(self)`, and an exact nonzero quotient
        `quotient.divides(self)` too."""
        quot, rem = self.div_rem(divisor)
        exact = _DIVIDES[divisor, self] = rem.is_zero
        if not exact:
            return None
        if not quot.is_zero:
            _DIVIDES[quot, self] = True
        return quot

    def __floordiv__(self, other: Polynomial) -> Polynomial:
        return self.div_rem(other)[0]

    def __mod__(self, other: Polynomial) -> Polynomial:
        return self.div_rem(other)[1]

    def divides(self, other: Polynomial) -> bool:
        """True if self divides other exactly (self must be nonzero).

        Memoized by the two polynomial values, keeping only the answer: a
        family search asks each nesting question several times over.
        """
        key = (self, other)
        hit = _DIVIDES.get(key)
        if hit is None:
            hit = _DIVIDES[key] = other.div_rem(self)[1].is_zero
        return hit

    def monic(self) -> Polynomial:
        if self.is_zero:
            raise ValueError("cannot normalise the zero polynomial")
        if self.is_monic:
            return self
        return self.scale(self.field.inv_i(self.leading))

    def reverse(self) -> Polynomial:
        """x^deg * p(1/x): the coefficient sequence reversed."""
        return Polynomial.from_coeffs(self.field, tuple(reversed(self.coeffs)))

    def __pow__(self, e: int) -> Polynomial:
        if e < 0:
            raise ValueError("negative polynomial power")
        acc = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point: FieldElement) -> FieldElement:
        if point.field != self.field:
            raise ValueError(f"evaluation point in {point.field}, coefficients in {self.field}")
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add_i(f.mul_i(acc, point.value), c)
        return FieldElement(f, acc)

    def evaluate_embedded(self, point: FieldElement, embed: Sequence[int]) -> int:
        """Horner evaluation at an extension-field point, coefficients lifted via `embed`."""
        ext, x = point.field, point.value
        acc = 0
        if ext.m == 1:
            for c in reversed(self.coeffs):
                acc = (acc * x + embed[c]) % ext.p
        elif ext.p == 2 and ext._log is not None and x:
            exp, log = ext._exp, ext._log
            lx = log[x]
            for c in reversed(self.coeffs):
                acc = (exp[log[acc] + lx] if acc else 0) ^ embed[c]
        else:
            for c in reversed(self.coeffs):
                acc = ext.add_i(ext.mul_i(acc, x), embed[c])
        return acc

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.field!r}, {render_poly(self)!r})"


#: (divisor, dividend) -> whether the division is exact
_DIVIDES: dict[tuple[Polynomial, Polynomial], bool] = {}


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor; gcd(f, 0) is the monic multiple of f."""
    a._check(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def render_poly(poly: Polynomial) -> str:
    """Render like "x^4 + x + 1"; extension-field coefficients appear as a^k."""
    if poly.is_zero:
        return "0"
    field = poly.field
    terms = []
    for deg in range(len(poly.coeffs) - 1, -1, -1):
        c = poly.coeffs[deg]
        if c == 0:
            continue
        cs = field.render_value(c)
        if deg == 0:
            terms.append(cs)
        else:
            xs = "x" if deg == 1 else f"x^{deg}"
            terms.append(xs if c == 1 else f"{cs}*{xs}")
    return " + ".join(terms)


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>a(?:\^\d+)?|\d+)\s*\*?\s*)?(?:(?P<var>x)(?:\^(?P<exp>\d+))?)?$"
)


def parse_poly(text: str, field: Field) -> Polynomial:
    """Parse "x^4 + x + 1", "a^2*x + a", or "2*x^3 + 1" over the given field."""
    body = text.strip()
    if body in ("", "0"):
        return Polynomial.zero(field)
    coeffs: dict[int, int] = {}
    for raw in body.replace("-", "+-").split("+"):
        term = raw.strip()
        if not term:
            continue
        negate = term.startswith("-")
        if negate:
            term = term[1:].strip()
        m = _TERM_RE.match(term.replace(" ", ""))
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial term {raw.strip()!r}")
        cs = m.group("coeff")
        if cs is None:
            c = 1
        elif cs.startswith("a"):
            e = int(cs[2:]) if "^" in cs else 1
            c = field.pow_i(field._alpha_value, e)
        else:
            c = int(cs)
            if c >= field.q:
                raise ValueError(f"coefficient {c} outside GF({field.q})")
        if m.group("var") is None:
            deg = 0
        else:
            deg = int(m.group("exp")) if m.group("exp") else 1
        if negate:
            c = field.neg_i(c)
        coeffs[deg] = field.add_i(coeffs.get(deg, 0), c)
    out = [0] * (max(coeffs) + 1)
    for deg, c in coeffs.items():
        out[deg] = c
    return Polynomial.from_coeffs(field, out)


# ---------------------------------------------------------------------------
# Cyclotomic cosets and minimal polynomials
# ---------------------------------------------------------------------------

class CyclotomicCoset(NamedTuple):
    """The orbit of a residue under multiplication by q modulo n."""

    n: int
    q: int
    representative: int
    members: tuple[int, ...]

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"


@lru_cache(maxsize=None)
def cyclotomic_cosets(n: int, q: int) -> tuple[CyclotomicCoset, ...]:
    """Partition of Z_n into cyclotomic cosets, sorted by representative."""
    check_length(n, q)
    cosets: list[CyclotomicCoset] = []
    covered: set[int] = set()
    for s in range(n):
        if s not in covered:
            cosets.append(coset_of(n, q, s))
            covered.update(cosets[-1].members)
    return tuple(cosets)


def coset_unions(cosets: Sequence[CyclotomicCoset]) -> Iterator[int]:
    """Residue bitmask (bit s for residue s) of the union of every subset of
    `cosets`, by subset size and then in `itertools.combinations` order."""
    masks = [sum(1 << s for s in coset.members) for coset in cosets]
    for size in range(len(masks) + 1):
        for chosen in combinations(masks, size):
            yield sum(chosen)  # cosets are disjoint, so the sum is the union


def mask_residues(mask: int) -> tuple[int, ...]:
    """The residues set in a bitmask, ascending."""
    return tuple(s for s in range(mask.bit_length()) if mask >> s & 1)


def coset_of(n: int, q: int, s: int) -> CyclotomicCoset:
    """The coset containing residue s: its orbit under multiplication by q."""
    check_length(n, q)
    s %= n
    orbit = set()
    t = s
    while t not in orbit:
        orbit.add(t)
        t = (t * q) % n
    members = tuple(sorted(orbit))
    return CyclotomicCoset(n, q, members[0], members)


@lru_cache(maxsize=None)
def minimal_polynomial(n: int, q: int, coset: CyclotomicCoset) -> Polynomial:
    """The minimal polynomial over GF(q) of alpha^s for s in the coset.

    Multiplies the (x - alpha^i) over the splitting field; each coefficient
    must land in the embedded copy of GF(q) and is mapped back, anything else
    is an internal-consistency failure rather than a silent truncation.
    """
    expected = coset_of(n, q, coset.representative)
    if coset.members != expected.members or coset.n != n or coset.q != q:
        raise ValueError(f"{coset} is not a cyclotomic coset mod {n} over GF({q})")
    ext, alpha = nth_root_field(n, q)
    base = field_of_size(q)
    _, lift = subfield_embedding(base, ext)
    factors = (Polynomial(ext, (ext.neg_i(ext.pow_i(alpha.value, i)), 1)) for i in coset.members)
    prod = reduce(Polynomial.__mul__, factors)
    try:
        coeffs = [lift[c] for c in prod.coeffs]
    except KeyError as exc:
        raise InternalConsistencyError(
            f"minimal polynomial coefficient {exc} of coset {coset} not in GF({q})"
        ) from None
    return Polynomial.from_coeffs(base, coeffs)


@lru_cache(maxsize=None)
def factor_xn_minus_1(n: int, q: int) -> tuple[tuple[CyclotomicCoset, Polynomial], ...]:
    """Complete factorisation of x^n - 1 over GF(q), one factor per coset.

    The product of the returned factors is verified against x^n - 1; a
    mismatch raises InternalConsistencyError.
    """
    check_length(n, q)
    base = field_of_size(q)
    factors = tuple(
        (coset, minimal_polynomial(n, q, coset)) for coset in cyclotomic_cosets(n, q)
    )
    product = Polynomial.one(base)
    for _, f in factors:
        product = product * f
    target = Polynomial.monomial(base, n) - Polynomial.one(base)
    if product != target:
        raise InternalConsistencyError(
            f"minimal polynomials of (n={n}, q={q}) do not multiply to x^{n} - 1"
        )
    return factors


def _clear_caches() -> None:
    _DIVIDES.clear()
    cyclotomic_cosets.cache_clear()
    minimal_polynomial.cache_clear()
    factor_xn_minus_1.cache_clear()


galois.register_invalidation_hook(_clear_caches)
