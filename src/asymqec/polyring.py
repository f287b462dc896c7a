"""Polynomials over GF(q), cyclotomic cosets, and the factorisation of x^n - 1.

Everything a defining set rests on lives here: the coset partition of Z_n
under multiplication by q (built from the one orbit walker, `coset_of`), the
one enumerator of coset unions (the defining sets, as residue bitmasks), and
the complete factorisation of x^n - 1, the one builder of the minimal
polynomial of each coset (the product of its linear factors over the
splitting field, mapped back to GF(q)). All values are immutable and all
operations pure; divisibility answers and exact quotients are memoized by
value and dropped with the other derived caches. `div_rem` and `divides`
share one division loop; a `divides` miss builds no quotient. Over prime
fields products and odd-p division are `galois`'s GF(p)[x] product and
division, and over GF(2) division is shift-and-XOR on packed coefficients.
"""

from __future__ import annotations

import re
from functools import lru_cache
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

    Over a prime field a product is `galois._kronecker`, one integer product
    of the coefficients packed as byte lanes; over GF(2) division holds
    dividend and divisor as one-byte lanes and cancels each leading term with
    one shifted XOR, odd p divides with `galois._divide`. Over GF(2^m)
    products and division XOR through the log and antilog tables; other
    fields go through the Field methods.
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
        if f.m == 1:
            return Polynomial(f, galois._kronecker(self.coeffs, other.coeffs, f.p))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        if f.p == 2 and f._log is not None:  # sums are XOR, products two lookups
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

    def _reduce(self, divisor: Polynomial, quotient: bool) -> tuple:
        """(remainder, quotient or None): the one division loop, behind both
        `div_rem` and `divides`. Over GF(2) both are ints of one-byte lanes,
        and the quotient is built only when asked for; other fields divide a
        list in place, the remainder ending below deg(divisor) and the
        quotient above it. The remainder (a list with no trailing zeros) is
        falsy exactly when the division is exact."""
        self._check(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        f, b = self.field, divisor.coeffs
        db = len(b) - 1
        if f.q == 2:  # each quotient term is one shifted XOR
            rem, quot = int.from_bytes(bytes(self.coeffs), "little"), 0
            div, top = int.from_bytes(bytes(b), "little"), 8 * db
            while rem.bit_length() > top:
                shift = (rem.bit_length() - 1 - top) & ~7
                rem ^= div << shift
                if quotient:
                    quot |= 1 << shift
            return rem, quot
        work = list(self.coeffs)
        if f.m == 1:  # the quotient ends in work[db:]
            rem = galois._divide(work, b, f.p)
            return rem, work[db:] if quotient else None
        inv_lead = f.inv_i(b[-1])
        shifts = range(len(work) - 1 - db, -1, -1)
        if f.p == 2 and f._log is not None:  # sums are XOR, products two lookups
            exp, log = f._exp, f._log
            order, log_inv = f.q - 1, log[inv_lead]
            lower = [(j, log[c]) for j, c in enumerate(b[:-1]) if c]
            for shift in shifts:
                top = work[shift + db]
                if top:
                    lf = (log[top] + log_inv) % order
                    work[shift + db] = exp[lf]
                    for j, lc in lower:
                        work[shift + j] ^= exp[lf + lc]
            rem = work[:db]
        else:
            for shift in shifts:
                top = work[shift + db]
                if top:
                    factor = work[shift + db] = f.mul_i(top, inv_lead)
                    for j, c in enumerate(b[:-1]):
                        if c:
                            work[shift + j] = f.sub_i(work[shift + j], f.mul_i(factor, c))
            rem = work[:db]
        while rem and rem[-1] == 0:
            rem.pop()
        return rem, work[db:] if quotient else None

    def div_rem(self, divisor: Polynomial) -> tuple[Polynomial, Polynomial]:
        """(quotient, remainder) with deg(remainder) < deg(divisor)."""
        f = self.field
        rem, quot = self._reduce(divisor, True)
        if f.q == 2:
            db = len(divisor.coeffs) - 1
            quot = quot.to_bytes(max(0, len(self.coeffs) - db), "little")
            rem = rem.to_bytes(db, "little").rstrip(b"\0")
        return Polynomial(f, tuple(quot)), Polynomial(f, tuple(rem))

    def exact_quotient(self, divisor: Polynomial) -> Polynomial | None:
        """self / divisor when the division is exact, else None; memoized by
        the two values. The answer settles `divisor.divides(self)`, and an
        exact nonzero quotient `quotient.divides(self)` too."""
        key = (divisor, self)
        if key in _QUOTIENTS:
            return _QUOTIENTS[key]
        quot, rem = self.div_rem(divisor)
        exact = _DIVIDES[key] = rem.is_zero
        if exact and not quot.is_zero:
            _DIVIDES[quot, self] = True
        quot = _QUOTIENTS[key] = quot if exact else None
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
        if hit is None:  # a miss builds no quotient and no Polynomial
            hit = _DIVIDES[key] = not other._reduce(self, False)[0]
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

    def __pow__(self, e: int, modulus: Polynomial | None = None) -> Polynomial:
        """self^e, or self^e mod `modulus` as `pow(self, e, modulus)` asks;
        a product is reduced only once its degree reaches deg(modulus)."""
        if e < 0:
            raise ValueError("negative polynomial power")
        if modulus is not None:
            self._check(modulus)

        def reduce(u: Polynomial) -> Polynomial:
            return u if modulus is None or len(u.coeffs) < len(modulus.coeffs) else u % modulus

        acc, base = reduce(Polynomial.one(self.field)), reduce(self)
        while e:
            if e & 1:
                acc = reduce(acc * base)
            e >>= 1
            if e:
                base = reduce(base * base)
        return acc

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point: FieldElement) -> FieldElement:
        if point.field != self.field:
            raise ValueError(f"evaluation point in {point.field}, coefficients in {self.field}")
        return FieldElement(self.field, self.field.horner(self.coeffs, point.value))

    def evaluate_embedded(self, point: FieldElement, embed: Sequence[int]) -> int:
        """Horner evaluation at an extension-field point, coefficients lifted via `embed`."""
        return point.field.horner([embed[c] for c in self.coeffs], point.value)

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.field!r}, {render_poly(self)!r})"


def xn_minus_1(field: Field, n: int) -> Polynomial:
    """x^n - 1 (n >= 1); -1 is encoded as its lowest digit, p - 1."""
    return Polynomial(field, (field.p - 1,) + (0,) * (n - 1) + (1,))


#: (divisor, dividend) -> whether the division is exact
_DIVIDES: dict[tuple[Polynomial, Polynomial], bool] = {}
#: (divisor, dividend) -> the exact quotient, or None
_QUOTIENTS: dict[tuple[Polynomial, Polynomial], Polynomial | None] = {}


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


def minimal_polynomial(n: int, q: int, coset: CyclotomicCoset) -> Polynomial:
    """The minimal polynomial over GF(q) of alpha^s for s in the coset: its
    factor in `factor_xn_minus_1(n, q)`, once the coset is checked."""
    expected = coset_of(n, q, coset.representative)
    if coset.members != expected.members or coset.n != n or coset.q != q:
        raise ValueError(f"{coset} is not a cyclotomic coset mod {n} over GF({q})")
    return dict(factor_xn_minus_1(n, q))[coset]


@lru_cache(maxsize=None)
def factor_xn_minus_1(n: int, q: int) -> tuple[tuple[CyclotomicCoset, Polynomial], ...]:
    """Complete factorisation of x^n - 1 over GF(q), one minimal polynomial
    per coset: the product of the (x - alpha^i), i in the coset.

    The splitting field, alpha and the lift into GF(q) are set up once, and
    each factor is multiplied in one pass over a coefficient list rather than
    one `Polynomial` product per root, which pays a fixed cost d times per
    coset. Every coefficient must land in the embedded copy of GF(q), and
    the factors, multiplied pairwise in a balanced tree, must give x^n - 1;
    anything else raises InternalConsistencyError, never a truncated result.
    """
    cosets = cyclotomic_cosets(n, q)
    ext, alpha = nth_root_field(n, q)
    base = field_of_size(q)
    _, lift = subfield_embedding(base, ext)
    add, mul, exp, log = ext.add_i, ext.mul_i, ext._exp, ext._log
    factors = []
    for coset in cosets:
        coeffs = [1]
        for i in coset.members:
            coeffs.insert(0, 0)  # times x, plus -alpha^i times the old coefficients
            if ext.p == 2 and log is not None:  # -alpha^i = alpha^i, products are lookups
                lr = log[alpha.value] * i % (ext.q - 1)
                for j in range(len(coeffs) - 1):
                    if coeffs[j + 1]:
                        coeffs[j] ^= exp[lr + log[coeffs[j + 1]]]
            else:
                root = ext.neg_i(ext.pow_i(alpha.value, i))
                for j in range(len(coeffs) - 1):
                    coeffs[j] = add(coeffs[j], mul(root, coeffs[j + 1]))
        try:
            factor = Polynomial(base, tuple(lift[c] for c in coeffs))
        except KeyError as exc:
            raise InternalConsistencyError(
                f"minimal polynomial coefficient {exc} of coset {coset} not in GF({q})"
            ) from None
        factors.append((coset, factor))
    product = [factor for _, factor in factors]
    while len(product) > 1:  # an odd last factor waits a level
        product = [*map(Polynomial.__mul__, product[::2], product[1::2]),
                   *product[len(product) & ~1:]]
    if product[0] != xn_minus_1(base, n):
        raise InternalConsistencyError(
            f"minimal polynomials of (n={n}, q={q}) do not multiply to x^{n} - 1"
        )
    return tuple(factors)


def _clear_caches() -> None:
    _DIVIDES.clear()
    _QUOTIENTS.clear()
    cyclotomic_cosets.cache_clear()
    factor_xn_minus_1.cache_clear()


galois.register_invalidation_hook(_clear_caches)
