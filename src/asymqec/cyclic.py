"""Cyclic codes over GF(q) identified by their defining sets.

A code is the triple (n, q, T) with T a union of cyclotomic cosets; the
generator polynomial is derived from T and cached, never authoritative, so
the set calculus (intersection = union of defining sets, sum = intersection,
dual = complement of the negated set, containment = reverse inclusion) is
exact and cheap, and the polynomial routes cross-check it.

Also here: BCH / Reed-Solomon / Hamming constructors, generator and parity
check matrices, encoding, the one root test (`roots_of`, which membership
tests use; `divisor_roots` memoizes it for the divisors of x^n - 1), and
the canonical textual code descriptors shared by the library and the CLI:

    q=2 n=15 T={1,2,4,8}
    bch:n=15,q=2,delta=5      hamming:m=4,q=2      rs:q=8,delta=3
"""

from __future__ import annotations

import re
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from . import galois
from .errors import InternalConsistencyError
from .galois import Field, check_length, field_of_size, nth_root_field, subfield_embedding
from .polyring import Polynomial, coset_of, cyclotomic_cosets, factor_xn_minus_1


class DefiningSet:
    """A union of cyclotomic cosets modulo n, the identity of a cyclic code.

    Immutable: sets with equal (n, q, members) are equal and hash alike. The
    members are sorted once, on the first use of `sorted_members`.
    """

    __slots__ = ("n", "q", "members", "_sorted")

    n: int
    q: int
    members: frozenset[int]

    def __init__(self, n: int, q: int, members: frozenset[int]):
        init = object.__setattr__
        init(self, "n", n)
        init(self, "q", q)
        init(self, "members", members)
        init(self, "_sorted", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"DefiningSet is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"DefiningSet is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DefiningSet:
            return NotImplemented
        return (self.n, self.q, self.members) == (other.n, other.q, other.members)

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.members))

    def __reduce__(self):
        return DefiningSet, (self.n, self.q, self.members)  # copy and pickle bypass __setattr__

    def __repr__(self) -> str:
        return f"DefiningSet(n={self.n!r}, q={self.q!r}, members={self.members!r})"

    @classmethod
    def closed(cls, n: int, q: int, members: Iterable[int]) -> DefiningSet:
        """Validate coset closure; a non-closed input is rejected, not closed."""
        check_length(n, q)
        mset = frozenset(int(s) % n for s in members)
        if any(s * q % n not in mset for s in mset):  # not a union of cosets: name a gap
            for s in sorted(mset):
                orbit = coset_of(n, q, s).members
                missing = [t for t in orbit if t not in mset]
                if missing:
                    raise ValueError(
                        f"defining set is not closed under multiplication by {q} mod {n}: "
                        f"residue {s} needs its whole coset {{{','.join(map(str, orbit))}}}, "
                        f"missing {missing}"
                    )
        return cls(n, q, mset)

    @property
    def sorted_members(self) -> tuple[int, ...]:
        if self._sorted is None:
            object.__setattr__(self, "_sorted", tuple(sorted(self.members)))
        return self._sorted

    def complement(self) -> DefiningSet:
        return DefiningSet(self.n, self.q, frozenset(range(self.n)) - self.members)

    def inverse(self) -> DefiningSet:
        """The set -T mod n (also coset-closed)."""
        return DefiningSet(self.n, self.q, frozenset((-s) % self.n for s in self.members))

    def union(self, other: DefiningSet) -> DefiningSet:
        self.check_matching(other)
        return DefiningSet(self.n, self.q, self.members | other.members)

    def intersection(self, other: DefiningSet) -> DefiningSet:
        self.check_matching(other)
        return DefiningSet(self.n, self.q, self.members & other.members)

    def check_matching(self, other: DefiningSet) -> None:
        """Raise ValueError unless both sets belong to codes of the same (n, q)."""
        if (self.n, self.q) != (other.n, other.q):
            raise ValueError(
                f"mismatched codes: (n={self.n}, q={self.q}) vs (n={other.n}, q={other.q})"
            )

    def __str__(self) -> str:
        return "{" + ",".join(str(s) for s in self.sorted_members) + "}"


def roots_of(f: Polynomial, n: int) -> frozenset[int]:
    """Exponents i with f(alpha^i) = 0, alpha the primitive n-th root of unity.

    f has coefficients in GF(q), so f(alpha^(qi)) = f(alpha^i)^q: one
    evaluation per cyclotomic coset decides all of its members.
    """
    q = f.field.q
    ext, alpha = nth_root_field(n, q)
    embed, _ = subfield_embedding(f.field, ext)
    out: set[int] = set()
    for coset in cyclotomic_cosets(n, q):
        point = galois.FieldElement(ext, ext.pow_i(alpha.value, coset.representative))
        if f.evaluate_embedded(point, embed) == 0:
            out.update(coset.members)
    return frozenset(out)


#: (f, n) -> roots_of(f, n), for the divisors f of x^n - 1 only
_ROOTS_CACHE: dict[tuple[Polynomial, int], frozenset[int]] = {}


def divisor_roots(f: Polynomial, n: int) -> frozenset[int]:
    """roots_of(f, n), memoized when f divides x^n - 1.

    A monic f with deg f roots among the n-th roots of unity is their
    product, so only such root sets are kept: a word tested for membership
    never enters the memo.
    """
    key = (f, n)
    roots = _ROOTS_CACHE.get(key)
    if roots is None:
        roots = roots_of(f, n)
        if f.is_monic and len(roots) == f.degree:
            _ROOTS_CACHE[key] = roots
    return roots


def consecutive_run_bound(n: int, members: frozenset[int]) -> int:
    """Designed-distance bound: longest cyclic run of consecutive residues + 1."""
    mask = 0
    for s in members:
        mask |= 1 << s
    return consecutive_run_bound_mask(n, mask)


def consecutive_run_bound_mask(n: int, mask: int) -> int:
    """consecutive_run_bound of the residues set in `mask` (bit s for residue s)."""
    if mask == 0:
        return 1
    full = (1 << n) - 1
    if mask == full:
        return n + 1
    # each rotate-and-AND keeps only the residues whose run reaches one step further back
    run = 0
    x = mask
    while x:
        x &= ((x << 1) | (x >> (n - 1))) & full
        run += 1
    return run + 1


class CyclicCode:
    """A cyclic [n, k] code over GF(q) with defining set T."""

    __slots__ = ("n", "q", "T", "field", "k", "designed_distance_bound", "_g", "_h", "_dual",
                 "_descriptor")

    def __init__(self, T: DefiningSet):
        self.n = T.n
        self.q = T.q
        self.T = T
        #: GF(q) under the modulus table in force when the code was built
        self.field: Field = field_of_size(self.q)
        self.k = self.n - len(T.members)
        #: lower bound on the minimum distance from consecutive roots
        self.designed_distance_bound = consecutive_run_bound(self.n, T.members)
        self._g: Polynomial | None = None
        self._h: Polynomial | None = None
        self._dual: CyclicCode | None = None
        self._descriptor: str | None = None

    # -- parameters -----------------------------------------------------------

    def _polynomials(self) -> tuple[Polynomial, Polynomial]:
        """(g, h): g the product over i in T of (x - alpha^i), from the coset
        factors, and h = (x^n - 1) / g, from the division that checks g."""
        if self._g is None:
            g = Polynomial.one(self.field)
            for coset, factor in factor_xn_minus_1(self.n, self.q):
                if coset.representative in self.T.members:
                    g = g * factor
            if g.degree != len(self.T.members):
                raise InternalConsistencyError(
                    f"generator degree {g.degree} != |T| = {len(self.T.members)}"
                )
            xn1 = Polynomial.monomial(g.field, self.n) - Polynomial.one(g.field)
            h = xn1.exact_quotient(g)
            if h is None:
                raise InternalConsistencyError("generator polynomial does not divide x^n - 1")
            self._g, self._h = g, h
        return self._g, self._h

    @property
    def generator_polynomial(self) -> Polynomial:
        """prod over i in T of (x - alpha^i)."""
        return self._polynomials()[0]

    @property
    def parity_polynomial(self) -> Polynomial:
        """h = (x^n - 1) / g."""
        return self._polynomials()[1]

    @property
    def dual_generator_polynomial(self) -> Polynomial:
        """x^k h(1/x) / h(0), the generator of the dual code."""
        h = self.parity_polynomial
        rev = h.reverse()
        h0 = h.coefficient(0)
        if h0 == 0:
            raise InternalConsistencyError("parity polynomial has zero constant term")
        return rev.scale(self.field.inv_i(h0))

    # -- the defining-set calculus ---------------------------------------------

    def dual(self) -> CyclicCode:
        """Euclidean dual, computed from the defining set and cross-checked.

        T(dual) = Z_n minus (-T); the reversed-parity-polynomial route must
        produce the same generator or an InternalConsistencyError is raised.
        """
        if self._dual is None:
            dual_code = from_defining_set(
                self.n, self.q, self.T.inverse().complement().members
            )
            if dual_code.generator_polynomial != self.dual_generator_polynomial:
                raise InternalConsistencyError(
                    f"dual generator mismatch for (n={self.n}, q={self.q}, T={self.T})"
                )
            self._dual = dual_code
        return self._dual

    def contains(self, other: CyclicCode) -> bool:
        """True iff `other` is a subcode of self.

        All three criteria (defining-set inclusion, generator divisibility,
        parity divisibility) are evaluated and must agree.
        """
        self.T.check_matching(other.T)
        by_sets = self.T.members <= other.T.members
        by_generator = self.generator_polynomial.divides(other.generator_polynomial)
        by_parity = other.parity_polynomial.divides(self.parity_polynomial)
        if not (by_sets == by_generator == by_parity):
            raise InternalConsistencyError(
                f"containment criteria disagree for T1={self.T}, T2={other.T}: "
                f"sets={by_sets}, generator={by_generator}, parity={by_parity}"
            )
        return by_sets

    # -- codewords ---------------------------------------------------------------

    def encode(self, message: Polynomial) -> tuple[int, ...]:
        """c(x) = m(x) g(x), returned as a length-n coefficient vector."""
        if message.field != self.field:
            raise ValueError(f"message over {message.field}, code over {self.field}")
        if message.degree >= self.k:
            raise ValueError(f"message degree {message.degree} too long for k={self.k}")
        word = message * self.generator_polynomial
        return tuple(word.coefficient(i) for i in range(self.n))

    def is_codeword(self, vector: Sequence[int]) -> bool:
        """True iff the vector's polynomial vanishes at alpha^i for all i in T."""
        if len(vector) != self.n:
            raise ValueError(f"expected length {self.n}, got {len(vector)}")
        word = Polynomial.from_coeffs(self.field, vector)
        return not self.T.members or self.T.members <= roots_of(word, self.n)

    # -- identity -----------------------------------------------------------------

    def descriptor(self) -> str:
        """Canonical textual form, reparsed identically by library and CLI."""
        if self._descriptor is None:
            self._descriptor = f"q={self.q} n={self.n} T={self.T}"
        return self._descriptor

    def label(self) -> str:
        return f"[{self.n},{self.k}]_{self.q}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CyclicCode)
            and (self.n, self.q, self.T.members) == (other.n, other.q, other.T.members)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.T.members))

    def __repr__(self) -> str:
        return f"CyclicCode({self.descriptor()})"


# ---------------------------------------------------------------------------
# Constructors. Codes are interned so derived polynomials are computed once.
# ---------------------------------------------------------------------------

_CODE_CACHE: dict[tuple[int, int, frozenset[int]], CyclicCode] = {}


def from_defining_set(n: int, q: int, members: Iterable[int]) -> CyclicCode:
    """The cyclic code with the given coset-closed defining set, validated on first use."""
    # n < 1 is never interned: DefiningSet.closed rejects it below
    mset = frozenset(int(s) % n for s in members) if n > 0 else frozenset()
    key = (n, q, mset)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = _CODE_CACHE[key] = CyclicCode(DefiningSet.closed(n, q, mset))
    return code


def full_space(n: int, q: int) -> CyclicCode:
    """The [n, n, 1] code (empty defining set, g = 1)."""
    return from_defining_set(n, q, ())


def zero_code(n: int, q: int) -> CyclicCode:
    """The [n, 0] code containing only the zero word."""
    return from_defining_set(n, q, range(n))


def repetition(n: int, q: int) -> CyclicCode:
    """The [n, 1, n] code generated by (x^n - 1)/(x - 1)."""
    return from_defining_set(n, q, range(1, n))


def bch(n: int, q: int, delta: int, b: int = 1) -> CyclicCode:
    """BCH code of designed distance delta: T is the coset closure of
    {b, b+1, ..., b+delta-2}. Narrow sense is b = 1."""
    if not 2 <= delta <= n:
        raise ValueError(f"designed distance delta={delta} out of range 2..{n}")
    members: set[int] = set()
    for i in range(b, b + delta - 1):
        members.update(coset_of(n, q, i).members)
    return from_defining_set(n, q, members)


def rs(q: int, delta: int, b: int = 1) -> CyclicCode:
    """Reed-Solomon code [q-1, q-delta, delta] over GF(q):
    T = {b, ..., b+delta-2}, singleton cosets since q = 1 mod n."""
    n = q - 1
    if n < 2:  # delta ranges over 2..n
        raise ValueError(f"q={q} too small for a Reed-Solomon code")
    if not 2 <= delta <= n:
        raise ValueError(f"designed distance delta={delta} out of range 2..{n}")
    return from_defining_set(n, q, [(b + i) % n for i in range(delta - 1)])


def hamming(m: int, q: int = 2) -> CyclicCode:
    """Cyclic Hamming code of redundancy m: length (q^m - 1)/(q - 1), T = coset of 1.

    Cyclic only when gcd(m, q - 1) = 1; other parameter pairs are rejected.
    """
    if m < 2:
        raise ValueError(f"redundancy m={m} must be >= 2")
    if gcd(m, q - 1) != 1:
        raise ValueError(f"Hamming code with m={m}, q={q} is not cyclic (gcd(m, q-1) != 1)")
    n = (q**m - 1) // (q - 1)
    return from_defining_set(n, q, coset_of(n, q, 1).members)


def intersect(c1: CyclicCode, c2: CyclicCode) -> CyclicCode:
    """C1 and C2 intersect to the code with defining set T1 union T2."""
    return from_defining_set(c1.n, c1.q, c1.T.union(c2.T).members)


def code_sum(c1: CyclicCode, c2: CyclicCode) -> CyclicCode:
    """C1 + C2 (the span) has defining set T1 intersect T2."""
    return from_defining_set(c1.n, c1.q, c1.T.intersection(c2.T).members)


def contains(outer: CyclicCode, inner: CyclicCode) -> bool:
    """True iff inner is a subcode of outer (all three criteria must agree)."""
    return outer.contains(inner)


def _clear_caches() -> None:
    # a code keeps the field it was built with: a new modulus needs new codes
    _CODE_CACHE.clear()
    _ROOTS_CACHE.clear()


galois.register_invalidation_hook(_clear_caches)


# ---------------------------------------------------------------------------
# Generator / parity-check matrices
# ---------------------------------------------------------------------------

class CheckMatrix(NamedTuple):
    """A full-row-rank matrix over GF(q) tagged with its role."""

    field: Field
    n: int
    rows: tuple[tuple[int, ...], ...]
    role: str  # "generator" | "parity"

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def bitmask_rows(self) -> tuple[int, ...]:
        """Rows as integer bitmasks (characteristic 2 only)."""
        if self.field.p != 2 or self.field.m != 1:
            raise ValueError("bitmask rows are only defined over GF(2)")
        out = []
        for row in self.rows:
            mask = 0
            for i, c in enumerate(row):
                if c:
                    mask |= 1 << i
            out.append(mask)
        return tuple(out)

    def syndrome(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.n:
            raise ValueError(f"expected length {self.n}, got {len(vector)}")
        f = self.field
        out = []
        for row in self.rows:
            acc = 0
            for a, b in zip(row, vector):
                if a and b:
                    acc = f.add_i(acc, f.mul_i(a, b))
            out.append(acc)
        return tuple(out)


def _shifted_rows(coeffs: tuple[int, ...], count: int, n: int) -> tuple[tuple[int, ...], ...]:
    """`count` length-n rows; row j is `coeffs` shifted j places right."""
    pad = n - len(coeffs)
    return tuple((0,) * j + coeffs + (0,) * (pad - j) for j in range(count))


def generator_matrix(code: CyclicCode) -> CheckMatrix:
    """k x n matrix whose rows are the cyclic shifts of g's coefficients."""
    rows = _shifted_rows(code.generator_polynomial.coeffs, code.k, code.n)
    return CheckMatrix(code.field, code.n, rows, "generator")


def parity_check_matrix(code: CyclicCode) -> CheckMatrix:
    """(n-k) x n matrix built from the reversed parity polynomial.

    Row j is the coefficient vector of x^j * x^k h(1/x); H annihilates
    exactly the codewords of the code.
    """
    rev = code.parity_polynomial.coeffs[::-1]  # h has degree exactly k
    return CheckMatrix(code.field, code.n, _shifted_rows(rev, code.n - code.k, code.n), "parity")


def product_is_zero(a: CheckMatrix, b: CheckMatrix) -> bool:
    """True iff A . B^T = 0 over the common field."""
    if a.n != b.n:
        raise ValueError(f"column count mismatch: {a.n} vs {b.n}")
    if a.field != b.field:
        raise ValueError(f"mixed fields: {a.field} vs {b.field}")
    f = a.field
    if f.p == 2 and f.m == 1:
        arows = a.bitmask_rows()
        brows = b.bitmask_rows()
        return all((ra & rb).bit_count() % 2 == 0 for ra in arows for rb in brows)
    for ra in a.rows:
        for rb in b.rows:
            acc = 0
            for x, y in zip(ra, rb):
                if x and y:
                    acc = f.add_i(acc, f.mul_i(x, y))
            if acc != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

_SET_RE = re.compile(r"^\{(.*)\}$")


def _parse_kv(body: str) -> dict[str, str]:
    # split on commas/whitespace that are not inside {...}
    parts: list[str] = []
    depth = 0
    current = []
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch in ", \t" and depth == 0:
            if current:
                parts.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    out: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in out:
            # shells brace-expand T={1,2,4,8} into repeated T= tokens; merge them
            out[key] = out[key] + "," + value
        else:
            out[key] = value
    return out


def parse_residue_set(text: str) -> tuple[int, ...]:
    """Parse "{3,6,9,12}" (or a bare comma list) into a residue tuple."""
    body = text.strip()
    if body.startswith("{"):
        m = _SET_RE.match(body)
        if not m:
            raise ValueError(f"expected a {{...}} residue set, got {body!r}")
        body = m.group(1).strip()
    return tuple(int(tok) for tok in body.split(",")) if body else ()


def parse_code(text: str) -> CyclicCode:
    """Parse a code descriptor: canonical `q=.. n=.. T={..}` or a shorthand.

    Shorthands: `bch:n=15,q=2,delta=5[,b=1]`, `hamming:m=4,q=2`,
    `rs:q=8,delta=3[,b=1]`.
    """
    body = text.strip()
    if ":" in body.split("=", 1)[0]:
        kind, _, rest = body.partition(":")
        kv = _parse_kv(rest)
        kind = kind.strip().lower()
        try:
            if kind == "bch":
                return bch(int(kv["n"]), int(kv["q"]), int(kv["delta"]), int(kv.get("b", 1)))
            if kind == "rs":
                return rs(int(kv["q"]), int(kv["delta"]), int(kv.get("b", 1)))
            if kind == "hamming":
                return hamming(int(kv["m"]), int(kv.get("q", 2)))
        except KeyError as exc:
            raise ValueError(f"descriptor {text!r} is missing {exc}") from None
        raise ValueError(f"unknown code shorthand {kind!r}")
    kv = _parse_kv(body)
    missing = {"q", "n", "T"} - set(kv)
    if missing:
        raise ValueError(f"descriptor {text!r} is missing {sorted(missing)}")
    return from_defining_set(int(kv["n"]), int(kv["q"]), parse_residue_set(kv["T"]))
