"""Deriving asymmetric quantum codes and subsystem codes from cyclic pairs.

The core construction takes nested classical codes (the dual of the Z-side
code inside the X-side code) and produces an asymmetric CSS code whose two
distances are minima over codeword set differences. Every route runs
through that one core. Two extension routes build the partner code from a
single starting code: multiplying its generator by a divisor of the parity
polynomial, or removing a coset block from the dual's defining set. Both
routes assert the ground-truth logical dimension (the block size b) and
attach a note recomputing the commonly stated closed forms 2k-b-n /
2k+b-n, which disagree with it. The Euclidean subsystem code of C1, with
C2 = C1 intersect C1-dual, is the CSS pair (C2-dual, C1-dual): its sides
wt(C2-dual minus C1) and wt(C1-dual minus C2) are the two CSS sides, and
the core's logical dimension n - k1 - k2 is the subsystem's k. The core
alone orders the two sides into dz/dx (see css_aqec).

Logical dimension is always computed from actual defining-set sizes, three
independent ways; disagreement raises InternalConsistencyError rather than
propagating a wrong parameter.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _str
from typing import NamedTuple, Sequence

from .cyclic import (
    CheckMatrix,
    CyclicCode,
    DefiningSet,
    divisor_roots,
    from_defining_set,
    intersect,
    parity_check_matrix,
    product_is_zero,
)
from .errors import BudgetExceeded, InternalConsistencyError, NotNested
from .polyring import Polynomial, render_poly
from .weights import (
    _PAIR_CACHE,
    DEFAULT_BUDGET,
    WeightReport,
    bound_only_report,
    min_weight,
    min_weight_difference_unchecked,
)

#: purity is evaluated by default only up to this length (extra enumerations)
PURITY_AUTO_LIMIT = 31

#: JSON text of an int, as json.dumps writes it
_int = int.__repr__


def _render_pair(dz: WeightReport, dx: WeightReport) -> str:
    return f"{dz.render()}/{dx.render()}"


def _params_dict(p: AqecParams | SubsystemParams, r: int | None = None) -> dict:
    """JSON form of derived parameters; the key order is part of the output."""
    out = {"n": p.n, "q": p.q, "k": p.k}
    if r is not None:
        out["r"] = r
    out.update(
        dz=p.dz.as_dict(),
        dx=p.dx.as_dict(),
        c1=p.c1.descriptor(),
        c2=p.c2.descriptor(),
        route=p.route,
    )
    if p.pure is not None:
        out["pure"] = p.pure
    if p.notes:
        out["notes"] = list(p.notes)
    return out


def _params_json(p: AqecParams | SubsystemParams, pad: str = "") -> str:
    """json.dumps(p.as_dict(), indent=2), each line after the first indented
    by `pad`, written straight from the fields in _params_dict's key order."""
    i = pad + "  "
    j = i + "  "
    dz, dx = p.dz, p.dx
    r = f'\n{i}"r": {_int(p.r)},' if isinstance(p, SubsystemParams) else ""
    text = (f'{{\n{i}"n": {_int(p.n)},\n{i}"q": {_int(p.q)},\n{i}"k": {_int(p.k)},{r}'
            f'\n{i}"dz": {{\n{j}"value": {_int(dz.value)},\n{j}"method": {_str(dz.method)}\n{i}}},'
            f'\n{i}"dx": {{\n{j}"value": {_int(dx.value)},\n{j}"method": {_str(dx.method)}\n{i}}},'
            f'\n{i}"c1": {_str(p.c1.descriptor())},\n{i}"c2": {_str(p.c2.descriptor())},'
            f'\n{i}"route": {_str(p.route)}')
    if p.pure is not None:
        text += f',\n{i}"pure": {"true" if p.pure else "false"}'
    if p.notes:
        text += f',\n{i}"notes": [\n{j}' + f",\n{j}".join(map(_str, p.notes)) + f"\n{i}]"
    return text + f"\n{pad}}}"


class AqecParams(NamedTuple):
    """A derived asymmetric quantum code [[n, k, dz/dx]]_q with provenance."""

    n: int
    q: int
    k: int
    dz: WeightReport
    dx: WeightReport
    pure: bool | None
    c1: CyclicCode
    c2: CyclicCode
    route: str
    notes: tuple[str, ...] = ()

    def label(self) -> str:
        return f"[[{self.n},{self.k},{_render_pair(self.dz, self.dx)}]]_{self.q}"

    def as_dict(self) -> dict:
        return _params_dict(self)


class SubsystemParams(NamedTuple):
    """A derived asymmetric subsystem code [[n, k, r, dz/dx]]_q."""

    n: int
    q: int
    k: int
    r: int
    dz: WeightReport
    dx: WeightReport
    pure: bool | None
    c1: CyclicCode
    c2: CyclicCode
    route: str
    notes: tuple[str, ...] = ()

    def label(self) -> str:
        return f"[[{self.n},{self.k},{self.r},{_render_pair(self.dz, self.dx)}]]_{self.q}"

    def as_dict(self) -> dict:
        return _params_dict(self, self.r)


class CorrectionCapability(NamedTuple):
    """Guaranteed error-correction radii; exact=False when distances are bounds."""

    t_x: int
    t_z: int
    exact: bool


# ---------------------------------------------------------------------------
# CSS derivation
# ---------------------------------------------------------------------------

def _difference_side(outer: CyclicCode, inner: CyclicCode, budget: int) -> WeightReport:
    try:
        return min_weight_difference_unchecked(outer, inner, budget)
    except BudgetExceeded:
        return bound_only_report(outer, budget)


def _evaluate_purity(side1: WeightReport, side2: WeightReport,
                     c1: CyclicCode, c2: CyclicCode, budget: int) -> bool | None:
    if not (side1.is_exact and side2.is_exact):
        return None
    try:
        d1 = min_weight(c1, budget)
        d2 = min_weight(c2, budget)
    except BudgetExceeded:
        return None
    return side1.value == d1.value and side2.value == d2.value


def _nested_dual(c1: CyclicCode, c2: CyclicCode) -> CyclicCode:
    """dual(C2), after checking that it lies inside C1."""
    c2perp = c2.dual()
    if not c1.contains(c2perp):
        raise NotNested(
            f"dual of {c2.descriptor()} is not contained in {c1.descriptor()}"
        )
    return c2perp


def _css(c1: CyclicCode, c2: CyclicCode, budget: int,
         purity: bool | None) -> tuple[int, WeightReport, WeightReport, bool | None]:
    """(k, dz, dx, pure) of the nested pair; the ordering rule lives here.

    Every call checks nesting and k; the sides and purity of a pair whose
    mirror (C2, C1) was derived before are that mirror's, swapped.
    """
    c1.T.check_matching(c2.T)
    c2perp = _nested_dual(c1, c2)
    n = c1.n
    k = c1.k + c2.k - n
    k_dims = c1.k - c2perp.k
    k_sets = len(c2perp.T.members) - len(c1.T.members)
    if not (k == k_dims == k_sets):
        raise InternalConsistencyError(
            f"dimension routes disagree: k1+k2-n={k}, dim difference={k_dims}, "
            f"set difference={k_sets}"
        )
    hit = _PAIR_CACHE.pop((c2, c1, budget, purity), None)
    if hit is not None:
        side2, side1, pure = hit
    else:
        # C2-dual inside C1 means C1-dual inside C2: the one check covers both sides
        side1 = _difference_side(c1, c2perp, budget)  # X-side weight
        side2 = _difference_side(c2, c1.dual(), budget)  # Z-side weight
        pure = None
        if (purity if purity is not None else n <= PURITY_AUTO_LIMIT):
            pure = _evaluate_purity(side1, side2, c1, c2, budget)
        _PAIR_CACHE[c1, c2, budget, purity] = side1, side2, pure
    # a bound ranks after an exact side of equal value, and dz is only as
    # exact as dx: an unknown smaller side could otherwise undercut dx
    dx, dz = side1, side2
    if (side2.value, not side2.is_exact) < (side1.value, not side1.is_exact):
        dx, dz = side2, side1
    if not dx.is_exact:
        dz = dz._replace(method="bound-only")
    return k, dz, dx, pure


def css_aqec(c1: CyclicCode, c2: CyclicCode, budget: int = DEFAULT_BUDGET, *,
             purity: bool | None = None) -> AqecParams:
    """Asymmetric CSS code from a nested pair: requires dual(C2) inside C1.

    k is computed from the actual dimensions (three ways, which must agree).
    dx/dz are the min/max of the two set-difference weights wt(C1 minus
    C2-dual) and wt(C2 minus C1-dual). A side that exceeds the budget
    degrades to its consecutive-root bound, flagged bound-only; sides are
    then ordered by (value, bound-only last) and dz is a bound unless both
    sides are exact, so dz >= dx and an exact dx is the true minimum. The
    symmetric stabilizer corollary [[n, k, dx]] is noted when dx is exact.
    Purity is evaluated by default only for n <= 31. A zero C1 or C2 (no
    nonzero codewords, so no distance) raises ValueError.
    """
    if c1.k == 0 or c2.k == 0:
        name, zero = ("C1", c1) if c1.k == 0 else ("C2", c2)
        raise ValueError(f"{name} = {zero.descriptor()} is the zero code; the css "
                         f"route needs C1 and C2 to have nonzero codewords")
    k, dz, dx, pure = _css(c1, c2, budget, purity)
    n, q = c1.n, c1.q
    notes = ()
    if dx.is_exact:
        notes = (f"symmetric stabilizer corollary [[{n},{k},{dx.value}]]_{q}",)
    return AqecParams(n, q, k, dz, dx, pure, c1, c2, "css", notes)


def build_stabilizer_matrix(c1: CyclicCode, c2: CyclicCode) -> tuple[CheckMatrix, CheckMatrix]:
    """(H_x, H_z) block pair: the parity matrices of C1 and C2.

    Valid only for a nested pair; the blocks are verified to commute.
    """
    _nested_dual(c1, c2)
    hx = parity_check_matrix(c1)
    hz = parity_check_matrix(c2)
    if not check_css_commutativity(hx, hz):
        raise InternalConsistencyError("stabilizer blocks of a nested pair must commute")
    return hx, hz


def check_css_commutativity(h1: CheckMatrix, h2: CheckMatrix) -> bool:
    """True iff H1 . H2^T = 0 (over GF(q) this is the full commutation test)."""
    return product_is_zero(h1, h2)


# ---------------------------------------------------------------------------
# The two extension constructions
# ---------------------------------------------------------------------------

def _extension_params(c1: CyclicCode, c2: CyclicCode, b: int, size: str, kind: str,
                      route: str, budget: int, purity: bool | None,
                      extra_notes: tuple[str, ...] = ()) -> AqecParams:
    """css_aqec of an extension pair, asserting k = b and noting the closed forms."""
    params = css_aqec(c1, c2, budget, purity=purity)
    if params.k != b:
        raise InternalConsistencyError(
            f"logical dimension {params.k} != {size} = {b} on the {kind} route"
        )
    n = c1.n
    note = (
        f"{kind}-extension: closed forms 2k-b-n = {2 * c1.k - b - n} and "
        f"2k+b-n = {2 * c1.k + b - n} disagree with the computed logical "
        f"dimension {b} = b; reporting the computed value"
    )
    return AqecParams(params.n, params.q, params.k, params.dz, params.dx, params.pure, c1, c2,
                      route, params.notes + (note,) + extra_notes)


def extend_by_polynomial(c1: CyclicCode, f: Polynomial,
                         budget: int = DEFAULT_BUDGET, *,
                         purity: bool | None = None) -> tuple[CyclicCode, AqecParams]:
    """Extend g1 to g1*f (f a monic divisor of the parity polynomial h1).

    The product generates the dual of the new partner code C2; the derived
    quantum code has logical dimension exactly deg f, which is asserted.
    """
    if f.field != c1.field:
        raise ValueError(f"f is over {f.field}, code is over {c1.field}")
    if f.is_zero or f.degree < 1:
        raise ValueError("f must have degree at least 1")
    if not f.is_monic:
        raise ValueError("f must be monic")
    h1 = c1.parity_polynomial
    if not f.divides(h1):
        raise ValueError(
            f"f = {render_poly(f)} does not divide the parity polynomial {render_poly(h1)}"
        )
    n, q = c1.n, c1.q
    ext_code = divisor_roots(f, n)
    if len(ext_code) != f.degree:
        raise InternalConsistencyError(
            f"divisor of x^{n}-1 of degree {f.degree} has {len(ext_code)} roots"
        )
    if ext_code & c1.T.members:
        raise InternalConsistencyError("root set of f overlaps the defining set of C1")
    c2perp = from_defining_set(n, q, c1.T.members | ext_code)
    if c2perp.generator_polynomial != f * c1.generator_polynomial:
        raise InternalConsistencyError("extended generator does not match f * g1")
    c2 = c2perp.dual()
    return c2, _extension_params(c1, c2, int(f.degree), "deg f", "generator",
                                 "extend-poly", budget, purity)


def extend_by_defining_set(c1: CyclicCode, members: Sequence[int],
                           budget: int = DEFAULT_BUDGET, *,
                           purity: bool | None = None) -> tuple[CyclicCode, AqecParams]:
    """Build the partner code from a coset block T inside T(C1-dual) minus T(C1).

    C2 gets defining set T(C1-dual) minus (T union -T); the identity
    T(C2-dual) = T(C1) union (T union -T) and the nesting premise are
    verified, and the logical dimension |T union -T| is asserted.
    """
    n, q = c1.n, c1.q
    T = DefiningSet.closed(n, q, members)
    c1perp = c1.dual()
    allowed = c1perp.T.members - c1.T.members
    if not T.members <= allowed:
        raise ValueError(
            f"T={T} is not inside the admissible difference set "
            f"{{{','.join(map(str, sorted(allowed)))}}}"
        )
    tt = T.members | T.inverse().members
    if not tt and c1.k == n:
        raise ValueError(f"C1 = {c1.descriptor()} is the full space and T is empty, so C2 "
                         f"would be the zero code; the extend-set route needs a nonempty T here")
    c2 = from_defining_set(n, q, c1perp.T.members - tt)
    c2perp = c2.dual()
    if c2perp.T.members != (c1.T.members | tt):
        raise InternalConsistencyError(
            "defining set of the dual partner is not T(C1) union T union -T"
        )
    b = len(tt)
    dim_note = (
        f"defining-set-extension: dim C2 computed as n-k+b = {n - c1.k + b} "
        f"(not k+b = {c1.k + b}); dim C2-dual = k-b = {c1.k - b}"
    )
    return c2, _extension_params(c1, c2, b, "|T union -T|", "defining-set",
                                 "extend-set", budget, purity, (dim_note,))


# ---------------------------------------------------------------------------
# Subsystem codes
# ---------------------------------------------------------------------------

def correction_capability(a: AqecParams | SubsystemParams) -> CorrectionCapability:
    """Guaranteed radii floor((d-1)/2) per error type; flagged when bounds."""
    return CorrectionCapability(
        t_x=(a.dx.value - 1) // 2,
        t_z=(a.dz.value - 1) // 2,
        exact=a.dx.is_exact and a.dz.is_exact,
    )


def aqec_to_subsystem(a: AqecParams, r: int) -> SubsystemParams:
    """Trade r of the logical qudits of a stabilizer code into gauge qudits."""
    if not 0 <= r <= a.k:
        raise ValueError(f"gauge dimension r={r} out of range 0..{a.k}")
    return SubsystemParams(
        a.n, a.q, a.k - r, r, a.dz, a.dx, a.pure, a.c1, a.c2,
        "aqec-to-subsystem", a.notes,
    )


def subsystem_euclidean(c1: CyclicCode, budget: int = DEFAULT_BUDGET, *,
                        purity: bool | None = None) -> tuple[SubsystemParams, SubsystemParams]:
    """Subsystem pair from a single code via C2 = C1 intersect C1-dual.

    Returns [[n, n-(k1+k2), k1-k2, dz/dx]] and the role-swapped
    [[n, k1-k2, n-(k1+k2), dz/dx]]. Since k2 <= n-k1 always, k1+k2 = n is
    the degenerate boundary and is reported with zero logical dimension.
    The distances and purity are those of the CSS pair (C2-dual, C1-dual),
    nested because C1 lies in C2-dual: its sides are wt(C2-dual minus C1)
    and wt(C1-dual minus C2), ordered by the css_aqec rule, and its logical
    dimension is n-(k1+k2). C1 must not be the full space, whose dual is the
    zero code.
    """
    n, q = c1.n, c1.q
    if c1.k == n:
        raise ValueError(f"C1 = {c1.descriptor()} is the full space, so C1-dual is the "
                         f"zero code; the subsystem route needs C1 smaller than the space")
    c1perp = c1.dual()
    c2 = intersect(c1, c1perp)
    k1, k2 = c1.k, c2.k
    if k1 + k2 > n:
        raise InternalConsistencyError("dim(C1) + dim(C1 intersect C1-dual) exceeded n")
    c2perp = c2.dual()
    k, dz, dx, pure = _css(c2perp, c1perp, budget, purity)
    _PAIR_CACHE.pop((c2perp, c1perp, budget, purity), None)  # no search derives its mirror
    r = k1 - k2
    notes = (f"intersection code C2 = C1 ^ C1-dual is [{n},{k2}]_{q}",)
    first = SubsystemParams(n, q, k, r, dz, dx, pure, c1, c2, "subsystem-euclidean", notes)
    swapped = SubsystemParams(n, q, r, k, dz, dx, pure, c1, c2, "subsystem-euclidean", notes)
    return first, swapped


def trade_dimension(s: SubsystemParams) -> SubsystemParams:
    """Trade one logical qudit for one gauge qudit: k-1, r+1, distances kept
    only as lower bounds."""
    if s.k <= 1:
        raise ValueError(f"trading requires k > 1, have k={s.k}")
    dz = WeightReport(s.dz.value, "bound-only", 0, s.dz.budget)
    dx = WeightReport(s.dx.value, "bound-only", 0, s.dx.budget)
    note = (
        "dimension trade: distances become lower bounds; "
        f"purity holds to min(dx, previous purity level) = {s.dx.value}"
    )
    return SubsystemParams(
        s.n, s.q, s.k - 1, s.r + 1, dz, dx, None, s.c1, s.c2,
        "trade-dimension", s.notes + (note,),
    )


def subsystem_to_stabilizer(s: SubsystemParams) -> AqecParams:
    """Promote a pure subsystem code to a stabilizer code on k + r logicals."""
    if s.pure is not True:
        raise ValueError("promotion to a stabilizer code requires a pure subsystem code")
    return AqecParams(
        s.n, s.q, s.k + s.r, s.dz, s.dx, True, s.c1, s.c2,
        "subsystem-to-stabilizer", s.notes,
    )
