"""Command-line front end.

    asymqec cosets --n 15 --q 2
    asymqec code bch:n=15,q=2,delta=5
    asymqec derive css --c1 bch:n=15,q=2,delta=3 --c2 bch:n=15,q=2,delta=5
    asymqec derive extend-set --c1 "q=2 n=15 T={1,2,4,8}" --T {3,6,9,12}
    asymqec table1 --rows 1,2
    asymqec search --n 15 --q 2 --route css

Output format is text (default), json or csv via --format. JSON is the
bytes of json.dumps(document, indent=2) plus a newline: derived-code records
are written from their fields by aqec._params_json, other payloads by the
generic walker _dumps_indented. List-valued output (search, table1, derive
subsystem) in every format is written one record at a time, each rendered
as it is written. Exit codes:
0 success, 2 precondition or parse error, 3 budget exceeded without a
fallback, 4 internal consistency failure. The modulus override table is
read from the file named by ASYMQEC_MODULUS_TABLE.

Importing this module and building the parser loads only `asymqec`, this
module and `asymqec.errors`: each command handler imports the modules it
runs when it starts, and the writers import json and csv, so a `code` or
`cosets` run never compiles `aqec`, `audit` or `search`; annotations name
engine types unimported, which postponed evaluation allows. The table1 help
text names the row count of `audit.REFERENCE_TABLE` as a literal (a test
keeps them in step).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import DEFAULT_BUDGET, DEFAULT_MAX_CODES, ROUTES
from .errors import BudgetExceeded, InternalConsistencyError

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


@lru_cache(maxsize=None)
def _json_text():
    """The stdlib's JSON string escaper, and the JSON text of each leaf type
    a payload holds, by exact type."""
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii, {
        str: encode_basestring_ascii,
        int: int.__repr__,
        bool: lambda b: "true" if b else "false",
        type(None): lambda _: "null",
    }


def _dumps_indented(value, pad: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, for str-keyed payloads.

    With an indent the stdlib falls back to its pure-Python encoder; this
    walk makes the same text with the C string escaper. Other leaves
    (floats, subclasses of str and int) go through json.dumps itself.
    `pad` is the indent of the line `value` starts on.
    """
    escape, leaves = _json_text()
    leaf = leaves.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            leaf = leaves.get(type(item))
            text = leaf(item) if leaf is not None else _dumps_indented(item, inner)
            parts.append(escape(key) + ": " + text)
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_dumps_indented(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    import json

    return json.dumps(value)


def _emit_json(payload, render=_dumps_indented) -> None:
    """Write the indent-2 JSON of payload and a newline, render(value, pad)
    making each value's text: a dict or a record (any tuple) in one write,
    any other iterable as an array written one element at a time.

    Each element is rendered when it is written, so a list-valued command
    never holds its records' dicts or its whole output text; one write per
    element, since json.dump with an indent writes every token separately.
    """
    write = sys.stdout.write
    if isinstance(payload, (dict, tuple)):
        write(render(payload) + "\n")
        return
    head = "[\n  "
    for record in payload:
        write(head + render(record, "  "))
        head = ",\n  "
    write("[]\n" if head == "[\n  " else "\n]\n")


def _emit_csv(rows: Iterable[dict], fieldnames: list[str]) -> None:
    import csv

    writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)


def _params_flat(p: AqecParams | SubsystemParams) -> dict:
    """as_dict with dz/dx split into value and method; notes are not a column."""
    row = p.as_dict()
    for side in ("dz", "dx"):
        report = row.pop(side)
        row[side], row[f"{side}_method"] = report["value"], report["method"]
    return row


_PARAMS_FIELDS = ["n", "q", "k", "r", "dz", "dz_method", "dx", "dx_method",
                  "pure", "c1", "c2", "route"]


def _print_params(p: AqecParams | SubsystemParams) -> None:
    from .aqec import correction_capability

    print(p.label())
    print(f"  c1: {p.c1.descriptor()}   [{p.c1.n},{p.c1.k}]_{p.c1.q}")
    print(f"  c2: {p.c2.descriptor()}   [{p.c2.n},{p.c2.k}]_{p.c2.q}")
    print(f"  dz: {p.dz.render()} ({p.dz.method})   dx: {p.dx.render()} ({p.dx.method})")
    if p.pure is not None:
        print(f"  pure: {p.pure}")
    cap = correction_capability(p)
    marker = "" if cap.exact else " (lower bounds)"
    print(f"  corrects: {cap.t_x} flip / {cap.t_z} phase errors{marker}")
    print(f"  route: {p.route}")
    for note in p.notes:
        print(f"  note: {note}")


def _exact_violated(args, results) -> bool:
    """--exact forbids bound-only output; True if any distance degraded."""
    if not getattr(args, "exact", False):
        return False
    for p in results:
        if not (p.dz.is_exact and p.dx.is_exact):
            print(
                f"error: distances are only bounds at budget {args.budget} "
                f"and --exact forbids the bound-only fallback",
                file=sys.stderr,
            )
            return True
    return False


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_cosets(args) -> int:
    from .polyring import cyclotomic_cosets

    cosets = cyclotomic_cosets(args.n, args.q)
    if args.format == "json":
        _emit_json({"n": args.n, "q": args.q,
                    "cosets": [list(c.members) for c in cosets]})
    elif args.format == "csv":
        rows = ({"representative": c.representative, "size": len(c.members),
                 "members": ",".join(map(str, c.members))} for c in cosets)
        _emit_csv(rows, ["representative", "size", "members"])
    else:
        for c in cosets:
            print(c)
    return EXIT_OK


def _code_report(args) -> dict:
    from .cyclic import parse_code
    from .polyring import render_poly
    from .weights import bound_only_report, min_weight

    code = parse_code(" ".join(args.descriptor))
    report = {
        "descriptor": code.descriptor(),
        "n": code.n,
        "q": code.q,
        "k": code.k,
        "T": list(code.T.sorted_members),
        "generator": render_poly(code.generator_polynomial),
        "designed_bound": code.designed_distance_bound,
        "d": None,
    }
    if code.k > 0:
        try:
            report["d"] = min_weight(code, args.budget).as_dict()
        except BudgetExceeded:
            if args.exact:
                raise
            report["d"] = bound_only_report(code, args.budget).as_dict()
    return report


def _cmd_code(args) -> int:
    report = _code_report(args)
    if args.format == "json":
        _emit_json(report)
    elif args.format == "csv":
        flat = dict(report)
        flat["T"] = ",".join(map(str, report["T"]))
        d = report["d"] or {}
        flat["d"] = d.get("value", "")
        flat["d_method"] = d.get("method", "")
        _emit_csv([flat], ["descriptor", "n", "q", "k", "T", "generator",
                           "designed_bound", "d", "d_method"])
    else:
        print(f"[{report['n']},{report['k']}]_{report['q']}  {report['descriptor']}")
        print(f"  g(x) = {report['generator']}")
        print(f"  designed distance bound: {report['designed_bound']}")
        if report["d"] is None:
            print("  d: (zero code)")
        else:
            mark = "" if report["d"]["method"] != "bound-only" else ">="
            print(f"  d: {mark}{report['d']['value']} ({report['d']['method']})")
    return EXIT_OK


def _parse_f(text: str, c1: CyclicCode):
    from .polyring import coset_of, minimal_polynomial, parse_poly

    body = text.strip()
    if body.startswith("minpoly:"):
        i = int(body.split(":", 1)[1])
        return minimal_polynomial(c1.n, c1.q, coset_of(c1.n, c1.q, i))
    return parse_poly(body, c1.field)


def _cmd_derive(args) -> int:
    from .aqec import (_params_json, css_aqec, extend_by_defining_set, extend_by_polynomial,
                       subsystem_euclidean)
    from .cyclic import parse_code, parse_residue_set

    c1 = parse_code(args.c1)
    results: list[AqecParams | SubsystemParams]
    if args.route == "css":
        if not args.c2:
            raise ValueError("derive css requires --c2")
        params = css_aqec(c1, parse_code(args.c2), args.budget, purity=args.purity)
        results = [params]
    elif args.route == "extend-poly":
        if not args.f:
            raise ValueError("derive extend-poly requires --f")
        _, params = extend_by_polynomial(c1, _parse_f(args.f, c1), args.budget,
                                         purity=args.purity)
        results = [params]
    elif args.route == "extend-set":
        if args.T is None:
            raise ValueError("derive extend-set requires --T")
        _, params = extend_by_defining_set(c1, parse_residue_set(args.T), args.budget,
                                           purity=args.purity)
        results = [params]
    else:  # subsystem
        first, swapped = subsystem_euclidean(c1, args.budget, purity=args.purity)
        results = [first, swapped]
    if _exact_violated(args, results):
        return EXIT_BUDGET
    if args.format == "json":
        _emit_json(results[0] if len(results) == 1 else results, _params_json)
    elif args.format == "csv":
        _emit_csv(map(_params_flat, results), _PARAMS_FIELDS)
    else:
        for p in results:
            _print_params(p)
    return EXIT_OK


def _parse_rows(text: str) -> list[int]:
    """The row numbers of a --rows comma list; empty tokens are skipped."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError(f"--rows {text!r} names no row")
    rows = []
    for tok in tokens:
        try:
            rows.append(int(tok))
        except ValueError:
            raise ValueError(f"--rows: {tok!r} is not a row number") from None
    return rows


def _audit_flat(a: RowAudit) -> dict:
    """One CSV row of a table1 audit: the computed code as its label, notes joined."""
    return dict(a.as_dict(), computed=a.computed.label() if a.computed else "",
                notes="; ".join(a.notes))


_AUDIT_FIELDS = ["row", "verdict", "expected", "computed", "c1_printed", "c2_printed",
                 "c1", "c2", "notes"]


def _cmd_table1(args) -> int:
    from .audit import audit_rows

    indices = _parse_rows(args.rows) if args.rows else None
    audits = audit_rows(indices, args.budget)
    if args.format == "json":
        _emit_json(a.as_dict() for a in audits)
    elif args.format == "csv":
        _emit_csv(map(_audit_flat, audits), _AUDIT_FIELDS)
    else:
        for a in audits:
            computed = a.computed.label() if a.computed else "(none)"
            print(f"row {a.index}: {a.verdict}")
            print(f"  inputs:   C1 = {a.c1_printed} ({a.c1}), C2 = {a.c2_printed} ({a.c2})")
            print(f"  printed:  {a.expected}")
            print(f"  computed: {computed}")
            for note in a.notes:
                print(f"  note: {note}")
    return EXIT_OK


def _cmd_search(args) -> int:
    from .aqec import _params_json
    from .search import search

    results = search(args.n, args.q, args.route, args.budget,
                     max_results=args.max_results, max_codes=args.max_space)
    if args.format == "json":
        _emit_json(results, _params_json)
    elif args.format == "csv":
        _emit_csv(map(_params_flat, results), _PARAMS_FIELDS)
    else:
        for p in results:
            print(f"{p.label()}  c1: {p.c1.descriptor()}  c2: {p.c2.descriptor()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub, weights=True, exact=False):
    if weights:
        sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                         help="max codeword enumerations (default 2^28)")
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    if exact:
        sub.add_argument("--exact", action="store_true",
                         help="fail (exit 3) instead of degrading to bound-only")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="asymqec",
        description="Build cyclic codes, derive asymmetric quantum and subsystem "
                    "codes, and audit the bundled reference table.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cosets", help="cyclotomic coset partition of Z_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_common(p, weights=False)
    p.set_defaults(handler=_cmd_cosets)

    p = subs.add_parser("code", help="report a classical cyclic code")
    p.add_argument("descriptor", nargs="+",
                   help="code descriptor, e.g. bch:n=15,q=2,delta=5 or q=2 n=15 T={1,2,4,8}")
    _add_common(p, exact=True)
    p.set_defaults(handler=_cmd_code)

    p = subs.add_parser("derive", help="derive an asymmetric quantum or subsystem code")
    p.add_argument("route", choices=ROUTES)
    p.add_argument("--c1", required=True, help="code descriptor for C1")
    p.add_argument("--c2", help="code descriptor for C2 (css route)")
    p.add_argument("--T", help="coset block for extend-set, e.g. {3,6,9,12}")
    p.add_argument("--f", help="polynomial for extend-poly: 'x^4+x+1' or minpoly:3")
    p.add_argument("--purity", action=argparse.BooleanOptionalAction, default=None,
                   help="force purity evaluation on/off (default: on for n <= 31)")
    _add_common(p, exact=True)
    p.set_defaults(handler=_cmd_derive)

    p = subs.add_parser("table1", help="audit the bundled reference table")
    p.add_argument("--rows", help="comma list of rows 1..9")
    _add_common(p)
    p.set_defaults(handler=_cmd_table1)

    p = subs.add_parser("search", help="derive every admissible code at a length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--route", choices=ROUTES, default="css")
    p.add_argument("--max-results", type=int, default=None)
    p.add_argument("--max-space", type=int, default=DEFAULT_MAX_CODES,
                   help="cap on the number of defining sets to enumerate")
    _add_common(p)
    p.set_defaults(handler=_cmd_search)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "budget", 0) < 0:
            raise ValueError(f"budget={args.budget} must be non-negative")
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalConsistencyError as exc:
        print(f"error: internal consistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
