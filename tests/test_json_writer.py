"""The CLI's JSON writers: the bytes of json.dumps(payload, indent=2).

A seeded property test compares `cli._emit_json`, which writes an array one
indented element at a time, with the stdlib on built payloads;
`aqec._params_json` must give the stdlib's rendering of `as_dict()` for
every search record and for edited records; and every JSON command's stdout
must equal the stdlib's indent-2 rendering of its own parsed output.
"""

from __future__ import annotations

import json
import random
from collections import OrderedDict
from enum import IntEnum

import pytest

from asymqec import cli
from asymqec.aqec import _params_json
from asymqec.audit import _audit_json, audit_rows
from asymqec.galois import clear_modulus_overrides
from asymqec.search import ROUTES, search
from asymqec.weights import WeightReport

#: characters the escaper must handle: quote, backslash, controls, non-ASCII,
#: astral and lone-surrogate code points
CHARS = ["a", "Z", "0", " ", "/", '"', "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f",
         "\x7f", "é", "ü", "€", " ", "\U0001d53d", "\ud800"]


class Label(str):
    pass


class Level(IntEnum):
    LOW = 1
    HIGH = 2


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_leaf(rng: random.Random):
    kind = rng.randrange(9)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.randrange(-1000, 1000)
    if kind == 3:
        return rng.choice([-1, 1]) * rng.randrange(2**64, 2**130)
    if kind == 4:
        return rng.choice([0.0, -0.0, 0.1, -2.5, 1e300, 1e-300, float("inf"),
                           float("-inf"), float("nan"), rng.random()])
    if kind == 5:
        return Label(random_text(rng))
    if kind == 6:
        return rng.choice(list(Level))
    return rng.choice(["", "exhaustive", "q=2 n=15 T={1,2,4,8}"])


def random_payload(rng: random.Random, depth: int = 0):
    kind = rng.randrange(6) if depth < 4 else 0
    if kind == 0:
        return random_leaf(rng)
    size = rng.randrange(5)
    if kind in (1, 2):
        items = [(random_text(rng), random_payload(rng, depth + 1)) for _ in range(size)]
        return dict(items) if kind == 1 else OrderedDict(items)
    items = [random_payload(rng, depth + 1) for _ in range(size)]
    return tuple(items) if kind == 3 else items


def assert_emitted_as_the_stdlib(payload, capsys):
    """_emit_json of the payload (in a list when it is a leaf) and of the payload
    in a list, each against json.dumps of the same document with indent 2."""
    documents = [[payload]]
    if isinstance(payload, (dict, list, tuple)):
        documents.append(payload)
    for document in documents:
        cli._emit_json(document)
        assert capsys.readouterr().out == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize("seed", range(8))
def test_writer_matches_the_stdlib_on_built_payloads(seed, capsys):
    rng = random.Random(seed)
    for _ in range(150):
        assert_emitted_as_the_stdlib(random_payload(rng), capsys)


@pytest.mark.parametrize("payload", [
    {}, [], (), "", 0, -7, 2**64, -(2**70), True, False, None, 1.5,
    {"a": {}, "b": [], "c": ()}, [[], [{}], [[[]]]], {"": {"": []}},
    {"q\"uote": "back\\slash", "ctl": "\x01\x1f\n", "non-ascii": "GF(2⁴) ∋ α"},
    [True, False, None, {"x": (1, (2, ()))}],
])
def test_writer_matches_the_stdlib_on_edge_cases(payload, capsys):
    assert_emitted_as_the_stdlib(payload, capsys)


def _as_dict_text(p, pad: str) -> str:
    """json.dumps(p.as_dict(), indent=2) with every line after the first indented by pad."""
    return json.dumps(p.as_dict(), indent=2).replace("\n", "\n" + pad)


SEARCHES = [(n, q, route) for n, q in ((15, 2), (21, 2), (8, 3), (9, 4), (5, 4))
            for route in ROUTES] + [(7, 8, "subsystem")]


@pytest.mark.parametrize("n,q,route", SEARCHES, ids=[f"n{n}-q{q}-{r}" for n, q, r in SEARCHES])
def test_record_writer_matches_as_dict_on_search_records(n, q, route):
    records = search(n, q, route)
    assert records
    for p in records:
        for pad in ("", "  "):
            assert _params_json(p, pad) == _as_dict_text(p, pad)


def _edited_records():
    """Records with each optional key present and absent, every method and
    notes the escaper must handle."""
    note = 'say "hi" \\ then\nGF(2\u2074) \u220b \u03b1, \U0001d53d'
    bound = WeightReport(5, "bound-only", 0, 10)
    exact = WeightReport(3, "macwilliams", 64, 2**28)
    css, subsystem = search(15, 2, "css")[0], search(15, 2, "subsystem")[0]
    for p in (css, subsystem):
        for pure in (None, False, True):
            yield p._replace(pure=pure)
        for notes in ((), (note,), ("", note, "second")):
            yield p._replace(notes=notes)
        yield p._replace(dz=bound, dx=exact, pure=None, notes=())
        yield p._replace(dz=exact, dx=bound)
    yield subsystem._replace(r=0)


@pytest.mark.parametrize("pad", ["", "  "])
def test_record_writer_matches_as_dict_on_edited_records(pad):
    records = list(_edited_records())
    assert {p.pure for p in records} == {None, False, True}
    assert records[-1].r == 0
    for p in records:
        assert _params_json(p, pad) == _as_dict_text(p, pad)


@pytest.mark.parametrize("rows", [None, "1,2", "8,9"])
def test_table1_json_is_the_stdlib_rendering_of_each_audit(rows, capsys):
    clear_modulus_overrides()
    argv = ["table1", "--format", "json"] + (["--rows", rows] if rows else [])
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    indices = [int(r) for r in rows.split(",")] if rows else None
    audits = audit_rows(indices)
    assert out == json.dumps([a.as_dict() for a in audits], indent=2) + "\n"


@pytest.mark.parametrize("pad", ["", "  "])
def test_audit_writer_matches_as_dict_on_edited_audits(pad):
    note = 'say "hi" \\ then\nGF(2\u2074) \u220b \u03b1, \U0001d53d'
    audit = audit_rows([1])[0]
    bare = search(15, 2, "css")[0]._replace(pure=None, notes=())
    edited = [audit, audit._replace(computed=None), audit._replace(notes=()),
              audit._replace(notes=(note, ""), computed=bare),
              audit._replace(c1="", c2=note, expected=note, verdict="")]
    for a in edited:
        assert _audit_json(a, pad) == _as_dict_text(a, pad)


ROUND_TRIP_ARGV = [
    ["cosets", "--n", "15", "--q", "2"],
    ["code", "bch:n=15,q=2,delta=5"],
    ["code", "rs:q=8,delta=3"],
    ["derive", "css", "--c1", "bch:n=15,q=2,delta=3", "--c2", "bch:n=15,q=2,delta=5"],
    ["derive", "extend-poly", "--c1", "bch:n=15,q=2,delta=3", "--f", "minpoly:3"],
    ["derive", "extend-set", "--c1", "q=2 n=15 T={1,2,4,8}", "--T", "{3,6,9,12}"],
    ["derive", "subsystem", "--c1", "bch:n=15,q=2,delta=5"],
    ["table1", "--rows", "1,2"],
] + [
    ["search", "--n", n, "--q", q, "--route", route]
    for n, q in (("15", "2"), ("8", "3"), ("9", "4"))
    for route in ("css", "extend-poly", "extend-set", "subsystem")
]


@pytest.mark.parametrize("argv", ROUND_TRIP_ARGV, ids=[" ".join(a) for a in ROUND_TRIP_ARGV])
def test_cli_json_is_the_stdlib_indent_2_rendering(argv, capsys):
    clear_modulus_overrides()
    assert cli.main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
