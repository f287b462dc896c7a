"""Workload definitions: the CLI jobs one pass of each workload runs.

Every job is the argument list of one `asymqec` invocation; `--format json`
is appended so the output can be checked against the stored reference.
"""

from __future__ import annotations

ROUTES = ("css", "extend-poly", "extend-set", "subsystem")


def _search(n: int, q: int, routes=ROUTES) -> list[list[str]]:
    return [["search", "--n", str(n), "--q", str(q), "--route", r] for r in routes]


CLASSICAL_CODES = (
    "bch:n=31,q=2,delta=7",
    "bch:n=63,q=2,delta=7",
    "hamming:m=7,q=2",
    "bch:n=127,q=2,delta=7",
    "bch:n=255,q=2,delta=3",
    "hamming:m=3,q=3",
    "hamming:m=3,q=5",
    "bch:n=21,q=4,delta=5",
    "bch:n=85,q=4,delta=3",
    "rs:q=8,delta=3",
    "rs:q=16,delta=5",
    "rs:q=32,delta=4",
)

WORKLOADS: dict[str, list[list[str]]] = {
    "table1": [["table1"]],
    "search-binary": _search(15, 2) + _search(21, 2),
    "search-qary": _search(8, 3) + _search(9, 4) + _search(7, 8, ("subsystem",)),
    "classical": [["code", d] for d in CLASSICAL_CODES],
}


def job_id(argv: list[str]) -> str:
    """Stable name of a job, used as its key in the reference file."""
    return " ".join(argv)


def cli_argv(argv: list[str]) -> list[str]:
    return argv + ["--format", "json"]
