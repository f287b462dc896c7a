"""Reference outputs of every benchmark job, and the field-by-field check.

The references were generated from the program as it stood when the
benchmark was defined. Regenerate them only when the program's output is
meant to change:

    python3 perfbench/reference.py

"""

from __future__ import annotations

import gzip
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
#: the table1 reference must agree with this test golden on its rows
TABLE1_GOLDEN = ROOT / "tests" / "golden" / "table1_rows_1_2.json"

#: both methods are exact; a distance planner may choose either
_EXACT_METHODS = {"macwilliams": "exhaustive"}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def normalise(value):
    """The value with the exact distance methods mapped onto one name."""
    if isinstance(value, dict):
        return {
            key: _EXACT_METHODS.get(item, item) if key == "method" else normalise(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [normalise(item) for item in value]
    return value


def first_difference(got, want, path: str = "$") -> str | None:
    """Path and values of the first field where `got` differs from `want`."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            diff = first_difference(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} items != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if type(got) is not type(want) or got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


def check_output(text: str, want) -> str | None:
    """None when a job's JSON output matches its reference, else the reason."""
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    return first_difference(normalise(got), normalise(want))


def check_table1_golden(reference: dict) -> str | None:
    """Rows 1 and 2 of the table1 reference against the test golden (read only)."""
    golden = json.loads(TABLE1_GOLDEN.read_text(encoding="utf-8"))
    rows = [row for row in reference["table1"] if row["row"] in (1, 2)]
    diff = first_difference(normalise(rows), normalise(golden))
    return f"table1 reference disagrees with {TABLE1_GOLDEN.name}: {diff}" if diff else None


def generate() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from asymqec import cli, galois
    from workloads import WORKLOADS, cli_argv, job_id

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, jobs in WORKLOADS.items():
        outputs = {}
        for argv in jobs:
            galois.clear_modulus_overrides()
            buf = io.StringIO()
            with redirect_stdout(buf):
                status = cli.main(cli_argv(argv))
            if status != 0:
                raise SystemExit(f"{job_id(argv)} exited with {status}")
            outputs[job_id(argv)] = json.loads(buf.getvalue())
        if workload == "table1":
            diff = check_table1_golden(outputs)
            if diff:
                raise SystemExit(diff)
        # mtime=0 keeps the file identical when the outputs are
        with open(reference_path(workload), "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(outputs, sort_keys=True, separators=(",", ":")).encode())
        print(f"{workload}: {len(outputs)} jobs -> {reference_path(workload).relative_to(ROOT)}")


if __name__ == "__main__":
    generate()
