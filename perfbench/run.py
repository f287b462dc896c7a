#!/usr/bin/env python3
"""Benchmark of the asymqec CLI: cold-cache jobs run back to back.

    python3 perfbench/run.py --workload search-binary --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one client. One process and one thread call
`asymqec.cli.main([..., "--format", "json"])` in-process, one job after the
other, with every derived cache reset before each job (as a fresh CLI
invocation starts). One pass is the workload's full job list; the seed only
permutes the job order within each pass. Passes repeat until `--seconds`
have elapsed.

With `--trace 0` it reports the end-to-end metrics: `pass_s` (median time of
one pass), `setup_s` (median time from spawning an interpreter until
`asymqec.cli` is imported and its parser built) and `peak_rss_mb` (peak
resident memory of this process, which runs only this workload). With
`--trace 1` it alternates untraced passes with passes traced by
`spans.instrument` and reports the per-layer metrics of the traced ones.
Times are scaled to a reference speed; see `Probe`.

Every job's output must equal the same job's output in the first pass
(so the job order cannot change it) and must match the stored reference
field by field. The last line of standard output is the JSON result; the
line before it holds the samples, and with `--trace 1` the spans of the
first traced pass are written to `perfbench/out/spans-<workload>.json`.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median, quantiles
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: interpreter spawns measured per run for setup_s (after one warm-up)
SETUP_SPAWNS = 11
SETUP_CODE = (
    "import time\n"
    "import asymqec.cli\n"
    "asymqec.cli.build_parser()\n"
    "print(repr(time.monotonic()))\n"
)


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Probe:
    """Speed scales that turn measured times into seconds at a reference speed.

    The shared host's speed drifts by a fifth and more within seconds and
    moves every time measured meanwhile. Right before each job and each
    setup spawn the harness times a fixed pure-Python loop and multiplies
    that measurement by REFERENCE_S over the loop's time, so reported times
    are seconds at the speed at which the loop takes REFERENCE_S.
    """

    LOOPS = 10000
    REFERENCE_S = 0.002

    def __init__(self) -> None:
        self.samples: list[float] = []

    def scale(self) -> float:
        """Scale for a measurement starting now; the loop's median of three
        timings drops one that was preempted."""
        times = []
        for _ in range(3):
            start = perf_counter()
            acc, seen = 0, {}
            for i in range(self.LOOPS):
                x = (i * 2654435761) & 0xFFFFFFFF
                acc ^= x.bit_count()
                seen[x & 1023] = (i, x)
            times.append(perf_counter() - start)
        self.samples.append(median(times))
        return self.REFERENCE_S / self.samples[-1]


def measure_setup(probe: Probe) -> tuple[list[float], list[float]]:
    """Raw and scaled setup times of SETUP_SPAWNS fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    raw, scaled = [], []
    for i in range(SETUP_SPAWNS + 1):
        scale = probe.scale()
        start = monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        if i:  # the first spawn also writes the bytecode caches
            raw.append(float(done.stdout.strip()) - start)
            scaled.append(raw[-1] * scale)
    return raw, scaled


class Checker:
    """Counts attempted and failed jobs; see the module docstring for the checks."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.first: dict[str, str] = {}
        self.runs: list[tuple[str, str | None]] = []  # job id, failure found so far

    def record(self, job: str, status, out: str, err: str) -> None:
        if status != 0:
            reason = f"exit {status}: {err.strip()[-500:]}"
        elif job not in self.first:
            self.first[job] = out
            reason = None
        elif out != self.first[job]:
            reason = "output differs from the first pass, which ran the jobs in another order"
        else:
            reason = None
        self.runs.append((job, reason))

    def failures(self) -> list[str]:
        import reference

        wanted = reference.load(self.workload)
        bad = {}
        for job, out in self.first.items():
            diff = (reference.check_output(out, wanted[job]) if job in wanted
                    else "no reference output")
            if diff:
                bad[job] = f"reference mismatch: {diff}"
        if self.workload == "table1":
            diff = reference.check_table1_golden(wanted)
            if diff:
                bad = {job: diff for job in self.first}
        return [f"{job}: {reason or bad[job]}" for job, reason in self.runs
                if reason or job in bad]


def run_pass(cli, galois, jobs: list[list[str]], rng: random.Random, checker: Checker,
             probe: Probe, tracer=None) -> tuple[float, float]:
    """Run every job once, in an order drawn from `rng`; returns (raw, scaled) time."""
    from workloads import cli_argv, job_id

    raw = scaled = 0.0
    for i in rng.sample(range(len(jobs)), len(jobs)):
        job = job_id(jobs[i])
        argv = cli_argv(jobs[i])
        gc.collect()
        scale = probe.scale()
        if tracer is not None:
            tracer.begin_job(job, scale)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                galois.clear_modulus_overrides()
                status = cli.main(argv)
            except Exception:  # a crash is a failed job, not a failed benchmark
                status = "raised"
                err.write(traceback.format_exc())
            elapsed = perf_counter() - start
        raw += elapsed
        scaled += elapsed * scale
        checker.record(job, status, out.getvalue(), err.getvalue())
    return raw, scaled


def summary(samples: list[float]) -> dict:
    """Count, median, quartiles and the tail of a list of samples."""
    out = {"count": len(samples), "median": median(samples), "samples": samples}
    if len(samples) >= 2:
        out["q1"], _, out["q3"] = quantiles(samples, n=4)
    # the highest percentile with at least ten samples beyond it
    if len(samples) >= 11:
        pct = int(100 * (len(samples) - 10) / len(samples))
        out[f"p{pct}"] = quantiles(samples, n=100)[pct - 1]
    return out


def timed_run(args, cli, galois, jobs, rng, checker, probe) -> tuple[dict, dict]:
    setup_raw, setup = measure_setup(probe)
    raw, scaled = [], []
    start = perf_counter()
    while not scaled or perf_counter() - start < args.seconds:
        r, s = run_pass(cli, galois, jobs, rng, checker, probe)
        raw.append(r)
        scaled.append(s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "pass_s": (median(scaled), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "pass_s": summary(scaled),
        "setup_s": summary(setup),
        "raw": {"pass_s": raw, "setup_s": setup_raw, "probe_s": probe.samples},
    }
    return metrics, details


def traced_run(args, cli, galois, jobs, rng, checker, probe) -> tuple[dict, dict]:
    import spans

    plain, traced, tracers = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        plain.append(run_pass(cli, galois, jobs, rng, checker, probe)[1])
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced.append(run_pass(cli, galois, jobs, rng, checker, probe, tracer)[1])
        if tracers:
            tracer.spans.clear()  # only the first traced pass's spans are written out
        tracers.append(tracer)
    per_pass = [spans.layer_metrics(t) for t in tracers]
    metrics = {name: (median(m[name] for m in per_pass), _unit(name)) for name in per_pass[0]}
    metrics["trace.overhead_share"] = ((median(traced) - median(plain)) / median(plain),
                                       "ratio")
    attributed = [sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) for m in per_pass]
    metrics["trace.unattributed_share"] = (
        median((t - a) / t for t, a in zip(traced, attributed)), "ratio")
    write_spans(args, tracers[0])
    details = {
        "pass_s.untraced": summary(plain),
        "pass_s.traced": summary(traced),
        "functions": spans.function_table(tracers),
    }
    return metrics, details


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if ".words_per_s." in name:
        return "1/s"
    return "count"


def write_spans(args, tracer) -> None:
    """Spans of one traced pass: [name, start, end, parent index, job index]."""
    OUT_DIR.mkdir(exist_ok=True)
    names = sorted({s[0] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": tracer.jobs,
        "names": names,
        "spans": [[index[n], round(s - origin, 7), round(e - origin, 7), p, j]
                  for n, s, e, p, j in tracer.spans],
    }
    path = OUT_DIR / f"spans-{args.workload}.json"
    path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "asymqec").is_dir():
        sys.exit(f"no asymqec sources under {SRC}: run from a full checkout")
    # one CPU for the jobs, the probe and the setup spawns, so the probe
    # measures the speed of the CPU the measured work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from asymqec import cli, galois
    from workloads import WORKLOADS

    jobs = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    checker = Checker(args.workload)
    run = traced_run if args.trace else timed_run
    metrics, details = run(args, cli, galois, jobs, rng, checker, Probe())
    failures = checker.failures()
    details["failures"] = failures[:20]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checker.runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
