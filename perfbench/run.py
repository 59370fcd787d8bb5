"""virtres benchmark: time-to-answer for three workloads, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload curve-reg --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --all [--seed 0] [--seconds 40] [--trace 0|1]

Each workload runs in fresh worker processes (``worker.py``), one client, no
threads.  With ``--trace 0`` the worker process is started ``SETUPS - 1``
extra times to set up only, and ``setup_s`` is the median of all set-ups;
the last line printed is one JSON object with every end-to-end metric.  With
``--trace 1`` one untraced and one traced pass run in two fresh processes and
the per-layer metrics are printed instead.  ``--all`` runs every workload and
prints each metric by name with its unit, plus ``failed_frac``.

``BENCHMARK.json`` lists ``curve-reg`` and ``small-jobs`` only.  ``points``
runs with ``--workload points`` and ``--all``; its single-job metrics are too
noisy on a shared machine to be gated (README.md, "Machine noise").

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("points", "curve-reg", "small-jobs")
SETUPS = 3
# a run must end within 180 s; leave room to print and exit
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--t0", repr(t0),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker killed after {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed no result")
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    setups = [
        worker(workload, seed, deadline, "--setup-only")["setup_s"]
        for _ in range(SETUPS - 1)
    ]
    res = worker(workload, seed, deadline, "--seconds", str(seconds))
    setups.append(res["setup_s"])
    passes = res["passes"]
    solve = [p["solve_s"] for p in passes]
    jobs_ms = [1000.0 * s for s in res["job_s"]]

    def kind(name):
        return statistics.median(p["kinds"][name] for p in passes)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(solve), "s"),
        "ideal_s": (kind("ideal"), "s"),
        "minres_s": (kind("minres"), "s"),
        "pair_s": (kind("pair"), "s"),
        "certify_s": (kind("certify"), "s"),
        "jobs_per_s": (len(jobs_ms) / sum(solve), "1/s"),
        "job_p50_ms": (percentile(jobs_ms, 50), "ms"),
        "job_p90_ms": (percentile(jobs_ms, 90), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return finish([res], metrics)


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    # without --seconds a worker runs exactly one pass
    plain = worker(workload, seed, deadline)
    traced = worker(workload, seed, deadline, "--trace")
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    overhead = traced["passes"][0]["solve_s"] - plain["passes"][0]["solve_s"]
    metrics["trace_overhead_s"] = (overhead, "s")
    print(f"# spans written to {traced['spans_file']}", file=sys.stderr)
    return finish([plain, traced], metrics)


def finish(results: list[dict], metrics: dict) -> dict:
    """The result line; failure reasons and notes go to standard error."""
    for res in results:
        for reason in res["failures"]:
            print(f"# FAILED {res['workload']}: {reason}", file=sys.stderr)
    for key, val in results[-1]["notes"].items():
        print(f"# {results[-1]['workload']} {key}: {json.dumps(val)}", file=sys.stderr)
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        return per_layer(workload, seed, deadline)
    return end_to_end(workload, seed, seconds, deadline)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "virtres" / "__init__.py").is_file():
        print(f"perfbench: no virtres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        for workload in WORKLOADS:
            result = run(workload, args.seed, args.seconds, bool(args.trace))
            for name, m in result["metrics"].items():
                print(f"{workload:10s} {name:44s} {m['value']:14.6g} {m['unit']}")
            frac = result["failed"] / result["attempted"]
            print(f"{workload:10s} {'failed_frac':44s} {frac:14.6g} "
                  f"({result['failed']}/{result['attempted']})")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
