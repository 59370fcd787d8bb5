"""Run one workload in this process and print its measurements as JSON.

Set-up (the import, the seeded inputs, and for ``small-jobs`` one warm-up
pass) ends when the inputs are ready; ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so the reported
``setup_s`` includes interpreter start.  Then whole passes over the job list
run, as many as bring their summed time closest to ``--seconds`` but at least
one; without ``--seconds``, exactly one.  Each answer is checked after its
pass, outside the timed region, and the warm-up answers after ``setup_s`` is
taken (a ``--setup-only`` worker does not check them).

The last line of standard output is one JSON object; ``run.py`` reads it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_virtres() -> None:
    """Import virtres from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import virtres

    if Path(virtres.__file__).resolve().parent != SRC / "virtres":
        raise SystemExit(f"virtres imported from {virtres.__file__}, not from {SRC}")


def run_pass(jobs, recorder=None):
    """Time each job once, in order; return (pass seconds, samples, answers)."""
    perf = time.perf_counter
    samples = []
    answers = []
    t_pass = perf()
    for idx, job in enumerate(jobs):
        if recorder is not None:
            recorder.current_job = idx
        t = perf()
        try:
            ans, err = job.run(), None
        except Exception as exc:  # a raising job is a failed job
            ans, err = None, f"{type(exc).__name__}: {exc}"
        samples.append(perf() - t)
        answers.append((ans, err))
    return perf() - t_pass, samples, answers


def check_pass(jobs, answers) -> list[str]:
    """Reasons for every wrong or failed answer of one pass."""
    failures = []
    for job, (ans, err) in zip(jobs, answers):
        if err is None:
            try:
                err = job.check(ans)
            except Exception as exc:  # a malformed answer is a wrong answer
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{job.name}: {err}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_virtres()
    import workloads
    from tracer import SpanRecorder

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        jobs = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        failures: list[str] = []
        attempted = 0
        warmup = run_pass(jobs)[2] if args.workload == "small-jobs" else None
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if warmup is not None:
            failures += check_pass(jobs, warmup)
            attempted += len(jobs)

        recorder = None
        if args.trace:
            recorder = SpanRecorder()
            recorder.install()
        passes = []
        samples: list[float] = []
        notes: dict = {}
        while True:
            if recorder is not None:
                recorder.enabled = True
            solve_s, times, answers = run_pass(jobs, recorder)
            if recorder is not None:
                recorder.enabled = False
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            kinds = {k: 0.0 for k in workloads.KINDS}
            for job, dt in zip(jobs, times):
                kinds[job.kind] += dt
            passes.append({"solve_s": solve_s, "kinds": kinds})
            samples += times
            attempted += len(jobs)
            failures += check_pass(jobs, answers)
            for job, (ans, err) in zip(jobs, answers):
                if job.note is not None and err is None:
                    notes[job.name] = job.note(ans)
            if sum(p["solve_s"] for p in passes) + solve_s / 2 >= args.seconds:
                # the pass count whose total lies closest to --seconds
                break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "passes": passes,
        "job_s": samples,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "notes": notes,
    }
    if recorder is not None:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        recorder.write(str(spans), args.t0)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["layers"] = recorder.metrics(passes[-1]["solve_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
