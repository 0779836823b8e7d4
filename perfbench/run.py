"""mwpipe benchmark: one workload, one seed, timed end to end or traced.

    python3 perfbench/run.py --workload live_session --seed 11 --seconds 15 --trace 0

Workloads (each a closed loop: one caller waits for every call):
  live_session     run_session on the pinned shortened plan (780 s of signal)
  offline_extract  extract_csv, 30 s window and 1 s stride, over that bag
  log_io           replay(rate="max"), validate, then serve_bag to one
                   loopback client draining recv_frames

Run from the root of a checkout. The workload seed builds every input
(default 11, hold-out 23). Outputs are checked against digests pinned in
perfbench/golden.json for seeds 0 to 47, so --seed N runs plan seed N
modulo the number of pinned seeds; the run's summary line names it.
Set-up that is not measured (the fixture bag) runs in its own process, and
every repetition runs in a fresh interpreter so its peak RSS is its own.
Repetitions continue until their timed calls add up to --seconds.

--trace 0 prints the end-to-end metrics: setup_s, job_s and peak_rss_mb.
setup_s is the median over every process the run starts, each of which
first imports mwpipe.cli and builds the plan from configs/default.json;
SETUP_ONLY of them do nothing else. --trace 1 runs one
untraced repetition and one traced repetition and prints the per-layer
metrics, including the tracing overhead. Human-readable lines come first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from figures import median
from gate import Ledger, pinned_seeds
import selfcheck

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(HERE, ".work")
WORKLOADS = ("live_session", "offline_extract", "log_io")
# Every child is killed once the run is this old, so a run ends within 180 s.
DEADLINE_S = 170
# No repetition starts once one more could end past this many seconds.
RUN_BUDGET_S = 140
# Processes a --trace 0 run starts only for their set-up time, so that
# setup_s is a median of at least four.
SETUP_ONLY = 2


class WorkerFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def run_worker(spec: dict, deadline: float) -> dict:
    result_path = os.path.join(spec["work"], "result.json")
    spec = {**spec, "result": result_path}
    if os.path.exists(result_path):
        os.remove(result_path)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=time_left(deadline), text=True)
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                           else f"exit code {proc.returncode}")
    with open(result_path, "r", encoding="utf-8") as fh:
        out = json.load(fh)
    out["setup_s"] = out["setup_done"] - started
    return out


def repetition(spec: dict, ledger: Ledger, deadline: float) -> dict | None:
    try:
        out = run_worker(spec, deadline)
    except (WorkerFailed, subprocess.TimeoutExpired) as e:
        ledger.record(spec["workload"], False, str(e))
        return None
    for stage in out["stages"]:
        ledger.record(stage, True)
    ledger.record_checks(out["checks"])
    return out


def line(name: str, value, unit: str, note: str = ""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"{name:<44} {shown:>14} {unit:<6} {note}".rstrip())


def report_reps(workload: str, reps: list[dict]):
    """Human-readable medians of the workload-specific figures."""
    n = len(reps)
    for stage in reps[0]["stages"]:
        line(stage, median([r["stages"][stage] for r in reps]), "s", f"median of {n} reps")
    if workload == "live_session":
        ticks = reps[0]["ticks"]["n"]
        for q in ("p50", "p99"):
            values = [r["ticks"][f"{q}_ms"] for r in reps if r["ticks"][f"{q}_ms"] is not None]
            line(f"tick_ms_{q}", median(values) if values else None, "ms",
                 f"{ticks} ticks per rep, median of {n} reps")
        line("phase_stall_ms_p50", median([r["phase_stall_ms_p50"] for r in reps]), "ms",
             f"median of {reps[0]['n_phases']} phase starts, median of {n} reps")


def measure(args, work: str) -> int:
    ledger = Ledger()
    started = time.monotonic()
    deadline = started + DEADLINE_S
    spec = {"workload": args.workload, "seed": args.plan_seed, "work": work,
            "bag": os.path.join(work, "fixture.bag"), "mode": "rep", "trace": False}
    setup = []
    for _ in range(0 if args.trace else SETUP_ONLY):
        try:
            setup.append(run_worker({**spec, "mode": "setup"}, deadline)["setup_s"])
        except (WorkerFailed, subprocess.TimeoutExpired) as e:
            print(f"set-up process failed: {e}", file=sys.stderr)
            return 1
    if args.workload != "live_session":
        try:
            fixture = run_worker({**spec, "mode": "fixture"}, deadline)
        except (WorkerFailed, subprocess.TimeoutExpired) as e:
            print(f"fixture bag not built: {e}", file=sys.stderr)
            return 1
        ledger.record_checks(fixture["checks"])
        setup.append(fixture["setup_s"])

    reps = []
    traced = None
    if args.trace:
        plain = repetition(spec, ledger, deadline)
        reps = [plain] if plain is not None else []
        trace_out = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.plan_seed}.json")
        traced = repetition({**spec, "trace": True, "trace_out": trace_out}, ledger,
                            deadline)
    else:
        while True:
            t0 = time.monotonic()
            out = repetition(spec, ledger, deadline)
            if out is None:
                break
            reps.append(out)
            rep_wall = time.monotonic() - t0
            if sum(r["job_s"] for r in reps) >= args.seconds:
                break
            if time.monotonic() - started + rep_wall > RUN_BUDGET_S:
                break

    print(f"workload {args.workload}, seed {args.seed} (plan seed {args.plan_seed}), "
          f"trace {args.trace}: {len(reps)} timed reps")
    for err in ledger.errors:
        print(f"FAILED {err}")
    if not reps or (args.trace and traced is None):
        print("no complete measurement", file=sys.stderr)
        return 1

    report_reps(args.workload, reps)
    line("failed_op_share", ledger.failed_share, "ratio",
         f"{ledger.failed} of {ledger.attempted} operations")
    if args.trace:
        metrics = per_layer_metrics(args.workload, reps[0], traced)
    else:
        setup += [r["setup_s"] for r in reps]
        metrics = {
            "setup_s": (median(setup), "s", f"median of {len(setup)} interpreters"),
            "job_s": (median([r["job_s"] for r in reps]), "s", f"median of {len(reps)} reps"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB",
                            f"median of {len(reps)} reps"),
        }
    for name, (value, unit, note) in metrics.items():
        line(name, value, unit, note)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def per_layer_metrics(workload: str, plain: dict, traced: dict) -> dict:
    """Traced-run layer figures, plus untraced session and stage times and
    the tracing overhead (traced minus untraced) of the job time."""
    metrics = {name: (value, unit, "traced rep")
               for name, (value, unit) in traced["layers"].items()}
    live = workload == "live_session"
    stages = plain["stages"]
    untraced = {
        "session.tick_ms_p50": (plain["ticks"]["p50_ms"] if live else 0.0, "ms"),
        "session.tick_ms_p99": (plain["ticks"]["p99_ms"] if live else 0.0, "ms"),
        "session.phase_stall_ms_p50": (plain["phase_stall_ms_p50"] if live else 0.0, "ms"),
        "bag.replay.wall_s": (stages.get("replay_s", 0.0), "s"),
        "bag.validate.wall_s": (stages.get("validate_s", 0.0), "s"),
        "wire.wall_s": (stages.get("wire_s", 0.0), "s"),
    }
    for name, (value, unit) in untraced.items():
        metrics[name] = (value, unit, "untraced rep")
    overhead = traced["job_s"] - plain["job_s"]
    metrics["trace.overhead.job_s"] = (overhead, "s", "traced minus untraced job_s")
    metrics["trace.overhead.share"] = (overhead / plain["job_s"], "ratio",
                                       "overhead over untraced job_s")
    for stage, value in stages.items():
        line(f"trace overhead of {stage}", traced["stages"][stage] - value, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mwpipe benchmark (see module docstring)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    seeds = pinned_seeds()
    args.plan_seed = seeds[args.seed % len(seeds)]
    if "MWPIPE_SEED" in os.environ:
        print("MWPIPE_SEED is set; it would rewrite config-built plans, refusing to run",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "mwpipe", "__init__.py")):
        print(f"no mwpipe sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    if not selfcheck.run():
        print("harness self-check failed", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
