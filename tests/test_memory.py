"""Peak memory of a live session and of its export is bounded by a window of
data, not by the length of the session.

Each run is its own interpreter, started through run_alone, so its
getrusage peak is its own and its feature worker's, whichever is higher.
The worker's imports alone are about 105 MB; a plan three times as long
may add only a few MB.
"""

import os
import subprocess
import sys

import mwpipe

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mwpipe.__file__)))
PEAK = """
import sys
from mwpipe.export import extract_csv
from mwpipe.session import SessionPlan, run_session
step, bag, phases = sys.argv[1], sys.argv[2], sys.argv[3:]
if step == "live":
    baseline_s, interrun_s, run_timeout_s = map(float, phases)
    run_session(SessionPlan(seed=11, baseline_s=baseline_s, interrun_s=interrun_s,
                            run_timeout_s=run_timeout_s), bag)
else:
    extract_csv(bag, bag + ".csv")
"""
GROWTH_LIMIT_MB = 8.0
# On Linux a process's getrusage peak starts at the peak of the process that
# started it, and pytest's is far above a run's (681 MB once
# tests/test_acceptance.py has run). So each run goes through a small
# launcher interpreter, whose RUSAGE_CHILDREN is the run's own peak.
LAUNCH = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-c", *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


def run_alone(code: str, *args) -> tuple[str, float]:
    """Run `python -c code args` in a fresh interpreter with src on its path;
    returns its standard output and its own peak in MB."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", LAUNCH, code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out, _, peak = done.stdout.rstrip("\n").rpartition("\n")
    return out, float(peak)


def peak_mb(step: str, bag, phases=()) -> float:
    return run_alone(PEAK, step, bag, *phases)[1]


def test_peak_does_not_grow_with_the_session(tmp_path):
    """40/20/40 s phases against 120/60/120 s ones (260 s and 780 s of
    signal): the peak of run_session and of extract_csv each grows by less
    than GROWTH_LIMIT_MB."""
    peaks = {}
    for name, phases in (("short", (40, 20, 40)), ("long", (120, 60, 120))):
        bag = tmp_path / f"{name}.bag"
        peaks[name] = (peak_mb("live", bag, phases), peak_mb("extract", bag))
    (live_short, offline_short), (live_long, offline_long) = peaks["short"], peaks["long"]
    assert live_long - live_short < GROWTH_LIMIT_MB, peaks
    assert offline_long - offline_short < GROWTH_LIMIT_MB, peaks
