"""Peak memory of a live session and of its export is bounded by a window of
data, not by the length of the session.

Each run is its own interpreter, so its getrusage peak is its own. Import
alone is about 105 MB; a plan three times as long may add only a few MB.
"""

import os
import subprocess
import sys

import mwpipe

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mwpipe.__file__)))
PEAK = """
import resource, sys
from mwpipe.export import extract_csv
from mwpipe.session import SessionPlan, run_session
step, bag, phases = sys.argv[1], sys.argv[2], sys.argv[3:]
if step == "live":
    baseline_s, interrun_s, run_timeout_s = map(float, phases)
    run_session(SessionPlan(seed=11, baseline_s=baseline_s, interrun_s=interrun_s,
                            run_timeout_s=run_timeout_s), bag)
else:
    extract_csv(bag, bag + ".csv")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
GROWTH_LIMIT_MB = 8.0


def peak_mb(step: str, bag, phases=()) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", PEAK, step, str(bag), *map(str, phases)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024


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
