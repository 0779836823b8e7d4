"""Only the feature worker loads the extraction stack.

validate, replay and synth need the bag, the bus and the synthesis code,
and building a plan needs the config dataclasses; none of them may import
SciPy or the extraction modules, nor multiprocessing, which only the
feature worker of simulate and extract needs. simulate and extract fork
that worker, and it alone imports the extraction stack, SciPy included.
Each case is its own interpreter (test_memory.run_alone), so its
sys.modules and its peak are its own.
"""

import csv
import json
import os

import pytest

from oracles import load_samples
from test_memory import SRC, run_alone

DEFAULT_CONFIG = os.path.join(os.path.dirname(SRC), "configs", "default.json")
EXTRACTION_STACK = ("scipy", "mwpipe.features.beats", "mwpipe.features.hrv",
                    "mwpipe.features.extract")
FEATURE_STACK = (*EXTRACTION_STACK, "multiprocessing")
# A log command needs numpy and the bag code (about 32 MB); the feature
# stack alone adds about 75 MB.
LOG_PEAK_LIMIT_MB = 45.0
# simulate and extract peak at about 43 and 37 MB in their own process on
# a 780 s session (about 110 and 107 MB with the extraction stack there).
# The launcher's peak would count the worker, so the probe reads its own.
DRIVER_PEAK_LIMIT_MB = 60.0
PROBE = """
import json, resource, sys
args = sys.argv[1:]
code = 0
if args[0] == "plan":
    from mwpipe.config import load_config, plan_from_config
    plan_from_config(load_config(args[1]))
else:
    from mwpipe.cli import main
    try:
        main(args)
    except SystemExit as e:
        code = e.code
print(json.dumps({"code": code, "modules": sorted(sys.modules),
                  "self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def probe(*args) -> dict:
    """Run one CLI call (or "plan" and a config path) in a fresh interpreter;
    returns its exit code, the modules it loaded, its own peak in MB
    (self_mb) and that of it and its children (peak_mb)."""
    out, peak_mb = run_alone(PROBE, *args)
    result = json.loads(out.splitlines()[-1])
    assert result["code"] == 0, out
    return dict(result, peak_mb=peak_mb)


def feature_stack(result) -> list:
    return [m for m in FEATURE_STACK if m in result["modules"]]


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    bag = tmp_path_factory.mktemp("imports") / "s.bag"
    return bag, probe("synth", "--duration", "40", "--out", bag)


def test_synth_leaves_out_the_feature_stack(synth_run):
    _, result = synth_run
    assert feature_stack(result) == []


def test_plan_building_leaves_out_the_feature_stack():
    assert feature_stack(probe("plan", DEFAULT_CONFIG)) == []


@pytest.mark.parametrize("command", [["validate"], ["replay", "--rate", "max"]],
                         ids=["validate", "replay"])
def test_log_commands_leave_out_the_feature_stack(synth_run, command):
    bag, _ = synth_run
    result = probe(command[0], "--bag", bag, *command[1:])
    assert feature_stack(result) == []
    assert result["peak_mb"] < LOG_PEAK_LIMIT_MB, result["peak_mb"]


def assert_worker_only(result):
    """The command drove the feature worker and left the extraction stack
    to it."""
    assert [m for m in EXTRACTION_STACK if m in result["modules"]] == []
    assert {"mwpipe.features.worker", "multiprocessing"} <= set(result["modules"])
    assert result["self_mb"] < DRIVER_PEAK_LIMIT_MB, result["self_mb"]


def test_simulate_leaves_the_extraction_stack_to_the_worker(tmp_path):
    """Not by skipping the work: the worker's ECG rows reach the bag."""
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"baseline_s": 32.0, "interrun_s": 1.0, "run_timeout_s": 1.0}))
    bag = tmp_path / "short.bag"
    assert_worker_only(probe("simulate", "--config", config, "--out", bag))
    rows = [s.payload for s in load_samples(bag) if s.topic == "feat.ecg"]
    assert rows and all("rr_mean_ms" in row for row in rows), rows


def test_extract_leaves_the_extraction_stack_to_the_worker(synth_run, tmp_path):
    """Not by skipping the work: the CSV has ECG features."""
    bag, _ = synth_run
    out = tmp_path / "s.csv"
    assert_worker_only(probe("extract", "--bag", bag, "--out", out))
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    ecg = [i for i, column in enumerate(header) if column.startswith("ecg.rr_")]
    assert ecg and rows and all(row[i] for row in rows for i in ecg), header
