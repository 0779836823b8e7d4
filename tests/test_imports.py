"""Only extract and simulate load the feature stack.

validate, replay and synth need the bag, the bus and the synthesis code,
and building a plan needs the config dataclasses; none of them may import
SciPy or the extraction modules, nor multiprocessing, which only the
feature worker of simulate and extract needs. Each case is its own interpreter
(test_memory.run_alone), so its sys.modules and its peak are its own.
"""

import json
import os

import pytest

from test_memory import SRC, run_alone

DEFAULT_CONFIG = os.path.join(os.path.dirname(SRC), "configs", "default.json")
FEATURE_STACK = ("scipy", "mwpipe.features.beats", "mwpipe.features.hrv",
                 "mwpipe.features.extract", "multiprocessing")
# A log command needs numpy and the bag code (about 32 MB); the feature
# stack alone adds about 75 MB.
LOG_PEAK_LIMIT_MB = 45.0
PROBE = """
import json, sys
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
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def probe(*args) -> dict:
    """Run one CLI call (or "plan" and a config path) in a fresh interpreter;
    returns its exit code, the modules it loaded and its peak in MB."""
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


def test_simulate_loads_multiprocessing(tmp_path):
    """The multiprocessing gate cannot pass by simulate never needing it."""
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"baseline_s": 2.0, "interrun_s": 1.0, "run_timeout_s": 1.0}))
    result = probe("simulate", "--config", config, "--out", tmp_path / "short.bag")
    assert "multiprocessing" in result["modules"]


def test_extract_loads_the_feature_stack(synth_run, tmp_path):
    """The gate above cannot pass by a command skipping its work."""
    bag, _ = synth_run
    result = probe("extract", "--bag", bag, "--out", tmp_path / "s.csv")
    assert "mwpipe.features.extract" in result["modules"]
    assert (tmp_path / "s.csv").stat().st_size > 0
