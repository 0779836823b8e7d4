"""One benchmark process: takes its set-up stamp, then does one job.

perfbench/run.py starts a fresh interpreter on this file for every
repetition, so each repetition's peak RSS belongs to it alone:

    python3 perfbench/worker.py '{"mode": "rep", "workload": "log_io", ...}'

The spec keys are mode ("setup", "fixture" or "rep"), workload, seed, bag
(the fixture bag path), work (a scratch directory), trace (bool), trace_out
(where a traced repetition writes its spans) and result (where the result
JSON is written). A "setup" process stops after its stamp.

Before anything else, the process imports mwpipe.cli and builds the plan
from configs/default.json, which is what every CLI call pays first, and
reports the time.monotonic() at which that was done. run.py takes set-up
time as that instant minus the instant it started the process. Everything
else, the benchmark's own modules included, is imported after the stamp.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mwpipe.cli  # noqa: E402,F401
from mwpipe.config import load_config, plan_from_config  # noqa: E402


def main(argv) -> int:
    plan_from_config(load_config(os.path.join(ROOT, "configs", "default.json")))
    setup_done = time.monotonic()
    spec = json.loads(argv[1])
    out = {}
    if spec["mode"] != "setup":
        import reps

        out = reps.run(spec)
    out["setup_done"] = setup_done
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
