"""Golden outputs: SHA-256 of bag bodies and a feature CSV for pinned inputs.

Any change to synthesis, the session, the bag encoder or extraction that
alters a single output byte fails here. The digests are recomputed only
when an output change is intended and stated.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from mwpipe.cli import main

from oracles import body_bytes

SYNTH_40S_BODY = "1730b700b9f88913b3acd7bbe1248ae554acd23a3a9b525d06174c90920a6386"
SYNTH_PROFILE_BODY = "38e4611d3e9dc516c443514ce9b89a11027f1ff318347b9b582bfc948f761f19"
SESSION_BODY = "a05a8a6dcf831db836f4ebbd7dcbfb6543c629bad54223ae8bfd53565e80bd90"
SESSION_CSV = "40163162df9428469be82ecea514d7d38936ed57e114cdca58b2fc7e63e19b61"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def runner(monkeypatch):
    monkeypatch.delenv("MWPIPE_SEED", raising=False)
    return CliRunner()


def invoke(runner, *args):
    r = runner.invoke(main, list(args))
    assert r.exit_code == 0, r.output
    return r


def test_synth_duration_body(runner, tmp_path):
    bag = tmp_path / "s.bag"
    invoke(runner, "synth", "--duration", "40", "--out", str(bag))
    assert sha256(body_bytes(bag)) == SYNTH_40S_BODY


def test_synth_profile_body(runner, tmp_path):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({
        "seed": 5,
        "duration_s": 35.0,
        "rr_mean_ms": 900.0,
        "scr_events": [[6.0, 0.04], [20.0, 0.06]],
    }))
    bag = tmp_path / "p.bag"
    invoke(runner, "synth", "--profile", str(profile), "--out", str(bag))
    assert sha256(body_bytes(bag)) == SYNTH_PROFILE_BODY


def test_short_session_body_and_csv(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 2,
        "baseline_s": 32.0,
        "interrun_s": 10.0,
        "run_timeout_s": 20.0,
    }))
    bag = tmp_path / "sim.bag"
    invoke(runner, "simulate", "--config", str(cfg), "--out", str(bag))
    assert sha256(body_bytes(bag)) == SESSION_BODY
    csv_path = tmp_path / "sim.csv"
    invoke(runner, "extract", "--bag", str(bag), "--out", str(csv_path))
    assert sha256(csv_path.read_bytes()) == SESSION_CSV
