import json

import pytest
from click.testing import CliRunner

from mwpipe.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_synth_validate_extract_pipeline(runner, tmp_path):
    bag = tmp_path / "s.bag"
    r = runner.invoke(main, ["synth", "--duration", "40", "--out", str(bag)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["validate", "--bag", str(bag)])
    assert r.exit_code == 0, r.output
    assert "0 issues" in r.output
    csv_path = tmp_path / "s.csv"
    r = runner.invoke(main, ["extract", "--bag", str(bag), "--out", str(csv_path)])
    assert r.exit_code == 0, r.output
    assert "11 rows" in r.output


def test_validate_exits_nonzero_on_corruption(runner, tmp_path):
    bag = tmp_path / "c.bag"
    r = runner.invoke(main, ["synth", "--duration", "35", "--out", str(bag)])
    assert r.exit_code == 0
    lines = bag.read_text().splitlines(keepends=True)
    rec = json.loads(lines[5])
    rec["seq"] += 3
    lines[5] = json.dumps(rec, separators=(",", ":")) + "\n"
    bag.write_text("".join(lines))
    r = runner.invoke(main, ["validate", "--bag", str(bag)])
    assert r.exit_code == 1


def test_validate_exits_nonzero_on_bad_header(runner, tmp_path):
    bag = tmp_path / "h.bag"
    bag.write_bytes(b"MWBAG1\n[1,2]\n")
    r = runner.invoke(main, ["validate", "--bag", str(bag)])
    assert r.exit_code == 1
    assert "[header]" in r.output


def test_replay_local(runner, tmp_path):
    bag = tmp_path / "r.bag"
    runner.invoke(main, ["synth", "--duration", "35", "--out", str(bag)])
    r = runner.invoke(main, ["replay", "--bag", str(bag), "--rate", "max"])
    assert r.exit_code == 0, r.output
    assert "replayed" in r.output


@pytest.mark.parametrize("rate", ["fast", "0", "-1", "nan"])
def test_replay_bad_rate_is_a_usage_error(runner, tmp_path, rate):
    bag = tmp_path / "r.bag"
    bag.write_bytes(b"MWBAG1\n{\"topics\":[]}\n")
    r = runner.invoke(main, ["replay", "--bag", str(bag), "--rate", rate])
    assert r.exit_code == 2, r.output
    assert "--rate" in r.output


def test_simulate_short_session(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 2,
        "baseline_s": 32.0,
        "interrun_s": 10.0,
        "run_timeout_s": 20.0,
    }))
    bag = tmp_path / "sim.bag"
    r = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(bag)])
    assert r.exit_code == 0, r.output
    assert r.output.count("run ") == 4
    r = runner.invoke(main, ["validate", "--bag", str(bag)])
    assert r.exit_code == 0, r.output


def test_seed_env_override(runner, tmp_path, monkeypatch):
    bag_a = tmp_path / "a.bag"
    bag_b = tmp_path / "b.bag"
    bag_c = tmp_path / "c.bag"
    monkeypatch.setenv("MWPIPE_SEED", "77")
    runner.invoke(main, ["synth", "--duration", "32", "--out", str(bag_a)])
    runner.invoke(main, ["synth", "--duration", "32", "--out", str(bag_b)])
    monkeypatch.setenv("MWPIPE_SEED", "78")
    runner.invoke(main, ["synth", "--duration", "32", "--out", str(bag_c)])
    from mwpipe.bag import body_bytes

    assert body_bytes(bag_a) == body_bytes(bag_b)
    assert body_bytes(bag_a) != body_bytes(bag_c)


def test_synth_profile_file(runner, tmp_path):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({
        "seed": 5,
        "duration_s": 35.0,
        "rr_mean_ms": 900.0,
        "scr_events": [[6.0, 0.04], [20.0, 0.06]],
    }))
    bag = tmp_path / "p.bag"
    r = runner.invoke(main, ["synth", "--profile", str(profile), "--out", str(bag)])
    assert r.exit_code == 0, r.output
