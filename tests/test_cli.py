import csv
import json
import socket

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


def test_a_window_too_short_for_eda_gives_quality_only_eda_rows(runner, tmp_path):
    """EDA decomposition needs 8 s of samples. A window that holds fewer, as
    every 5 s window does, leaves its row's EDA features empty and keeps its
    EDA quality, rather than ending the export."""
    bag, out = tmp_path / "s.bag", tmp_path / "s.csv"
    assert runner.invoke(main, ["synth", "--duration", "40", "--out", str(bag)]).exit_code == 0
    r = runner.invoke(main, ["extract", "--bag", str(bag), "--window", "5", "--out", str(out)])
    assert r.exit_code == 0, r.output
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 36 and f"wrote {len(rows)} rows" in r.output
    eda = [c for c in rows[0] if c.startswith("eda.") and c != "eda.quality"]
    assert eda and all(row[c] == "" for row in rows for c in eda)
    assert all(float(row["eda.quality"]) == 1.0 for row in rows)
    assert all(row["st.mean_c"] for row in rows)  # other modalities keep their features


@pytest.mark.parametrize("window", ["0.05", "0.2"])
def test_a_window_too_short_for_the_cardiac_band_pass_gives_quality_only_cardiac_rows(
        runner, tmp_path, window):
    """The ECG and PPG band-passes pad a window with 15 samples on each side.
    A window of no more samples (0.05 s of 252 Hz ECG, 0.2 s of 64 Hz PPG)
    leaves its row's cardiac features empty and keeps their quality, rather
    than ending the export."""
    bag, out = tmp_path / "s.bag", tmp_path / "s.csv"
    assert runner.invoke(main, ["synth", "--duration", "40", "--out", str(bag)]).exit_code == 0
    r = runner.invoke(main, ["extract", "--bag", str(bag), "--window", window, "--out", str(out)])
    assert r.exit_code == 0, r.output
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and f"wrote {len(rows)} rows" in r.output
    for m in ("ecg", "ppg"):
        features = [c for c in rows[0] if c.startswith(f"{m}.") and c != f"{m}.quality"]
        assert features and all(row[c] == "" for row in rows for c in features)
        assert all(float(row[f"{m}.quality"]) > 0 for row in rows)


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


def test_replay_bind_on_a_port_in_use_is_a_command_line_error(runner, tmp_path):
    bag = tmp_path / "r.bag"
    bag.write_bytes(b"MWBAG1\n{\"topics\":[]}\n")
    with socket.create_server(("127.0.0.1", 0)) as held:
        port = held.getsockname()[1]
        r = runner.invoke(main, ["replay", "--bag", str(bag), "--bind", f"127.0.0.1:{port}"])
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)  # a clean exit, no traceback
    assert f"Error: cannot listen on 127.0.0.1:{port}" in r.output


def test_a_rate_too_slow_to_wait_for_a_record_is_a_command_line_error(runner, tmp_path):
    """At rate 1e-300 the second instant of a bag is due some 1e297 s on,
    further than time.sleep can wait: replay stops there with one message."""
    bag = tmp_path / "s.bag"
    assert runner.invoke(main, ["synth", "--duration", "3", "--out", str(bag)]).exit_code == 0
    r = runner.invoke(main, ["replay", "--bag", str(bag), "--rate", "1e-300"])
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)  # a clean exit, no traceback
    assert "Error: record at byte " in r.output
    assert "at rate 1e-300, beyond what the clock can wait" in r.output


@pytest.mark.parametrize("command", ["synth", "extract", "simulate"])
def test_an_out_path_in_a_missing_directory_is_a_command_line_error(runner, tmp_path, command):
    bag = tmp_path / "s.bag"
    assert runner.invoke(main, ["synth", "--duration", "3", "--out", str(bag)]).exit_code == 0
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps({"baseline_s": 2, "interrun_s": 1, "run_timeout_s": 1}))
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "nodir" / ("x.csv" if command == "extract" else "x.bag")
    args = {"synth": ["--duration", "3"], "extract": ["--bag", str(bag)],
            "simulate": ["--config", str(cfg)]}[command]
    r = runner.invoke(main, [command, *args, "--out", str(out)])
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)  # a clean exit, no traceback
    assert f"Error: cannot write {out}: No such file or directory" in r.output
    assert sorted(tmp_path.iterdir()) == before  # no file left, not even a spool


def test_an_out_path_that_is_a_directory_is_refused_before_the_bag_is_read(runner, tmp_path):
    """extract names the directory, not the garbage line halfway through the
    bag that reading the bag would have reached first, and leaves no file."""
    bag = tmp_path / "g.bag"
    assert runner.invoke(main, ["synth", "--duration", "3", "--out", str(bag)]).exit_code == 0
    lines = bag.read_bytes().splitlines(keepends=True)
    lines.insert(len(lines) // 2, b"garbage\n")
    bag.write_bytes(b"".join(lines))
    out = tmp_path / "features"
    out.mkdir()
    before = sorted(tmp_path.iterdir())
    r = runner.invoke(main, ["extract", "--bag", str(bag), "--out", str(out)])
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)  # a clean exit, no traceback
    assert r.output.splitlines() == [f"Error: cannot write {out}: Is a directory"]
    assert sorted(tmp_path.iterdir()) == before and not any(out.iterdir())


@pytest.mark.parametrize("command", ["extract", "replay"])
def test_corrupt_bag_is_a_command_line_error(runner, tmp_path, command):
    """A record on a topic the manifest does not list is refused with its
    offset, not with a traceback."""
    bag = tmp_path / "c.bag"
    bag.write_bytes(b'MWBAG1\n{"topics":[]}\n{"t":0,"topic":"x.y","seq":0,"data":{}}\n')
    out = tmp_path / "c.csv"
    args = ["--out", str(out)] if command == "extract" else []
    r = runner.invoke(main, [command, "--bag", str(bag), *args])
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)  # a clean exit, no traceback
    assert "Error: record at byte 21 is refused: topic not in manifest" in r.output
    assert not out.exists()


# (arguments, the option named in the error); DIR, BAG and OUT stand for a
# directory, an existing file and a path to write.
BAD_OPTIONS = {
    "validate_bag_is_dir": (["validate", "--bag", "DIR"], "--bag"),
    "replay_bag_is_dir": (["replay", "--bag", "DIR"], "--bag"),
    "extract_bag_is_dir": (["extract", "--bag", "DIR", "--out", "OUT"], "--bag"),
    "extract_config_is_dir": (["extract", "--bag", "BAG", "--config", "DIR", "--out", "OUT"],
                              "--config"),
    "simulate_config_is_dir": (["simulate", "--config", "DIR", "--out", "OUT"], "--config"),
    "synth_profile_is_dir": (["synth", "--profile", "DIR", "--out", "OUT"], "--profile"),
    "window_0": (["extract", "--bag", "BAG", "--window", "0", "--out", "OUT"], "--window"),
    "window_-1": (["extract", "--bag", "BAG", "--window", "-1", "--out", "OUT"], "--window"),
    "window_nan": (["extract", "--bag", "BAG", "--window", "nan", "--out", "OUT"], "--window"),
    "stride_-1": (["extract", "--bag", "BAG", "--stride", "-1", "--out", "OUT"], "--stride"),
    "tolerance_ms_0": (["extract", "--bag", "BAG", "--tolerance-ms", "0", "--out", "OUT"],
                       "--tolerance-ms"),
    "bind_port_not_a_number": (["replay", "--bag", "BAG", "--bind", "127.0.0.1:notaport"],
                               "--bind"),
    "window_under_1ns": (["extract", "--bag", "BAG", "--window", "1e-10", "--out", "OUT"],
                         "--window"),
    "stride_under_1ns": (["extract", "--bag", "BAG", "--stride", "1e-10", "--out", "OUT"],
                         "--stride"),
    "tolerance_under_1ns": (["extract", "--bag", "BAG", "--tolerance-ms", "4e-7",
                             "--out", "OUT"], "--tolerance-ms"),
    "duration_0": (["synth", "--duration", "0", "--out", "OUT"], "--duration"),
    "duration_-1": (["synth", "--duration", "-1", "--out", "OUT"], "--duration"),
    "duration_nan": (["synth", "--duration", "nan", "--out", "OUT"], "--duration"),
    "duration_inf": (["synth", "--duration", "inf", "--out", "OUT"], "--duration"),
    "duration_1e300": (["synth", "--duration", "1e300", "--out", "OUT"], "--duration"),
}


@pytest.mark.parametrize("args, option", BAD_OPTIONS.values(), ids=BAD_OPTIONS)
def test_bad_option_is_a_usage_error(runner, tmp_path, args, option):
    bag = tmp_path / "r.bag"
    bag.write_bytes(b"MWBAG1\n{\"topics\":[]}\n")
    paths = {"DIR": str(tmp_path), "BAG": str(bag), "OUT": str(tmp_path / "out")}
    r = runner.invoke(main, [paths.get(a, a) for a in args])
    assert r.exit_code == 2, r.output
    assert option in r.output


def test_synth_shorter_than_one_respiration_sample(runner, tmp_path):
    bag = tmp_path / "short.bag"
    r = runner.invoke(main, ["synth", "--duration", "0.5", "--out", str(bag)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["validate", "--bag", str(bag)])
    assert r.exit_code == 0, r.output
    assert "0 issues" in r.output


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


@pytest.mark.parametrize("duration", ["baseline_s", "interrun_s", "run_timeout_s"])
def test_simulate_phase_under_one_tick_is_a_command_line_error(runner, tmp_path, duration):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"baseline_s": 35, "interrun_s": 12, "run_timeout_s": 45,
                               duration: 0.04}))
    bag = tmp_path / "sim.bag"
    r = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(bag)])
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)
    assert "every phase must last at least one 0.1 s tick" in r.output
    assert not bag.exists()


def test_seed_env_override(runner, tmp_path, monkeypatch):
    bag_a = tmp_path / "a.bag"
    bag_b = tmp_path / "b.bag"
    bag_c = tmp_path / "c.bag"
    monkeypatch.setenv("MWPIPE_SEED", "77")
    runner.invoke(main, ["synth", "--duration", "32", "--out", str(bag_a)])
    runner.invoke(main, ["synth", "--duration", "32", "--out", str(bag_b)])
    monkeypatch.setenv("MWPIPE_SEED", "78")
    runner.invoke(main, ["synth", "--duration", "32", "--out", str(bag_c)])
    from oracles import body_bytes

    assert body_bytes(bag_a) == body_bytes(bag_b)
    assert body_bytes(bag_a) != body_bytes(bag_c)


def test_seed_env_not_integer_is_a_command_line_error(runner, tmp_path):
    bag = tmp_path / "x.bag"
    r = runner.invoke(main, ["synth", "--duration", "0.5", "--out", str(bag)],
                      env={"MWPIPE_SEED": "x"})
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)  # a clean exit, no traceback
    assert "MWPIPE_SEED" in r.output


@pytest.mark.parametrize("command, config, env", [
    ("simulate", {"seed": -1}, {}),
    ("synth", {"seed": -1, "duration_s": 2}, {}),
    ("synth", None, {"MWPIPE_SEED": "-5"}),
], ids=["simulate_config", "synth_profile", "synth_env"])
def test_a_negative_seed_is_a_command_line_error(runner, tmp_path, command, config, env):
    bag = tmp_path / "x.bag"
    args = [command, "--out", str(bag)]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config" if command == "simulate" else "--profile", str(cfg)]
    else:
        args += ["--duration", "2"]
    r = runner.invoke(main, args, env=env)
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)  # a clean exit, no traceback
    assert "Error: " in r.output and "seed must not be negative" in r.output
    assert not bag.exists()


def test_a_tlx_jitter_out_of_range_is_a_command_line_error(runner, tmp_path):
    """Refused by the plan, not by scripted_tlx after the first run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tlx_jitter": -1, "baseline_s": 2, "interrun_s": 1,
                               "run_timeout_s": 1}))
    bag = tmp_path / "x.bag"
    r = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(bag)])
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)
    assert "Error: tlx_jitter must be in [0, 2**63 - 1]: -1" in r.output
    assert not bag.exists()


def test_bad_config_file_is_a_command_line_error(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"policy": {"reaction_mean_s": "x"}}')
    r = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.bag")])
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)
    assert "reaction_mean_s" in r.output


@pytest.mark.parametrize("command, config", [
    ("simulate", {"phase_profiles": {"run": {"pupil_base_mm": 9.0}}}),
    ("simulate", {"profile": {"st_base_c": 20}}),
    ("synth", {"rr_mean_ms": -5}),
    ("simulate", {"baseline_s": 5, "interrun_s": 5, "run_timeout_s": 5,
                  "phase_profiles": {"run": {"scr_events": [[2.0, -1.0]]}}}),
    ("simulate", {"baseline_s": 5, "interrun_s": 5, "run_timeout_s": 5,
                  "phase_profiles": {"run": {"scr_events": [[2.0, 0.1], [2.5, 0.1]]}}}),
    ("simulate", {"baseline_s": 5, "interrun_s": 5, "run_timeout_s": 5,
                  "profile": {"eda_tonic_uS": 10 ** 400}}),
    ("synth", {"gaze_script": [{"kind": "fixation", "start_s": 0, "duration_s": 2},
                               {"kind": "saccade", "start_s": 1, "duration_s": 0.05}]}),
])
def test_profile_out_of_range_is_a_command_line_error(runner, tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    bag = tmp_path / "x.bag"
    option = "--config" if command == "simulate" else "--profile"
    r = runner.invoke(main, [command, option, str(cfg), "--out", str(bag)])
    assert r.exit_code == 1, r.output
    assert not isinstance(r.exception, Exception)
    assert not bag.exists()


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
