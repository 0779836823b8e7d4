"""Command-line surface: synth, simulate, extract, replay, validate."""

from __future__ import annotations

import csv
import math
import sys

import click

from .bag import BagWriter
from .bag import replay as bag_replay
from .bag import validate as bag_validate
from .bus import DEFAULT_ALIGN_TOLERANCE_NS, NS_PER_S, Bus
from .config import gaze_thresholds_from_config, load_config, plan_from_config, profile_from_config
from .errors import InvalidProfile, MwpipeError
from .export import extract_csv
from .session import SESSION_TOPICS, StitchState, phase_waveforms, run_session
from .wire import serve_bag


class _Positive(click.ParamType):
    """A positive, finite number; with ns_per_unit, also one that is at
    least 1 ns once rounded to whole nanoseconds, and under 2**63 ns."""

    name = "positive number"
    expected = "a positive number"

    def __init__(self, ns_per_unit: float | None = None):
        self.ns_per_unit = ns_per_unit

    def convert(self, value, param, ctx):
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not (math.isfinite(number) and number > 0):
            self.fail(f"{value!r} is not {self.expected}", param, ctx)
        if self.ns_per_unit is not None:
            ns = number * self.ns_per_unit
            if not ns < 2**63:
                self.fail(f"{value!r} is not under 2**63 ns", param, ctx)
            if round(ns) < 1:
                self.fail(f"{value!r} is under 1 ns", param, ctx)
        return number


class RateType(_Positive):
    """A replay rate: "max" or a positive, finite speed multiplier."""

    name = "rate"
    expected = "'max' or a positive number"

    def convert(self, value, param, ctx):
        return value if value == "max" else super().convert(value, param, ctx)


def _host_port(ctx, param, value):
    """--bind HOST:PORT as (host, port); the host may be empty, and an empty
    port is 0."""
    if value is None:
        return None
    host, _, port = value.partition(":")
    if not port or (port.isdecimal() and int(port) <= 65535):
        return host, int(port or 0)
    raise click.BadParameter(f"{value!r} is not HOST:PORT with a port in 0-65535")


_FILE = click.Path(exists=True, dir_okay=False)


def _reported(call, *args, **kwargs):
    """call(*args, **kwargs), with a pipeline error (a bad config file,
    MWPIPE_SEED value or bag, an --out path that cannot be written, a rate
    too slow to wait for a record, an address it cannot listen on or a
    client that hangs up) reported as a command-line error, not a traceback."""
    try:
        return call(*args, **kwargs)
    except MwpipeError as e:
        raise click.ClickException(str(e)) from e


def _from_config(build, path):
    return _reported(lambda: build(load_config(path)))


@click.group()
def main():
    """Workload data pipeline: synthesis, simulation, extraction, replay."""


@main.command()
@click.option("--profile", "profile_path", type=_FILE, default=None,
              help="JSON profile (defaults apply when omitted).")
@click.option("--duration", "duration_s", type=_Positive(), default=None,
              help="Override profile duration in seconds.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def synth(profile_path, duration_s, out_path):
    """Generate all six raw biosignals into a bag."""
    profile = _from_config(profile_from_config, profile_path)
    if duration_s is not None:
        profile.duration_s = duration_s
        try:
            profile.validate()
        except InvalidProfile as e:
            raise click.BadParameter(str(e), param_hint="'--duration'") from e

    bus = Bus()
    topics = {t.name: bus.open_topic(t)
              for t in SESSION_TOPICS if t.name.startswith("bio.")}
    writer = BagWriter(out_path, bus, session_meta={"kind": "synth", "seed": profile.seed})
    _reported(writer.start)
    waveforms = phase_waveforms(profile, profile.duration_s, profile.seed, StitchState())
    n = 0
    for m, wf in waveforms.items():
        topic = topics[f"bio.{m}"]
        bus.publish_block(topic, wf.times_ns(), wf.values.reshape(wf.n, len(topic.fields)).T)
        n += wf.n
    writer.close()
    click.echo(f"wrote {n} samples across {len(waveforms)} topics to {out_path}")


@main.command()
@click.option("--config", "config_path", type=_FILE, default=None,
              help="JSON session config (defaults apply when omitted).")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--tlx", type=click.Choice(["scripted", "interactive"]), default="scripted")
def simulate(config_path, out_path, tlx):
    """Run the full trial protocol and record everything into one bag."""
    plan = _from_config(plan_from_config, config_path)
    prompt = None
    if tlx == "interactive":
        def prompt(scale):
            return click.prompt(f"TLX {scale} (0-100)", type=click.IntRange(0, 100))
    result = _reported(run_session, plan, out_path, tlx_interactive_prompt=prompt)
    for rec in result.run_records:
        click.echo(
            f"run {rec.run_index} [{rec.difficulty}] {rec.outcome.status} "
            f"in {rec.outcome.completion_time_s:.1f} s, "
            f"{rec.outcome.distance_m:.0f} m"
        )
    click.echo(f"bag: {result.bag_path}")


@main.command()
@click.option("--bag", "bag_path", type=_FILE, required=True)
@click.option("--window", "window_s", type=_Positive(NS_PER_S), default=30.0, show_default=True)
@click.option("--stride", "stride_s", type=_Positive(NS_PER_S), default=1.0, show_default=True)
@click.option("--tolerance-ms", type=_Positive(1e6), default=DEFAULT_ALIGN_TOLERANCE_NS / 1e6,
              show_default=True, help="Telemetry alignment tolerance.")
@click.option("--config", "config_path", type=_FILE, default=None,
              help="Shared config (picks up gaze_thresholds).")
@click.option("--out", "out_path", type=click.Path(), required=True)
def extract(bag_path, window_s, stride_s, tolerance_ms, config_path, out_path):
    """Derive the per-window feature table from a bag."""
    path = _reported(extract_csv, bag_path, out_path, window_s=window_s, stride_s=stride_s,
                     align_tolerance_ns=round(tolerance_ms * 1e6),
                     gaze_thresholds=_from_config(gaze_thresholds_from_config, config_path))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    click.echo(f"wrote {rows} rows to {path}")


@main.command()
@click.option("--bag", "bag_path", type=_FILE, required=True)
@click.option("--rate", type=RateType(), default="max", show_default=True,
              help="Playback speed multiplier, or 'max' for no pacing.")
@click.option("--bind", "bind_addr", default=None, callback=_host_port,
              help="HOST:PORT to serve the live-adapter wire protocol.")
def replay(bag_path, rate, bind_addr):
    """Republish a bag, paced or at full speed, locally or over a socket."""
    if bind_addr is not None:
        host, port = bind_addr
        click.echo(f"serving {bag_path} on {host}:{port} (rate={rate})")
        bound_host, bound_port, sent = _reported(
            serve_bag, bag_path, host or "127.0.0.1", port, rate,
            ready=lambda h, p: click.echo(f"listening on {h}:{p}"))
        click.echo(f"sent {sent} records")
        return
    bus = _reported(bag_replay, bag_path, rate=rate)
    total = sum(bus.topic(d.name).next_seq for d in bus.topics())
    click.echo(f"replayed {total} records across {len(bus.topics())} topics")


@main.command()
@click.option("--bag", "bag_path", type=_FILE, required=True)
def validate(bag_path):
    """Check a bag's structure; exit nonzero on any error."""
    report = bag_validate(bag_path)
    for issue in report.issues:
        click.echo(str(issue), err=True)
    click.echo(f"{report.records} records, {len(report.issues)} issues")
    sys.exit(0 if report.ok else 1)


if __name__ == "__main__":
    main()
