"""The benchmark's workloads, their output checks and per-layer metrics.

perfbench/worker.py imports this module in each benchmark process once it
has taken its set-up stamp; perfbench/pin.py imports it to record the
golden outputs. Both put the repository's src/ on sys.path first. Timed
regions contain only calls into mwpipe; every output check runs after them.
"""

from __future__ import annotations

import hashlib
import os
import resource
import socket
import threading
import time

import mwpipe.bag as mbag
import mwpipe.export as mexport
import mwpipe.features.extract as mextract
import mwpipe.session as msession
import mwpipe.wire as mwire
from mwpipe.bus import Bus, ManualClock
from mwpipe.features import FEATURE_CATALOG, MIN_QUALITY, FeaturePipeline
from mwpipe.sim.operator import ScriptedOperator, WanderOperator
from mwpipe.sim.rover import RoverSim

from figures import median, percentile
from gate import body_digest, digest_after, golden
from spans import Tracer

# The pinned shortened plan: 120 s baseline, three 60 s gaps and four runs
# that time out at 120 s give 780 s of signal and a ~40 MB bag.
PLAN = {"baseline_s": 120.0, "interrun_s": 60.0, "run_timeout_s": 120.0}
SYNTH_GENERATORS = ("gen_rr_series", "render_cardiac", "gen_resp", "gen_eda",
                    "gen_drift_st", "gen_gaze")
MODALITIES = tuple(FEATURE_CATALOG)
# Spans kept one by one; every other boundary runs per record or per tick
# and is kept only as an aggregate.
COARSE_SPANS = (("session.run_session", "bag.flush_until", "export.extract_csv",
                 "export.align", "bag.replay", "bag.validate", "wire.serve_bag")
                + tuple(f"synth.{g}" for g in SYNTH_GENERATORS))


def make_plan(seed: int):
    return msession.SessionPlan(seed=seed, **PLAN)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TickStamps:
    """Wall-clock stamp at every ManualClock.advance_to, the session tick."""

    def __init__(self):
        self.wall: list[int] = []
        self.session: list[int] = []
        orig = ManualClock.advance_to

        def advance_to(clock, t_ns):
            self.wall.append(time.perf_counter_ns())
            self.session.append(t_ns)
            return orig(clock, t_ns)

        ManualClock.advance_to = advance_to

    def tick_ms(self) -> list[float]:
        return [(b - a) / 1e6 for a, b in zip(self.wall, self.wall[1:])]

    def phase_stalls_ms(self, call_start_ns: int, phases) -> list[float]:
        """Interval before each phase's first tick; it holds the previous
        phase's bag flush and this phase's synthesis and terrain build."""
        out = []
        i = 0
        for _, start_ns, _ in phases:
            while self.session[i] <= start_ns:
                i += 1
            before = self.wall[i - 1] if i else call_start_ns
            out.append((self.wall[i] - before) / 1e6)
        return out


class WaitTimingSocket:
    """Socket stand-in for recv_frames that times each blocking recv."""

    def __init__(self, sock, tracer: Tracer):
        self._sock = sock
        self._tracer = tracer

    def recv(self, n: int) -> bytes:
        self._tracer.begin("wire.recv.wait")
        try:
            chunk = self._sock.recv(n)
        finally:
            self._tracer.end()
        self._tracer.count("wire.bytes", len(chunk))
        return chunk


def install_tracer(tracer: Tracer):
    """Wrap every public layer boundary that the workloads call into."""
    for g in SYNTH_GENERATORS:
        setattr(msession, g, tracer.wrap(getattr(msession, g), f"synth.{g}"))
    Bus.publish = tracer.wrap(Bus.publish, "bus.publish")
    FeaturePipeline.feed = tracer.wrap(FeaturePipeline.feed, "features.feed")
    FeaturePipeline.advance_to = tracer.wrap(FeaturePipeline.advance_to,
                                             "features.advance_to")
    orig_extract = mextract.extract_window

    def extract_window(window, *args, **kwargs):
        tracer.begin(f"features.extract_window.{window.modality}")
        try:
            row = orig_extract(window, *args, **kwargs)
        finally:
            tracer.end()
        kind = "windows" if row.quality >= MIN_QUALITY else "windows_suppressed"
        tracer.count(f"features.{kind}.{window.modality}")
        return row

    mextract.extract_window = extract_window
    RoverSim.step = tracer.wrap(RoverSim.step, "sim.step")
    ScriptedOperator.act = tracer.wrap(ScriptedOperator.act, "sim.operator.act")
    WanderOperator.act = tracer.wrap(WanderOperator.act, "sim.operator.act")
    mbag.BagWriter.flush_until = tracer.wrap(mbag.BagWriter.flush_until, "bag.flush_until")
    iter_samples = tracer.wrap_gen(mbag.iter_samples, "bag.iter_samples")
    for module in (mbag, mexport, mwire):
        module.iter_samples = iter_samples
    mexport.align_nearest_samples = tracer.wrap(mexport.align_nearest_samples,
                                                "export.align")
    mwire.send_frame = tracer.wrap(mwire.send_frame, "wire.send_frame")


class Calls:
    """The public entry points a workload times, traced when asked."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.run_session = msession.run_session
        self.extract_csv = mexport.extract_csv
        self.replay = mbag.replay
        self.validate = mbag.validate
        self.serve_bag = mwire.serve_bag
        self.recv_frames = mwire.recv_frames
        if tracer is not None:
            install_tracer(tracer)
            self.run_session = tracer.wrap(self.run_session, "session.run_session")
            self.extract_csv = tracer.wrap(self.extract_csv, "export.extract_csv")
            self.replay = tracer.wrap(self.replay, "bag.replay")
            self.validate = tracer.wrap(self.validate, "bag.validate")
            self.serve_bag = tracer.wrap(self.serve_bag, "wire.serve_bag")
            self.recv_frames = tracer.wrap_gen(self.recv_frames, "wire.recv_frames")


# -- workloads -----------------------------------------------------------------


def pinned_ok(seed: int, key: str, digest: str) -> bool:
    """The digest equals the one pinned for this seed; an unpinned seed fails."""
    pinned = golden(seed)
    return pinned is not None and digest == pinned[key]


def build_fixture(spec) -> dict:
    """Record the live_session bag of this seed, untimed, and gate it."""
    msession.run_session(make_plan(spec["seed"]), spec["bag"])
    digest = body_digest(spec["bag"])[0]
    return {"checks": {"fixture_digest": pinned_ok(spec["seed"], "body_sha256", digest)}}


# Each repetition returns its timed figures and a function that checks its
# output. The checks run after a traced repetition's spans are read, so that
# their own calls into mwpipe do not count as work of the workload.


def rep_live(spec, calls: Calls):
    seed = spec["seed"]
    path = os.path.join(spec["work"], f"live-{seed}.bag")
    stamps = TickStamps()
    t0 = time.perf_counter_ns()
    result = calls.run_session(make_plan(seed), path)
    t1 = time.perf_counter_ns()
    rss = peak_rss_mb()
    ticks = stamps.tick_ms()
    stalls = stamps.phase_stalls_ms(t0, result.phases)
    digest, size, records = body_digest(path)

    def check():
        ok = pinned_ok(seed, "body_sha256", digest)
        os.remove(path)
        return {"bag_digest": ok}

    return {
        "job_s": (t1 - t0) / 1e9,
        "stages": {"simulate_s": (t1 - t0) / 1e9},
        "peak_rss_mb": rss,
        "ticks": {"n": len(ticks), "p50_ms": percentile(ticks, 50),
                  "p99_ms": percentile(ticks, 99)},
        "phase_stall_ms_p50": median(stalls),
        "n_phases": len(stalls),
        "records": records,
        "body_bytes": size,
    }, check


def rep_offline(spec, calls: Calls):
    seed = spec["seed"]
    csv_path = os.path.join(spec["work"], f"features-{seed}.csv")
    t0 = time.perf_counter_ns()
    calls.extract_csv(spec["bag"], csv_path)
    t1 = time.perf_counter_ns()
    rss = peak_rss_mb()

    def check():
        ok = pinned_ok(seed, "csv_sha256", digest_after(csv_path)[0])
        os.remove(csv_path)
        return {"csv_digest": ok}

    return {"job_s": (t1 - t0) / 1e9, "stages": {"extract_s": (t1 - t0) / 1e9},
            "peak_rss_mb": rss}, check


def serve_and_drain(calls: Calls, bag_path) -> dict:
    """serve_bag on a thread, drained by one loopback client on this one."""
    ready = threading.Event()
    server: dict = {}

    def on_ready(host, port):
        server["addr"] = (host, port)
        ready.set()

    def serve():
        try:
            server["sent"] = calls.serve_bag(bag_path, "127.0.0.1", 0, "max",
                                             ready=on_ready)[2]
        except Exception as e:  # reported as a failed operation
            server["error"] = repr(e)
        finally:
            ready.set()

    thread = threading.Thread(target=serve, name="serve_bag")
    thread.start()
    h = hashlib.sha256()
    frames = 0
    try:
        if not ready.wait(120) or "addr" not in server:
            raise RuntimeError(f"server did not start: {server.get('error')}")
        with socket.create_connection(server["addr"], timeout=120) as sock:
            source = sock if calls.tracer is None else WaitTimingSocket(sock, calls.tracer)
            for frame in calls.recv_frames(source):
                if frames:
                    h.update(b"\n")
                h.update(frame)
                frames += 1
    finally:
        thread.join(120)
    h.update(b"\n")
    if thread.is_alive() or "error" in server:
        raise RuntimeError(f"serve_bag failed: {server.get('error', 'did not exit')}")
    return {"sha256": h.hexdigest(), "frames": frames, "sent": server["sent"]}


def rep_log_io(spec, calls: Calls):
    bag_path = spec["bag"]
    t0 = time.perf_counter_ns()
    bus = calls.replay(bag_path, rate="max", retain=False)
    t1 = time.perf_counter_ns()
    report = calls.validate(bag_path)
    t2 = time.perf_counter_ns()
    wire = serve_and_drain(calls, bag_path)
    t3 = time.perf_counter_ns()
    rss = peak_rss_mb()
    replayed = sum(bus.topic(d.name).next_seq for d in bus.topics())

    def check():
        after_magic = digest_after(bag_path, 1)[0]
        return {
            "replay_count": replayed == report.records and replayed > 0,
            "validate_clean": not report.issues,
            "wire_bytes": (wire["sha256"] == after_magic
                           and wire["frames"] == report.records + 1
                           and wire["sent"] == report.records),
        }

    return {
        "job_s": (t3 - t0) / 1e9,
        "stages": {"replay_s": (t1 - t0) / 1e9, "validate_s": (t2 - t1) / 1e9,
                   "wire_s": (t3 - t2) / 1e9},
        "peak_rss_mb": rss,
    }, check


REPS = {"live_session": rep_live, "offline_extract": rep_offline, "log_io": rep_log_io}


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer: Tracer, out: dict) -> dict:
    """{name: (value, unit)} of one traced repetition; 0 where a layer is idle."""
    agg = tracer.aggregates()
    counts = tracer.counters()

    def calls(name):
        return agg.get(name, (0, 0, 0))[0]

    def busy_s(*names):
        return sum(agg.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def self_s(name):
        return agg.get(name, (0, 0, 0))[2] / 1e9

    def per(total_s, n, scale):
        return total_s * scale / n if n else 0.0

    # Records and bytes of the bag this repetition wrote; only live_session
    # writes one, so the encode figures are 0 elsewhere.
    records = out.get("records", 0)
    decoded = counts.get("bag.iter_samples.items", 0)
    frames = counts.get("wire.recv_frames.items", 0)
    sent = calls("wire.send_frame")
    m = {
        "bus.publish.calls": (calls("bus.publish"), "count"),
        "bus.publish.us_per_call": (per(busy_s("bus.publish"), calls("bus.publish"), 1e6), "us"),
        "bag.encode.us_per_record": (per(busy_s("bag.flush_until"), records, 1e6), "us"),
        "bag.bytes_per_record": (per(out.get("body_bytes", 0), records, 1), "B"),
        "bag.flush.busy_s": (busy_s("bag.flush_until"), "s"),
        "bag.decode.us_per_record": (per(busy_s("bag.iter_samples"), decoded, 1e6), "us"),
    }
    windows = suppressed = 0
    for mod in MODALITIES:
        name = f"features.extract_window.{mod}"
        m[f"{name}.ms_per_window"] = (per(busy_s(name), calls(name), 1e3), "ms")
        w = counts.get(f"features.windows.{mod}", 0)
        s = counts.get(f"features.windows_suppressed.{mod}", 0)
        m[f"features.windows.{mod}"] = (w, "count")
        m[f"features.windows_suppressed.{mod}"] = (s, "count")
        windows += w
        suppressed += s
    m.update({
        "features.useful_share": (per(windows, windows + suppressed, 1), "ratio"),
        "features.feed.busy_s": (busy_s("features.feed"), "s"),
        "features.advance_to.self_s": (self_s("features.advance_to"), "s"),
        "sim.step.us_per_call": (per(busy_s("sim.step"), calls("sim.step"), 1e6), "us"),
        "sim.operator.us_per_call": (per(busy_s("sim.operator.act"),
                                         calls("sim.operator.act"), 1e6), "us"),
        "synth.busy_s": (busy_s(*(f"synth.{g}" for g in SYNTH_GENERATORS)), "s"),
        "session.self_s": (self_s("session.run_session"), "s"),
        "export.align.busy_s": (busy_s("export.align"), "s"),
        "export.self_s": (self_s("export.extract_csv"), "s"),
        "bag.validate.self_s": (self_s("bag.validate"), "s"),
        "bag.replay.self_s": (self_s("bag.replay"), "s"),
        "wire.frames": (frames, "count"),
        "wire.bytes": (counts.get("wire.bytes", 0), "B"),
        "wire.send.us_per_frame": (per(busy_s("wire.send_frame"), sent, 1e6), "us"),
        "wire.recv.us_per_frame": (per(self_s("wire.recv_frames"), frames, 1e6), "us"),
        "wire.recv.wait_s": (busy_s("wire.recv.wait"), "s"),
    })
    return m


def run(spec) -> dict:
    """Build the fixture bag or run one repetition; return its result."""
    if spec["mode"] == "fixture":
        return build_fixture(spec)
    tracer = Tracer(keep=COARSE_SPANS) if spec["trace"] else None
    out, check = REPS[spec["workload"]](spec, Calls(tracer))
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, out)
        tracer.dump(spec["trace_out"])
    out["checks"] = check()
    return out
