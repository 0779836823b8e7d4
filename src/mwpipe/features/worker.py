"""A FeaturePipeline built in a forked process (os.fork, so on Linux, as in
CI) and run one interval behind simulate's tick loop or extract's judge.
Only the worker loads the extraction stack, SciPy and all; no serial fallback."""

from __future__ import annotations

import os

from ..bus import NS_PER_S

# How much stream time each driver gathers before it hands the worker an
# interval: enough windows per modality to fill the batched extraction's
# stacks, few enough to keep the drivers' buffers small.
HAND_OVER_NS = 10 * NS_PER_S


def _extract_in_worker(conn, parent_end, pipeline_args):
    """Body of the feature worker: build the pipeline, then for each message
    set the baseline end if given, feed the slices, advance to the watermark
    and send back the rows, or what the build or extraction raised. It stops
    on None, or once the parent is gone (end of file on recv, a broken pipe on send)."""
    import signal  # loaded by multiprocessing already; not with this module
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to report
    parent_end.close()  # else this copy would keep recv from seeing the parent die
    try:  # while the parent gathers the first interval
        from .extract import FeaturePipeline
        pipeline = FeaturePipeline(**pipeline_args)
    except Exception as e:  # the reply to every message
        pipeline = e
    with conn:
        try:
            while (message := conn.recv()) is not None:
                slices, baseline_end_ns, watermark = message
                try:
                    if isinstance(pipeline, Exception):
                        raise pipeline
                    if baseline_end_ns is not None:
                        pipeline.baseline_end_ns = baseline_end_ns
                    for m, times, values in slices:
                        pipeline.feed(m, times, values)
                    reply = pipeline.advance_to(watermark)
                except Exception as e:
                    reply = e
                conn.send(reply)
        except (EOFError, OSError):
            pass


class FeatureWorker:
    """A FeaturePipeline in a forked process, with at most one interval in flight.

    advance takes the reply in flight before it sends the next interval, so
    the worker never holds a reply while the parent sends: neither can block
    the other on a full pipe. close must follow on every path.
    """

    def __init__(self, **pipeline_args):
        from multiprocessing import Pipe  # 10 to 15 ms, which reading a bag never needs
        self._in_flight = None  # the watermark of the interval being extracted
        self._conn, child_end = Pipe()
        # A plain fork, not multiprocessing.Process, which refuses to start
        # from a daemonic process such as a multiprocessing.Pool worker.
        self._pid = os.fork()
        if self._pid == 0:
            status = 1  # whatever escapes ends the worker without a traceback
            try:
                _extract_in_worker(child_end, self._conn, pipeline_args)
                status = 0
            finally:
                os._exit(status)  # never back into the parent's stack
        child_end.close()

    def advance(self, slices: list, watermark_ns: int, baseline_end_ns: int | None = None):
        """Take the reply in flight, as drain does, and return it; then hand
        over the (modality, times, values) slices, the baseline end if known
        and the watermark."""
        done = self.drain()
        self._conn.send((slices, baseline_end_ns, watermark_ns))
        self._in_flight = watermark_ns
        return done

    def drain(self):
        """(watermark, rows) of the interval in flight, once the worker has
        sent them (every row that ends by the watermark), or None."""
        if self._in_flight is None:
            return None
        try:
            reply = self._conn.recv()
        except EOFError:
            raise RuntimeError("the feature worker exited before it replied") from None
        if isinstance(reply, Exception):
            raise reply
        done, self._in_flight = (self._in_flight, reply), None
        return done

    def close(self):
        """Stop the worker and wait for it. Closing the pipe first ends a
        worker that is still sending a reply no one will read."""
        try:
            self._conn.send(None)
        except OSError:  # the worker is gone already
            pass
        self._conn.close()
        os.waitpid(self._pid, 0)
