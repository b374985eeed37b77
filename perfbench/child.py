"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 -I perfbench/child.py SPAWN_TIME SPEC_JSON

SPAWN_TIME is the CLOCK_MONOTONIC reading the parent took just before it
started this process; that clock is shared by all processes of the
machine, so set-up time is measured from before interpreter start.
SPEC_JSON holds `src` (the directory holding the quiddity package),
`ops` (the operations of the pass; empty to measure set-up only),
`trace` (install the span wrappers) and `trace_out` (where to write
the spans).  Prints one JSON object on stdout.

The speed of a shared machine drifts by a factor of up to two over
seconds to minutes.  So the child also times a fixed reference loop: a
few times right after set-up, and every SAMPLE_EVERY_S seconds from a
second thread while the operations run.  run.py divides the measured
times by these loop times (see perfbench/DESIGN.md, "Reference speed").
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback

SAMPLE_EVERY_S = 0.1  # the loop takes about 1 ms, so sampling costs about 1%
SETUP_LOOPS = 15
_REF_TABLE = {i: (i * 2654435761) % 1009 for i in range(256)}


def reference_loop():
    """Seconds taken by a fixed piece of pure-Python work.

    It reads a prebuilt dict and makes only small ints, which the garbage
    collector does not track, so it never starts a collection of the
    pass's objects.  It is far shorter than the interpreter's 5 ms switch
    interval, so the main thread cannot take the lock in the middle of it.
    """
    table = _REF_TABLE
    start = time.perf_counter()
    total = 0
    for i in range(6000):
        total = (total + table[i & 255] * i) % 65521
    return time.perf_counter() - start


class Speedometer(threading.Thread):
    """Times the reference loop every SAMPLE_EVERY_S seconds until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self._stop_event = threading.Event()

    def run(self):
        while not self._stop_event.wait(SAMPLE_EVERY_S):
            self.samples.append(reference_loop())

    def stop(self):
        self._stop_event.set()
        self.join()
        return self.samples


def run_op(cli, oracle, op):
    """Run one operation with its output captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["op"] == "cli":
                value = cli.main(op["argv"])
            else:
                value = oracle.count_component_at(op["target"], op["size"],
                                                  op["position"], op["value"])
    except Exception:  # an operation that raises is a failed operation
        return {"error": traceback.format_exc(limit=3)}
    return {"value": value, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cpu_seconds():
    return sum(usage.ru_utime + usage.ru_stime
               for usage in (resource.getrusage(resource.RUSAGE_SELF),
                             resource.getrusage(resource.RUSAGE_CHILDREN)))


def main():
    spawn = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    sys.path.insert(0, spec["src"])
    from importlib import resources

    from quiddity import cli, oracle

    json.loads(resources.files("quiddity").joinpath("data/golden.json")
               .read_text("utf-8"))
    report = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawn}
    reference_loop()  # warm-up
    report["setup_loop_s"] = statistics.median(reference_loop()
                                               for _ in range(SETUP_LOOPS))
    if not spec["ops"]:
        print(json.dumps(report))
        return

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        tracer.install()

    speedometer = Speedometer()
    cpu_before = cpu_seconds()
    start = time.perf_counter()
    speedometer.start()
    results = [run_op(cli, oracle, op) for op in spec["ops"]]
    run_s = time.perf_counter() - start
    cpu_s = cpu_seconds() - cpu_before
    samples = speedometer.stop() or [reference_loop()]

    report.update(
        run_s=run_s,
        cpu_s=cpu_s,
        # samples come at even steps of wall time, so the pass's mean speed
        # is the mean of 1/loop time: the harmonic mean gives its loop time
        run_loop_s=statistics.harmonic_mean(samples),
        peak_rss_mb=max(resource.getrusage(who).ru_maxrss
                        for who in (resource.RUSAGE_SELF,
                                    resource.RUSAGE_CHILDREN)) / 1024.0,
        results=results,
    )
    if tracer is not None:
        report["layers"], report["self_s"] = spans.summarize(tracer.spans, run_s)
        report["spans"] = len(tracer.spans)
        report["boxes"] = spans.boxes(tracer.spans)
        if spec.get("trace_out"):
            tracer.dump(spec["trace_out"])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
