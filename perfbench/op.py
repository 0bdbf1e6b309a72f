"""One benchmark operation, in a fresh process.

    python3 -m perfbench.op MODE WORKLOAD SEED WORKDIR [TRACE_PREFIX]

``MODE`` is ``setup`` (build the inputs and report the set-up time),
``verdict`` (build the inputs, then time the call under test and its
check) or ``traced`` (the same with every layer's spans recorded; the
spans and the waterfall are written to ``TRACE_PREFIX.spans`` and
``TRACE_PREFIX.json``).  The result is one JSON object on the last line
of standard output.  ``WORKDIR`` holds the run's scratch files.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts the program's imports

import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _current_rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child.

    ``ru_maxrss`` gives no per-child figures, so with two workers the
    smaller one is not counted, and a forked child's figure includes the
    pages it shares copy-on-write with this process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def _write_trace(prefix: str, traces, report: dict) -> None:
    from benchmarks.emit_json import BenchRecorder

    os.makedirs(os.path.dirname(prefix), exist_ok=True)
    with open(prefix + ".spans", "wb") as handle:
        pickle.dump(traces, handle, protocol=pickle.HIGHEST_PROTOCOL)
    recorder = BenchRecorder(prefix + ".json")
    recorder.record("perfbench_trace", report)
    recorder.write()


def main(argv) -> int:
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    from perfbench import layers, trace, workloads

    workload = workloads.WORKLOADS[name]
    if mode == "setup":
        workload.setup(seed, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    rec = None
    if mode == "traced":
        spill = os.path.join(workdir, "spans")
        os.makedirs(spill)
        rec = trace.SpanRecorder(spill)
        trace.install(rec)
        inputs = rec.run("setup", workload.setup, seed, workdir)
        summary, failures, wall = rec.run("verdict", workloads.run_checked, workload, inputs)
    else:
        inputs = workload.setup(seed, workdir)
        rss_before = _current_rss_mb()
        summary, failures, wall = workloads.run_checked(workload, inputs)
    out = {
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "summary": summary,
        "failures": failures,
    }
    if rec is None:
        out["rss_before_mb"] = rss_before
    else:
        traces = [rec.snapshot()] + trace.load_spilled(spill)
        pins = workloads.PINS[name]
        out["layers"] = layers.span_metrics(traces, summary, pins.get("unreduced_configs"))
        self_times, total = layers.waterfall(traces)
        out["waterfall"] = {"self_s": self_times, "traced_s": total}
        _write_trace(argv[4], traces, {
            "workload": name, "seed": seed, "wall_s": wall,
            "waterfall": out["waterfall"], "layers": out["layers"],
        })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
