#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ring4-bfs --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it needs the program's source in
``src/``.  Every operation runs in a fresh process (``perfbench/op.py``)
so that each one's peak memory is its own.

``--trace 0`` is the timed run: ten set-up measurements, then a closed
loop with one client — the next operation starts when the previous one
has returned and been checked — until ``--seconds`` have passed, with
one more set-up measurement after each operation.  It reports the
end-to-end metrics as medians.

``--trace 1`` is the traced run: one untraced operation, then one with
every layer's spans recorded.  It prints the waterfall, checks that both
operations report identical counts and verdicts, and reports the
per-layer metrics; the spans land in ``.perfbench/traces/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
#: fresh-process set-up measurements before a timed run's first operation
#: (one more follows each operation)
SETUP_PROBES = 10
#: no operation starts that could end after this many seconds of the run
BUDGET_S = 160.0


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of an operation's process group and wait
    until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    give_up = time.monotonic() + 5.0
    while time.monotonic() < give_up:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_op(mode: str, workload: str, seed: int, opdir: str, deadline: float,
           trace_prefix: str = "") -> dict:
    """One operation in a fresh process.  A crash or a timeout comes back
    as a failed operation."""
    args = [sys.executable, "-m", "perfbench.op", mode, workload, str(seed), opdir]
    if trace_prefix:
        args.append(trace_prefix)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    os.makedirs(opdir)
    proc = subprocess.Popen(
        args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out, err = "", "timed out"
    finally:
        _stop_group(proc)
        shutil.rmtree(opdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"failures": [f"{mode} process exited {proc.returncode}: {err.strip()[-2000:]}"]}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _report_failures(label: str, result: dict) -> None:
    for failure in result.get("failures") or []:
        print(f"  FAILED {label}: {failure}")


def timed_run(workload: str, seed: int, seconds: int, workdir: str, deadline: float):
    """Set-up probes, then the closed loop with one more probe after each
    operation, so the probes sample the whole run; returns (attempted,
    failed, metrics)."""
    setups, attempted, failed = [], 0, 0

    def probe_setup() -> None:
        nonlocal attempted, failed
        index = len(setups) + failed
        probe = run_op("setup", workload, seed, os.path.join(workdir, f"setup-{index}"), deadline)
        if "setup_s" in probe:
            setups.append(probe["setup_s"])
        else:
            attempted += 1
            failed += 1
            _report_failures(f"set-up probe {index}", probe)

    for _ in range(SETUP_PROBES):
        probe_setup()
    ops = []
    loop_start = time.monotonic()
    while True:
        started = time.monotonic()
        op = run_op("verdict", workload, seed, os.path.join(workdir, f"op-{len(ops)}"), deadline)
        ops.append(op)
        attempted += 1
        failed += bool(op["failures"])
        wall = op.get("wall_s")
        print(
            f"  op {len(ops)}: "
            + (f"{wall:.3f} s, {op['peak_rss_mb']:.1f} MB" if wall is not None else "crashed")
            + (", FAILED" if op["failures"] else ", checked")
        )
        _report_failures(f"op {len(ops)}", op)
        probe_setup()
        now = time.monotonic()
        if now - loop_start >= seconds or now + 1.5 * (now - started) > deadline:
            break
    samples = {
        "time_to_verdict_s": [op["wall_s"] for op in ops if "wall_s" in op],
        "setup_s": setups,
        "peak_rss_mb": [op["peak_rss_mb"] for op in ops if "peak_rss_mb" in op],
    }
    metrics = {}
    for name, values in samples.items():
        metrics[name] = statistics.median(values) if values else 0.0
        if values:
            q1, q3 = _quartiles(values)
            print(f"  {name:<18} median {metrics[name]:.4f}  quartiles {q1:.4f}..{q3:.4f}  n={len(values)}")
    return attempted, failed, metrics


def traced_run(workload: str, seed: int, workdir: str, deadline: float, spin: float):
    """One untraced and one traced operation; returns (attempted, failed, metrics)."""
    from perfbench import layers

    untraced = run_op("verdict", workload, seed, os.path.join(workdir, "untraced"), deadline)
    prefix = os.path.join(OUT, "traces", f"{workload}-seed{seed}")
    traced = run_op("traced", workload, seed, os.path.join(workdir, "traced"), deadline, prefix)
    a, b = untraced.get("summary"), traced.get("summary")
    if a and b and a["identity"] != b["identity"]:
        traced["failures"].append("traced and untraced operations report different counts or verdicts")
    for label, op in (("untraced op", untraced), ("traced op", traced)):
        _report_failures(label, op)
    if "waterfall" in traced:
        water = traced["waterfall"]
        print(f"  waterfall over {water['traced_s']:.3f} s of traced time:")
        for line in layers.waterfall_lines(water["self_s"], water["traced_s"]):
            print(line)
    spin = max(spin, _spin_score())
    metrics = {name: 0.0 for name, _, _ in layers.PER_LAYER}
    metrics.update(traced.get("layers", {}))
    metrics.update(layers.run_metrics(untraced, traced, spin))
    print(
        f"  unattributed {metrics['core.unattributed_share']:.1%}, "
        f"tracing overhead {metrics['trace.overhead_s']:.3f} s"
    )
    failed = sum(bool(op["failures"]) for op in (untraced, traced))
    return 2, failed, metrics


def _spin_score() -> float:
    from repro.engine.calibrate import spin_score

    return spin_score()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source under src/repro in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # a terminated run still unwinds through run_op, which stops the
    # operation's process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + BUDGET_S
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    print(f"{args.workload} seed={args.seed}: {workloads.WORKLOADS[args.workload].why}")
    try:
        # calibrate before and after, keeping the max: a neighbour
        # stealing the CPU depresses whichever sample it overlaps
        spin = _spin_score()
        if args.trace:
            attempted, failed, metrics = traced_run(args.workload, args.seed, workdir, deadline, spin)
            spin = metrics["host.spin_score"]
        else:
            attempted, failed, metrics = timed_run(
                args.workload, args.seed, args.seconds, workdir, deadline
            )
            spin = max(spin, _spin_score())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"  spin score {spin:.0f} iterations/s; {failed} of {attempted} operations failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
