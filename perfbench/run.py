"""Run one pakelab benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload inmem-desk --seed 1 --seconds 10 --trace 0

Workloads: inmem-desk, inmem-modp2048, tcp-login, tcp-enroll (see
perfbench/README.md; BENCHMARK.json leaves inmem-desk out as too unsteady
to gate on). With --trace 0 the run prints the end-to-end metrics,
measured with tracing off. With --trace 1 it prints the per-layer metrics
from a separate traced run, and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The exit code is 0 when every correctness check passed, 1 when one failed
(the result is still printed) and 2 when the run could not be set up (no
result is printed), for example when src/pakelab is missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("inmem-desk", "inmem-modp2048", "tcp-login", "tcp-enroll")

# name -> unit; BENCHMARK.json lists the same names under end_to_end.
END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
# The traced loop stops here even before its time is up: spans are kept in
# memory, and a few thousand ops give every per-layer mean.
TRACED_MAX_OPS = 5000

# counted cost per session: modexp_client, modexp_server, messages, round_trips
COST_TABLE = {"lky": (2, 2, 3, 2), "proposed": (2, 3, 4, 2)}


def _say(text: str = "") -> None:
    print(text, flush=True)


def _metric_line(name: str, value: float, unit: str, note: str = "") -> None:
    _say(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def start_checks(workload) -> list:
    """Golden vectors and the counted cost table; returns what drifted."""
    from pakelab import harness
    errors = []
    vectors = harness.golden_vectors()
    for vector in vectors:
        ok, observed = harness.check_golden(vector)
        if not ok:
            errors.append(f"golden vector {vector.name} drifted: {observed}")
    _say(f"golden vectors: {'ok' if not errors else 'DRIFTED'} ({len(vectors)})")
    table = harness.compare_efficiency(workload.params, trials=1, seed=workload.seed,
                                       hash_spec=workload.hash_spec)
    _say(f"counted cost table (q of {workload.params.q.bit_length()} bits, "
         f"digest256), printed beside the timings:")
    _say(table.render_text())
    measured = {(row.scheme, row.metric): row.measured for row in table.rows}
    for scheme, expected in COST_TABLE.items():
        got = tuple(int(measured[(scheme, metric)]) for metric in
                    ("modexp_client", "modexp_server", "messages", "round_trips"))
        if got != expected:
            errors.append(f"cost table for {scheme} drifted: {got} != {expected}")
    return errors


def timed_setup(workload) -> float:
    """Set the workload up from cold and return how long that took."""
    from perfbench.workloads import forget_dlog_tables
    forget_dlog_tables()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def spare_setups(name, seed, work_dir, times: list, count: int) -> list:
    """count pauses for the timed loop; each times one more set-up.

    A pause sets up a spare instance of the workload, appends the time to
    times and stops the spare's server, if any; the spare runs no ops.
    Spread between slices of the timed loop, the samples cover the whole
    run, so a run's setup_s is not one moment of a host whose speed drifts
    by tens of percent within seconds.
    """
    from perfbench.workloads import WORKLOADS

    def setup_once(rep: int) -> None:
        spare_dir = work_dir / f"spare-{rep}"
        spare_dir.mkdir()
        spare = WORKLOADS[name](seed, spare_dir)
        try:
            times.append(timed_setup(spare))
        finally:
            spare.release()
    return [lambda rep=rep: setup_once(rep) for rep in range(count)]


def closed_loop(workload, seconds: float, max_ops=None, tracer=None, pauses=()):
    """Run ops on workload.threads threads until the deadline (or max_ops).

    With pauses the loop runs in len(pauses) + 1 equal slices and stops
    between them to call the next pause; pause time is not loop time.
    Returns one OpLog per thread, the loop's (start, end) in monotonic ns
    and the seconds it ran.
    """
    from perfbench.workloads import OpLog, OpRecord

    logs = [OpLog(thread) for thread in range(workload.threads)]
    tickets = itertools.count()
    stop = threading.Event()
    slice_seconds = seconds / (len(pauses) + 1)
    deadline = 0.0

    def worker(thread: int) -> None:
        index = len(logs[thread])
        while time.perf_counter() < deadline and not stop.is_set():
            if max_ops is not None and next(tickets) >= max_ops:
                break
            if tracer is not None:
                tracer.set_op((thread, index))
            try:
                record = workload.op(thread, index)
            except Exception as exc:    # a broken op is a failed op, not a lost one
                record = OpRecord("error", 0.0, failed=True, expected=False,
                                  detail=repr(exc))
            logs[thread].add(record)
            index += 1

    start_ns = time.monotonic_ns()
    ran_ns = 0
    for pause in (None,) + tuple(pauses):
        if pause is not None:
            pause()
        slice_start = time.monotonic_ns()
        deadline = time.perf_counter() + slice_seconds
        if workload.threads == 1:
            worker(0)
        else:
            threads = [threading.Thread(target=worker, args=(t,), name=f"client-{t}")
                       for t in range(workload.threads)]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            finally:
                stop.set()          # on SIGTERM the workers end after their op
            stop.clear()
        ran_ns += time.monotonic_ns() - slice_start
    end_ns = time.monotonic_ns()
    return logs, (start_ns, end_ns), ran_ns / 1e9


def latency_metrics(logs) -> dict:
    """p50 always; p90 and p99 only with at least ten samples beyond them."""
    from perfbench.workloads import ok_latencies
    times = sorted(seconds * 1e3 for seconds in ok_latencies(logs))
    out = {}
    if not times:
        return out
    out["latency_p50_ms"] = statistics.median(times)
    if len(times) >= 100:
        cuts = statistics.quantiles(times, n=100, method="inclusive")
        out["latency_p90_ms"] = cuts[89]
        if len(times) >= 1000:
            out["latency_p99_ms"] = cuts[98]
    return out


def _summary(logs, elapsed: float) -> tuple:
    from perfbench.workloads import kept_records
    attempted = sum(len(log) for log in logs)
    failed = sum(1 for r in kept_records(logs) if r.failed)
    done = attempted - failed
    return attempted, failed, (done / elapsed if elapsed > 0 else 0.0)


def run_untraced(name, seed, seconds, work_dir, max_ops, bad_logins):
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[name](seed, work_dir, bad_logins=bad_logins)
    setups = [timed_setup(workload)]
    logs, errors = [], []
    try:
        errors += start_checks(workload)
        logs, _, elapsed = closed_loop(
            workload, seconds, max_ops,
            pauses=spare_setups(name, seed, work_dir, setups, workload.setup_reps - 1))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        errors += workload.finish(logs)
    attempted, failed, ops_per_s = _summary(logs, elapsed)
    latencies = latency_metrics(logs)
    values = {"ops_per_s": ops_per_s,
              "latency_p50_ms": latencies.get("latency_p50_ms", 0.0),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": peak_rss_mb}
    ok_ops = attempted - failed
    _say(f"set-up: {', '.join(f'{s:.4f}' for s in setups)} s, median reported")
    _metric_line("ops_per_s", values["ops_per_s"], "1/s",
                 f"{ok_ops} ops in {elapsed:.3f} s")
    for key, value in latencies.items():
        _metric_line(key, value, "ms", f"n={ok_ops}")
    for key in ("latency_p90_ms", "latency_p99_ms"):
        if key not in latencies:
            _say(f"metric {key} not reported: n={ok_ops} leaves fewer than ten "
                 "samples beyond it")
    _metric_line("failed_ratio", failed / attempted if attempted else 0.0, "ratio",
                 f"{failed}/{attempted}")
    _metric_line("setup_s", values["setup_s"], "s", f"median of {len(setups)}")
    _metric_line("peak_rss_mb", values["peak_rss_mb"], "MB", "load generator")
    for key, (value, unit) in workload.extra_metrics(logs).items():
        _metric_line(key, value, unit)
    return logs, errors, values


def run_traced(name, seed, seconds, work_dir, max_ops, bad_logins):
    """Untraced half for the overhead baseline, then the traced half."""
    from perfbench.tracing import LAYER_UNITS, Tracer, layer_metrics, load_spans
    from perfbench.workloads import WORKLOADS

    half = seconds / 2
    plain = WORKLOADS[name](seed, work_dir, bad_logins=bad_logins)
    timed_setup(plain)
    plain_logs, errors = [], []
    try:
        errors += start_checks(plain)
        plain_logs, _, plain_elapsed = closed_loop(plain, half, max_ops)
    finally:
        errors += plain.finish(plain_logs)
    plain.release()

    server_spans_path = WORK / f"trace-{name}-server.jsonl"
    if server_spans_path.exists():
        server_spans_path.unlink()
    tracer = Tracer()
    tracer.install()
    try:
        traced = WORKLOADS[name](seed, work_dir, spans_path=server_spans_path,
                                 bad_logins=bad_logins)
        setup_start = time.monotonic_ns()
        timed_setup(traced)
        setup_window = (setup_start, time.monotonic_ns())
        logs = []
        try:
            logs, window, elapsed = closed_loop(
                traced, half, min(max_ops or TRACED_MAX_OPS, TRACED_MAX_OPS), tracer)
        finally:
            errors += traced.finish(logs)
    finally:
        tracer.uninstall()
    tracer.dump(WORK / f"trace-{name}-client.jsonl")
    server_spans = load_spans(server_spans_path) if server_spans_path.exists() else []

    errors += message_count_drift(traced, logs, tracer.spans, window)
    ops = sum(len(log) for log in logs)
    metrics = layer_metrics(
        tracer.spans, server_spans, setup_window, window, ops,
        op_time_ns=int(sum(sum(log.seconds) for log in logs) * 1e9),
        registers=sum(1 for log in logs for op in log.ops() if op[1] == "register"))
    metrics["trace.ops_per_s_traced"] = _summary(logs, elapsed)[2]
    metrics["trace.ops_per_s_untraced"] = _summary(plain_logs, plain_elapsed)[2]
    metrics["trace.overhead_ratio"] = (
        metrics["trace.ops_per_s_traced"] / metrics["trace.ops_per_s_untraced"]
        if metrics["trace.ops_per_s_untraced"] else 0.0)
    _say(f"traced {ops} ops against {sum(len(log) for log in plain_logs)} untraced ops "
         f"(at most {half:g} s each); spans in {WORK.name}/trace-{name}-*.jsonl")
    for key in LAYER_UNITS:
        _metric_line(key, metrics[key], LAYER_UNITS[key])
    values = {key: metrics[key] for key in LAYER_UNITS}
    return plain_logs + logs, errors, values


def message_count_drift(workload, logs, spans, window) -> list:
    """Each traced op's transcript holds the cost table's message count."""
    counts = {}
    for span in spans:
        if span[2] == "transcript.record" and window[0] <= span[3] <= window[1]:
            counts[span[5]] = counts.get(span[5], 0) + 1
    for log in logs:
        for op, kind, _, record in log.ops():
            expected = workload.messages.get(kind)
            got = counts.get(op, 0)
            if (record is None or not (record.failed or record.degenerate)) \
                    and got != expected:
                return [f"{kind} op recorded {got} messages, the cost table "
                        f"says {expected}"]
    return []


def bench(workload: str, seed: int, seconds: float, trace: bool,
          max_ops=None, bad_logins: int = 0) -> dict:
    """Run one workload; print its metrics and return the result object.

    max_ops caps the ops per timed loop and bad_logins turns the first tcp
    logins into wrong-password logins; the smoke test uses both.
    """
    from perfbench.tracing import LAYER_UNITS
    from perfbench.workloads import kept_records

    _say(f"pakelab benchmark: workload {workload}, seed {seed}, {seconds:g} s, "
         f"trace {'on' if trace else 'off'}; TCP traffic crosses loopback only")
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        runner = run_traced if trace else run_untraced
        logs, errors, values = runner(workload, seed, seconds, work_dir,
                                      max_ops, bad_logins)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    records = kept_records(logs)
    unexpected = [r for r in records if not r.expected]
    degenerate = sum(1 for r in records if r.degenerate)
    if degenerate:
        _say(f"degenerate trials (aborted before send, not failures): {degenerate}")
    for record in unexpected[:5]:
        errors.append(f"{record.kind} op {record.op}: {record.detail}")
    if len(unexpected) > 5:
        errors.append(f"... and {len(unexpected) - 5} more wrong ops")
    for error in errors:
        _say(f"CHECK FAILED: {error}")
    units = LAYER_UNITS if trace else END_TO_END
    return {"correct": not errors,
            "attempted": sum(len(log) for log in logs),
            "failed": sum(1 for r in records if r.failed),
            "metrics": {key: {"value": values[key], "unit": units[key]}
                        for key in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "pakelab" / "__init__.py").is_file():
        print(f"error: {SRC / 'pakelab'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import pakelab
    if Path(pakelab.__file__).resolve().parent != SRC / "pakelab":
        print(f"error: imported pakelab from {pakelab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import SetupError
    # SIGTERM unwinds like an error, so the server child is stopped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
