"""End-to-end benchmark of the serving path, with a traced per-layer run.

Usage (from the repository root)::

    python3 servebench/run.py --workload read-after-write --seed 1 \\
        --seconds 15 --trace 0
    python3 servebench/run.py --self-check

A run is a whole number of *rounds*: ``--seconds`` buys
``seconds // ROUND_SECONDS`` of them (at least one; two when traced).
Every round starts a fresh server process (``servebench/server.py``: a
``QueryService`` with the default backend behind ``ServerThread``), loads
the workload's rows through ``POST /write``, warms up, runs the workload's
fixed seeded list of operations, one at a time, over one or two keep-alive
connections from this single-threaded process, then stops the server and checks every
answer against the plain-Python mirror.  Round ``i`` draws its rows and
operations from ``seed * 1000 + i``, so the work of a run depends on the
seed alone, never on how fast the code under test is.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, taken from
spans recorded inside the server by ``servebench/tracing.py`` and from
``GET /metrics`` / ``GET /views`` before and after the measured phase.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from client import Connection, drive, encode_request  # noqa: E402
from inputs import COUNT_RESERVES_SQL  # noqa: E402
from workloads import OK, WRONG, WORKLOADS  # noqa: E402

#: Tail percentiles tried from the top; the first with at least ten
#: samples beyond it in a round is reported.
TAIL_LADDER = (99.0, 95.0, 90.0)
MIN_BEYOND = 10
#: Nominal length of one round's measured phase on the reference machine
#: (2 cores); ``--seconds`` buys ``seconds // ROUND_SECONDS`` rounds.
ROUND_SECONDS = 5


class BenchmarkError(Exception):
    """The run cannot produce a result (set-up failed, server died)."""


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0-100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with ``MIN_BEYOND`` of ``count``
    samples above it.

    With fewer than forty samples there is no tail to speak of, and the
    median is reported instead.
    """
    if count >= 4 * MIN_BEYOND:
        for p in TAIL_LADDER:
            if count - math.ceil(p / 100.0 * count) >= MIN_BEYOND:
                return p
    return 50.0


# ---------------------------------------------------------------------------
# One server process
# ---------------------------------------------------------------------------

class Server:
    """The server under test, in its own process (see ``server.py``)."""

    def __init__(self, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), "--src", SRC,
             "--trace", "1" if trace else "0"],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        info = self._line()
        self.port = info["port"]
        self.numpy = info.get("numpy")

    def _line(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError(
                f"server process exited (code {self.proc.wait()})")
        return json.loads(line)

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._line()

    def close(self) -> None:
        """Wait for the process to end, killing it if it does not."""
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

def load_requests(db) -> list:
    return [encode_request("POST", "/write", {"relation": name,
                                              "rows": [list(r) for r in rows]})
            for name, rows in db.relations().items()]


def run_round(workload, seed: int, db, loads: list, trace: bool) -> dict:
    """Set up, warm up, measure and check one round; returns its record."""
    start = time.perf_counter()
    server = Server(trace)
    connections: list = []
    try:
        connections = [Connection(server.port)
                       for _ in range(workload.connections)]

        def call(request: bytes):
            status, body = connections[0].call(request)
            if status != 200:
                raise BenchmarkError(
                    f"set-up request failed with {status}: {body[:200]!r}")
            return json.loads(body)

        for request in loads:
            call(request)
        first = call(encode_request("POST", "/query",
                                    {"text": COUNT_RESERVES_SQL}))
        if first["rows"] != [[len(db.reserves)]]:
            raise BenchmarkError(f"first answer {first['rows']} is wrong")
        setup_s = time.perf_counter() - start

        ctx = workload.prepare(call, db, seed)
        ops = workload.operations(seed, db, ctx)
        requests = [(op.conn, op.request) for op in ops]
        before = call(encode_request("GET", "/metrics"))
        views_before = call(encode_request("GET", "/views"))
        if trace:
            server.command("mark")
        measured = time.perf_counter()
        results = drive(connections, requests)
        elapsed = time.perf_counter() - measured
        spans = server.command("report") if trace else None
        after = call(encode_request("GET", "/metrics"))
        views_after = call(encode_request("GET", "/views"))
        maxrss_kb = server.command("stop")["maxrss_kb"]
    except BaseException:
        server.proc.kill()
        raise
    finally:
        for connection in connections:
            connection.close()
        server.close()

    flags = workload.verify(seed, db, ctx, ops, results)
    record = {"setup_s": setup_s, "elapsed_s": elapsed,
              "maxrss_kb": maxrss_kb, "numpy": server.numpy, "trace": trace,
              "spans": spans, "before": before, "after": after,
              "views_before": views_before, "views_after": views_after,
              "reads": {}, "writes": [], "attempted": 0, "failed": 0,
              "wrong": 0, "raw": (ctx, ops, results)}
    for op, (t0, t1, _status, _body), flag in zip(ops, results, flags):
        record["attempted"] += 1
        record["failed"] += flag != OK
        record["wrong"] += flag == WRONG
        latency_ms = (t1 - t0) * 1000.0
        if op.kind == "write":
            record["writes"].append(latency_ms)
        else:
            record["reads"].setdefault(op.cls, []).append(latency_ms)
    return record


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _ops_per_s(record: dict) -> float:
    return record["attempted"] / record["elapsed_s"]


def end_to_end(rounds: list) -> tuple:
    """The seven end-to-end metrics and a note per tail metric.

    Every metric is the median over rounds of that round's own figure, so
    one round disturbed by the host (another tenant's burst, hypervisor
    steal) does not move the run's result.
    """
    reads = [[ms for values in r["reads"].values() for ms in values]
             for r in rounds]
    writes = [r["writes"] for r in rounds]
    read_p = tail_percentile(min(len(v) for v in reads))
    write_p = tail_percentile(min(len(v) for v in writes))

    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "ops_per_s": (statistics.median(_ops_per_s(r) for r in rounds), "1/s"),
        "read_p50_ms": (statistics.median(percentile(v, 50) for v in reads), "ms"),
        "read_tail_ms": (statistics.median(percentile(v, read_p) for v in reads),
                         "ms"),
        "write_p50_ms": (statistics.median(percentile(v, 50) for v in writes), "ms"),
        "write_tail_ms": (statistics.median(percentile(v, write_p) for v in writes),
                          "ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in rounds) / 1024.0,
                        "MB"),
    }
    notes = {"read_tail_ms": f"p{read_p:g} of {len(reads[0])} reads per "
                             f"round, {len(rounds)} rounds",
             "write_tail_ms": f"p{write_p:g} of {len(writes[0])} writes per "
                              f"round, {len(rounds)} rounds"}
    return metrics, notes


def _delta(record: dict, key: str) -> float:
    return record["after"].get(key, 0) - record["before"].get(key, 0)


def _view_delta(record: dict, key: str) -> int:
    return (sum(v[key] for v in record["views_after"]["views"])
            - sum(v[key] for v in record["views_before"]["views"]))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(rounds: list) -> dict:
    """Per-layer metrics: spans of the traced rounds, counters, classes."""
    traced = [r for r in rounds if r["trace"]]
    plain = [r for r in rounds if not r["trace"]]
    layers: dict = {}
    applied_wait = 0.0
    for r in traced:
        applied_wait += r["spans"]["flush_applied_wait_s"]
        for name, entry in r["spans"]["layers"].items():
            total = layers.setdefault(name, {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            for key in total:
                total[key] += entry[key]

    def count(name):
        return layers.get(name, {}).get("count", 0)

    def total_ms(name, key="total_s"):
        return layers.get(name, {}).get(key, 0.0) * 1000.0

    def delta(key):
        return sum(_delta(r, key) for r in traced)

    def view_delta(key):
        return sum(_view_delta(r, key) for r in traced)

    reads = sum(len(v) for r in traced for v in r["reads"].values())
    writes = sum(len(r["writes"]) for r in traced)
    parse_ms = total_ms("parse") + total_ms("parse.detect_language")
    metrics = {
        "server.frame_ms": (_ratio(total_ms("server.read_request")
                                   + total_ms("server.render_response"),
                                   count("server.request")), "ms"),
        "server.admission_wait_ms": (_ratio(total_ms("server.admission_wait"),
                                            count("server.admission_wait")),
                                     "ms"),
        "server.flush_wait_ms": (_ratio(total_ms("server.submit")
                                        - applied_wait * 1000.0,
                                        count("server.submit")), "ms"),
        "server.writes_per_flush": (_ratio(delta("write_requests"),
                                           delta("write_batched_calls")),
                                    "ratio"),
        "service.result_hit_ratio": (_ratio(delta("result_hits"),
                                            delta("requests")), "ratio"),
        "service.view_hits": (delta("view_hits"), "count"),
        "service.validation_retries": (delta("validation_retries"), "count"),
        "service.serialized_runs": (delta("serialized_runs"), "count"),
        "pipeline.plan_hit_ratio": (_ratio(delta("plan_hits"),
                                           delta("plan_hits")
                                           + delta("plan_misses")), "ratio"),
        "parse.ms": (_ratio(parse_ms, count("parse")
                            + count("parse.detect_language")), "ms"),
        "parse.ms_per_read": (_ratio(parse_ms, reads), "ms"),
        "lower.ms": (_ratio(total_ms("lower", "self_s"), count("lower")), "ms"),
        "optimize.ms": (_ratio(total_ms("optimize", "self_s"),
                               count("optimize")), "ms"),
        "stats.collect_ms": (_ratio(total_ms("stats.collect"), reads), "ms"),
        "stats.collections_per_read": (_ratio(count("stats.collect"), reads),
                                       "ratio"),
        "execute.ms": (_ratio(total_ms("execute"), reads), "ms"),
        "kernels.cache_hit_ratio": (_ratio(delta("kernel_cache_hits"),
                                           delta("kernel_cache_hits")
                                           + delta("kernel_cache_misses")),
                                    "ratio"),
        "datalog.ms": (_ratio(total_ms("datalog"), count("datalog")), "ms"),
        "fallback.count": (count("fallback"), "count"),
        "view.refresh_ms": (_ratio(total_ms("view.refresh"),
                                   view_delta("refreshes")), "ms"),
        "view.incremental_refreshes": (view_delta("incremental_refreshes"),
                                       "count"),
        "view.rebuilds": (view_delta("rebuilds"), "count"),
        "storage.add_rows_ms": (_ratio(total_ms("storage.add_rows"), writes),
                                "ms"),
    }
    for cls in ALL_READ_CLASSES:
        values = [ms for r in plain for ms in r["reads"].get(cls, ())]
        metrics[f"read.{cls}.p50_ms"] = (
            percentile(values, 50) if values else 0.0, "ms")
    # Rounds 2k and 2k + 1 ran the same inputs, untraced and traced.
    metrics["trace.overhead_ratio"] = (statistics.median(
        _ops_per_s(rounds[i]) / _ops_per_s(rounds[i + 1])
        for i in range(0, len(rounds) - 1, 2)), "ratio")
    return metrics


ALL_READ_CLASSES = tuple(cls for w in WORKLOADS.values()
                         for cls in w.read_classes())


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def cpu_times() -> "list[int] | None":
    """The host's aggregate CPU counters from ``/proc/stat`` (Linux)."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> "float | None":
    """Share of CPU time the hypervisor took from this host between reads."""
    if before is None or after is None or len(before) < 8:
        return None
    deltas = [a - b for a, b in zip(after, before)]
    total = sum(deltas[:8])
    return deltas[7] / total if total else None


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def instance_record(workload, seed: int, seconds: int, records: list,
                    calibration: list, steal, cpus: int, pinned) -> dict:
    """Host and instance attributes of this run."""
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "rounds": len(records), "connections": workload.connections,
        "sizes": vars(workload.sizes),
        "reads_per_round": sum(len(v) for v in records[0]["reads"].values()),
        "writes_per_round": len(records[0]["writes"]),
        "calibration_s": calibration,
        "steal_share": steal,
        "nproc": os.cpu_count(),
        "cpus_available": cpus,
        "pinned_cpu": pinned,
        "python": platform.python_version(), "numpy": records[0]["numpy"],
        "machine": platform.machine(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
    }


def pin_to_one_cpu() -> tuple:
    """Run this process, and every server it starts, on one CPU.

    The serving path holds the interpreter lock, and the client waits
    while the server works, so one CPU serves both.  On a shared virtual
    machine, a thread woken on another vCPU waits whenever the hypervisor
    has that vCPU descheduled, which made short requests' tails follow the
    host's steal time.  Returns ``(CPUs available, CPU used)``; the CPU is
    ``None`` when affinity cannot be set.
    """
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
    except OSError:
        return len(cpus), None
    return len(cpus), min(cpus)


def run(workload, seed: int, seconds: int, trace: bool) -> tuple:
    rounds = max(1, seconds // ROUND_SECONDS)
    if trace:
        rounds = max(2, rounds)
    cpus, pinned = pin_to_one_cpu()
    calibration = [calibration_s()]
    cpu_before = cpu_times()
    records = []
    for index in range(rounds):
        # Each round has inputs of its own, drawn from (seed, round), so a
        # run averages over several instances of the workload.  A traced
        # run pairs each traced round with an untraced one on equal inputs.
        round_seed = seed * 1000 + (index // 2 if trace else index)
        db = workload.database(round_seed)
        records.append(run_round(workload, round_seed, db, load_requests(db),
                                 trace and index % 2 == 1))
    steal = steal_share(cpu_before, cpu_times())
    calibration.append(calibration_s())
    return records, instance_record(workload, seed, seconds, records,
                                    calibration, steal, cpus, pinned)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving-path benchmark (see the module docstring).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at a tiny size and check "
                             "that the checkers catch corrupted answers")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        from selfcheck import self_check

        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    try:
        records, instance = run(workload, args.seed, args.seconds,
                                bool(args.trace))
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("instance: " + json.dumps(instance, sort_keys=True))
    if args.trace:
        metrics = per_layer(records)
        notes: dict = {}
    else:
        metrics, notes = end_to_end(records)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {value:14.4f} {unit}{note}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    wrong = sum(r["wrong"] for r in records)
    print(f"attempted {attempted}, failed {failed} ({wrong} wrong answers)")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
