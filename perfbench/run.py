#!/usr/bin/env python3
"""Campaign benchmark for vscrub.

Builds the library and the benchmark driver from source (cmake, into
.bench_build/perfbench), runs one workload in a fresh driver process, checks
every campaign result against perfbench/reference.json, prints every metric
by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the run also writes a Chrome
trace-event file (open it in Perfetto) and prints a per-layer rollup.

    python3 perfbench/run.py --workload served_mixed --seed 1 --seconds 35 --trace 0
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("xcv1000_exhaustive", "served_mixed", "fabric_3w")
PAPER_BITS_PER_S = 1e6 / 214.0  # SLAAC-1V hardware loop, 214 us/bit (paper III-A)
MANIFEST_FAILURE = "cannot write manifest"

def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/", 2)
    build_dir = os.path.join(ROOT, BUILD)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "perfbench_driver", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (see %s)" % log_path)
    return os.path.join(build_dir, "perfbench_driver")


def percentile(sorted_values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, label). With fewer than 11 samples no percentile has ten
    beyond it; the maximum is reported and the label says so.
    """
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0, "none"
    if n < 11:
        return v[-1], "max of %d (fewer than 11 samples)" % n
    return v[n - 11], "p%.1f of %d" % (100.0 * (n - 10) / n, n)


def median(values):
    return statistics.median(values) if values else 0.0


def check_results(raw, reference):
    """Counts results that disagree with the reference table."""
    rows = {r["id"]: r for r in reference["rows"]}
    mismatches = 0
    for r in raw["results"]:
        ref = rows.get(r["id"])
        problems = []
        if ref is None:
            problems.append("no reference row")
        else:
            for field in ("injections", "digest", "failures"):
                if r[field] != ref[field]:
                    problems.append("%s %s != %s" % (field, r[field], ref[field]))
            if r["counts"] is not None and r["counts"] != ref["counts"]:
                problems.append("counts %s != %s" % (r["counts"], ref["counts"]))
        if problems:
            mismatches += 1
            print("perfbench: MISMATCH %s: %s" % (r["id"], "; ".join(problems)),
                  file=sys.stderr)
    return mismatches


def engine_metrics(raw):
    """Per-layer engine figures from summed CampaignResult::phases."""
    e = raw["engine"] or {}
    busy = sum(e.get(k, 0.0) for k in ("corrupt_s", "run_s", "repair_s", "persist_s"))
    gang_s = e.get("gang_s", 0.0)
    lanes = e.get("gang_lanes", 0.0)
    runs = e.get("gang_runs", 0.0)
    injections = e.get("injections", 0.0)
    scalar = injections - lanes + e.get("gang_fallbacks", 0.0)

    def per(x, n, scale=1.0):
        return x * scale / n if n else 0.0

    return {
        "sim.gang_ns_per_lane": ("ns", per(gang_s, lanes, 1e9)),
        "sim.gang_lanes": ("count", lanes),
        "sim.lanes_per_run": ("count", per(lanes, runs)),
        "sim.gang_fallbacks": ("count", e.get("gang_fallbacks", 0.0)),
        "sim.gang_early_exit_ratio": ("ratio", per(e.get("gang_early_exits", 0.0), runs)),
        "sim.gang_share": ("ratio", per(gang_s, busy)),
        "seu.corrupt_ns_per_bit": ("ns", per(e.get("corrupt_s", 0.0), scalar, 1e9)),
        "seu.repair_ns_per_bit": ("ns", per(e.get("repair_s", 0.0), scalar, 1e9)),
        "seu.scalar_ns_per_bit": ("ns", per(busy - gang_s, scalar, 1e9)),
        "seu.pruned_ratio": ("ratio", per(e.get("pruned", 0.0), injections)),
        "common.pool_busy_ratio": ("ratio", per(busy, e.get("thread_wall_s", 0.0))),
    }


def rollup(trace_path):
    """Self time per layer: each span's duration minus the part of it that
    its child spans cover."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    children = {}
    for ev in events:
        children.setdefault(ev["args"]["parent"], []).append(ev)
    layers = {}
    for ev in events:
        start, end = ev["ts"], ev["ts"] + ev["dur"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(ev["args"]["id"], []), key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], cursor), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = layers.setdefault(ev["cat"], {"spans": 0, "self_ms": 0.0})
        entry["spans"] += 1
        entry["self_ms"] += (ev["dur"] - covered) / 1e3
    return layers


def per_layer_metrics(raw, workload, stderr_text, trace_path):
    traced = [s for s, t in zip(raw["setup_s"], raw["setup_traced"]) if t]
    untraced = [s for s, t in zip(raw["setup_s"], raw["setup_traced"]) if not t]
    stats = raw["stats"] or {}
    verdicts = raw["verdicts"] or 1.0
    warm = [l for l, w in zip(raw["latency_ms"], raw["warm"]) if w]
    cold = [l for l, w in zip(raw["latency_ms"], raw["warm"]) if not w]
    fabric = workload == "fabric_3w"
    served = workload == "served_mixed"
    m = {
        "pnr.compile_ms": ("ms", median(raw["compile_ms"])),
        "sim.golden_ms": ("ms", median(raw["golden_ms"])),
        "seu.keyplan_ms": ("ms", median(raw["keyplan_ms"])),
    }
    m.update(engine_metrics(raw))
    m.update({
        "store.hit_ratio": ("ratio", (raw["cache_hits"] + raw["remote_hits"]) / verdicts
                            if served or fabric else 0.0),
        "store.entries": ("count", float(stats.get("store_entries", 0)) if served else
                          float(stats.get("store_publishes", 0)) if fabric else 0.0),
        "store.manifest_write_failures": ("count", float(stderr_text.count(MANIFEST_FAILURE))),
        "svc.admission_rejects": ("count", float(stats.get("admission_rejects", 0))),
        "coord.ranges": ("count", raw["ranges_per_campaign"]),
        "coord.reassignments": ("count", raw["reassignments"]),
        "coord.remote_hit_ratio": ("ratio", raw["remote_hits"] / verdicts if fabric else 0.0),
        "coord.worker_busy_ratio": ("ratio", raw["worker_busy_s"] / (3 * raw["timed_s"])
                                    if fabric else 0.0),
        "bench.trace_overhead": ("ratio", median(traced) / median(untraced) - 1.0
                                 if traced and untraced else 0.0),
    })
    # Figures that exist only on the workloads that exercise their layer:
    # printed in the rollup, not part of the per-layer metric set.
    extra = {}
    if served or fabric:
        extra["svc.memo_warm_ms"] = ("ms", raw["memo_warm_ms"])
        extra["coord.fleet_start_ms" if fabric else "svc.daemon_start_ms"] = (
            "ms", median(raw["daemon_ms"]))
        extra["coord.hop_ms_p50" if fabric else "svc.wait_ms_p50"] = (
            "ms", median(raw["hop_ms"]))
        extra["svc.warm_p50_ms"] = ("ms", median(warm))
        extra["svc.cold_p50_ms"] = ("ms", median(cold))
    if fabric:
        extra["coord.workers_lost"] = ("count", raw["workers_lost"])
    if served:
        extra["svc.server_latency_p50_ms"] = ("ms", float(stats.get("request_latency_ms_p50", 0)))
        extra["svc.ping_us_p50"] = ("us", median(raw["ping_us"]))
        extra["bench.gen_lag_ms_p99"] = ("ms", percentile(sorted(raw["gen_lag_ms"]), 99))
    extra["bench.spans"] = ("count", raw["spans"])
    layers = rollup(trace_path)
    return m, extra, layers


def print_table(title, metrics):
    print(title)
    for name, (unit, value) in metrics.items():
        print("  %-32s %16.6g %s" % (name, value, unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="reference table to check results against")
    args = ap.parse_args()

    driver = build()
    with open(args.reference) as f:
        reference = json.load(f)
    run_dir = os.path.join(".bench_build", "run", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)  # a stale one
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", run_dir]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die("driver timed out")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        die("driver failed with exit code %d" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_build", "last_raw_%s.json" % args.workload), "w") as f:
        json.dump(raw, f)

    mismatches = check_results(raw, reference)
    attempted = int(raw["attempted"])
    failed = int(raw["failed"]) + mismatches
    correct = mismatches == 0 and failed == 0 and attempted > 0
    host = raw["host"]
    print("workload %s  seed %d  %.1f s timed  host: %d x %s, gang ISA %s"
          % (args.workload, args.seed, raw["timed_s"], host["nproc"], host["cpu"],
             host["gang_isa"]))

    if args.trace:
        metrics, extra, layers = per_layer_metrics(raw, args.workload, proc.stderr, trace_path)
        print_table("per-layer metrics", metrics)
        print_table("per-layer figures of this workload only", extra)
        print("self time by layer (trace: %s)" % trace_path)
        for layer, e in sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"]):
            print("  %-8s %6d spans %12.3f ms" % (layer, e["spans"], e["self_ms"]))
    else:
        lat_tail, tail_label = tail(raw["latency_ms"])
        bits_per_s = raw["verdicts"] / raw["timed_s"]
        metrics = {
            "bits_per_s": ("bits/s", bits_per_s),
            "setup_s": ("s", median(raw["setup_s"])),
            "peak_rss_mb": ("MiB", raw["peak_rss_mb"]),
            "latency_p50_ms": ("ms", median(raw["latency_ms"])),
            "latency_tail_ms": ("ms", lat_tail),
            "requests_per_s": ("1/s", raw["completed"] / raw["timed_s"]),
        }
        print_table("end-to-end metrics", metrics)
        print("  latency_tail_ms is %s; %d set-up repetitions" % (tail_label, len(raw["setup_s"])))
        print("  fail_ratio %.6g (%d failed of %d attempted, %d reference mismatches)"
              % (failed / max(attempted, 1), failed, attempted, mismatches))
        print("  %.1fx the paper's 214 us/bit hardware loop (%.0f bits/s)"
              % (bits_per_s / PAPER_BITS_PER_S, PAPER_BITS_PER_S))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }))
    # A run that completes exits 0 and carries its verdict in "correct".
    return 0


if __name__ == "__main__":
    sys.exit(main())
