#!/usr/bin/env python3
"""Steadiness tool: runs each workload N times, each with another seed, and
prints every end-to-end metric's median, quartiles and IQR/median beside the
bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads served_mixed --seconds 20
    python3 perfbench/steady.py --runs 10 --write perfbench/baseline.json
    python3 perfbench/steady.py --runs 10 --seed-base 11 --compare perfbench/baseline.json

Runs go round-robin over the workloads, one seed per round. Quartiles are
statistics.quantiles(values, n=4). A metric is steady when its
IQR/median stays below a third of its bound (setup_s, whose spread carries
no bound, is held to the same target). --write records the figures with the
host class (nproc, CPU model, gang ISA tier) they were measured on.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--write", help="write the summary JSON here")
    ap.add_argument("--compare", help="a summary JSON from an earlier set of runs: "
                    "report how far each median moved, in the metric's worse direction")
    args = ap.parse_args()

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    summary = {"runs": args.runs, "run_seconds": args.seconds, "workloads": {}}
    unsteady = 0
    failed_runs = []
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    # Round-robin over the workloads, one seed per round, so a slow phase of
    # the host lands on every workload instead of on one workload's runs.
    for i in range(args.runs):
        seed = args.seed_base + i
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if "metrics" not in result:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                sys.exit("steady: %s seed %d printed no result" % (workload, seed))
            if not result["correct"]:
                failed_runs.append("%s seed %d" % (workload, seed))
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, "  ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
    for workload in workloads:
        with open(os.path.join(ROOT, ".bench_build", "last_raw_%s.json" % workload)) as f:
            summary["host"] = json.load(f)["host"]
        rows = {}
        print("\n%s: %d runs of %d s" % (workload, args.runs, args.seconds))
        print("  %-18s %14s %14s %14s %9s %7s" % ("metric", "q1", "median", "q3",
                                                  "iqr/med", "bound"))
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            steady = spread < bound / 3
            unsteady += not steady
            rows[name] = {"unit": bounds[name]["unit"], "q1": q1, "median": med, "q3": q3,
                          "iqr_over_median": spread, "bound": bound, "values": vals}
            print("  %-18s %14.6g %14.6g %14.6g %9.4f %7.3f %s" % (
                name, q1, med, q3, spread, bound, "" if steady else "  <- above bound/3"))
        summary["workloads"][workload] = rows
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)["workloads"]
        print("\nmedians against %s (worse by more than the bound is flagged)" % args.compare)
        for workload, rows in summary["workloads"].items():
            for name, row in rows.items():
                old = before[workload][name]["median"]
                sign = 1 if bounds[name]["better"] == "lower" else -1
                worse = sign * (row["median"] - old) / old
                print("  %-20s %-16s %12.6g -> %12.6g  worse by %7.4f%s" % (
                    workload, name, old, row["median"], worse,
                    "  <- beyond bound" if worse > bounds[name]["bound"] else ""))
    summary["runs_not_correct"] = failed_runs
    if args.write:
        with open(args.write, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    print("\n%d metric(s) with IQR/median above a third of the bound" % unsteady)
    print("%d run(s) not correct%s" % (len(failed_runs), ": " + ", ".join(failed_runs)
                                      if failed_runs else ""))
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
