#!/usr/bin/env python3
"""Fast self-check of the benchmark itself (about two minutes).

    python3 perfbench/selfcheck.py

1. Runs every workload of BENCHMARK.json shortened (--seconds 2), untraced
   and traced, and checks the result line: exactly the keys correct,
   attempted, failed and metrics; correct is true; the metric names and
   units are exactly BENCHMARK.json's end_to_end (untraced) or per_layer
   (traced) lists; every value is a finite number; the traced run wrote its
   trace file.
2. Runs a workload against a reference table whose digests are all wrong and
   checks that the run fails: exit code 0, correct false, failed > 0.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's own files and checks that it exits non-zero without printing
   a result.
4. Probes the known lfsrmult defect (README.md, "Known defect"): one sample
   on one thread and on four. It reports whether the two digests still
   differ; it does not fail the self-check either way.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selfcheck")
sys.path.insert(0, HERE)
from run import build  # noqa: E402


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print("  %s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s --trace %d" % (w["name"], trace)
            print(name, flush=True)
            proc, result = run(["--workload", w["name"], "--seed", "1", "--seconds", "2",
                                "--trace", str(trace)])
            expect(proc.returncode == 0, "exit code 0")
            if result is None:
                expect(False, "result line present")
                sys.stderr.write(proc.stderr[-2000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   "result keys")
            expect(result.get("correct") is True, "correct")
            expect(result.get("attempted", 0) >= 1, "attempted >= 1")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            expect(got == want, "metric names and units match BENCHMARK.json %s" % key)
            expect(all(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])
                       for v in result.get("metrics", {}).values()), "finite values")
            if trace:
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    "%s-seed1.trace.json" % w["name"])
                expect(os.path.isfile(path), "trace file written")

    print("wrong reference digest")
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    for row in reference["rows"]:
        row["digest"] = str(int(row["digest"]) ^ 1)
    bad = os.path.join(SCRATCH, "bad_reference.json")
    with open(bad, "w") as f:
        json.dump(reference, f)
    proc, result = run(["--workload", "served_mixed", "--seed", "1", "--seconds", "2",
                        "--trace", "0", "--reference", bad])
    expect(proc.returncode == 0, "exit code 0")
    expect(result is not None and result["correct"] is False and result["failed"] > 0,
           "correct false, failed > 0")

    print("benchmark files without the library sources")
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc, result = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                        "--seconds", "2", "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0, "non-zero exit")
    expect(result is None, "no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print("known lfsrmult defect (not part of the verdict)")
    probe = subprocess.run([build(), "--digest-probe", "lfsrmult", "8000", "41"],
                           cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = probe.stdout.strip().splitlines()
    for line in lines:
        print("  " + line)
    digests = {line.rsplit(" ", 1)[-1] for line in lines}
    print("  %s" % ("KNOWN DEFECT still present: the digests differ" if len(digests) > 1
                    else "the digests agree: the defect may be fixed; see README.md"))

    print("\nself-check %s" % ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
