#!/usr/bin/env python3
"""Build and run the loopcoal benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds the harness (perfbench/bench.ml) and the loopc CLI
into .bench_build, then runs one workload; the last line of standard
output is the JSON result. The second runs every workload on tiny sizes,
untraced and traced, and checks that each run emits exactly the metrics
BENCHMARK.json names, with their units, and that no op failed.

Everything the benchmark writes stays inside the checkout: the build in
.bench_build, temporary files and caches in .bench_tmp, per-run plan
caches in .bench_run (removed at exit) and span files in .bench_out.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
LOOPC = os.path.join(BUILD_DIR, "default", "bin", "loopc.exe")
WORKLOADS = ["kernels", "nest-forms", "compile-churn"]


def env():
    tmp = os.path.abspath(".bench_tmp")
    os.makedirs(os.path.join(tmp, "xdg"), exist_ok=True)
    e = {k: v for k, v in os.environ.items() if not k.startswith("LOOPC_")}
    e["TMPDIR"] = tmp
    e["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg")
    e["DUNE_CACHE"] = "disabled"
    return e


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--display=quiet",
           "./perfbench/bench.exe", "./bin/loopc.exe"]
    r = subprocess.run(cmd, env=env(), stdout=sys.stderr, timeout=880)
    if r.returncode != 0 or not os.path.exists(BENCH):
        sys.exit("run.py: build failed")


def run(args, timeout=175):
    cmd = [BENCH, "--loopc", LOOPC] + args
    return subprocess.run(cmd, env=env(), stdout=subprocess.PIPE, text=True, timeout=timeout)


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            r = run(["--workload", w["name"], "--seed", "1", "--seconds", "3",
                     "--trace", str(trace), "--tiny"])
            lines = r.stdout.strip().splitlines()
            problems = []
            if r.returncode != 0 or not lines:
                problems.append("exit code %d" % r.returncode)
            else:
                res = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != wanted[trace]:
                    missing = sorted(set(wanted[trace]) - set(got))
                    extra = sorted(set(got) - set(wanted[trace]))
                    wrong = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                    problems.append("metrics differ: missing %s extra %s unit %s" % (missing, extra, wrong))
                if res["failed"] != 0 or not res["correct"] or res["attempted"] < 1:
                    problems.append("ops %d/%d failed" % (res["failed"], res["attempted"]))
            print("%-14s trace %d: %s" % (w["name"], trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    build()
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(selftest())
    r = run(sys.argv[1:])
    sys.stdout.write(r.stdout)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
