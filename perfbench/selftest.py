#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the root of the tree:

    python3 perfbench/selftest.py

Checks, at each workload's smallest size:
  * an untraced and a traced run each print, as their last line, a result
    with exactly the four result keys, every metric BENCHMARK.json names
    for that mode (with its unit) and no failed query;
  * a corrupted reference makes queries fail (error rate above 0);
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
failures = []


def run(args, cwd=ROOT):
    cmd = BENCH["command"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def small(workload, trace, *extra):
    return run(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
                "--size", "small", *extra])


for wl in (w["name"] for w in BENCH["workloads"]):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = small(wl, trace)
        res = result_of(proc) if proc.returncode == 0 else None
        expect(res is not None, f"{wl} trace={trace}: exits 0 with a result")
        if res is None:
            print(proc.stderr[-2000:])
            continue
        expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
               f"{wl} trace={trace}: result keys")
        expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
               f"{wl} trace={trace}: every query passes its checks")
        for m in BENCH[section]:
            got = res["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"]
                   and isinstance(got["value"], (int, float)),
                   f"{wl} trace={trace}: {m['name']} [{m['unit']}]")

# A corrupted reference must fail the queries it no longer matches.
ref = os.path.join(SCRATCH, "reference")
shutil.rmtree(ref, ignore_errors=True)
shutil.copytree(os.path.join(ROOT, "perfbench", "reference"), ref)
path = os.path.join(ref, "fig15_inbound.elapsed")
lines = open(path).read().splitlines()
for i, line in enumerate(lines):
    if line.startswith("1 1 "):  # Query 1, n = 1: part of the small sweep
        key, value = line.rsplit(" ", 1)
        lines[i] = f"{key} {float(value) * 1.000001!r}"
open(path, "w").write("\n".join(lines) + "\n")
res = result_of(small("fig15_inbound", 0, "--reference", ref))
expect(res is not None and res["failed"] > 0 and res["correct"] is False,
       "corrupted reference drives the error rate above 0")

# Without the sources the benchmark must refuse, not print a result.
bare = os.path.join(SCRATCH, "bare")
shutil.rmtree(bare, ignore_errors=True)
os.makedirs(bare)
shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
for p in BENCH["paths"]:
    shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
proc = run(["--workload", BENCH["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
            "--trace", "0"], cwd=bare)
expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
       "without the sources: non-zero exit and no result")
shutil.rmtree(SCRATCH, ignore_errors=True)

print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
sys.exit(1 if failures else 0)
