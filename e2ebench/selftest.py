#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at a tiny scale (seconds once built).

Run from the root of a checkout:

    python3 e2ebench/selftest.py

It checks that
  * every workload prints, as its last line, a result with every metric
    BENCHMARK.json names, by name and unit: the end-to-end ones with
    --trace 0 and the per-layer ones with --trace 1, all correct;
  * corrupting one reference output makes the correctness gate fire:
    `failed` > 0, `correct` false and ok_frac below 1;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.05"]


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "e2ebench", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_metrics(result, expected, where):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, f"{where}: metrics {sorted(got.items())} != {sorted(want.items())}"
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), f"{where}: {name} not a number"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["attempted"] >= 1, where


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            fn()
            print(f"ok   {name}", flush=True)
        except AssertionError as e:
            failures += 1
            print(f"FAIL {name}: {e}", flush=True)

    for w in bench["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            def one(w=w["name"], trace=trace, kind=kind):
                r = result_of(run(["--workload", w, "--seed", "3", "--seconds",
                                   "1", "--trace", str(trace)] + TINY))
                check_metrics(r, bench[kind], f"{w} trace {trace}")
                assert r["correct"] and r["failed"] == 0, f"{w}: {r}"
            check(f"{w['name']} --trace {trace} prints every {kind} metric", one)

    def corrupted():
        r = result_of(run(["--workload", "cli_chain", "--seed", "3", "--seconds",
                           "1", "--trace", "0", "--corrupt-reference"] + TINY))
        assert r["failed"] > 0 and not r["correct"], r
        assert r["metrics"]["ok_frac"]["value"] < 1, r
    check("a corrupted reference drives failed_frac above 0", corrupted)

    def bare_directory():
        bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        try:
            p = subprocess.run([sys.executable, "e2ebench/run.py", "--workload",
                                "cli_chain", "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=bare,
                               capture_output=True, text=True, timeout=180)
            assert p.returncode != 0, "exit code 0 without the program's sources"
            assert '"metrics"' not in p.stdout, "printed a result"
        finally:
            shutil.rmtree(bare, ignore_errors=True)
    check("without the sources it fails and prints no result", bare_directory)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
