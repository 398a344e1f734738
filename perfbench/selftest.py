#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that a seconds-long
run, untraced and traced, prints every metric BENCHMARK.json names,
with its unit, both by name and in the final JSON line, and answers
every request correctly. It checks that a seed reproduces the same
request stream (the same plan-digest list) and that another seed does
not, that a deliberately corrupted response is counted as a failure
and fails the run, and that each workload's open-loop rate in the
code is the one its "why" in BENCHMARK.json states. Exits non-zero
on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)


def fail(msg, out=None):
    print("FAIL:", msg)
    if out is not None:
        print(out.stdout[-3000:])
        print(out.stderr[-3000:])
    sys.exit(1)


def result_of(out):
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("no output", out)
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(res), out)
    return res


def check_metrics(out, res, wanted):
    printed = {}
    for line in out.stdout.splitlines():
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)$", line)
        if m:
            printed[m.group(1)] = m.group(3)
    names = [m["name"] for m in wanted]
    if sorted(res["metrics"]) != sorted(names):
        fail("JSON metrics %s, want %s" % (sorted(res["metrics"]), names))
    for m in wanted:
        got = res["metrics"][m["name"]]
        if got["unit"] != m["unit"] or printed.get(m["name"]) != m["unit"]:
            fail("%s: unit %s / printed %s, want %s" % (
                m["name"], got["unit"], printed.get(m["name"]), m["unit"]))
        if not isinstance(got["value"], (int, float)):
            fail("%s: value %r is not a number" % (m["name"], got["value"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for wl in bench["workloads"]:
        name = wl["name"]
        for trace, wanted in (("0", bench["end_to_end"]),
                              ("1", bench["per_layer"])):
            out = run("--workload", name, "--seed", "7", "--seconds",
                      SECONDS, "--trace", trace)
            res = result_of(out)
            if out.returncode != 0 or not res["correct"] or res["failed"]:
                fail("%s trace %s: run failed" % (name, trace), out)
            if res["attempted"] < 1:
                fail("%s trace %s: nothing attempted" % (name, trace), out)
            check_metrics(out, res, wanted)
            if trace == "0":
                if "metric failed_frac" not in out.stdout:
                    fail("%s: failed_frac not printed" % name, out)
                m = re.search(r"provenance open_rate_rps = (\S+)", out.stdout)
                if not m or ("%s req/s" % m.group(1)) not in wl["why"]:
                    fail("%s: BENCHMARK.json why does not state the code's "
                         "open-loop rate %s req/s" % (
                             name, m.group(1) if m else "?"), out)
            print("ok  %s trace %s: %d requests, every metric with its unit"
                  % (name, trace, res["attempted"]))

        streams = [run("--workload", name, "--seed", s, "--seconds", "1",
                       "--trace", "0", "--dump-stream").stdout
                   for s in ("7", "7", "8")]
        if not streams[0] or streams[0] != streams[1]:
            fail("%s: seed 7 gave two different request streams" % name)
        if streams[0] == streams[2]:
            fail("%s: seeds 7 and 8 gave the same request stream" % name)
        print("ok  %s: seed 7 reproduces its %d-request digest list" % (
            name, len(streams[0].splitlines()) - 1))

    name = bench["workloads"][0]["name"]
    out = run("--workload", name, "--seed", "7", "--seconds", SECONDS,
              "--trace", "0", "--corrupt-one")
    res = result_of(out)
    m = re.search(r"metric failed_frac\s+(\S+)", out.stdout)
    if (out.returncode == 0 or res["correct"] or res["failed"] != 1 or
            not m or float(m.group(1)) <= 0):
        fail("a corrupted response was not counted", out)
    print("ok  %s: one corrupted response counted (failed_frac %s), "
          "exit code %d" % (name, m.group(1), out.returncode))
    print("selftest passed")


if __name__ == "__main__":
    main()
