#!/usr/bin/env python3
"""Build the serving benchmark from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small_hot --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see
perfbench/src/main.cc). The build goes to $CARGO_TARGET_DIR when that
is set, else to .bench_build; per-run result files with provenance go
to <build dir>/results. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_sha256():
    """Digest of every source file the binary is built from."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, names in os.walk(path) for f in names)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    if out.returncode != 0:
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no sap sources next to perfbench/; nothing to run")
        return 1
    if not build(build_dir):
        log("perfbench: build failed")
        return 1
    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()
    binary = os.path.join(build_dir, "perfbench")
    cmd = [binary] + sys.argv[1:] + [
        "--out", os.path.join(build_dir, "results")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
