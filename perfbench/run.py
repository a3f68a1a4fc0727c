#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload tricount|stream|ooc|serve \
        --seed N --seconds S --trace 0|1

Builds the benchmark binary and the mspgemm-serve worker binary from the
sources of the checkout it sits in (CMake, Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), keeps the
run's temporary files inside the build directory and runs the benchmark
binary, which pins its own threads. Its stdout is passed through; its last
line is the JSON result. Build output goes to stderr.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tricount", "stream", "ooc", "serve")
RUN_TIMEOUT_S = 170
_lock = None  # held until exit: one run at a time per build directory


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def lock_build_dir(bdir):
    """Wait for any other run using this build directory to end. Runs share
    its scratch directory (spilled shards, sockets), and a concurrent run
    would also skew the timings."""
    global _lock
    bdir.mkdir(parents=True, exist_ok=True)
    _lock = open(bdir / "run.lock", "w")
    fcntl.flock(_lock, fcntl.LOCK_EX)


def build():
    """Configure once, then (re)build the two binaries; return the build dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT}")
    bdir = build_dir()
    lock_build_dir(bdir)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "2",
                  "--target", "perfbench", "mspgemm-serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return bdir


def bench_command(bdir):
    return [str(bdir / "perfbench"),
            "--tune-profile", str(ROOT / "TUNE_profile.json"),
            "--serve-worker", str(bdir / "mspgemm" / "mspgemm-serve"),
            "--scratch", str(bdir / "scratch")]


def bench_env(bdir):
    """A fresh scratch directory; TMPDIR is relative to keep socket paths
    short."""
    tmp = bdir / "scratch" / "tmp"
    shutil.rmtree(bdir / "scratch", ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.relpath(tmp, ROOT)
    return env


def run_bench(bdir, extra):
    """Run the binary in its own process group; return (code, stdout)."""
    proc = subprocess.Popen(bench_command(bdir) + extra, cwd=ROOT,
                            env=bench_env(bdir), stdout=subprocess.PIPE,
                            text=True, process_group=0)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"benchmark binary did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    bdir = build()
    code, out = run_bench(bdir, ["--workload", a.workload,
                                  "--seed", str(a.seed),
                                  "--seconds", str(a.seconds),
                                  "--trace", str(a.trace)])
    if code != 0:
        fail(f"benchmark binary exited with code {code}")
    res = parse_result(out)
    if res is None:
        fail("benchmark binary printed no result line")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in bench["per_layer" if a.trace else "end_to_end"]}
    if set(res["metrics"]) != want:
        fail("printed metrics differ from BENCHMARK.json: "
             + " ".join(sorted(set(res["metrics"]) ^ want)))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
