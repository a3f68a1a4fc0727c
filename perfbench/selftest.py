#!/usr/bin/env python3
"""Self-test of the seeded load generator.

    python3 perfbench/selftest.py [--seed N]

For every workload, generates the inputs three times — twice with seed N and
once with seed N+1 — and checks that the same seed gives identical input
and per-op checksums (so an identical op sequence) while a different seed
gives different ones. Exit code 0 when every check holds.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import WORKLOADS, build, run_bench  # noqa: E402


def checksums(bdir, workload, seed):
    code, out = run_bench(bdir, ["--workload", workload, "--seed", str(seed),
                                  "--gen-only"])
    if code != 0:
        sys.exit(f"selftest: benchmark binary failed on {workload} seed {seed}")
    inputs = [ln.split("checksum=")[1].split()[0] for ln in out.splitlines()
              if ln.startswith("# inputs")]
    ops = [ln.split()[2] for ln in out.splitlines() if ln.startswith("op ")]
    return inputs, ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    bdir = build()
    ok = True
    for w in WORKLOADS:
        a = checksums(bdir, w, seed)
        b = checksums(bdir, w, seed)
        c = checksums(bdir, w, seed + 1)
        same = a == b
        # Workloads without per-op inputs repeat one op: only the graph
        # (the input checksum) has to change with the seed.
        differ = a[0] != c[0] and (a[1] != c[1] or len(set(a[1])) == 1)
        print(f"{w}: same seed identical={same} "
              f"other seed differs={differ} ({len(a[1])} ops)")
        ok &= same and differ
    print("selftest", "PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
