#!/usr/bin/env python3
"""Run the benchmark over several seeds and record every result.

    python3 perfbench/sweep.py --out runs.jsonl [--change DIR] [--base DIR]
        [--workloads tricount,stream] [--seeds 1-10] [--seconds S]

--base is the checkout whose benchmark is run (default: this one). With
--change, a second checkout — typically base = the parent commit, change =
the commit under test — is run on the same seeds: for each workload and
seed the two sides run back to back, and which side goes first alternates
from seed to seed, so slow drift of the machine reaches both sides alike.

Each untraced run goes through that checkout's own perfbench/run.py
exactly as a single invocation would; each checkout builds into its own
.bench_build (CARGO_TARGET_DIR is not passed on). Every result is appended
to --out as one JSON line {"side", "workload", "seed", "wall_s", "result"};
a run that fails is recorded with "result": null. Afterwards the run set is
summarised with compare.py.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
from run import ROOT, WORKLOADS, parse_result  # noqa: E402


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(checkout, workload, seed, seconds):
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    return (round(time.monotonic() - t0, 2),
            parse_result(p.stdout) if p.returncode == 0 else None)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--base", type=Path, default=ROOT)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    a = ap.parse_args()
    sides = [("base", a.base.resolve())]
    if a.change is not None:
        sides.append(("change", a.change.resolve()))
    for w in a.workloads.split(","):
        for i, seed in enumerate(seed_list(a.seeds)):
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                wall, res = run_one(checkout, w, seed, a.seconds)
                rec = {"side": side, "workload": w, "seed": seed,
                       "wall_s": wall, "result": res}
                with a.out.open("a") as f:
                    f.write(json.dumps(rec) + "\n")
                print(f"{side} {w} seed={seed} wall={wall}s "
                      + ("FAILED" if res is None else
                         f"correct={res['correct']} "
                         f"attempted={res['attempted']} "
                         f"failed={res['failed']}"), flush=True)
    compare.report(compare.load([a.out]), bench)


if __name__ == "__main__":
    main()
