#!/usr/bin/env python3
"""Compare benchmark run sets (python3 standard library only).

    python3 perfbench/compare.py RUNS.jsonl [MORE.jsonl ...]

Inputs are run records written by perfbench/sweep.py, one JSON object per
line: {"side": "base"|"change", "workload", "seed", "wall_s", "result"}
(a record without "side" counts as base; "result" is null for a run that
crashed or timed out).

For every workload (one row each) it prints, per side, the runs, the runs
without a result, the failed ops and the incorrect runs. Then for every
end-to-end metric of BENCHMARK.json it prints the median, quartiles and
spread, (q3 - q1) / median, of each side. When both sides are present, runs
are paired by seed — sweep.py runs the two sides of one seed back to back,
alternating which goes first — so machine drift and the cost of a seed
cancel. For each pair it takes the change's relative change against the
base, signed so that positive is worse, and prints the median of these,
their spread (q3 - q1) and how many pairs the change won:

  better      at least ten pairs, the change won at least nine tenths of
              them (ties count for neither side), and the medians differ
              by more than the base set's q3 - q1
  unresolved  the base set's spread or the spread of the paired changes is
              wider than the metric's bound, and not every change run
              reads better than every base run
  regressed   the median paired change is worse than the bound
  same        otherwise
  ok / WIDE   (base only) the spread is within / wider than the bound

Exit code 1 when any verdict is unresolved, regressed or WIDE, when a side
has no runs of a workload, or when the change has more runs without a
result, more failed ops or more incorrect runs than the base (base only:
when it has any).
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    """{side: {workload: {seed: result or None}}}."""
    sides = {}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            side = sides.setdefault(rec.get("side", "base"), {})
            side.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return sides


def quartiles(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return med, q1, q3


def spread(values):
    med, q1, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, change):
    """Relative change, positive when the change is worse."""
    rel = (change - base) / base
    return rel if metric["better"] == "lower" else -rel


def health(runs):
    """(runs without a result, failed ops, incorrect runs) of one side."""
    ok = [r for r in runs.values() if r is not None]
    return (len(runs) - len(ok), sum(r["failed"] for r in ok),
            sum(not r["correct"] for r in ok))


def values(runs, name):
    return {seed: r["metrics"][name]["value"] for seed, r in runs.items()
            if r is not None}


def describe(label, vals):
    med, q1, q3 = quartiles(vals)
    return (f"{label} med={med:.6g} q1={q1:.6g} q3={q3:.6g} "
            f"spread={spread(vals):.3f}")


def verdict(metric, base, change):
    """Verdict and paired summary of one metric; `change` may be None."""
    bound = metric["bound"]
    bvals = list(base.values())
    if change is None:
        return ("ok" if spread(bvals) <= bound else "WIDE"), ""
    seeds = sorted(set(base) & set(change))
    if not seeds:
        return "unresolved", " no pairs"
    rels = [worse_by(metric, base[s], change[s]) for s in seeds]
    med, q1, q3 = quartiles(rels)
    wins = sum(r < 0 for r in rels)
    info = (f" | paired worse_by={med:+.3f} iqr={q3 - q1:.3f} "
            f"wins={wins}/{len(rels)}")
    b_med, b_q1, b_q3 = quartiles(bvals)
    c_med = statistics.median(change.values())
    if (len(rels) >= MIN_PAIRS and wins >= WIN_SHARE * len(rels)
            and worse_by(metric, b_med, c_med) * b_med < -(b_q3 - b_q1)):
        return "better", info
    cvals = list(change.values())
    all_better = (max(cvals) < min(bvals) if metric["better"] == "lower"
                  else min(cvals) > max(bvals))
    if (spread(bvals) > bound or q3 - q1 > bound) and not all_better:
        return "unresolved", info
    return ("regressed" if med > bound else "same"), info


def report(sides, bench):
    """Print the comparison; return True when something is wrong."""
    base = sides.get("base", {})
    change = sides.get("change")
    bad = False
    for w in sorted(set(base) | set(change or {})):
        b_runs = base.get(w, {})
        c_runs = None if change is None else change.get(w, {})
        b_health = health(b_runs)
        line = (f"\n[{w}] base: {len(b_runs)} runs, {b_health[0]} without "
                f"result, {b_health[1]} failed ops, {b_health[2]} incorrect")
        if c_runs is None:
            bad |= not b_runs or any(b_health)
        else:
            c_health = health(c_runs)
            line += (f" | change: {len(c_runs)} runs, {c_health[0]} without "
                     f"result, {c_health[1]} failed ops, {c_health[2]} "
                     f"incorrect")
            worse = [n for n, b, c in zip(("runs without result",
                                           "failed ops", "incorrect runs"),
                                          b_health, c_health) if c > b]
            if worse:
                line += "  -> change has more " + ", ".join(worse)
            bad |= not b_runs or not c_runs or bool(worse)
        print(line)
        for m in bench["end_to_end"]:
            bv = values(b_runs, m["name"])
            cv = values(c_runs, m["name"]) if c_runs is not None else None
            if not bv or cv == {}:
                print(f"  {m['name']:<12} no successful runs on a side")
                bad = True
                continue
            text = f"  {m['name']:<12} {m['unit']:>4} " + describe(
                "base", list(bv.values()))
            if cv is not None:
                text += " | " + describe("change", list(cv.values()))
            v, info = verdict(m, bv, cv)
            bad |= v in ("unresolved", "regressed", "WIDE")
            print(f"{text}{info}  bound={m['bound']} -> {v}")
    return bad


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.exit(1 if report(load(sys.argv[1:]), bench) else 0)


if __name__ == "__main__":
    main()
