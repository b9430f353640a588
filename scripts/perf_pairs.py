#!/usr/bin/env python3
"""perf-pairs: compare two checkouts on one benchmark workload in pairs.

Usage:
  scripts/perf_pairs.py --parent DIR --change DIR --workload W \\
                        --seeds A-B --seconds S
  scripts/perf_pairs.py --self-test   # check the statistics on fixed inputs

Each seed in A..B (inclusive) is one pair: `python3 perfbench/run.py
--workload W --seed N --seconds S` runs once in each checkout, and the side
that goes first alternates from pair to pair so drift on a shared host
falls on both sides alike. Each checkout builds into its own
`<DIR>/.bench_build` (an inherited CARGO_TARGET_DIR is ignored, so the two
sides never share a build). The end-to-end metrics and their directions
come from the change checkout's BENCHMARK.json.

For every end-to-end metric the report gives each side's median and
q1-q3, the median of the per-pair ratios change/parent, and the pairs in
which the change was better. Nothing under perfbench/ is modified.

Exit status: 0 when every run says "correct": true, 1 otherwise (or on a
self-test failure), 2 on a usage error.
"""

import argparse
import json
import os
import subprocess
import sys


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(parent, change, higher_is_better):
    """Statistics of one metric over paired runs (lists in pair order)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    ratios = [c / p if p else float("inf") for p, c in zip(parent, change)]
    wins = sum(1 for p, c in zip(parent, change)
               if (c > p if higher_is_better else c < p))
    side = lambda v: (quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75))
    return {"parent": side(parent), "change": side(change),
            "ratio": quantile(ratios, 0.5), "wins": wins, "pairs": len(parent)}


def parse_seeds(text):
    first, sep, last = text.partition("-")
    try:
        a = int(first)
        b = int(last) if sep else a
    except ValueError:
        raise argparse.ArgumentTypeError("--seeds must look like A-B")
    if b < a:
        raise argparse.ArgumentTypeError("--seeds A-B needs A <= B")
    return list(range(a, b + 1))


def run_side(checkout, workload, seed, seconds):
    """One untraced run; returns the verdict line's object (None on failure)."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(checkout, ".bench_build")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def fmt(x):
    return "%.4g" % x


def report(metrics, runs):
    """Print the per-metric table; runs maps side -> list of verdicts."""
    for m in metrics:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in ("parent", "change")}
        s = summarize(values["parent"], values["change"], m["better"] == "higher")
        print("%s (%s, %s is better)" % (name, m["unit"], m["better"]))
        for side in ("parent", "change"):
            q1, med, q3 = s[side]
            print("  %-6s median %s  q1-q3 %s-%s" % (side, fmt(med), fmt(q1), fmt(q3)))
        print("  change/parent per pair: median %.3fx; change better in %d/%d pairs"
              % (s["ratio"], s["wins"], s["pairs"]))


def self_test():
    failures = []

    def check(label, got, want):
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            failures.append("%s: got %r, want %r" % (label, got, want))

    check("median odd", quantile([3, 1, 2], 0.5), 2)
    check("median even", quantile([4, 1, 3, 2], 0.5), 2.5)
    check("q1 of 1..5", quantile([5, 4, 3, 2, 1], 0.25), 2)
    check("q3 of 1..4", quantile([1, 2, 3, 4], 0.75), 3.25)
    check("single", quantile([7], 0.25), 7)
    s = summarize([10, 10, 10, 10], [12, 9, 15, 11], True)
    check("ratio median", s["ratio"], 1.15)
    check("wins higher", s["wins"], 3)
    check("change q1", s["change"][0], 10.5)
    check("parent q3", s["parent"][2], 10)
    s = summarize([2.0, 4.0], [1.0, 5.0], False)
    check("wins lower", s["wins"], 1)
    check("ratio lower", s["ratio"], 0.875)
    if parse_seeds("201-203") != [201, 202, 203] or parse_seeds("5") != [5]:
        failures.append("parse_seeds")
    for bad in ("9-3", "a-b"):
        try:
            parse_seeds(bad)
            failures.append("parse_seeds accepted %r" % bad)
        except argparse.ArgumentTypeError:
            pass
    for f in failures:
        print("self-test FAILED: " + f)
    print("perf_pairs self-test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=parse_seeds, help="inclusive range A-B")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not (args.parent and args.change and args.workload and args.seeds):
        ap.error("--parent, --change, --workload and --seeds are required")

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    runs = {"parent": [], "change": []}
    all_correct = True
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            verdict = run_side(checkouts[side], args.workload, seed, args.seconds)
            if verdict is None or verdict.get("correct") is not True:
                all_correct = False
                print("pair %d seed %d: the %s run failed or is not correct"
                      % (i, seed, side), flush=True)
            else:
                pair[side] = verdict
        if len(pair) < 2:
            continue  # a broken pair stays out of the statistics
        for side in pair:
            runs[side].append(pair[side])
        line = "  ".join(
            "%s %s/%s" % (m["name"], fmt(pair["parent"]["metrics"][m["name"]]["value"]),
                          fmt(pair["change"]["metrics"][m["name"]]["value"]))
            for m in metrics)
        print("pair %d seed %d (%s first), parent/change: %s"
              % (i, seed, order[0], line), flush=True)
    if runs["parent"]:
        report(metrics, runs)
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
