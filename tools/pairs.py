"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/pairs.py PARENT CHANGE --workload inductive --seeds 81-90
    python3 tools/pairs.py PARENT CHANGE --workload exact --seeds 81,83 --seconds 10
    python3 tools/pairs.py PARENT CHANGE --workload inductive,exact,precision --seeds 81-85

PARENT and CHANGE are directories that each hold a checkout of the
repository.  For every workload W of the comma-separated list, in turn, and
every seed the script runs `perfbench/run.py --workload W --seed S
--seconds T` once in each checkout, one after the other, and alternates
which of the two goes first, so that a drift in the machine's speed falls
on both sides alike.  It prints each pair's end-to-end metrics and
failed/attempted counts as it goes.  At the end it prints, for each
workload, a table with per metric the two medians, their ratio, both
interquartile ranges and the number of pairs the change won, and last each
side's failed and attempted operations summed over that workload's pairs,
with the failed share as a percentage, since a larger failed share is a
regression too.  So one command shows whether any metric got worse on any
workload.
Which direction is better comes from CHANGE's `BENCHMARK.json`.  A gain is
resolved when the change wins nearly every pair and the medians differ by
more than the parent's IQR.  The script writes nothing itself; each run
writes its usual records under its own checkout's `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text):
    """'81-90' or '81,83,85' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_workloads(text):
    """'exact' or 'inductive,exact,precision' as a list of names."""
    return [w for w in text.split(",") if w]


def run_once(checkout, workload, seed, seconds):
    """The JSON result line of one benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: {checkout} seed {seed} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def better_of(checkout):
    """metric name -> 'lower' or 'higher', from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def iqr(values):
    """Upper minus lower quartile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs, better):
    """One row per metric of ``better`` found in every result: (name,
    parent median, change median, parent IQR, change IQR, wins, pairs).
    ``pairs`` is a list of {'parent': result, 'change': result}; a win is
    a pair in which the change is strictly better."""
    rows = []
    for name, direction in better.items():
        if not all(name in p[s]["metrics"] for p in pairs for s in SIDES):
            continue
        old = [p["parent"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        rows.append((name, statistics.median(old), statistics.median(new),
                     iqr(old), iqr(new), wins, len(pairs)))
    return rows


def failed_totals(pairs):
    """{side: (failed, attempted)}, each summed over the pairs."""
    return {side: (sum(p[side]["failed"] for p in pairs),
                   sum(p[side]["attempted"] for p in pairs)) for side in SIDES}


def share(failed, attempted):
    """'failed/attempted (percent)', the percentage to one decimal, '-'
    with nothing attempted."""
    percent = f"{failed / attempted:.1%}" if attempted else "-"
    return f"{failed}/{attempted} ({percent})"


def render(rows, totals=None):
    """The summary table; with ``totals`` from ``failed_totals``, a last
    line of each side's failed/attempted and the failed share as a
    percentage."""
    lines = [f"{'metric':18s} {'parent':>12s} {'change':>12s} {'ratio':>8s} "
             f"{'parent IQR':>12s} {'change IQR':>12s} {'wins':>6s}"]
    for name, old, new, old_iqr, new_iqr, wins, count in rows:
        ratio = f"{new / old - 1:+.1%}" if old else "-"
        lines.append(f"{name:18s} {old:12.6g} {new:12.6g} {ratio:>8s} "
                     f"{old_iqr:12.6g} {new_iqr:12.6g} {wins:>3d}/{count}")
    if totals is not None:
        shares = [share(*totals[side]) for side in SIDES]
        lines.append(f"{'failed/attempted':18s} {shares[0]:>12s} "
                     f"{shares[1]:>12s}")
    return lines


def render_pair(index, seed, first, pair, names):
    lines = [f"pair {index} seed {seed} ({first} first)"]
    for side in SIDES:
        r = pair[side]
        values = " ".join(f"{n}={r['metrics'][n]['value']:.6g}"
                          for n in names if n in r["metrics"])
        lines.append(f"  {side:6s} failed {r['failed']}/{r['attempted']} "
                     f"{values}")
    return lines


def run_pairs(checkouts, workload, seeds, seconds, names):
    """The pairs of one workload, {'parent': result, 'change': result} per
    seed, each printed as it completes."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(checkouts[side], workload, seed, seconds)
                for side in order}
        pairs.append(pair)
        print("\n".join(render_pair(i + 1, seed, order[0], pair, names)),
              flush=True)
    return pairs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True, type=parse_workloads,
                   help="one workload or a comma-separated list")
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args(argv)
    better = better_of(args.change)
    checkouts = {"parent": args.parent, "change": args.change}
    results = {}
    for workload in args.workload:
        print(f"workload {workload}", flush=True)
        results[workload] = run_pairs(checkouts, workload, args.seeds,
                                      args.seconds, better)
    for workload, pairs in results.items():
        print(f"\nworkload {workload}")
        print("\n".join(render(summarize(pairs, better),
                               failed_totals(pairs))))


if __name__ == "__main__":
    main()
