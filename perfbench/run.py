"""Benchmark for openwaring: one closed-loop workload per process.

    python3 perfbench/run.py --workload inductive --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run makes its inputs from the seed, sets up (import, inputs, one warm-up
operation) once here and `SETUPS - 1` more times in fresh child processes,
then runs whole rounds of the same operations, one at a time, until
`--seconds` have passed and the workload's minimum number of rounds is done.
Each output is checked by `check.py` against computations made apart from
the program.  The last line of standard output is a JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  `--workload all`
runs every workload, untraced and traced, each in its own process, and
prints every metric with the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: set-ups per run, the first in this process; setup_s is their median
SETUPS = 3

END_TO_END = (("setup_s", "s"), ("decompose_s_p50", "s"),
              ("decompose_s_tail", "s"), ("decompose_per_s", "forms/s"),
              ("verify_s_p50", "s"), ("verify_s_tail", "s"),
              ("terms_mean", "terms"), ("peak_rss_mb", "MB"))


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "openwaring", "__init__.py")):
        raise SystemExit(f"error: no openwaring sources under {SRC}")


def import_program():
    """Import openwaring from this checkout's source tree, and only there."""
    require_sources()
    sys.path.insert(0, SRC)
    ow = importlib.import_module("openwaring")
    importlib.import_module("openwaring.cli")
    if not os.path.abspath(ow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: openwaring was imported from {ow.__file__}")
    return ow


def setup(cal, workload, seed):
    """Import, input generation and one untimed warm-up operation; returns
    the program, the inputs and the set-up's calibrated seconds."""
    t0 = cal.cpu()
    ow = import_program()
    cases = workloads.round_cases(workload, seed, 0)
    workloads.run_case(ow, workloads.WARM_UP[workload], cal.cpu, OUT)
    t1 = cal.cpu()
    return ow, cases, cal.calibrated(t0, t1), t1 - t0


def child_setups(workload, seed, count):
    """Set up again in `count` fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def quantile(values, q):
    """Linear-interpolation quantile; failures enter as +inf."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == float("inf"):
        return xs[hi] if pos > lo else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(workload, seed, seconds, traced):
    os.makedirs(OUT, exist_ok=True)
    tail_pct, min_rounds = workloads.TAIL[workload]
    setups = child_setups(workload, seed, SETUPS - 1)
    with calib.Calibrator() as cal:
        ow, cases, setup_cal, setup_raw = setup(cal, workload, seed)
        setups.append({"cal": setup_cal, "raw": setup_raw})
        tracer = None
        if traced:
            tracer = spans.Tracer(ow, cal.now_ns)
            tracer.install()
        results = []
        deadline = time.perf_counter() + seconds
        rounds = 0
        while (rounds < workloads.TRACED_ROUNDS[workload] if traced else
               rounds < min_rounds or time.perf_counter() < deadline):
            if rounds:
                cases = workloads.round_cases(workload, seed, rounds)
            for case in cases:
                if tracer:
                    tracer.begin_op()
                outcome = workloads.run_case(ow, case, cal.cpu, OUT)
                if tracer:
                    tracer.end_op()
                results.append((case, outcome))
            rounds += 1
        if tracer:
            tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    unexpected = []
    failed = 0
    dec_cal, ver_cal, dec_raw, ver_raw, terms, factors = [], [], [], [], [], []
    busy_cal = 0.0
    inf = float("inf")
    for case, o in results:
        s, e = o.decompose[0], (o.verify or o.decompose)[1]
        factor = cal.factor(s, e)
        factors.append(factor)
        busy_cal += (e - s) * factor
        if o.problems:
            failed += 1
            if workloads.FAULTS.get(case.fault, "\0") not in str(o.problems):
                unexpected.append(f"{case.label}: {'; '.join(o.problems)}")
            for samples in (dec_cal, ver_cal, dec_raw, ver_raw):
                samples.append(inf)
            continue
        dec_raw.append(o.decompose[1] - o.decompose[0])
        ver_raw.append(o.verify[1] - o.verify[0])
        dec_cal.append(dec_raw[-1] * factor)
        ver_cal.append(ver_raw[-1] * factor)
        terms.append(o.terms)
    for line in sorted(set(unexpected)):
        print(f"unexpected failure: {line}", file=sys.stderr)

    q = tail_pct / 100
    e2e = {
        "setup_s": statistics.median(x["cal"] for x in setups),
        "decompose_s_p50": quantile(dec_cal, 0.5),
        "decompose_s_tail": quantile(dec_cal, q),
        "decompose_per_s": len(terms) / busy_cal,
        "verify_s_p50": quantile(ver_cal, 0.5),
        "verify_s_tail": quantile(ver_cal, q),
        "terms_mean": sum(terms) / len(terms),
        "peak_rss_mb": rss_mb,
    }
    raw = {
        "setup_s": statistics.median(x["raw"] for x in setups),
        "decompose_s_p50": quantile(dec_raw, 0.5),
        "decompose_s_tail": quantile(dec_raw, q),
        "verify_s_p50": quantile(ver_raw, 0.5),
        "verify_s_tail": quantile(ver_raw, q),
        "kernel_s_median": statistics.median(cal.kernels),
    }
    summary = {
        "workload": workload, "seed": seed, "rounds": rounds,
        "ops_per_round": len(cases), "tail_percentile": tail_pct,
        "samples": len(results), "op_s_mean": busy_cal / len(results),
        "raw": raw, "setups": setups,
    }
    if tracer:
        values, names = tracer.metrics(factors), spans.METRICS
        tracer.dump(os.path.join(OUT, f"trace-{workload}.tsv.gz"))
    else:
        values, names = e2e, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}
    return {"correct": not unexpected, "attempted": len(results),
            "failed": failed, "metrics": metrics}, summary


def report(result, summary):
    print(f"workload {summary['workload']} seed {summary['seed']}: "
          f"{summary['rounds']} rounds of {summary['ops_per_round']} ops, "
          f"tail = p{summary['tail_percentile']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print("  raw (uncalibrated) " + " ".join(
        f"{k}={v:.6g}" for k, v in summary["raw"].items()))
    print("summary " + json.dumps(summary))


def run_all(seed, seconds):
    """Every workload untraced and traced, each in its own process."""
    correct = True
    attempted = failed = 0
    for workload in workloads.WORKLOADS:
        per_op = {}
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(traced)],
                capture_output=True, text=True, timeout=900, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            summary = json.loads(next(
                l for l in lines if l.startswith("summary "))[8:])
            per_op[traced] = summary["op_s_mean"]
            print(f"{workload} trace={traced}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
            sys.stderr.write(proc.stderr)
            correct &= result["correct"]
            if not traced:
                attempted += result["attempted"]
                failed += result["failed"]
        print(f"{workload} tracing overhead: "
              f"{per_op[1] / per_op[0] - 1:+.1%} calibrated time per operation")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the set-up time (internal)")
    args = p.parse_args(argv)
    require_sources()
    if args.setup_only:
        with calib.Calibrator() as cal:
            _, _, cal_s, raw_s = setup(cal, args.workload, args.seed)
        print(json.dumps({"cal": cal_s, "raw": raw_s}))
        return
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result, summary = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
        report(result, summary)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
