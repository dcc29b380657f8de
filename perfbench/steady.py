#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs agree.

    python3 perfbench/steady.py --workload cold_start [--runs 10]
                                [--first-seed 1] [--seconds S]
    python3 perfbench/steady.py --workload warm_serve --overhead [--runs 3]

Runs one workload in two sets of `--runs` runs, each run with its own seed
(the first set uses seeds first_seed .. first_seed+runs-1, the second the
next `runs` seeds), through perfbench/run.py. For every end-to-end metric
in BENCHMARK.json it prints each set's median and its spread (distance
between the first and third quartile, as statistics.quantiles(n=4) gives
them, as a share of the median), and says whether the sets agree: both
spreads within the metric's bound, the two medians apart by no more than
the bound (either way, as a share of the first), and the same share of
failed operations in every run. Exits 0 when they agree, 1 when not.

With --overhead it instead runs each seed untraced and traced and prints,
per end-to-end metric, the median change the tracing causes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """Returns the last JSON line of a run, plus the line before it for a
    traced run (the traced run's own end-to-end figures)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"run failed: {workload} seed {seed} trace {trace} "
                 f"(exit {proc.returncode})")
    return [json.loads(l) for l in lines]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_sets(spec, workload, runs, first_seed, seconds):
    results = ([], [])
    for k, batch in enumerate(results):
        for i in range(runs):
            seed = first_seed + k * runs + i
            result = run_once(workload, seed, seconds, 0)[-1]
            if not result["correct"]:
                sys.exit(f"seed {seed}: run reported correct=false")
            batch.append(result)
            print(f"  set {k + 1} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)

    ok = True
    flat = [r["failed"] / r["attempted"] for batch in results for r in batch]
    same_share = all(s == flat[0] for s in flat)
    print(f"\nfailed share: {sorted(set(flat))} -> "
          f"{'same in every run' if same_share else 'DIFFERS'}")
    ok &= same_share
    print(f"{'metric':<24}{'bound':>7}{'median1':>14}{'spread1':>9}"
          f"{'median2':>14}{'spread2':>9}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians, spreads = [], []
        for batch in results:
            values = [r["metrics"][name]["value"] for r in batch]
            medians.append(statistics.median(values))
            spreads.append(spread(values))
        verdict = []
        if any(s > bound for s in spreads):
            verdict.append("spread above bound")
        if abs(medians[1] - medians[0]) / medians[0] > bound:
            verdict.append("medians disagree")
        if any(s > bound / 3 for s in spreads):
            verdict.append("(spread above bound/3)")
        ok &= not any(not v.startswith("(") for v in verdict)
        print(f"{name:<24}{bound:>7.3f}" + "".join(
            f"{m:>14.6g}{s:>9.4f}" for m, s in zip(medians, spreads)) +
            "  " + ("; ".join(verdict) or "agree"))
    print("\nsteady" if ok else "\nNOT steady")
    return ok


def overhead(spec, workload, runs, first_seed, seconds):
    plain, traced = {}, {}
    for i in range(runs):
        seed = first_seed + i
        untraced = run_once(workload, seed, seconds, 0)[-1]
        lines = run_once(workload, seed, seconds, 1)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            plain.setdefault(name, []).append(
                untraced["metrics"][name]["value"])
            traced.setdefault(name, []).append(
                lines[-2]["metrics"][name]["value"])
    print(f"{'metric':<24}{'untraced':>14}{'traced':>14}{'change':>9}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a, b = statistics.median(plain[name]), statistics.median(traced[name])
        print(f"{name:<24}{a:>14.6g}{b:>14.6g}{(b - a) / a:>+9.1%}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    if args.overhead:
        overhead(spec, args.workload, args.runs, args.first_seed, args.seconds)
        return
    if args.runs < 2:
        sys.exit("--runs must be at least 2 (quartiles need two values)")
    ok = check_sets(spec, args.workload, args.runs, args.first_seed,
                    args.seconds)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
