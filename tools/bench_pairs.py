"""Run the benchmark in alternating pairs on two source trees.

    python tools/bench_pairs.py A B --workload W --pairs N [--seed S]

A and B are source checkouts, each with its own ``perfbench/`` and
``src/reebchords``; A is the parent, B the change.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds 40 --trace 0`` (S is 1
unless given, so a claim can be checked on a seed it was not made on) once in
each tree, from that tree's root, with A first in odd pairs and B first
in even ones, so neither tree always runs first.  Every run has
``PYTHONDONTWRITEBYTECODE=1`` set, and each ``__pycache__`` directory of
both trees is deleted before it, so no run reads bytecode that an earlier
run wrote.

For each end-to-end metric of ``BENCHMARK.json`` (read from the checkout
this file is in, and never written) it prints A's and B's medians, the
interquartile ranges of A's runs and of B's, B's change against A's
median, the number of pairs in which B did better than A, the change
over the metric's bound and the verdict of the claim rule (``verdict``).
A change is positive when B is better; a change over bound at -1 or below
is a median worse than the bound allows.  A run that exits non-zero stops
the pairs, with its standard error; the exit code is then 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def drop_bytecode(tree):
    """Delete every ``__pycache__`` directory under ``tree``."""
    for root, dirs, _files in os.walk(tree):
        if ".git" in dirs:
            dirs.remove(".git")
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(root, "__pycache__"))
            dirs.remove("__pycache__")


def run_once(tree, workload, seed, trees):
    """The last output line of one benchmark run in ``tree``, as JSON, or
    None after printing why the run failed."""
    for t in trees:
        drop_bytecode(t)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "40", "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run in {tree} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartile_range(values):
    """Upper minus lower quartile, inclusive method; 0 for one value."""
    if len(values) < 2:
        return 0.0
    lower, _median, upper = statistics.quantiles(values, n=4,
                                                 method="inclusive")
    return upper - lower


def verdict(change, spread, wins, pairs, bound):
    """The claim rule's reading of one metric, from B's median change
    against A's (positive when B is better) and A's interquartile range,
    both as fractions of A's median, and the pairs in which B did better:
    "worse" when the change is -bound or below, "unresolved" when the
    spread exceeds the bound, "gain" when B did better in at least 9 of
    every 10 pairs and the change exceeds the spread, else "within"."""
    if change <= -bound:
        return "worse"
    if spread > bound:
        return "unresolved"
    if 10 * wins >= 9 * pairs and change > spread:
        return "gain"
    return "within"


def summary(metrics, runs_a, runs_b):
    """Printable lines, one per metric of ``BENCHMARK.json``."""
    lines = [f"{'metric':14} {'unit':5} {'A median':>10} {'B median':>10} "
             f"{'A IQR':>9} {'B IQR':>9} {'change':>8} {'B wins':>7} "
             f"{'bound':>6} {'chg/bound':>9} {'verdict':>10}"]
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        a = [r["metrics"][name]["value"] for r in runs_a]
        b = [r["metrics"][name]["value"] for r in runs_b]
        med_a, med_b = statistics.median(a), statistics.median(b)
        iqr_a = quartile_range(a)
        change = sign * (med_b - med_a) / med_a if med_a else 0.0
        spread = iqr_a / med_a if med_a else 0.0
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        reading = verdict(change, spread, wins, len(a), m["bound"])
        lines.append(f"{name:14} {m['unit']:5} {med_a:10.4g} {med_b:10.4g} "
                     f"{iqr_a:9.3g} {quartile_range(b):9.3g} "
                     f"{change:+8.2%} {wins:>3}/{len(a):<3} {m['bound']:6.2f} "
                     f"{change / m['bound']:+9.2f} {reading:>10}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="the parent's source tree")
    parser.add_argument("b", help="the change's source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    trees = [os.path.abspath(args.a), os.path.abspath(args.b)]
    runs = [[], []]
    for k in range(1, args.pairs + 1):
        for t in ((0, 1) if k % 2 else (1, 0)):
            result = run_once(trees[t], args.workload, args.seed, trees)
            if result is None:
                return 1
            runs[t].append(result)
        print(f"pair {k} ({'AB' if k % 2 else 'BA'}): " + ", ".join(
            f"{m['name']} {runs[0][-1]['metrics'][m['name']]['value']:.4g}"
            f" vs {runs[1][-1]['metrics'][m['name']]['value']:.4g}"
            for m in metrics), flush=True)
    failed = [sum(r["failed"] for r in side) for side in runs]
    correct = all(r["correct"] for side in runs for r in side)
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs, "
          f"all correct: {correct}, "
          f"failed commands A {failed[0]}, B {failed[1]}")
    for line in summary(metrics, *runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
