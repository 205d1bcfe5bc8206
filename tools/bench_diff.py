"""Compare two committed benchmark files side by side.

    python tools/bench_diff.py OLD.json NEW.json

OLD and NEW are ``BENCH_*.json`` files: ``{"about": ..., "runs": {name:
record}}``, one record per perfbench run named
``<workload>-seed<N>-trace<T>``, each with the run's ``metrics`` as
``{name: {"value", "unit"}}``.  For each run of OLD, in its order, this
prints the end-to-end metrics of a ``--trace 0`` run, or the per-layer
self seconds (``.s``) and call counts (``.calls``) of a ``--trace 1`` run,
one line each: the name, the unit, OLD's value, NEW's (from NEW's run of
the same name) and NEW / OLD.  Equal values have ratio 1, zeros included;
the ratio is ``-`` where NEW lacks the metric or only OLD's value is 0.
Standard library only; it imports nothing from the project.
"""

import json
import sys


def rows(old, new):
    """[(run name, [(metric, unit, old value, new value, ratio)])] for the
    runs of OLD, trace 0 runs whole and trace 1 runs by layer."""
    out = []
    for run, record in old["runs"].items():
        theirs = new["runs"].get(run, {}).get("metrics", {})
        lines = []
        for name, metric in record["metrics"].items():
            if run.endswith("trace1") and \
                    not name.endswith((".s", ".calls")):
                continue
            a = metric["value"]
            b = theirs.get(name, {}).get("value")
            ratio = 1.0 if a == b else b / a if b is not None and a \
                else None
            lines.append((name, metric["unit"], a, b, ratio))
        out.append((run, lines))
    return out


def number(value):
    if value is None:
        return "-"
    return str(value) if isinstance(value, int) else f"{value:.4g}"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path) as fh:
            files.append(json.load(fh))
    for run, lines in rows(*files):
        print(f"== {run}")
        for name, unit, a, b, ratio in lines:
            print(f"   {name:42} {unit:8} {number(a):>10} {number(b):>10}"
                  f" {'-' if ratio is None else f'{ratio:.3f}':>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
