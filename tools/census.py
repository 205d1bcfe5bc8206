"""Run ``chain`` on every small front and summarize the verdicts.

    python tools/census.py N [TREE]

Every event list of 2 to N events in the grammar of ``perfbench/fronts.py``
(read from the checkout this file is in) is enumerated: left cusps open at
any stack position while fewer than six strands exist, crossings and right
cusps act on adjacent strands, and the stack is empty after the last event
(it may empty before).  There are 1, 1, 11, 48 and 491 such lists of 2 to
6 events, and 4,292 of 7.  Each component gets each of the surgery
coefficients +1 and -1, every orientation +, which makes 2,186 diagrams up
to 6 events and 19,088 up to 7.  ``chain --max-len 2 --epsilon 1/100``
runs on each diagram, in this process, with ``reebchords`` imported from
TREE's ``src/`` (TREE defaults to the checkout this file is in).

The summary gives the number of event lists per length, the exit-code
counts, and per kind of diagram (all +1, all -1, mixed) the number of
diagrams, of those with a certified row and of certified rows, a row being
certified as ``certified`` in ``tests/oracles.py`` says.  Its last line is
one sha256 over every diagram's (front, stdout, stderr, exit code), so two
trees' summaries are equal exactly when the command's output is the same
on every diagram.  Each command runs as ``cli_diff.run_command`` runs
it: one that takes more than ``cli_diff.DEADLINE_S`` seconds of CPU time
is recorded as timed out, and an exception that escapes ``main`` with
exit code 1.  The summary names no tree, so two can be compared line by
line.  The tool times nothing.
"""

import hashlib
import itertools
import json
import os
import sys
from collections import Counter

import cli_diff

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]
import fronts  # noqa: E402
from oracles import certified  # noqa: E402

ARGV = ["chain", "--max-len", "2", "--epsilon", "1/100"]
MAX_STRANDS = 6


def event_lists(n):
    """Every event list of exactly n events in the grammar, in a fixed
    order: lists grow one event at a time, kinds in the order L, X, R and
    positions upward."""
    level = [((), 0)]           # (events, strands open)
    for _ in range(n):
        grown = []
        for events, stack in level:
            if stack < MAX_STRANDS:
                grown += [(events + (("L", p),), stack + 2)
                          for p in range(1, stack + 2)]
            for kind, change in (("X", 0), ("R", -2)):
                grown += [(events + ((kind, p),), stack + change)
                          for p in range(1, stack)]
        level = grown
    return [events for events, stack in level if stack == 0]


def diagrams(n):
    """[(front text, kind)] for every event list of 2..n events and every
    +-1 assignment to its components."""
    out = []
    for length in range(2, n + 1):
        for events in event_lists(length):
            comps = range(fronts.count_components(events))
            for signs in itertools.product((1, -1), repeat=len(comps)):
                kind = ("all +1" if min(signs) == 1 else
                        "all -1" if max(signs) == -1 else "mixed")
                out.append((fronts.front_text(events, dict(zip(comps, signs)),
                                              {i: 1 for i in comps}), kind))
    return out


def census(n):
    """[(front text, kind, stdout, stderr, exit code)] of every diagram of
    2..n events."""
    return [(text, kind, *cli_diff.run_command(ARGV, text))
            for text, kind in diagrams(n)]


def certified_rows(stdout):
    """The certified rows of a ``chain`` command's standard output."""
    if not stdout:
        return []
    return [row for row in json.loads(stdout)
            if row.get("good") and row.get("degree") == 1 and certified(row)]


def summary(n, results):
    """The printed lines for ``census(n)``'s results."""
    lists = [len(event_lists(length)) for length in range(2, n + 1)]
    codes = Counter(code for *_, code in results)
    lines = [f"{' '.join(ARGV)} on {len(results)} diagrams of 2..{n} "
             f"events",
             "event lists by length: " + ", ".join(
                 f"{length}: {count}"
                 for length, count in enumerate(lists, start=2)),
             "exit codes: " + ", ".join(f"{code}: {count}" for code, count
                                        in sorted(codes.items(), key=str))]
    digest = hashlib.sha256()
    kinds = {kind: [0, 0, 0] for kind in ("all +1", "all -1", "mixed")}
    for text, kind, out, err, code in results:
        digest.update(json.dumps([text, out, err, code]).encode() + b"\n")
        rows = len(certified_rows(out)) if code == 0 else 0
        kinds[kind][0] += 1
        kinds[kind][1] += rows > 0
        kinds[kind][2] += rows
    for kind, (count, hit, rows) in kinds.items():
        lines.append(f"{kind}: {count} diagrams, {hit} with a certified "
                     f"row, {rows} certified rows")
    lines.append(f"sha256 {digest.hexdigest()}")
    return lines


def main(argv):
    if len(argv) not in (1, 2) or not argv[0].isdigit() or int(argv[0]) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tree = os.path.abspath(argv[1] if len(argv) == 2 else ROOT)
    sys.path.insert(0, os.path.join(tree, "src"))
    n = int(argv[0])
    for line in summary(n, census(n)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
