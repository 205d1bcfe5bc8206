"""Compare the CLI's output under two source trees.

    python tools/cli_diff.py SRC_A SRC_B

SRC_A and SRC_B are source checkouts (each with a ``src/reebchords``).  One
list of commands runs under each tree, once, in one Python worker process
per tree that imports ``reebchords`` from that tree's ``src/``.  For every
command the standard output, the standard error and the exit code under
the two trees are compared.  Each difference is printed, and the exit code
is 1 if there is any, else 0; it is 2 when a worker fails.  The summary
also gives the line count of ``src/reebchords/*.py`` in each tree, as
``wc -l`` totals it, then one line per module whose count differs, with
both counts (0 where the tree has no such module).  The tool compares
outputs only; it times nothing.

The commands:

* every item of the perfbench corpora at seeds 1-3, read from
  ``perfbench/corpus.py`` of the checkout this file is in;
* ``invariants``, ``chain --max-len 1 --epsilon 1/100`` and
  ``grading --max-len 2`` on the 2-copy of the tb = 1 trefoil (+1 surgery
  on two Reeb push-offs of it) and on its 3-copy, ``invariants`` and
  ``chain --max-len 1 --epsilon 1/100`` on its 4-copy, the same ``chain``
  on its 5-copy, and ``chain --max-len 2 --epsilon 1/100`` on the 2- and
  3-copy: eleven commands.  The ``grading`` commands push orbits out on
  diagrams of 24 and 51 events, the 4-copy has 88 and the 5-copy 135; the
  corpora's fronts have at most 15.  Of the ``chain --max-len 1`` commands the
  5-copy's solves the most branch and bound LPs, ten, each infeasible.
  The 4-copy's ``invariants`` lists every face's corners on the largest
  diagram an ``invariants`` command meets.  The 2-copy's ``chain
  --max-len 2`` has rows whose search stops at ``MAX_NODES``
  (``"truncated": "nodes"``) and rows cut at ``MAX_SURVIVORS``, so its
  output pins both work bounds; no corpus row stops at ``MAX_NODES``.  The
  3-copy's lists 1,740 survivors, and also stops at both bounds; 12 of
  them, on its 18 rows under the intersection-grading filter, carry their
  grading differences, read back from the search's packed states over
  this 51-event front's face rows.  It takes about 2-3.5 CPU s a run.
  The copies are those of ``k_copy`` in ``tests/oracles.py``;
* ``invariants`` and ``chain --max-len 1 --epsilon 1/100`` on the
  cancelling 2-copy, the 2-copy with -1 surgery on one copy, in both
  orders: four commands.  Contact +1 surgery on a knot and -1 on its
  push-off cancel (Ding-Geiges), so these diagrams are S^3 with its
  standard contact structure, whose contact homology is not zero; with
  the 2-copy's own two such commands above (contact 1/2 surgery, whose
  contact homology is zero) they are the discriminating pair of ROADMAP
  item 22;
* ``homology --max-len 1`` on the 3-, 4- and 5-copy: three commands.
  Their H1 presentations are 3x3 to 5x5, and these commands pin the
  class coordinates that the Smith form's U fixes on them;
* ``cz --max-len 3`` and ``homology --max-len 3`` on the trefoil with +1
  and with -1 surgery, on the Hopf link with +1 and -1 surgery, on the
  2-copy, and on the stabilized unknot with +1 surgery in both
  orientations: fourteen commands.  Besides ``grading`` and ``chain``
  these are the commands that read capping rotations and crossing counts.
  The stabilized unknot has rotation number -1 and +1, so its capping
  rotations take the cut term of ``FrontCode.capping_rotation``; the other
  fronts of these commands have rotation number 0;
* ``cz --max-len 12`` on the Hopf link with +1 and -1 surgery and on the
  stabilized unknot with +1 surgery and orientation -, of rotation number
  +1: two
  commands of 801 words each, whose return-map traces reach degree 12
  and the largest coefficients of these fronts, so the traces unpacked
  from the words' packed rows are pinned at that length;
* ``cz --max-len 40`` on the unknot with +1 and with -1 surgery: two
  commands of 40 words each, one per length, whose traces reach degree
  40 and coefficients up to 47,720,400, so the packed rows are pinned
  far past every other command's length (12 at most);
* ``chain --max-len 3 --epsilon 1/100`` on T(2,9) and on T(2,3) with -1
  surgery: two commands whose generators repeat candidate searches, 37
  rows asking 6 distinct questions and 13 rows asking 6, so the rows
  that share a search are pinned; the corpora's T(2,5) -1 is the other
  such front;
* ``grading --max-len 3`` and ``chain --max-len 3 --epsilon 1/100`` on two
  split links with +1 surgery on both components, trefoil and trefoil
  (H1 = Z/2 + Z/2) and trefoil and T(2,5) (H1 = Z/2 + Z/4): four
  commands.  There the exponent of H1, the one denominator of the fiber
  vectors, differs from the order of H1;
* ``chain --max-len 3 --epsilon 3/700`` on the trefoil and on the Hopf
  link with +1 surgery: two commands.  Every other ``chain`` command runs
  at epsilon = 1/100, where each orbit step's factor p, the numerator of
  epsilon = p/q, is 1; here it is 3, so the orbit embeddings and actions
  are pinned at a p other than 1;
* ``parse``, ``quiver`` and ``orbits --max-len 2`` under ``--format tsv``
  and ``--format md`` on the seven diagrams of ``tests/conftest.py`` (the
  trefoil and the unknot with +1 and with -1 surgery, the stabilized
  unknot with +1 surgery and orientation -, the Hopf link with +1 on both
  components and with 0 and +1), ``quiver`` on the 2-copy, and ``chords
  --max-len 3`` in both formats on the Hopf link with 0 and +1, its one
  diagram with a zero-coefficient sublink: 31 commands.  No other command
  reads ``quiver`` output or the tsv and md rows, and the corpora hold no
  ``parse`` command;
* nine commands that exit 2, so that error messages and exit codes are
  compared too: ``chain --max-len 2`` with no ``--epsilon`` on the
  trefoil with +1 surgery, ``orbits`` at ``--max-len`` 0 and 65 (past
  ``MAX_WORD_LENGTH``) on the unknot with -1, ``grading --max-len 2`` on
  the unknot with +1 (H1 = Z), ``orbits --max-len 2`` on the unknot with
  coefficient 0, ``chords --max-len 2`` on the unknot with +1, and
  ``parse`` on ``L1,X1``, on a surgery block that names component 0 twice
  and on a JSON front with a repeated ``events`` key;
* ``invariants`` on the stabilized unknot with +1 surgery and orientation
  -, written as a JSON object with events as [kind, position] pairs: the
  one command that runs to the end on a JSON front.

Each command runs as ``reebchords.cli.main(argv + ["--input", "-"])`` with
the front on standard input.  A command that takes more than
``DEADLINE_S`` seconds of CPU time is stopped and recorded as timed out, and
an exception that escapes ``main`` is recorded with exit code 1.
"""

import contextlib
import difflib
import io
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SEEDS = (1, 2, 3)
DEADLINE_S = 60

TREFOIL = "L1,L3,X2,X2,X2,R1,R1 / surgery {{0:{}}}"
UNKNOT = "L1,R1 / surgery {{0:{}}}"
HOPF_PLUS_MINUS = "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:-1}"
HOPF_PLUS_PLUS = "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:+1}"
STABILIZED_UNKNOT = "L1,L2,R1,R1 / surgery {{0:+1}} / orientations {{0:{}}}"
TREFOIL_2_COPY = ("L1,L1,X2,L5,L5,X6,X4,X3,X5,X4,X4,X3,X5,X4,X4,X3,X5,X4,"
                  "X2,R1,R1,X2,R1,R1 / surgery {0:+1, 1:+1}")
TREFOIL_3_COPY = ("L1,L1,L1,X2,X4,X3,L7,L7,L7,X8,X10,X9,X6,X5,X4,X7,X6,X5,"
                  "X8,X7,X6,X6,X5,X4,X7,X6,X5,X8,X7,X6,X6,X5,X4,X7,X6,X5,"
                  "X8,X7,X6,X3,X2,X4,R1,R1,R1,X3,X2,X4,R1,R1,R1 "
                  "/ surgery {0:+1, 1:+1, 2:+1}")
TREFOIL_4_COPY = ("L1,L1,L1,L1,X2,X4,X3,X6,X5,X4,L9,L9,L9,L9,X10,X12,X11,"
                  "X14,X13,X12,X8,X7,X6,X5,X9,X8,X7,X6,X10,X9,X8,X7,X11,"
                  "X10,X9,X8,X8,X7,X6,X5,X9,X8,X7,X6,X10,X9,X8,X7,X11,X10,"
                  "X9,X8,X8,X7,X6,X5,X9,X8,X7,X6,X10,X9,X8,X7,X11,X10,X9,"
                  "X8,X4,X3,X2,X5,X4,X6,R1,R1,R1,R1,X4,X3,X2,X5,X4,X6,R1,"
                  "R1,R1,R1 "
                  "/ surgery {0:+1, 1:+1, 2:+1, 3:+1}")
TREFOIL_5_COPY = ("L1,L1,L1,L1,L1,X2,X4,X3,X6,X5,X4,X8,X7,X6,X5,L11,L11,L11,"
                  "L11,L11,X12,X14,X13,X16,X15,X14,X18,X17,X16,X15,X10,X9,X8,"
                  "X7,X6,X11,X10,X9,X8,X7,X12,X11,X10,X9,X8,X13,X12,X11,X10,"
                  "X9,X14,X13,X12,X11,X10,X10,X9,X8,X7,X6,X11,X10,X9,X8,X7,"
                  "X12,X11,X10,X9,X8,X13,X12,X11,X10,X9,X14,X13,X12,X11,X10,"
                  "X10,X9,X8,X7,X6,X11,X10,X9,X8,X7,X12,X11,X10,X9,X8,X13,"
                  "X12,X11,X10,X9,X14,X13,X12,X11,X10,X5,X4,X3,X2,X6,X5,X4,"
                  "X7,X6,X8,R1,R1,R1,R1,R1,X5,X4,X3,X2,X6,X5,X4,X7,X6,X8,R1,"
                  "R1,R1,R1,R1 "
                  "/ surgery {0:+1, 1:+1, 2:+1, 3:+1, 4:+1}")
T29 = "L1,L3," + "X2," * 9 + "R1,R1 / surgery {0:-1}"
# the seven diagrams of tests/conftest.py
FIXTURES = (("trefoil +1", TREFOIL.format("+1")),
            ("trefoil -1", TREFOIL.format("-1")),
            ("unknot +1", UNKNOT.format("+1")),
            ("unknot -1", UNKNOT.format("-1")),
            ("stab unknot -", STABILIZED_UNKNOT.format("-")),
            ("hopf ++", HOPF_PLUS_PLUS),
            ("hopf 0+", "L1,L3,X2,X2,R1,R1 / surgery {0:0, 1:+1}"))
SPLIT_TREFOILS = ("L1,L3,X2,X2,X2,R1,R1,L1,L3,X2,X2,X2,R1,R1 "
                  "/ surgery {0:+1, 1:+1}")
SPLIT_TREFOIL_T25 = ("L1,L3,X2,X2,X2,R1,R1,L1,L3,X2,X2,X2,X2,X2,R1,R1 "
                     "/ surgery {0:+1, 1:+1}")


def commands():
    """[(name, argv, front)], without repeats, in a fixed order."""
    sys.path.insert(0, PERFBENCH)
    import corpus

    out = []
    seen = set()
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            for item in corpus.build(workload, seed):
                key = (tuple(item["argv"]), item["front"])
                if key not in seen:
                    seen.add(key)
                    out.append((f"{workload}: {item['name']}", item["argv"],
                                item["front"]))
    chain = ["chain", "--max-len", "1", "--epsilon", "1/100"]
    out += [
        ("2-copy invariants", ["invariants"], TREFOIL_2_COPY),
        ("2-copy chain", chain, TREFOIL_2_COPY),
        ("2-copy grading", ["grading", "--max-len", "2"], TREFOIL_2_COPY),
        ("2-copy chain len2",
         ["chain", "--max-len", "2", "--epsilon", "1/100"], TREFOIL_2_COPY),
        ("3-copy invariants", ["invariants"], TREFOIL_3_COPY),
        ("3-copy grading", ["grading", "--max-len", "2"], TREFOIL_3_COPY),
        ("3-copy chain", chain, TREFOIL_3_COPY),
        ("3-copy chain len2",
         ["chain", "--max-len", "2", "--epsilon", "1/100"], TREFOIL_3_COPY),
        ("4-copy invariants", ["invariants"], TREFOIL_4_COPY),
        ("4-copy chain", chain, TREFOIL_4_COPY),
        ("5-copy chain", chain, TREFOIL_5_COPY),
    ]
    for surgery in ("{0:+1, 1:-1}", "{0:-1, 1:+1}"):
        front = TREFOIL_2_COPY.replace("{0:+1, 1:+1}", surgery)
        out += [(f"2-copy {surgery} invariants", ["invariants"], front),
                (f"2-copy {surgery} chain", chain, front)]
    for k, front in ((3, TREFOIL_3_COPY), (4, TREFOIL_4_COPY),
                     (5, TREFOIL_5_COPY)):
        out.append((f"{k}-copy homology", ["homology", "--max-len", "1"],
                    front))
    for name, front in (("trefoil +1", TREFOIL.format("+1")),
                        ("trefoil -1", TREFOIL.format("-1")),
                        ("hopf +-", HOPF_PLUS_MINUS),
                        ("2-copy", TREFOIL_2_COPY),
                        ("stab unknot +", STABILIZED_UNKNOT.format("+")),
                        ("stab unknot -", STABILIZED_UNKNOT.format("-"))):
        for command in ("cz", "homology"):
            out.append((f"{name} {command}", [command, "--max-len", "3"],
                        front))
    for name, front in (("hopf +-", HOPF_PLUS_MINUS),
                        ("stab unknot -", STABILIZED_UNKNOT.format("-"))):
        out.append((f"{name} cz len12", ["cz", "--max-len", "12"], front))
    for sign in ("+1", "-1"):
        out.append((f"unknot {sign} cz len40", ["cz", "--max-len", "40"],
                    UNKNOT.format(sign)))
    for name, front in (("T(2,9) -1", T29),
                        ("trefoil -1", TREFOIL.format("-1"))):
        out.append((f"{name} chain len3",
                    ["chain", "--max-len", "3", "--epsilon", "1/100"], front))
    for name, front in (("trefoil + trefoil", SPLIT_TREFOILS),
                        ("trefoil + T(2,5)", SPLIT_TREFOIL_T25)):
        out += [(f"{name} grading", ["grading", "--max-len", "3"], front),
                (f"{name} chain",
                 ["chain", "--max-len", "3", "--epsilon", "1/100"], front)]
    for name, front in (("trefoil +1", TREFOIL.format("+1")),
                        ("hopf ++", HOPF_PLUS_PLUS)):
        out.append((f"{name} chain len3 eps 3/700",
                    ["chain", "--max-len", "3", "--epsilon", "3/700"], front))
    for name, front in FIXTURES:
        out += [(f"{name} parse", ["parse"], front),
                (f"{name} quiver", ["quiver"], front)]
        for fmt in ("tsv", "md"):
            out.append((f"{name} orbits {fmt}",
                        ["orbits", "--max-len", "2", "--format", fmt], front))
    out.append(("2-copy quiver", ["quiver"], TREFOIL_2_COPY))
    for fmt in ("tsv", "md"):
        out.append((f"hopf 0+ chords {fmt}",
                    ["chords", "--max-len", "3", "--format", fmt],
                    FIXTURES[-1][1]))
    out += [
        ("trefoil +1 chain without epsilon", ["chain", "--max-len", "2"],
         TREFOIL.format("+1")),
        ("unknot -1 orbits len0", ["orbits", "--max-len", "0"],
         UNKNOT.format("-1")),
        ("unknot -1 orbits len65", ["orbits", "--max-len", "65"],
         UNKNOT.format("-1")),
        ("unknot +1 grading", ["grading", "--max-len", "2"],
         UNKNOT.format("+1")),
        ("unknot 0 orbits", ["orbits", "--max-len", "2"], UNKNOT.format("0")),
        ("unknot +1 chords", ["chords", "--max-len", "2"],
         UNKNOT.format("+1")),
        ("open strands parse", ["parse"], "L1,X1"),
        ("repeated surgery parse", ["parse"],
         "L1,R1 / surgery {0:+1, 0:-1}"),
        ("repeated JSON key parse", ["parse"],
         '{"events": ["L1", "R1"], "events": ["L1", "R1"]}'),
        ("stab unknot - JSON invariants", ["invariants"],
         '{"events": [["L", 1], ["L", 2], ["R", 1], ["R", 1]], '
         '"surgery": {"0": 1}, "orientations": {"0": "-"}}'),
    ]
    return out


class Timeout(BaseException):
    """Raised by SIGPROF inside a command; not an ``Exception``, so that no
    handler in the program can catch it."""


def _expired(signum, frame):
    raise Timeout()


def run_command(argv, front):
    """[stdout, stderr, exit code] of ``main(argv + ["--input", "-"])`` of
    the ``reebchords.cli`` first on ``sys.path``, with ``front`` on
    standard input.  A command is stopped after ``DEADLINE_S`` seconds of
    CPU time and recorded as timed out; an exception that escapes ``main``
    is recorded with exit code 1."""
    from reebchords.cli import main

    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(front)
    handler = signal.signal(signal.SIGPROF, _expired)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_PROF, DEADLINE_S)
        try:
            code = main(argv + ["--input", "-"])
        except Timeout:
            code = f"timed out after {DEADLINE_S} s"
        except Exception as exc:      # an escape is a result too
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, handler)
            sys.stdin = stdin
    return [out.getvalue(), err.getvalue(), code]


def worker(src):
    """Run the commands of the JSON list [[name, argv, front], ...] on
    standard input under the tree ``src``; print one JSON list of their
    results (``run_command``)."""
    sys.path.insert(0, os.path.join(src, "src"))
    cmds = json.load(sys.stdin)
    json.dump([run_command(argv, front) for _name, argv, front in cmds],
              sys.stdout)


def run_tree(src, cmds):
    """The results of ``cmds`` under the tree ``src``, one worker process
    for them all, or None when the worker failed."""
    boot = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import cli_diff; cli_diff.worker(sys.argv[2])")
    done = subprocess.run([sys.executable, "-c", boot, HERE, src],
                          input=json.dumps(cmds), capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout)


def differences(cmds, res_a, res_b):
    """Printable lines, one block per command whose results differ."""
    lines = []
    for (name, argv, _front), a, b in zip(cmds, res_a, res_b):
        if a == b:
            continue
        lines.append(f"== {name}: {' '.join(argv)}")
        for field, va, vb in zip(("stdout", "stderr", "exit code"), a, b):
            if va == vb:
                continue
            if field == "exit code":
                lines.append(f"   exit code: {va} vs {vb}")
                continue
            diff = list(difflib.unified_diff(
                va.splitlines(), vb.splitlines(), "A", "B", lineterm="",
                n=1))
            lines.append(f"   {field}:")
            lines += ["     " + d for d in diff[:40]]
            if len(diff) > 40:
                lines.append(f"     ... {len(diff) - 40} more diff lines")
    return lines


def src_lines(src):
    """{file name: line count} of the tree's ``src/reebchords/*.py``."""
    pkg = os.path.join(src, "src", "reebchords")
    counts = {}
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                counts[name] = fh.read().count(b"\n")
    return counts


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    cmds = commands()
    results = [run_tree(os.path.abspath(src), cmds) for src in argv]
    if None in results:
        print("a worker failed", file=sys.stderr)
        return 2
    lines = differences(cmds, *results)
    for line in lines:
        print(line)
    n_diff = sum(1 for line in lines if line.startswith("== "))
    print(f"{len(cmds)} commands, {n_diff} with differences")
    base, change = map(src_lines, argv)
    print(f"src lines: base {sum(base.values())}, "
          f"change {sum(change.values())}")
    for name in sorted(base.keys() | change.keys()):
        if base.get(name) != change.get(name):
            print(f"  {name}: base {base.get(name, 0)}, "
                  f"change {change.get(name, 0)}")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
