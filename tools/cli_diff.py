"""Compare the CLI's output under two source trees.

    python tools/cli_diff.py SRC_A SRC_B

SRC_A and SRC_B are source checkouts (each with a ``src/reebchords``).  One
list of commands runs under each tree, in one Python process per tree that
imports ``reebchords`` from that tree's ``src/``; the two processes run at
the same time.  For every command the standard output, the standard error
and the exit code are compared.  Each difference is printed, and the exit
code is 1 if there is any, else 0.

The commands, each run once:

* every item of the perfbench corpora at seeds 1-3, read from
  ``perfbench/corpus.py`` of the checkout this file is in;
* ``invariants``, ``chain --max-len 1 --epsilon 1/100`` and
  ``grading --max-len 2`` on the 2-copy of the tb = 1 trefoil (+1 surgery
  on two Reeb push-offs of it) and on its 3-copy, and ``chain --max-len 1
  --epsilon 1/100`` on its 4-copy: eight commands in all.  The
  ``grading`` commands push orbits out on diagrams of 24 and 51 events,
  and the 4-copy has 88; the corpora's fronts have at most 15.  The
  copies are those of ``k_copy`` in ``tests/oracles.py``.

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
        ("3-copy invariants", ["invariants"], TREFOIL_3_COPY),
        ("3-copy grading", ["grading", "--max-len", "2"], TREFOIL_3_COPY),
        ("3-copy chain", chain, TREFOIL_3_COPY),
        ("4-copy chain", chain, TREFOIL_4_COPY),
    ]
    return out


class Timeout(BaseException):
    """Raised by SIGPROF inside a command; not an ``Exception``, so that no
    handler in the program can catch it."""


def _expired(signum, frame):
    raise Timeout()


def worker(src):
    """Run the commands read as JSON from standard input under the tree
    ``src``; print one [stdout, stderr, exit code] per command as JSON."""
    sys.path.insert(0, os.path.join(src, "src"))
    from reebchords.cli import main

    cmds = json.load(sys.stdin)
    real_stdout = sys.stdout
    signal.signal(signal.SIGPROF, _expired)
    results = []
    for _name, argv, front in cmds:
        sys.stdin = io.StringIO(front)
        out, err = io.StringIO(), io.StringIO()
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
        results.append([out.getvalue(), err.getvalue(), code])
    json.dump(results, real_stdout)


def run_tree(src, cmds):
    """Start the worker process of one tree; returns the Popen."""
    boot = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import cli_diff; cli_diff.worker(sys.argv[2])")
    proc = subprocess.Popen([sys.executable, "-c", boot, HERE, src],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    proc.stdin.write(json.dumps(cmds))
    proc.stdin.close()
    return proc


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


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    cmds = commands()
    procs = [run_tree(os.path.abspath(src), cmds) for src in argv]
    results = []
    for src, proc in zip(argv, procs):
        out = proc.stdout.read()
        if proc.wait() != 0:
            print(f"worker for {src} failed", file=sys.stderr)
            return 2
        results.append(json.loads(out))
    lines = differences(cmds, *results)
    for line in lines:
        print(line)
    n_diff = sum(1 for line in lines if line.startswith("== "))
    print(f"{len(cmds)} commands, {n_diff} with differences")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
