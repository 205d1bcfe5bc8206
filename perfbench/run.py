"""Closed-loop benchmark of the reebchords CLI.

    python3 perfbench/run.py --workload realize --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports ``reebchords`` from its
``src/``.  One process, one thread, one command at a time: each command is
``reebchords.cli.main(argv + ["--input", "-"])`` with the front text on
standard input and standard output captured, and the next starts when it
returns.  Times are CPU seconds of this one thread, scaled to a reference
speed (below): the program never waits, and in a shared virtual machine
the wall time also counts the moments the host runs something else.  A
command that runs longer than its deadline is stopped by ``SIGPROF`` and
counted as failed; the time it used is charged to every timing, so a later
fix that lets it finish can only lower them.  A command that timed out is
not run again in later passes: each later pass charges it the same time.
A command that exits non-zero aborts the run like a failed check, unless
it is one that did not finish where ``digests.json`` was pinned; then it
is counted as failed.

The number of passes is ``round(seconds / PASS_S[workload])``, a function
of ``--seconds`` alone, so every commit is measured on the same number of
commands and the tail percentile stays the same percentile.

Every timing is reported in seconds at a fixed reference speed: right
before and right after each command the benchmark times ``reference()``, a
fixed piece of pure-Python work of the program's kind, and scales the
command's CPU seconds by ``REF_S`` over the mean of the two.  A shared
virtual machine can take 70 % more CPU time for the same work in some
seconds or minutes than in others; the reference, timed next to the
command, moves with it.  Deadlines are in the same reference seconds.  The
unscaled CPU seconds are kept in the record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then one pass with every public ``reebchords`` function
wrapped (see ``spans.py``), and prints the per-layer metrics and the
tracing overhead.  Each run also writes a full record, including the
corpus text, to ``.bench_out/`` in the checkout.  The last line of standard
output is one JSON object; any failed correctness check exits with code 1
before printing it.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")

sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
from spans import Tracer  # noqa: E402

# seconds at the reference speed a command may run; only search is meant
# to reach it, the others only guard against a hang
DEADLINE_S = {"realize": 60.0, "orbit_tables": 60.0, "search": 4.0}
# --seconds per pass: realize and orbit_tables have enough commands for
# their tail percentiles in one pass; search has eight commands, five of
# which time out and are charged, not rerun, in later passes, and needs
# three passes for a tail percentile above its median
PASS_S = {"realize": 40.0, "orbit_tables": 40.0, "search": 13.0}
SETUP_SPAWNS = 7
# CPU seconds that reference() takes at the reference speed: a unit, close
# to what it takes on the 2-vCPU Intel Xeon virtual machine the bounds were
# set on in its slower phases
REF_S = 0.02

# per-layer metrics: self seconds (".s") and call counts (".calls") of
# spans, and counters kept by the wrappers
SPAN_S = ["diagram.resolve", "diagram.parse_front", "lp.solve_lp",
          "words.enumerate_orbit_words", "words.enumerate_chord_words",
          "words.push_out", "quiver.i_grading",
          "quiver.effective_fiber_vector", "quiver.bubbling_faces",
          "indices.cz_integral", "indices.c1_class",
          "dynamics.hyperbolic_type", "dynamics.is_bad",
          "dynamics.embed_orbit", "dynamics.orbit_action",
          "homology.h1_presentation", "homology.orbit_class_monomial",
          "report.generators", "report.differential_candidates", "cli.emit"]
SPAN_CALLS = ["diagram.resolve", "lp.solve_lp", "words.push_out",
              "quiver.i_grading", "indices.cz_integral",
              "homology.orbit_class_monomial",
              "report.differential_candidates"]
COUNTERS = ["geometry.winding_number.calls", "geometry.offset_polyline.calls",
            "dynamics.return_map.calls", "words.emitted",
            "dynamics.embed_orbit.failed", "report.generators.records",
            "report.differential_candidates.survivors"]

# spans each workload exists to exercise: zero calls there means the
# wrappers no longer reach the code, not that the layer became free
REQUIRED = {
    "realize": ["diagram.parse_front", "diagram.resolve", "lp.solve_lp",
                "indices.c1_class", "cli.emit"],
    "orbit_tables": ["report.generators", "quiver.i_grading",
                     "quiver.effective_fiber_vector", "words.push_out",
                     "words.enumerate_orbit_words",
                     "words.enumerate_chord_words", "indices.cz_integral",
                     "dynamics.hyperbolic_type", "dynamics.is_bad",
                     "dynamics.embed_orbit", "dynamics.orbit_action",
                     "homology.h1_presentation",
                     "homology.orbit_class_monomial",
                     "report.differential_candidates",
                     "quiver.bubbling_faces", "geometry.winding_number",
                     "geometry.offset_polyline", "dynamics.return_map"],
    "search": ["report.differential_candidates", "report.generators"],
}


def reference():
    """CPU seconds of a fixed piece of work like the program's own: exact
    fractions, dictionary updates, list growth and a sort."""
    start = time.thread_time()
    total, buckets, pairs = Fraction(0), {}, []
    for i in range(1, 2500):
        total += Fraction(i % 97, i)
        buckets[i % 31] = buckets.get(i % 31, 0) + i
        pairs.append((i, i * i))
    pairs.sort(key=lambda p: -p[1])
    return time.thread_time() - start


def at_reference_speed(cpu, ref_before, ref_after):
    """``cpu`` seconds scaled by REF_S over the mean of the reference()
    times taken right before and right after them."""
    return cpu * 2 * REF_S / (ref_before + ref_after)


def scale_ratio(records):
    """Reference-speed seconds over CPU seconds of the commands run."""
    executed = [r for r in records if not r["replayed"]]
    return (sum(r["seconds"] for r in executed)
            / sum(r["cpu_s"] for r in executed))


class Deadline(BaseException):
    """Raised by SIGPROF inside a command; not an ``Exception`` so that the
    CLI's own handlers cannot swallow it."""


class Harness(object):
    """Runs corpus items in-process and keeps what the checks need."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.deadline_in_report = 0
        self.captured = {}
        for home, name in (("diagram", "resolve"),
                           ("homology", "h1_presentation")):
            self._capture(importlib.import_module("reebchords." + home),
                          name)
        signal.signal(signal.SIGPROF, self._expired)

    def _capture(self, home, name):
        """Keep the last result of ``cli.<name>`` for the checks.

        The function is looked up in its home module on every call, so a
        tracing wrapper installed there later is still called."""
        captured = self.captured

        def keep(*args, **kwargs):
            result = getattr(home, name)(*args, **kwargs)
            captured[name] = result
            return result
        setattr(self.cli, name, keep)

    def _expired(self, signum, frame):
        if self.tracer is not None and any(
                n.startswith("report.") for n in self.tracer.open_names()):
            self.deadline_in_report += 1
        raise Deadline()

    def run(self, item, deadline):
        """(status, seconds, CPU s, wall s, stdout text, diagram, h1) of a
        command; seconds and the deadline are at the reference speed."""
        self.captured.clear()
        ref_before = reference()
        out, err = io.StringIO(), io.StringIO()
        argv = item["argv"] + ["--input", "-"]
        stdin = sys.stdin
        sys.stdin = io.StringIO(item["front"])
        status = "ok"
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_PROF,
                                 deadline * ref_before / REF_S)
                try:
                    code = self.cli.main(argv)
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
            if code != 0:
                status = f"exit {code}"
        except Deadline:
            status = "timeout"
            if self.tracer is not None:
                # the alarm may land between a wrapper's bookkeeping steps
                self.tracer.stack.clear()
        finally:
            cpu = time.thread_time() - cpu_start
            wall = time.perf_counter() - start
            sys.stdin = stdin
        seconds = at_reference_speed(cpu, ref_before, reference())
        return (status, seconds, cpu, wall, out.getvalue(),
                self.captured.get("resolve"),
                self.captured.get("h1_presentation"))


class SetupProbe(object):
    """CPU seconds from a fresh interpreter to ``reebchords.cli`` being ready.

    One spawn runs before each of the first commands of a run, so that the
    median samples the machine at as many moments as possible.  Like command
    times, ``times`` are scaled to the reference speed; ``cpu`` are not.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.times, self.cpu, self.wall = [], [], []
        self._spawn()           # the first spawn may compile bytecode
        self.times, self.cpu, self.wall = [], [], []

    def _spawn(self):
        ref_before = reference()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import reebchords.cli"],
                       env=self.env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        self.wall.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime
               - before.ru_utime - before.ru_stime)
        self.cpu.append(cpu)
        self.times.append(at_reference_speed(cpu, ref_before, reference()))

    def __call__(self):
        if len(self.times) < SETUP_SPAWNS:
            self._spawn()

    def median(self):
        while len(self.times) < SETUP_SPAWNS:
            self._spawn()
        return statistics.median(self.times)


def may_fail(item, pinned):
    """Whether a non-zero exit of ``item`` counts as a failure instead of
    aborting the run: only for commands that did not finish where the
    digests were pinned (a null digest)."""
    return item["name"] in pinned and pinned[item["name"]] is None


def run_pass(harness, items, deadline, records, pass_no, state, oracles,
             pinned, between=None, check=True):
    """One pass over the corpus; checks each completed command once.

    The traced pass passes ``check=False``: the checks call library
    functions that would land in its spans, and its outputs are compared
    with the untraced pass instead.
    """
    for idx, item in enumerate(items):
        if between is not None:
            between()
        prev = state.get(idx)
        if prev is not None and prev["status"] == "timeout":
            records.append(dict(prev, pass_no=pass_no, replayed=True))
            continue
        if harness.tracer is not None:
            harness.tracer.command = idx
        status, secs, cpu, wall, text, diagram, h1 = harness.run(item,
                                                                 deadline)
        if status.startswith("exit") and not may_fail(item, pinned):
            raise checks.CheckFailed(f"{item['name']!r}: {status}")
        rec = {"item": idx, "pass_no": pass_no, "status": status,
               "seconds": secs, "cpu_s": cpu, "wall_s": wall,
               "replayed": False}
        if status == "ok":
            data = json.loads(text)
            rec["counts"] = checks.work_counts(item["front"], item["argv"],
                                               data, diagram)
            rec["digest"] = checks.digest(item["argv"], data)
            if prev is None:
                if check:
                    checks.check_command(item, data, diagram, h1, oracles,
                                         pinned)
            elif prev["status"] == "ok" and (
                    prev["counts"] != rec["counts"]
                    or prev["digest"] != rec["digest"]):
                raise checks.CheckFailed(
                    f"{item['name']!r}: work counts or output changed "
                    f"between passes")
        elif diagram is not None:
            rec["counts"] = checks.work_counts(item["front"], item["argv"],
                                               None, diagram)
        if prev is None:
            state[idx] = rec
        records.append(rec)


def tail(values):
    """(value, percentile) of the highest percentile with ten beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records, key="seconds"):
    times = [r[key] for r in records]
    done = sum(1 for r in records if r["status"] == "ok")
    value, pct = tail(times)
    return {
        "fronts_per_s": done / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": value,
        "tail_percentile": pct,
        "samples": len(times),
    }


def per_layer(workload, tracer, traced, untraced, deadline_hits):
    """Per-layer metrics.  Span times are CPU seconds; they are scaled by
    the traced pass's ratio of reference-speed seconds to CPU seconds."""
    scale = scale_ratio(traced)
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        if name in summary:
            return summary[name]["calls"]
        return counts.get(name + ".calls", 0)

    missing = [n for n in REQUIRED[workload] if calls(n) == 0]
    if missing:
        raise checks.CheckFailed(
            f"traced {workload} recorded zero calls of {missing}: the "
            f"wrappers no longer reach these layers")
    metrics = {}
    for name in SPAN_S:
        metrics[name + ".s"] = (
            summary.get(name, {}).get("self_s", 0.0) * scale, "s")
    for name in SPAN_CALLS:
        metrics[name + ".calls"] = (calls(name), "count")
    for name in COUNTERS:
        metrics[name] = (counts.get(name, 0), "count")
    resolved = [r for r in traced if "counts" in r and
                "segments" in r["counts"]]
    for key in ("events", "segments", "chords", "faces"):
        metrics["diagram." + key] = (
            sum(r["counts"][key] for r in resolved), "count")
    events = metrics["diagram.events"][0]
    resolve_total = summary.get("diagram.resolve", {}).get("total_s", 0.0)
    metrics["diagram.resolve.s_per_event"] = (
        resolve_total * scale / events if events else 0.0, "s/event")
    metrics["report.deadline_hits"] = (deadline_hits, "count")
    top = {}
    for cmd, _name, _start, dur, _self, depth in tracer.spans:
        if depth == 0:
            top[cmd] = top.get(cmd, 0.0) + dur
    metrics["cli.other_s"] = (
        scale * sum(r["cpu_s"] - top.get(r["item"], 0.0) for r in traced
                    if not r["replayed"]), "s")
    both = [(t["seconds"], u["seconds"]) for t, u in zip(traced, untraced)
            if t["status"] == "ok" and u["status"] == "ok"]
    metrics["trace.overhead_ratio"] = (
        sum(t for t, _ in both) / sum(u for _, u in both) - 1.0, "ratio")
    return metrics, summary


def design_shares(tracer, traced):
    """Shares of the completed commands' traced time.

    ``self`` sums each module's self time; ``top`` is the inclusive time of
    the calls the CLI makes directly, such as report.generators with all
    the work it calls.
    """
    done = {r["item"] for r in traced if r["status"] == "ok"}
    total = sum(r["cpu_s"] for r in traced if r["item"] in done)
    if not total:
        return {}
    layers, top = {}, {}
    for cmd, name, _start, dur, self_s, depth in tracer.spans:
        if cmd not in done:
            continue
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s / total
        if depth == 0:
            top[name] = top.get(name, 0.0) + dur / total
    return {"self": dict(sorted(layers.items())),
            "top": dict(sorted(top.items(), key=lambda kv: -kv[1]))}


def provenance(args, deadline):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "deadline_s": deadline,
            "pass_s": PASS_S[args.workload],
            "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "reebchords")) or \
            not os.path.isfile(os.path.join(TESTS, "oracles.py")):
        print("perfbench: no reebchords source tree (src/reebchords, "
              "tests/oracles.py) next to perfbench/", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, TESTS]
    import oracles
    import reebchords.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported reebchords from {cli.__file__}, not "
              f"from this checkout", file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    items = corpus.build(args.workload, args.seed)
    passes = max(1, round(args.seconds / PASS_S[args.workload]))
    harness = Harness(cli)
    deadline = DEADLINE_S[args.workload]
    out = {"provenance": provenance(args, deadline),
           "corpus": [{"name": it["name"], "argv": it["argv"],
                       "front": it["front"], "origin": it["origin"]}
                      for it in items]}
    try:
        if args.trace:
            untraced, state = [], {}
            run_pass(harness, items, deadline, untraced, 0, state,
                     oracles, pinned)
            tracer = Tracer()
            harness.tracer = tracer
            tracer.install()
            traced = []
            try:
                run_pass(harness, items, deadline, traced, 1, {}, oracles,
                         pinned, check=False)
            finally:
                tracer.uninstall()
                harness.tracer = None
            for t, u in zip(traced, untraced):
                if t["status"] == u["status"] == "ok" and (
                        t["counts"] != u["counts"]
                        or t["digest"] != u["digest"]):
                    raise checks.CheckFailed(
                        f"{items[t['item']]['name']!r}: work counts or "
                        f"output changed under tracing")
            metrics, summary = per_layer(args.workload, tracer, traced,
                                         untraced, harness.deadline_in_report)
            records = traced
            out["spans"] = summary
            out["shares"] = design_shares(tracer, traced)
        else:
            setup = SetupProbe()
            records, state = [], {}
            for p in range(passes):
                run_pass(harness, items, deadline, records, p, state,
                         oracles, pinned, between=setup)
            setup_s = setup.median()
            e2e = end_to_end(records)
            unscaled = end_to_end(records, "cpu_s")
            out["unscaled"] = {k: unscaled[k] for k in
                               ("fronts_per_s", "op_s_p50", "op_s_tail")}
            out["unscaled"]["setup_s"] = statistics.median(setup.cpu)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {"fronts_per_s": (e2e["fronts_per_s"], "1/s"),
                       "op_s_p50": (e2e["op_s_p50"], "s"),
                       "op_s_tail": (e2e["op_s_tail"], "s"),
                       "peak_rss_mb": (rss_mb, "MB"),
                       "setup_s": (setup_s, "s")}
            out["setup_s_all"] = setup.times
            out["setup_cpu_s_all"] = setup.cpu
            out["setup_wall_s_all"] = setup.wall
            out["tail"] = {"percentile": e2e["tail_percentile"],
                           "samples": e2e["samples"]}
    except checks.CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1

    attempted = len(records)
    failed = sum(1 for r in records if r["status"] != "ok")
    out["records"] = [dict(r, name=items[r["item"]]["name"])
                      for r in records]
    out["attempted"], out["failed"] = attempted, failed
    out["scale"] = scale_ratio(records)
    out["failed_ratio"] = failed / attempted
    out["metrics"] = {k: {"value": v, "unit": u}
                      for k, (v, u) in metrics.items()}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, default=str)

    timed_out = sorted({items[r["item"]]["name"] for r in records
                        if r["status"] == "timeout"})
    print(f"{args.workload} seed {args.seed}: {attempted} commands, "
          f"{failed} failed (failed_ratio {failed / attempted:.3f}); "
          f"record in {os.path.relpath(path, ROOT)}")
    if timed_out:
        print("timed out: " + "; ".join(timed_out))
    print(f"times at the reference speed ({REF_S * 1e3:.0f} ms per "
          f"reference()) are {out['scale']:.3f} times the CPU times")
    if "tail" in out:
        print(f"op_s_tail is p{out['tail']['percentile']:.1f} of "
              f"{out['tail']['samples']} samples")
    if out.get("shares"):
        print("self-time shares of completed commands: " + ", ".join(
            f"{k} {v:.2f}" for k, v in out["shares"]["self"].items()))
        print("shares of the CLI's direct calls: " + ", ".join(
            f"{k} {v:.2f}" for k, v in out["shares"]["top"].items()))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
