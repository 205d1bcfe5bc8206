"""Rewrite ``digests.json``: the digest of every fixed corpus item's output.

    python3 perfbench/pin_digests.py

Run it only at a commit whose outputs are known good; the benchmark
compares every later run against these digests.  Items that do not finish
within the deadline get ``null``: the benchmark checks them only by its
independent checks, and counts a non-zero exit of theirs as a failure
instead of aborting.
"""

import json
import os
import sys

import run

sys.path[:0] = [run.SRC]

import reebchords.cli as cli  # noqa: E402


def main():
    harness = run.Harness(cli)
    pinned = {}
    for workload, item in run.corpus.fixed_items():
        if item["name"] in pinned:
            continue
        status, secs, _cpu, _wall, text, _d, _h1 = harness.run(
            item, run.DEADLINE_S[workload])
        print(f"{item['name']}: {status} {secs:.2f} s", file=sys.stderr)
        pinned[item["name"]] = None
        if status == "ok":
            pinned[item["name"]] = run.checks.digest(item["argv"],
                                                     json.loads(text))
    with open(os.path.join(run.HERE, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(sorted(pinned.items())), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
