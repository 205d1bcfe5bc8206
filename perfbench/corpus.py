"""The three workloads: which commands run on which fronts, and why.

A corpus is a list of items ``{"name", "argv", "front", "origin"}``; the
program receives ``argv`` plus ``--input -`` and reads ``front`` from
standard input.  Items are named after their diagrams, or ``rand<k>`` when
``fronts.random_fronts`` drew them; ``origin`` is "seeded" for items that
``--seed`` draws and "fixed" for the rest.  The seed also fixes the order
in which the items run.
"""

import random

from fronts import random_fronts

TREFOIL = "L1,L3,X2,X2,X2,R1,R1"
HOPF = "L1,L3,X2,X2,R1,R1"
STAB_UNKNOT = "L1,L2,R1,R1 / orientations {0:-} / surgery {0:+1}"
NESTED_LINK = "L1,L2,L2,X3,X2,R3,R2,R1 / surgery {0:+1, 1:-1, 2:0}"
# ROADMAP item 4: T(2,5) with -1 surgery, whose chain hangs at max-len 3
ITEM4 = "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:-1}"

EPS = ["--epsilon", "1/100"]


def torus(n, coeff="+1"):
    """The T(2, n) front L1,L3,X2^n,R1,R1 with one surgery coefficient."""
    return "L1,L3," + ",".join(["X2"] * n) + f",R1,R1 / surgery {{0:{coeff}}}"


def hopf(tag):
    """The Hopf link with coefficients named like "+-" or "0+"."""
    coeff = {"+": "+1", "-": "-1", "0": "0"}
    return (f"{HOPF} / surgery {{0:{coeff[tag[0]]}, "
            f"1:{coeff[tag[1]]}}}")


def chain(max_len=None, max_action=None):
    bound = ["--max-len", str(max_len)] if max_len is not None \
        else ["--max-action", str(max_action)]
    return ["chain"] + bound + EPS


def _item(name, argv, front, origin="fixed"):
    return {"name": name, "argv": argv, "front": front, "origin": origin}


def _realize(rng):
    items = [_item(f"invariants T(2,{n})", ["invariants"], torus(n))
             for n in (3, 5, 9, 15, 21, 31)]
    # T(2,3) is the trefoil with +1 surgery, so only -1 is added here
    items += [
        _item("invariants trefoil-1", ["invariants"],
              TREFOIL + " / surgery {0:-1}"),
        _item("invariants hopf++", ["invariants"], hopf("++")),
        _item("invariants stab-unknot", ["invariants"], STAB_UNKNOT),
        _item("invariants nested-link", ["invariants"], NESTED_LINK),
    ]
    # Seeded fronts come in groups of one shape each (events, right cusps),
    # so that every seed draws commands of about the same cost.  The twelve
    # 10-event fronts hold the median command, with about as many commands
    # below them (fourteen 6-event fronts and four small fixed ones) as
    # above, and the twelve 14-event fronts hold the tail percentile (the
    # 11th largest of 48 commands, below only the three largest torus knots
    # and eight of the twelve); both statistics are then taken over many
    # similar commands.
    groups = [(14, 6, 2), (12, 10, 2), (12, 14, 3)]
    k = 0
    for count, events, right in groups:
        for front in random_fronts(rng, count, events, events, 3, right):
            items.append(_item(f"invariants rand{k}", ["invariants"], front,
                               "seeded"))
            k += 1
    return items


def _orbit_tables(rng):
    trefoil = TREFOIL + " / surgery {0:+1}"
    items = [_item(f"chain trefoil+1 len{k}", chain(max_len=k), trefoil)
             for k in (3, 4, 5)]
    items += [
        _item("chain trefoil+1 action200", chain(max_action=200), trefoil),
        _item("chain trefoil-1 len1", chain(max_len=1),
              TREFOIL + " / surgery {0:-1}"),
    ]
    items += [_item(f"chain hopf{tag} len4", chain(max_len=4), hopf(tag))
              for tag in ("++", "--", "+-", "0+")]
    items += [
        _item("chain stab-unknot len4", chain(max_len=4), STAB_UNKNOT),
        _item("chain nested-link len4", chain(max_len=4), NESTED_LINK),
        _item("grading T(2,5) len3", ["grading", "--max-len", "3"],
              torus(5)),
        _item("grading T(2,9) len3", ["grading", "--max-len", "3"],
              torus(9)),
        _item("chords hopf0+ len3", ["chords", "--max-len", "3"],
              hopf("0+")),
    ]
    # The commands above take 0.9-10 s (six of them), 0.55 s (one) and
    # 0.1-0.35 s (seven) at the commit that defined the benchmark.  The
    # median and the tail percentile (the 11th largest of 31) would fall in
    # the gaps between them and jump with every reordering of two commands.
    # The seventeen below are of the same kind, two-component or stabilized
    # diagrams at longer word or action bounds: thirteen of 0.3-0.5 s that
    # hold both statistics, and four small action-bounded or (0,+1)
    # queries.
    for n in (5, 6):
        items += [_item(f"chain hopf{tag} len{n}", chain(max_len=n),
                        hopf(tag)) for tag in ("++", "+-", "-+")]
    items += [
        _item("chain hopf-- len5", chain(max_len=5), hopf("--")),
        _item("chain hopf++ reversed len6", chain(max_len=6),
              hopf("++") + " / orientations {1:-}"),
        _item("chain hopf+- reversed len6", chain(max_len=6),
              hopf("+-") + " / orientations {1:-}"),
        _item("chain stab-unknot len6", chain(max_len=6), STAB_UNKNOT),
        _item("chain trefoil+1 action100", chain(max_action=100), trefoil),
        _item("grading hopf++ len6", ["grading", "--max-len", "6"],
              hopf("++")),
        _item("grading hopf+- len6", ["grading", "--max-len", "6"],
              hopf("+-")),
        _item("chain hopf0+ len6", chain(max_len=6), hopf("0+")),
        _item("chain hopf+0 len6", chain(max_len=6), hopf("+0")),
        _item("chain hopf++ action200", chain(max_action=200), hopf("++")),
        _item("chain hopf-- action300", chain(max_action=300), hopf("--")),
    ]
    return items


def _search(rng):
    items = [
        # where candidate search takes most of the time and completes
        _item("chain trefoil+1 len3", chain(max_len=3),
              TREFOIL + " / surgery {0:+1}"),
        _item("chain hopf-- len4", chain(max_len=4), hopf("--")),
        # known not to finish at the commit that defined the benchmark
        _item("chain trefoil-1 len2", chain(max_len=2),
              TREFOIL + " / surgery {0:-1}"),
        _item("chain T(2,5)+1 len2", chain(max_len=2), torus(5)),
        _item("chain T(2,5)-1 len3", chain(max_len=3), ITEM4),
    ]
    # Random 13-15-event fronts from a fixed seed, not from --seed: whether
    # such a front times out is a coin toss per front, and drawing new ones
    # per seed made the failed count, and with it every timing, differ by
    # seed far beyond the bounds.  Two of these three time out.
    fixed_rng = random.Random("search-fronts")
    for k, front in enumerate(random_fronts(fixed_rng, 3, 13, 15, 3)):
        items.append(_item(f"chain rand{k} len2", chain(max_len=2), front))
    return items


WORKLOADS = {
    "realize": _realize,
    "orbit_tables": _orbit_tables,
    "search": _search,
}


def build(workload, seed):
    """The seeded corpus of one workload, in its seeded run order."""
    rng = random.Random(f"{workload}:{seed}")
    items = WORKLOADS[workload](rng)
    rng.shuffle(items)
    return items


def fixed_items():
    """(workload, item) for every fixed item (the seeded ones vary)."""
    out = []
    for workload, make in WORKLOADS.items():
        for item in make(random.Random(0)):
            if item["origin"] == "fixed":
                out.append((workload, item))
    return out
