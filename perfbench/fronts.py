"""Seeded random Legendrian fronts in the front grammar of ``reebchords``.

The event grammar is the one the test suite's ``random_front`` uses: left
cusps open at any stack position while fewer than ``max_events`` events and
fewer than six strands exist, crossings and right cusps act on adjacent
strands, and the front may stop whenever the stack empties.  The generator
is self-contained so that the benchmark's corpus depends on the seed only.
"""

import random


def random_events(rng, max_events):
    """One stack-respecting event list, as (kind, position) pairs."""
    events = []
    stack = 0
    while True:
        choices = []
        if len(events) < max_events and stack < 6:
            choices += ["L"] * 3
        if stack >= 2:
            choices += ["X"] * 5 + ["R"] * 2
        if len(events) >= max_events and stack >= 2:
            choices = ["R"]
        if not choices:
            break
        kind = rng.choice(choices)
        if kind == "L":
            pos = rng.randint(1, stack + 1)
            stack += 2
        elif kind == "X":
            pos = rng.randint(1, stack - 1)
        else:
            pos = rng.randint(1, stack - 1)
            stack -= 2
        events.append((kind, pos))
        if stack == 0 and (rng.random() < 0.6 or len(events) >= max_events):
            break
    return events


def count_components(events):
    """Number of closed components, by joining each cusp's two strands."""
    parent = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stack = []
    for kind, pos in events:
        if kind == "L":
            a = len(parent)
            parent.extend((a, a))
            parent[a + 1] = a
            stack[pos - 1:pos - 1] = [a, a + 1]
        elif kind == "X":
            stack[pos - 1], stack[pos] = stack[pos], stack[pos - 1]
        else:
            parent[find(stack[pos - 1])] = find(stack[pos])
            del stack[pos - 1:pos + 1]
    return len({find(i) for i in range(len(parent))})


def front_text(events, surgery, orientations):
    """The grammar text ``events / orientations {..} / surgery {..}``."""
    body = ",".join(f"{k}{p}" for k, p in events)
    ori = ", ".join(f"{i}:{'+' if v == 1 else '-'}"
                    for i, v in sorted(orientations.items()))
    sur = ", ".join(f"{i}:{v:+d}" if v else f"{i}:0"
                    for i, v in sorted(surgery.items()))
    return f"{body} / orientations {{{ori}}} / surgery {{{sur}}}"


def random_fronts(rng, count, min_events, max_events, max_components,
                  right_cusps=None):
    """``count`` front texts with min_events..max_events events.

    Event lists are drawn with the grammar's own ``max_events`` cut and kept
    when their length, component count and (if given) number of right cusps
    fall in range; surgery coefficients and orientations are drawn per
    component as in the tests, with at least one nonzero coefficient.
    """
    out = []
    while len(out) < count:
        events = random_events(rng, max_events)
        n_comp = count_components(events)
        if not min_events <= len(events) <= max_events \
                or n_comp > max_components:
            continue
        if right_cusps is not None and \
                sum(1 for k, _ in events if k == "R") != right_cusps:
            continue
        surgery = {i: rng.choice([1, -1, 0]) for i in range(n_comp)}
        if all(v == 0 for v in surgery.values()):
            surgery[0] = 1
        orientations = {i: rng.choice([1, -1]) for i in range(n_comp)}
        out.append(front_text(events, surgery, orientations))
    return out

