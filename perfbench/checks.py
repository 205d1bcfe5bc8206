"""Correctness checks on completed commands, and their work counts.

Independent checks run on the diagram the command resolved: tb and rot
from a strand walk over the front, |H1| against the determinant of the
framing/linking matrix built from those, return-map traces against the
dict-polynomial product of ``tests/oracles.py``, vanishing closure
integrals, and face areas summing to the outer area.  Every other field is
compared through a digest of the realization-independent output only
(words, indices, classes, gradings, candidate monomials and labels), never
actions, basepoints or coordinates, which a new realization may move.
"""

import hashlib
import json
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program disagrees with an independent check."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _det(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def _chords_of(name):
    """Chord ids of an output word name such as ``(r1r2)``."""
    return tuple(int(t) for t in name.strip("()").split("r") if t)


def realization_fields(argv, data):
    """The part of a command's JSON output that every realization shares."""
    cmd = argv[0]
    if cmd == "invariants":
        return {"tb": data["tb"], "rot": data["rot"],
                "linking": data["linking"], "c1": data["c1"],
                "chord_signs": sorted(c["sign"] for c in data["chords"]),
                "faces": len(data["faces"])}
    if cmd == "chain":
        keep = ("word", "good", "cz", "degree", "class", "hyperbolic",
                "threshold", "igrading")
        rows = []
        for row in data:
            out = {k: row[k] for k in keep if k in row}
            if "candidates" in row:
                out["candidates"] = [[c["monomial"], c["label"]]
                                     for c in row["candidates"]]
            rows.append(out)
        return rows
    if cmd == "grading":
        return [[row["word"], row["igrading"]] for row in data]
    return [[row["word"], row["length"]] for row in data]


def digest(argv, data):
    text = json.dumps(realization_fields(argv, data), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def work_counts(front_text, argv, data, diagram):
    """Events, segments, chords, faces, words, records, survivors, escapes."""
    counts = {"events": len(front_text.split("/")[0].split(","))}
    if diagram is not None:
        counts["segments"] = sum(len(c) for c in diagram.components)
        counts["chords"] = len(diagram.chords)
        counts["faces"] = len(diagram.faces_list)
    if isinstance(data, list):
        counts["words"] = len(data)
    if argv[0] == "chain" and data is not None:
        counts["records"] = len(data)
        counts["survivors"] = sum(len(r.get("candidates", ())) for r in data)
        counts["embed_failures"] = sum(
            1 for r in data if r["good"] and "orbit_action" not in r)
    return counts


def check_diagram(d, h1, oracles):
    """Independent checks of a resolved diagram and its first homology."""
    from reebchords.geometry import polyline_integral_y_dx

    for i, cyc in enumerate(d.components):
        _require(polyline_integral_y_dx(cyc) == 0,
                 f"closure integral of component {i} is not zero")
    _require(sum(f.area for f in d.faces_list) == d.outer_area,
             "face areas do not sum to the outer area")
    writhe, linking, down, up = oracles.front_writhe_and_cusp_counts(d.front)
    comps = range(len(d.components))
    n_right = {i: 0 for i in comps}
    for wid in d.front._deaths:
        n_right[d.front.component_of_wire[wid]] += 1
    tb = {i: writhe[i] - n_right[i] // 2 for i in comps}
    for i in comps:
        _require(d.tb[i] == tb[i], f"tb of component {i}: {d.tb[i]} "
                 f"!= strand walk {tb[i]}")
        _require(2 * d.rot[i] == down[i] - up[i],
                 f"rot of component {i} disagrees with the strand walk")
    surgered = [i for i in comps if d.surgery[i] != 0]
    framing = [[tb[i] + d.surgery[i] if i == j else
                Fraction(linking.get(frozenset((i, j)), 0), 2)
                for j in surgered] for i in surgered]
    det = abs(_det(framing))
    if det == 0:
        _require(not h1.finite, "H1 finite but the framing matrix is "
                 "singular")
    else:
        order = 1
        for x in h1.diagonal:
            order *= abs(x)
        _require(h1.finite and order == det,
                 f"|H1| = {order} but |det| of the framing matrix = {det}")


def check_return_maps(d, data, oracles, sample=3):
    """Library return-map traces against the oracle on the first words."""
    from reebchords.dynamics import return_map
    from reebchords.words import CyclicWord

    for row in data[:sample]:
        chords = _chords_of(row["word"])
        trace = return_map(d, CyclicWord(d, chords)).trace()
        got = {k: c for k, c in enumerate(trace) if c != 0}
        sign, prod = oracles.reference_return_map(d, chords)
        want = oracles.pscale(oracles.padd(prod[0][0], prod[1][1]), sign)
        _require(got == want, f"return-map trace of {row['word']}: "
                 f"{got} != oracle {want}")


def check_command(item, data, diagram, h1, oracles, pinned):
    """All checks for one completed command; raises CheckFailed."""
    argv = item["argv"]
    key = item["name"]
    if item["origin"] == "fixed":
        # null: the command did not finish where the digests were pinned,
        # so only the independent checks below apply to it
        _require(key in pinned, f"no pinned digest for {key!r}")
        _require(pinned[key] is None or digest(argv, data) == pinned[key],
                 f"output of {key!r} differs from its pinned digest")
    if diagram is not None:
        if h1 is None:
            from reebchords.homology import h1_presentation
            h1 = h1_presentation(diagram)
        check_diagram(diagram, h1, oracles)
        if argv[0] in ("chain", "grading") and data:
            check_return_maps(diagram, data, oracles)
