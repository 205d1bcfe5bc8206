"""Command line interface.

One subcommand per analysis stage; every command takes the diagram source
via --input (a file containing the front grammar or its JSON equivalent).
Exit codes: 0 on success, 2 on invalid input, 3 on an internal consistency
failure of the realization.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .diagram import DiagramError, FrontError, parse_front, resolve
from .dynamics import hyperbolic_from_trace, orbit_action, return_map
from .homology import h1_presentation, orbit_class_monomial
from .indices import c1_class, cz_integral
from .quiver import Quiver, i_grading
from .report import differential_candidates, generators
from .words import enumerate_chord_words, enumerate_orbit_words


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 \
        else str(f.numerator)


def parse_frac(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FrontError(f"bad rational {text!r}")


def emit(data, fmt: str):
    if fmt == "json":
        print(json.dumps(data, indent=2))
        return
    rows = data if isinstance(data, list) else [data]
    flat = []
    for row in rows:
        if isinstance(row, dict):
            flat.append({k: (json.dumps(v) if isinstance(v, (list, dict))
                             else v) for k, v in row.items()})
        else:
            flat.append({"value": row})
    headers = []
    for row in flat:
        for k in row:
            if k not in headers:
                headers.append(k)
    if fmt == "tsv":
        print("\t".join(headers))
        for row in flat:
            print("\t".join(str(row.get(h, "")) for h in headers))
    else:  # md
        print("| " + " | ".join(headers) + " |")
        print("|" + "|".join("---" for _ in headers) + "|")
        for row in flat:
            print("| " + " | ".join(str(row.get(h, "")) for h in headers)
                  + " |")


def word_name(chords) -> str:
    return "(" + "".join(f"r{c}" for c in chords) + ")"


def load_diagram(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_front(text)


def on_diagram(cmd):
    """The command run on the resolved diagram of ``args``' front.

    The diagram's memo is cleared when the command returns: its records
    refer back to the diagram, so the memo would otherwise keep the diagram
    alive until a full garbage collection.
    """
    @functools.wraps(cmd)
    def run(args):
        d = resolve(load_diagram(args))
        try:
            cmd(args, d)
        finally:
            d.memo.clear()
    return run


def cmd_parse(args):
    front = load_diagram(args)
    emit(front.summary(), args.format)


@on_diagram
def cmd_invariants(args, d):
    data = {
        "tb": d.tb,
        "rot": d.rot,
        "linking": d.linking,
        "chords": [{"id": c.id, "sign": c.sign, "tail": c.tail_comp,
                    "tip": c.tip_comp,
                    "tail_loc": [c.tail_loc[0], frac_str(c.tail_loc[1])],
                    "tip_loc": [c.tip_loc[0], frac_str(c.tip_loc[1])],
                    "action": frac_str(c.action)}
                   for c in d.chords],
        "faces": [{"id": f.id, "area": frac_str(f.area),
                   "basepoint": [frac_str(f.basepoint[0]),
                                 frac_str(f.basepoint[1])],
                   "corners": [[c, q, s] for c, q, s in f.corners]}
                  for f in d.faces_list],
        "c1": c1_class(d),
    }
    emit(data, args.format)


def _bounds(args):
    if args.max_len is None and args.max_action is None:
        raise FrontError("need --max-len or --max-action")
    if args.max_len is not None and args.max_len < 1:
        raise FrontError(f"--max-len must be at least 1, not {args.max_len}")
    max_action = parse_frac(args.max_action) if args.max_action else None
    eps = parse_frac(args.epsilon) if args.epsilon else None
    for name, value in (("--max-action", max_action), ("--epsilon", eps)):
        if value is not None and value <= 0:
            raise FrontError(f"{name} must be positive")
    return args.max_len, max_action, eps


def _word_rows(args, d, enumerate_words, name):
    emit([{"word": name(w.chords), "length": len(w.chords),
           "action": frac_str(w.action())}
          for w in enumerate_words(d, *_bounds(args))], args.format)


@on_diagram
def cmd_orbits(args, d):
    _word_rows(args, d, enumerate_orbit_words, word_name)


@on_diagram
def cmd_chords(args, d):
    _word_rows(args, d, enumerate_chord_words,
               lambda chords: "".join(f"r{c}" for c in chords))


@on_diagram
def cmd_cz(args, d):
    max_len, max_action, eps = _bounds(args)
    rows = []
    for w in enumerate_orbit_words(d, max_len, max_action, eps):
        cz = cz_integral(d, w)
        trace = return_map(d, w).trace()
        kind, threshold = hyperbolic_from_trace(cz % 2, trace)
        rows.append({"word": word_name(w.chords),
                     "cz": cz,
                     "cz_mod2": cz % 2,
                     "hyperbolic": kind,
                     "threshold": frac_str(threshold),
                     "trace": list(trace)})
    emit(rows, args.format)


@on_diagram
def cmd_homology(args, d):
    h1 = h1_presentation(d)
    data = {
        "generators": [f"mu_{i}" for i in h1.surgered],
        "relations": h1.matrix,
        "diagonal": h1.diagonal,
        "group": h1.group_description(),
        "finite": h1.finite,
    }
    if args.max_len is not None or args.max_action is not None:
        max_len, max_action, eps = _bounds(args)
        classes = [(w, orbit_class_monomial(d, h1, w)) for w in
                   enumerate_orbit_words(d, max_len, max_action, eps)]
        data["classes"] = [{"word": word_name(w.chords),
                            "vector": list(cls.vector),
                            "reduced": list(cls.reduced)}
                           for w, cls in classes]
    emit(data, args.format)


@on_diagram
def cmd_quiver(args, d):
    q = Quiver(d)
    emit({"vertices": q.vertices,
          "edges": [{"chord": e, "tail": a, "tip": b} for e, a, b in q.edges],
          "loops": {str(v): q.loops_at(v) for v in q.vertices},
          "collapsed_h1_rank": q.collapsed_h1_rank()}, args.format)


@on_diagram
def cmd_grading(args, d):
    h1 = h1_presentation(d)
    if not h1.finite:
        raise FrontError("intersection grading needs finite first homology")
    max_len, max_action, eps = _bounds(args)
    rows = []
    for w in enumerate_orbit_words(d, max_len, max_action, eps):
        cls = orbit_class_monomial(d, h1, w)
        if not cls.is_zero():
            continue
        ig = i_grading(d, h1, [(w, None)])
        rows.append({"word": word_name(w.chords),
                     "igrading": list(ig)})
    emit(rows, args.format)


@on_diagram
def cmd_chain(args, d):
    h1 = h1_presentation(d)
    max_len, max_action, eps = _bounds(args)
    if eps is None:
        raise FrontError("chain reports need --epsilon")
    gens = generators(d, h1, max_len, max_action, eps)
    rows = []
    for g in gens:
        row = {"word": word_name(g.word.chords),
               "good": g.good,
               "cz": g.cz,
               "degree": g.degree,
               "class": list(g.orbit_class.reduced),
               "action": frac_str(g.action),
               "hyperbolic": g.hyperbolic,
               "threshold": frac_str(g.threshold)}
        if g.igrading is not None:
            row["igrading"] = list(g.igrading)
        if g.good:
            try:
                row["orbit_action"] = frac_str(orbit_action(d, g.word, eps))
            except (ValueError, DiagramError) as exc:
                row["orbit_action_error"] = str(exc)
            if g.degree == 1:
                rep = differential_candidates(g, d, h1, eps,
                                              max_pool_len=args.max_len)
                row["candidates"] = [
                    {"monomial": "1" if c.is_constant() else
                     "".join(word_name(w.chords) for w in c.factors),
                     "label": c.label,
                     "trail": {k: (frac_str(v) if k == "action"
                                   else list(v) if isinstance(v, tuple)
                                   else v)
                               for k, v in c.trail.items()},
                     "faces": [f.id for f in c.faces],
                     "count": "+-1" if c.faces else None,
                     "sign_ambiguous": c.sign_ambiguous}
                    for c in rep.survivors]
                if rep.truncated:
                    row["truncated"] = rep.truncated
                if rep.warning:
                    row["warning"] = rep.warning
        rows.append(row)
    emit(rows, args.format)


COMMANDS = {
    "parse": cmd_parse,
    "invariants": cmd_invariants,
    "orbits": cmd_orbits,
    "chords": cmd_chords,
    "cz": cmd_cz,
    "homology": cmd_homology,
    "quiver": cmd_quiver,
    "grading": cmd_grading,
    "chain": cmd_chain,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reebchords",
        description="Combinatorial Reeb dynamics of contact surgeries on "
                    "Legendrian front diagrams")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", required=True,
                        help="front diagram file ('-' for stdin)")
    parser.add_argument("--max-len", type=int, default=None)
    parser.add_argument("--max-action", default=None)
    parser.add_argument("--epsilon", default=None,
                        help="rational p/q, e.g. 1/100")
    parser.add_argument("--format", choices=["json", "tsv", "md"],
                        default="json")
    args = parser.parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except (FrontError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DiagramError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
