"""Command line interface.

One subcommand per analysis stage; every command takes the diagram source
via --input (a file containing the front grammar or its JSON equivalent).
Exit codes: 0 on success (also when the reader of standard output closes
it early), 2 on invalid input, 3 on an internal consistency failure of the
realization.
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .diagram import DiagramError, FrontError, parse_front, resolve
from .dynamics import hyperbolic_type, orbit_action, return_map
from .homology import h1_presentation, orbit_class_monomial
from .indices import c1_class, cz_integral
from .quiver import i_grading
from .report import candidate_reports, generators
from .words import enumerate_chord_words, enumerate_orbit_words


def parse_frac(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FrontError(f"bad rational {text!r}")


def json_text(data) -> str:
    """``json.dumps(data, indent=2)`` of exactly str, int, bool, None, list,
    tuple and dict with str or int keys, in one loop over a stack of open
    containers (iterator, is-dict, pad, separator).  Other types, float and
    Fraction among them, raise TypeError: reported numbers are exact."""
    encode = json.encoder.encode_basestring_ascii
    out, stack = [], []
    it, is_dict, pad, sep = iter((data,)), False, "\n", ""
    while True:
        for value in it:
            if is_dict:
                key, value = value
                if type(key) not in (str, int):
                    raise TypeError(f"key {key!r} is neither str nor int")
                out.append(encode(str(key)) + ": ")
            t = type(value)
            if t is str:
                out.append(encode(value))
            elif t is int:
                out.append(int.__repr__(value))
            elif t is bool or value is None:
                out.append("null" if value is None else
                           "true" if value else "false")
            elif t is list or t is dict or t is tuple:
                if value:
                    stack.append((it, is_dict, pad, sep))
                    is_dict, pad = t is dict, pad + "  "
                    it = iter(value.items() if is_dict else value)
                    sep = "," + pad
                    out.append(("{" if is_dict else "[") + pad)
                    break
                out.append("{}" if t is dict else "[]")
            else:
                raise TypeError(f"Object of type {t.__name__} "
                                f"is not JSON serializable")
            out.append(sep)         # the last becomes the closing bracket
        else:
            if not stack:
                return "".join(out)
            out[-1] = stack[-1][2] + ("}" if is_dict else "]")
            it, is_dict, pad, sep = stack.pop()
            out.append(sep)


def emit(data, fmt: str):
    """Print data as indented JSON (``json_text``), or as TSV or Markdown
    rows, one per list item, with nested values in compact JSON."""
    if fmt == "json":
        print(json_text(data))
        return
    rows = data if isinstance(data, list) else [data]
    flat = [{k: (json.dumps(v) if isinstance(v, (list, dict)) else v)
             for k, v in row.items()} if isinstance(row, dict)
            else {"value": row} for row in rows]
    headers = list(dict.fromkeys(k for row in flat for k in row))
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
    """The front read from ``--input``; an unreadable input (a missing file,
    a directory, no permission) is a FrontError."""
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise FrontError(str(exc)) from exc
    return parse_front(text)


def on_diagram(cmd):
    """The command run on the resolved diagram of ``args``' front."""
    @functools.wraps(cmd)
    def run(args):
        cmd(args, resolve(load_diagram(args)))
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
                    "tail_loc": [c.tail_loc[0], str(c.tail_loc[1])],
                    "tip_loc": [c.tip_loc[0], str(c.tip_loc[1])],
                    "action": str(c.action)}
                   for c in d.chords],
        "faces": [{"id": f.id, "area": str(f.area),
                   "basepoint": [str(f.basepoint[0]),
                                 str(f.basepoint[1])],
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
    max_action, eps = (None if value is None else parse_frac(value)
                       for value in (args.max_action, args.epsilon))
    for name, value in (("--max-action", max_action), ("--epsilon", eps)):
        if value is not None and value <= 0:
            raise FrontError(f"{name} must be positive")
    return args.max_len, max_action, eps


def _word_rows(args, d, enumerate_words):
    emit([{"word": repr(w), "length": len(w.chords),
           "action": str(w.action())}
          for w in enumerate_words(d, *_bounds(args))], args.format)


@on_diagram
def cmd_orbits(args, d):
    _word_rows(args, d, enumerate_orbit_words)


@on_diagram
def cmd_chords(args, d):
    _word_rows(args, d, enumerate_chord_words)


@on_diagram
def cmd_cz(args, d):
    max_len, max_action, eps = _bounds(args)
    rows = []
    for w in enumerate_orbit_words(d, max_len, max_action, eps):
        cz = cz_integral(d, w)
        trace = return_map(d, w).trace()
        kind, threshold = hyperbolic_type(cz % 2, trace)
        rows.append({"word": word_name(w.chords), "cz": cz, "cz_mod2": cz % 2,
                     "hyperbolic": kind, "threshold": str(threshold),
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
    # a vertex per component and an edge per chord; the one-vertex
    # collapse has first Betti number one per edge
    if not d.chords:
        raise DiagramError("empty diagram has no quiver")
    vertices = list(range(d.front.n_components))
    emit({"vertices": vertices,
          "edges": [{"chord": c.id, "tail": c.tail_comp, "tip": c.tip_comp}
                    for c in d.chords],
          "loops": {str(v): [c.id for c in d.chords
                             if c.tail_comp == c.tip_comp == v]
                    for v in vertices},
          "collapsed_h1_rank": len(d.chords)}, args.format)


@on_diagram
def cmd_grading(args, d):
    h1 = h1_presentation(d)
    if not h1.finite:
        raise FrontError("intersection grading needs finite first homology")
    max_len, max_action, eps = _bounds(args)
    emit([{"word": word_name(w.chords), "igrading": list(i_grading(d, h1, w))}
          for w in enumerate_orbit_words(d, max_len, max_action, eps)
          if orbit_class_monomial(d, h1, w).is_zero()], args.format)


@on_diagram
def cmd_chain(args, d):
    h1 = h1_presentation(d)
    max_len, max_action, eps = _bounds(args)
    if eps is None:
        raise FrontError("chain reports need --epsilon")
    gens = generators(d, h1, max_len, max_action, eps)
    name = functools.lru_cache(None)(word_name)     # once per word
    reps = candidate_reports(gens, d, h1, eps, args.max_len)

    # rows that share a report share its non-constant candidates, so each
    # candidate is converted once per command
    @functools.lru_cache(None)
    def candidate_row(c):
        return {"monomial": "1" if c.is_constant() else
                "".join(name(w.chords) for w in c.factors),
                "label": c.label,
                "trail": {k: (str(v) if k == "action"
                              else list(v) if isinstance(v, tuple) else v)
                          for k, v in c.trail.items()},
                "faces": [f.id for f in c.faces],
                "count": "+-1" if len(c.faces) == 1 else None,
                "sign_ambiguous": c.sign_ambiguous}

    rows = []
    for g in gens:
        row = {"word": word_name(g.word.chords), "good": g.good, "cz": g.cz,
               "degree": g.degree, "class": list(g.orbit_class.reduced),
               "action": str(g.action), "hyperbolic": g.hyperbolic,
               "threshold": str(g.threshold)}
        if g.igrading is not None:
            row["igrading"] = list(g.igrading)
        if g.good:
            try:
                row["orbit_action"] = str(orbit_action(d, g.word, eps))
            except ValueError as exc:
                # depends on epsilon; a DiagramError here is a fault
                row["orbit_action_error"] = str(exc)
            if g.degree == 1:
                rep = reps[g.word.chords]
                row["candidates"] = [candidate_row(c) for c in rep.survivors]
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


@functools.lru_cache(None)
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built at its first use in a process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early: neither bad input nor a fault; point
        # stdout at devnull so that the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (FrontError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DiagramError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
