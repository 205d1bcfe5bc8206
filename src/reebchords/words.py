"""Words of chords: closed-orbit and surgered-chord enumeration, push-outs.

After contact surgery the closed Reeb trajectories are named by cyclic words
of composable chords on the surgered sublink, and the surviving chords of a
zero-coefficient sublink by open words.  This module enumerates both within
length/action bounds, canonicalizes cyclic rotation, and builds the planar
push-out curves used for homology classes and intersection gradings.

A push-out is made of pieces, each built once per diagram and offset, with
its end points, ray crossings at every face basepoint and linking counts;
a word's winding and linking numbers are exact sums over its pieces.  Only
the step pieces, one per passage interval (a component's stretch between
consecutive chord passages) and direction, are offset and wound: a capping
arc (j1, j2, side) is a run of steps, and a jump per (chord, side in, side
out) closes the gaps.  ``pass_counts`` and ``chord_counts`` are the one
linking rule.
"""

from fractions import Fraction
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .diagram import DiagramError, ResolvedDiagram
from .geometry import offset_polyline, winding_number


class Word(object):
    """Composable (non-cyclic) sequence of chord ids."""

    __slots__ = ("diagram", "chords")

    def __init__(self, diagram: ResolvedDiagram, chords: Sequence[int]):
        if not chords:
            raise ValueError("empty word")
        self.diagram = diagram
        self.chords = tuple(int(c) for c in chords)
        for a, b in zip(self.chords, self.chords[1:]):
            if not diagram.composable(a, b):
                raise ValueError(f"chords r{a}, r{b} are not composable")

    def __len__(self):
        return len(self.chords)

    def __repr__(self):
        return "".join(f"r{c}" for c in self.chords)

    def action(self) -> Fraction:
        return sum((self.diagram.chord(c).action for c in self.chords),
                   Fraction(0))


def canonical_rotation(chords: Sequence[int]) -> Tuple[int, ...]:
    seq = tuple(chords)
    best = seq
    for k in range(1, len(seq)):
        rot = seq[k:] + seq[:k]
        if rot < best:
            best = rot
    return best


class CyclicWord(Word):
    """Cyclic word in canonical (lexicographically minimal) rotation.

    Cyclic words name closed trajectories, so they may only use chords of
    the surgered sublink.
    """

    __slots__ = ()

    def __init__(self, diagram: ResolvedDiagram, chords: Sequence[int]):
        seq = canonical_rotation(chords)
        super().__init__(diagram, seq)
        if not diagram.composable(self.chords[-1], self.chords[0]):
            raise ValueError(
                f"closing pair r{self.chords[-1]}, r{self.chords[0]} "
                f"not composable")
        for c in self.chords:
            ch = diagram.chord(c)
            if diagram.surgery[ch.tail_comp] == 0 \
                    or diagram.surgery[ch.tip_comp] == 0:
                raise ValueError(
                    f"chord r{c} touches an unsurgered component")

    def __eq__(self, other):
        return isinstance(other, CyclicWord) and self.chords == other.chords

    def __hash__(self):
        return hash(("cyc",) + self.chords)

    def __repr__(self):
        return "(" + "".join(f"r{c}" for c in self.chords) + ")"

    def pairs(self) -> List[Tuple[int, int]]:
        """Consecutive pairs including the closing one."""
        n = len(self.chords)
        return [(self.chords[k], self.chords[(k + 1) % n]) for k in range(n)]

    def rotations(self):
        n = len(self.chords)
        return [self.chords[k:] + self.chords[:k] for k in range(n)]


def primitive_decomposition(w: CyclicWord) -> Tuple[CyclicWord, int]:
    """Write w = v^k with v primitive and k maximal."""
    seq = w.chords
    n = len(seq)
    for period in range(1, n + 1):
        if n % period != 0:
            continue
        if seq == seq[period:] + seq[:period]:
            return CyclicWord(w.diagram, seq[:period]), n // period
    raise AssertionError("unreachable")


def surgered_chords(d: ResolvedDiagram) -> List[int]:
    """Ids of the chords with both ends on the surgered sublink."""
    return [c.id for c in d.chords
            if d.surgery[c.tail_comp] != 0 and d.surgery[c.tip_comp] != 0]


def _bounds(d: ResolvedDiagram, chords: Iterable[int],
            max_len: Optional[int], max_action: Optional[Fraction],
            epsilon: Optional[Fraction]):
    """The test ``within(action, length)`` of an enumerator's bounds.

    The action bound is relaxed by the slack 3*eps per letter.  A slack of
    half the least action of a usable chord or more is rejected: below it
    every letter adds more than half its action, so the slack at most
    doubles the word length that the action bound allows.
    """
    if max_len is None and max_action is None:
        raise ValueError("need a length or action bound")
    slack = 3 * epsilon if epsilon is not None else Fraction(0)
    least = min((d.chord(c).action for c in chords), default=None)
    if max_action is not None and least is not None and 2 * slack >= least:
        raise ValueError(f"epsilon too large for the action bound: 6*eps "
                         f"must stay below the least chord action {least}")

    def within(action: Fraction, length: int) -> bool:
        return (max_len is None or length <= max_len) and \
            (max_action is None or action <= max_action + slack * length)
    return within


def enumerate_orbit_words(d: ResolvedDiagram,
                          max_len: Optional[int] = None,
                          max_action: Optional[Fraction] = None,
                          epsilon: Optional[Fraction] = None
                          ) -> List[CyclicWord]:
    """All cyclic words of composable chords on the surgered sublink.

    Non-primitive words (multiple covers) are included; each class appears
    once, in canonical rotation.  With ``epsilon`` given, the action bound is
    relaxed by the 3*eps*wordlength slack so that every closed trajectory of
    true action below the bound is guaranteed to appear.
    """
    if not any(v != 0 for v in d.surgery.values()):
        raise ValueError("empty surgery locus: no orbits exist")
    chords = surgered_chords(d)
    within = _bounds(d, chords, max_len, max_action, epsilon)
    out: List[CyclicWord] = []
    # one level per word length, each in lexicographic order: a level
    # extends the previous one's words in order by each chord in id order
    level: List[Tuple[Tuple[int, ...], Fraction]] = [((), Fraction(0))]
    while level:
        longer = []
        for seq, action in level:
            for c in chords:
                # canonical words start with their minimal letter
                if seq and (c < seq[0] or not d.composable(seq[-1], c)):
                    continue
                nxt_action = action + d.chord(c).action
                if within(nxt_action, len(seq) + 1):
                    longer.append((seq + (c,), nxt_action))
        level = longer
        out.extend(CyclicWord(d, seq) for seq, _ in level
                   if d.composable(seq[-1], seq[0])
                   and seq == canonical_rotation(seq))
    return out


def enumerate_chord_words(d: ResolvedDiagram,
                          max_len: Optional[int] = None,
                          max_action: Optional[Fraction] = None,
                          epsilon: Optional[Fraction] = None) -> List[Word]:
    """Words naming chords of the coefficient-0 sublink after surgery.

    The first chord starts on a component with coefficient 0, the last ends
    on one, and all intermediate endpoints lie on the surgered sublink.
    """
    lambda0 = {i for i, v in d.surgery.items() if v == 0}
    if not lambda0:
        raise ValueError("empty zero-coefficient sublink")
    within = _bounds(d, [c.id for c in d.chords], max_len, max_action,
                     epsilon)
    out: List[Word] = []
    # one level per word length, each in lexicographic order; a word that
    # ends on the zero sublink is complete and is not extended
    level: List[Tuple[Tuple[int, ...], Fraction]] = [((), Fraction(0))]
    while level:
        longer = []
        for seq, action in level:
            for c in d.chords:
                if (not d.composable(seq[-1], c.id) if seq
                        else c.tail_comp not in lambda0):
                    continue
                nxt_action = action + c.action
                if not within(nxt_action, len(seq) + 1):
                    continue
                if c.tip_comp in lambda0:
                    out.append(Word(d, seq + (c.id,)))
                else:       # interior endpoints stay on the handles
                    longer.append((seq + (c.id,), nxt_action))
        level = longer
    return out


class OrbitString(object):
    """A side choice (capping arc or its opposite) for each step of a word."""

    def __init__(self, word: CyclicWord, sides: Sequence[str]):
        if len(sides) != len(word.chords):
            raise ValueError("need one side choice per composable pair")
        for s in sides:
            if s not in ("eta", "etabar"):
                raise ValueError(f"bad side {s!r}")
        self.word = word
        self.sides = tuple(sides)

    def __repr__(self):
        return "*".join(self.sides)


class PushOutCurve(object):
    """Closed planar curve tracking an orbit pushed off the surgery handles.

    Only the curve's sums are kept: ``linking`` maps each component to the
    exact linking number of the pushed-out orbit with it, and ``windings``
    holds the curve's winding numbers around the face basepoints, in
    ``faces_list`` order; it is None when the curve passes through a
    basepoint.
    """

    def __init__(self, linking: Dict[int, Fraction], word, string,
                 windings: Optional[Tuple[int, ...]]):
        self.linking = linking
        self.word = word
        self.string = string
        self.windings = windings


def pass_counts(d: ResolvedDiagram, j1: int, j2: int, side: str
                ) -> List[int]:
    """Signed crossing counts per component of a pushed-off capping arc.

    Passing chord c's tail counts c's sign against its tip's component, and
    the reverse; ``etabar`` arcs count with the sign reversed.
    """
    counts = [0] * len(d.components)
    ride_sign = 1 if side == "eta" else -1
    for cid, role in d.capping_path(j1, j2, side).interior:
        ch = d.chord(cid)
        comp = ch.tip_comp if role == "tail" else ch.tail_comp
        counts[comp] += ride_sign * ch.sign
    return counts


def chord_counts(d: ResolvedDiagram, j: int) -> List[Fraction]:
    """The local count at chord j per component: (c + sign)/2 at each end.

    c is the coefficient of the end's component, so the count is integral
    on the surgered sublink and half-integral elsewhere.
    """
    ch = d.chord(j)
    counts = [Fraction(0)] * len(d.components)
    for comp in (ch.tail_comp, ch.tip_comp):
        counts[comp] += Fraction(d.surgery[comp] + ch.sign, 2)
    return counts


class _Piece(NamedTuple):
    """An open piece of push-out curves with its share of their data.

    ``start`` and ``end`` are its end points; ``crossings`` are its signed
    crossings of the leftward ray from each face basepoint, None when it
    touches one; ``counts`` are its signed crossing counts per component,
    twice its share of the linking numbers.
    """
    start: Tuple
    end: Tuple
    crossings: Optional[Tuple[int, ...]]
    counts: List[int]


def _piece(d: ResolvedDiagram, points, counts) -> _Piece:
    try:
        crossings = tuple(winding_number(points, f.basepoint, closed=False)
                          for f in d.faces_list)
    except ValueError:
        crossings = None
    return _Piece(points[0], points[-1], crossings, counts)


def _crossings(pieces) -> Optional[Tuple[int, ...]]:
    """The entrywise sum of the pieces' crossings, None if one is None."""
    if any(piece.crossings is None for piece in pieces):
        return None
    return tuple(map(sum, zip(*(piece.crossings for piece in pieces))))


def _step(d: ResolvedDiagram, comp: int, k: int, side: str,
          offset: Fraction) -> _Piece:
    """The piece along passage arc k of comp (against it for etabar)."""
    key = ("step", comp, k, side, offset)
    if key not in d.memo:
        arc = offset_polyline(
            d.passage_arcs[comp][k][::1 if side == "eta" else -1],
            "left" if d.surgery[comp] == 1 else "right", offset)
        points = [arc[0]] + [q for p, q in zip(arc, arc[1:]) if q != p]
        d.memo[key] = _piece(d, points, [])
    return d.memo[key]


def _arc(d: ResolvedDiagram, j1: int, j2: int, side: str, offset: Fraction):
    """The push-out piece along capping arc (j1, j2, side), memoized: the
    run of steps from r_j1's tip passage to r_j2's tail passage.  Chord
    points lie inside segments, so the whole arc's offset passes through
    each shifted passage point, and its crossings are the steps' sums."""
    key = ("arc", j1, j2, side, offset)
    if key not in d.memo:
        comp = d.capping_path(j1, j2, side).component
        if d.surgery[comp] == 0:
            raise ValueError(f"capping path of r{j1}r{j2} rides an "
                             f"unsurgered component")
        run = d.passage_run(j1, j2, side)
        steps = [_step(d, comp, k, side, offset)
                 for k in (run[:-1] if side == "eta" else run[1:])]
        d.memo[key] = _Piece(steps[0].start, steps[-1].end,
                             _crossings(steps), pass_counts(d, j1, j2, side))
    return d.memo[key]


def _jump(d: ResolvedDiagram, j: int, side_in: str, side_out: str,
          offset: Fraction, a, b):
    """The push-out piece at chord j from arc end a to arc start b, memoized.

    a and b depend only on j, the arcs' sides and the offset (an arc's end
    segment is the one through the chord), so they are not in the key.
    """
    key = ("jump", j, side_in, side_out, offset)
    if key not in d.memo:
        ch = d.chord(j)
        c_tail = d.surgery[ch.tail_comp]
        c_tip = d.surgery[ch.tip_comp]
        if c_tail == 0 or c_tip == 0:
            raise ValueError(f"chord r{j} touches an unsurgered component")
        counts = [int(x) for x in chord_counts(d, j)]
        # side-dependent local terms: an opposite-side ride reaches the chord
        # across the other strand, trading one crossing with each component
        if side_in == "etabar":                   # ride into the tail
            counts[ch.tail_comp] -= c_tail
            counts[ch.tip_comp] -= ch.sign
        if side_out == "etabar":                  # ride out of the tip
            counts[ch.tip_comp] -= c_tip
            counts[ch.tail_comp] -= ch.sign
        d.memo[key] = _piece(d, [a, b] if a != b else [a], counts)
    return d.memo[key]


def push_out(d: ResolvedDiagram, w: CyclicWord,
             s: Optional[OrbitString] = None,
             offset: Fraction = Fraction(1, 8)) -> PushOutCurve:
    """Homotope the orbit of w into the handle complement along s.

    The curve follows each chosen capping arc at a small offset: on the left
    of the component when its coefficient is +1, on the right when -1 (sides
    taken relative to the direction of travel), and jumps across each chord
    of the word.  Its winding and linking data are the sums of those of the
    memoized arc and jump pieces; the curve itself is never assembled.
    """
    if s is None:
        s = OrbitString(w, ["eta"] * len(w.chords))
    arcs = [_arc(d, j1, j2, s.sides[k], offset)
            for k, (j1, j2) in enumerate(w.pairs())]
    pieces = list(arcs)
    for k, j in enumerate(w.chords):
        pieces.append(_jump(d, j, s.sides[k - 1], s.sides[k], offset,
                            arcs[k - 1].end, arcs[k].start))
    linking = {}
    for comp in d.surgery:
        tot = sum(piece.counts[comp] for piece in pieces)
        if tot % 2 != 0:
            raise DiagramError(
                f"odd signed crossing count {tot} with component {comp}")
        linking[comp] = Fraction(tot, 2)
    return PushOutCurve(linking, w, s, _crossings(pieces))
