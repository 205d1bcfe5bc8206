"""Words of chords: closed-orbit and surgered-chord enumeration, push-outs.

After contact surgery the closed Reeb trajectories are named by cyclic words
of composable chords on the surgered sublink, and the surviving chords of a
zero-coefficient sublink by open words.  This module enumerates both within
length/action bounds, canonicalizes cyclic rotation, and winds the planar
push-out curves used for intersection gradings around the face basepoints.
A ``CyclicWord`` holds its letters, one ``ResolvedDiagram.letter`` per
composable pair, and the per-word invariants read them off the word.

A push-out is made of pieces, each built once per diagram at the one offset
``PUSH_OFF``, with its end points and its ray crossings at every face
basepoint; a word's winding numbers are exact sums over its pieces.  Only
the step pieces, one per passage interval (a component's stretch between
consecutive chord passages), are offset and wound: the capping arc of a
composable pair runs over the passage arcs its letter
(``ResolvedDiagram.letter``) lists, and a jump at each chord closes the
gaps.  A push-out's linking numbers are its
orbit class, which ``homology`` sums from the letters' crossing monomials.
"""

from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .diagram import DiagramError, ResolvedDiagram
from .geometry import offset_polyline, winding_number

# The side offset of every push-out piece.  offset_polyline moves no point
# more than sqrt(5)/8 < 0.28 (over all octant turns the worst case is a 135
# degree corner), and every face basepoint clears every segment of the
# diagram by more than 1/2, so no piece touches a basepoint and the
# windings are those at any smaller offset.
PUSH_OFF = Fraction(1, 8)


class Word(object):
    """Composable (non-cyclic) sequence of chord ids."""

    __slots__ = ("diagram", "chords")

    def __init__(self, diagram: ResolvedDiagram, chords: Sequence[int]):
        if not chords:
            raise DiagramError("empty word")
        self.diagram = diagram
        self.chords = tuple(int(c) for c in chords)
        for a, b in zip(self.chords, self.chords[1:]):
            if not diagram.composable(a, b):
                raise DiagramError(f"chords r{a}, r{b} are not composable")

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
    the surgered sublink.  ``letters`` holds one ``ResolvedDiagram.letter``
    per consecutive pair, the closing one last; fetching them enforces that
    rule.
    """

    __slots__ = ("letters",)

    def __init__(self, diagram: ResolvedDiagram, chords: Sequence[int]):
        seq = canonical_rotation(chords)
        super().__init__(diagram, seq)
        if not diagram.composable(self.chords[-1], self.chords[0]):
            raise DiagramError(
                f"closing pair r{self.chords[-1]}, r{self.chords[0]} "
                f"not composable")
        self.letters = tuple(diagram.letter(a, b) for a, b in self.pairs())

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

    def multiplicity(self) -> int:
        """The largest k with w = v^k: n over the least rotation fixing w."""
        seq = self.chords
        return len(seq) // next(p for p in range(1, len(seq) + 1)
                                if seq == seq[p:] + seq[:p])


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


class _Piece(NamedTuple):
    """An open piece of push-out curves: ``start`` and ``end`` are its end
    points, ``crossings`` its signed crossings of the leftward ray from each
    face basepoint."""
    start: Tuple
    end: Tuple
    crossings: Tuple[int, ...]


def _piece(d: ResolvedDiagram, points) -> _Piece:
    """A piece through a basepoint is a fault: ``PUSH_OFF`` keeps them off."""
    try:
        crossings = tuple(winding_number(points, f.basepoint, closed=False)
                          for f in d.faces_list)
    except ValueError as exc:
        raise DiagramError(f"push-out piece meets a face basepoint: "
                           f"{exc}") from exc
    return _Piece(points[0], points[-1], crossings)


def _crossings(pieces) -> Tuple[int, ...]:
    """The entrywise sum of the pieces' crossings."""
    return tuple(map(sum, zip(*(piece.crossings for piece in pieces))))


def _step(d: ResolvedDiagram, comp: int, k: int) -> _Piece:
    """The piece along passage arc k of comp.  The arc is the diagram's
    own, so a ValueError of the offset is an internal fault."""
    key = ("step", comp, k)
    if key not in d.memo:
        try:
            arc = offset_polyline(d.passage_arcs[comp][k],
                                  "left" if d.surgery[comp] == 1
                                  else "right", PUSH_OFF)
        except ValueError as exc:
            raise DiagramError(f"push-out fault on passage arc {k} of "
                               f"component {comp}: {exc}") from exc
        points = [arc[0]] + [q for p, q in zip(arc, arc[1:]) if q != p]
        d.memo[key] = _piece(d, points)
    return d.memo[key]


def _arc(d: ResolvedDiagram, j1: int, j2: int) -> _Piece:
    """The push-out piece along the capping arc of r_j1 r_j2, memoized: the
    steps along the letter's passage arcs, from r_j1's tip passage to r_j2's
    tail passage.  Chord points lie inside segments, so the whole arc's
    offset passes through each shifted passage point, and its crossings are
    the steps' sums."""
    key = ("arc", j1, j2)
    if key not in d.memo:
        comp = d.chord(j1).tip_comp
        steps = [_step(d, comp, k) for k in d.letter(j1, j2).arcs]
        d.memo[key] = _Piece(steps[0].start, steps[-1].end,
                             _crossings(steps))
    return d.memo[key]


def _jump(d: ResolvedDiagram, j: int, a, b) -> _Piece:
    """The push-out piece at chord j from arc end a to arc start b, memoized.

    a and b depend only on j (an arc's end segment is the one through the
    chord), so they are not in the key.
    """
    key = ("jump", j)
    if key not in d.memo:
        d.memo[key] = _piece(d, [a, b] if a != b else [a])
    return d.memo[key]


def push_out(d: ResolvedDiagram, w: CyclicWord) -> Tuple[int, ...]:
    """Winding numbers of the orbit of w homotoped off the surgery handles
    around the face basepoints, in ``faces_list`` order.

    The curve follows each capping arc at the offset ``PUSH_OFF``: on the
    left of the component when its coefficient is +1, on the right when -1
    (sides taken relative to the direction of travel), and jumps across
    each chord of the word.  Its windings are the sums of those of the
    memoized arc and jump pieces; the curve itself is never assembled.
    """
    arcs = [_arc(d, j1, j2) for j1, j2 in w.pairs()]
    jumps = [_jump(d, j, arcs[k - 1].end, arcs[k].start)
             for k, j in enumerate(w.chords)]
    return _crossings(arcs + jumps)
