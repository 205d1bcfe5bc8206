"""Words of chords: closed-orbit and surgered-chord enumeration, push-outs.

After contact surgery the closed Reeb trajectories are named by cyclic words
of composable chords on the surgered sublink, and the surviving chords of a
zero-coefficient sublink by open words.  This module enumerates both within
length/action bounds, with the chord actions as the diagram's ints over
its ``action_den``, and winds the planar push-out curves used for
intersection gradings around the face basepoints.  Orbit words grow as
one prefix tree whose nodes carry their letters, action and return-map
rows, so no word is checked twice; a row entry is one int, its
polynomial in u at u = 2^W (``_width``).
Words hold no diagram, so a diagram's memo tables never keep it alive.

A push-out is wound in two memo tables, at the one offset ``PUSH_OFF`` and
in ints on one grid per diagram that also holds the face basepoints.  The
first holds per passage arc (a component's stretch between consecutive
chord passages, which the diagram keeps as ints over its scale, a
divisor of the grid's unit) its offset step's (start, end, crossings),
the ends as grid ints and the crossings at every face basepoint.  The
second holds per letter (``ResolvedDiagram.letter``) the sums over the
steps of its capping arc plus the jump across r_j2, whose crossings are
memoized per chord.  A word's winding numbers are the sum of its
letters' rows.  A push-out's linking numbers are its orbit class, which
``homology`` sums from the letters' crossing monomials.
"""

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, List, Optional, Sequence, Tuple

from .diagram import DiagramError, Letter, ResolvedDiagram, _on_grid
from .geometry import offset_polyline, winding_number

# The side offset of every push-out piece.  offset_polyline moves no point
# more than sqrt(5)/8 < 0.28 (over all octant turns the worst case is a 135
# degree corner), and every face basepoint clears every segment of the
# diagram by more than 1/2, so no piece touches a basepoint and the
# windings are those at any smaller offset.
PUSH_OFF = Fraction(1, 8)

# The most words and open prefixes an orbit-word enumeration keeps, and the
# most letters in one; past either it raises a ValueError (CLI exit 2)
# rather than grow memory without limit.  The letter bound caps the width
# at which every node packs its return-map rows, whatever the length bound.
MAX_WORD_NODES = 100_000
MAX_WORD_LENGTH = 64

def _width(n: int) -> int:
    """The packing width W of words of at most n letters.  A twist by
    c = +-1 (a surgery coefficient) at most doubles an entry's coefficient
    L1 norm, so after n letters it is at most 2^n, every coefficient of
    a d - b e - 1 is at most 2^(2n+1) + 1 < 2^(W-1) in size, and a
    polynomial with coefficients that small is read back exactly from its
    value at u = 2^W, as balanced base-2^W digits (``unpack``)."""
    return 2 * n + 3


def unpack(x: int, width: int) -> Tuple[int, ...]:
    """The coefficients, ascending, of the polynomial with value x at
    u = 2^width and coefficients in [-2^(width-1), 2^(width-1)); (0,) for
    x = 0.  Each digit is the low bits of x + 2^(width-1), less that."""
    mask, half, out = (1 << width) - 1, 1 << (width - 1), []
    while True:
        x += half
        out.append((x & mask) - half)
        x >>= width
        if not x:
            return tuple(out)


def _twist(sign: int, rows, letter: Letter, width: int):
    """Sign and rows (a, b), (e, f) times one more letter's sign and J0
    [[1, -c u], [0, 1]]: the rows become (-e, -f), (a - c u e, b - c u f),
    so they are continuants in u, each held as its value at u = 2^width."""
    a, b, e, f = rows
    c = letter.c
    return sign * letter.sign, (-e, -f, a - (c * e << width),
                                b - (c * f << width))


class Word(object):
    """Composable (non-cyclic) sequence of chord ids, with its action as
    the int ``act`` over the diagram's ``action_den``, ``den``.  The
    ``Fraction`` act / den is built at the first ``action()`` and kept in
    ``total``, so a word whose action no one reads builds none."""

    __slots__ = ("chords", "act", "den", "total")

    def __init__(self, diagram: ResolvedDiagram, chords: Sequence[int]):
        if not chords:
            raise DiagramError("empty word")
        self.chords = tuple(int(c) for c in chords)
        for a, b in zip(self.chords, self.chords[1:]):
            if not diagram.composable(a, b):
                raise DiagramError(f"chords r{a}, r{b} are not composable")
        self.act = sum(diagram.actions[c - 1] for c in self.chords)
        self.den, self.total = diagram.action_den, None

    def __len__(self):
        return len(self.chords)

    def __repr__(self):
        return "".join(f"r{c}" for c in self.chords)

    def action(self) -> Fraction:
        if self.total is None:
            self.total = Fraction(self.act, self.den)
        return self.total


def word_name(chords: Sequence[int]) -> str:
    """The name of the orbit word of ``chords``: ``(r1r2...)``."""
    return "(" + "".join(f"r{c}" for c in chords) + ")"


def canonical_rotation(chords: Sequence[int]) -> Tuple[int, ...]:
    seq = tuple(chords)
    return min((seq[k:] + seq[:k] for k in range(len(seq))), default=seq)


class CyclicWord(Word):
    """Cyclic word in canonical (lexicographically minimal) rotation.

    Cyclic words name closed trajectories, so they may only use chords of
    the surgered sublink.  ``letters`` holds one ``ResolvedDiagram.letter``
    per consecutive pair, the closing one last; fetching them enforces that
    rule.  A word also carries its return map's ``sign`` and ``rows``,
    packed at ``width``, that of its length or of its enumerator's bound.
    """

    __slots__ = ("letters", "sign", "rows", "width")

    def __init__(self, diagram: ResolvedDiagram, chords: Sequence[int]):
        seq = canonical_rotation(chords)
        super().__init__(diagram, seq)
        if not diagram.composable(self.chords[-1], self.chords[0]):
            raise DiagramError(
                f"closing pair r{self.chords[-1]}, r{self.chords[0]} "
                f"not composable")
        self.letters = tuple(diagram.letter(a, b) for a, b in self.pairs())
        sign, rows, self.width = 1, (1, 0, 0, 1), _width(len(seq))
        for letter in self.letters:
            sign, rows = _twist(sign, rows, letter, self.width)
        self.sign, self.rows = sign, rows

    def __eq__(self, other):
        return isinstance(other, CyclicWord) and self.chords == other.chords

    def __hash__(self):
        return hash(("cyc",) + self.chords)

    def __repr__(self):
        return word_name(self.chords)

    def pairs(self) -> List[Tuple[int, int]]:
        """Consecutive pairs including the closing one."""
        c = self.chords
        return list(zip(c, c[1:] + c[:1]))

    def multiplicity(self) -> int:
        """The largest k with w = v^k: n over the least rotation fixing w."""
        seq = self.chords
        return len(seq) // next(p for p in range(1, len(seq) + 1)
                                if seq == seq[p:] + seq[:p])


def _orbit_word(chords, letters, act, den, width, sign, rows) -> CyclicWord:
    """The CyclicWord of an enumerator's node, which checked it already."""
    w = CyclicWord.__new__(CyclicWord)
    w.chords, w.letters, w.act, w.den = chords, letters, act, den
    w.total, w.width, w.sign, w.rows = None, width, sign, rows
    return w


def surgered_chords(d: ResolvedDiagram) -> List[int]:
    """Ids of the chords with both ends on the surgered sublink."""
    return [c.id for c in d.chords
            if d.surgery[c.tail_comp] != 0 and d.surgery[c.tip_comp] != 0]


def _bounds(d: ResolvedDiagram, chords: Iterable[int],
            max_len: Optional[int], max_action: Optional[Fraction],
            epsilon: Optional[Fraction]):
    """(actions, top, cap): actions are the chords' ints over the
    diagram's ``action_den``, no word is longer than top, and a word of
    length n costs at most cap(n) = floor((max_action + 3*eps*n) * den).
    A slack 3*eps of half the least action of a usable chord or more is
    rejected: below it the slack at most doubles the word length that the
    action bound allows, as every letter adds over half its action."""
    if max_len is None and max_action is None:
        raise ValueError("need a length or action bound")
    den = d.action_den
    slack = 3 * epsilon * den if epsilon is not None else 0
    actions = {c: d.actions[c - 1] for c in chords}
    least = min(actions.values(), default=None)
    if max_action is not None and least is not None and 2 * slack >= least:
        raise ValueError(f"epsilon too large for the action bound: 6*eps "
                         f"must stay below the least chord action "
                         f"{Fraction(least, den)}")
    if max_action is None:      # n letters cost at most n dearest chords
        return actions, max_len, \
            lambda n: n * max(actions.values(), default=0)
    # n letters cost at least n * least, and least exceeds the slack
    top = max_action * den // (least - slack) if least else 0
    top = top if max_len is None else min(top, max_len)
    return actions, top, lambda n: (max_action * den + slack * n) // 1


def enumerate_orbit_words(d: ResolvedDiagram,
                          max_len: Optional[int] = None,
                          max_action: Optional[Fraction] = None,
                          epsilon: Optional[Fraction] = None
                          ) -> List[CyclicWord]:
    """All cyclic words of composable chords on the surgered sublink.

    Non-primitive words (multiple covers) are included; each class appears
    once, in canonical rotation, by length and then lexicographically.  With
    ``epsilon`` given, the action bound is relaxed by the 3*eps*wordlength
    slack so that every closed trajectory of true action below the bound is
    guaranteed to appear.  Words are necklaces, grown a length at a time by
    the Fredricksen-Kessler-Maiorana rule: a prenecklace seq of length n and
    period p extends by each c >= seq[n - p], keeping p if c equals it and
    taking n + 1 if not, and is its own least rotation when p divides n.
    Nodes are flat tuples (chords, period, action over den, letters, sign,
    rows packed at the width of the bound, or of ``MAX_WORD_LENGTH`` if
    less); a word adds only its closing letter.  Past ``MAX_WORD_NODES``
    words and kept prefixes, or at a kept prefix longer than
    ``MAX_WORD_LENGTH``, it raises ValueError.
    """
    if not any(v != 0 for v in d.surgery.values()):
        raise ValueError("empty surgery locus: no orbits exist")
    chords = surgered_chords(d)
    actions, top, cap = _bounds(d, chords, max_len, max_action, epsilon)
    den = d.action_den
    successors = {a: [b for b in chords if d.composable(a, b)]
                  for a in chords}
    pairs = {(a, b) for a in chords for b in successors[a]}
    out: List[CyclicWord] = []
    width = _width(min(top, MAX_WORD_LENGTH))
    level = [((c,), 1, actions[c], (), 1, (1, 0, 0, 1)) for c in chords
             if top and actions[c] <= cap(1)]
    n = 1
    while level:
        cap_n, longer = cap(n + 1), []
        for seq, p, act, lts, sign, rows in level:
            if n % p == 0 and (seq[-1], seq[0]) in pairs:
                lt = d.letter(seq[-1], seq[0])
                out.append(_orbit_word(seq, lts + (lt,), act, den, width,
                                       *_twist(sign, rows, lt, width)))
            least = seq[n - p]
            for c in successors[seq[-1]] if n < top else ():
                q = p if c == least else n + 1
                if c < least or act + actions[c] > cap_n or n + 1 == top \
                        and ((n + 1) % q or (c, seq[0]) not in pairs):
                    continue        # past the caps, or a leaf but no word
                if n == MAX_WORD_LENGTH:
                    raise ValueError(f"orbit words past MAX_WORD_LENGTH = "
                                     f"{MAX_WORD_LENGTH} letters")
                lt = d.letter(seq[-1], c)
                longer.append((seq + (c,), q, act + actions[c], lts + (lt,),
                               *_twist(sign, rows, lt, width)))
                if len(out) + len(longer) > MAX_WORD_NODES:
                    raise ValueError(f"orbit words and open prefixes passed "
                                     f"MAX_WORD_NODES = {MAX_WORD_NODES}")
        level, n = longer, n + 1
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
    actions, top, cap = _bounds(d, [c.id for c in d.chords], max_len,
                                max_action, epsilon)
    out: List[Word] = []
    # one level per word length, each in lexicographic order; a word that
    # ends on the zero sublink is complete and is not extended
    level, n = [((), 0)], 1
    while level and n <= top:
        cap_n, longer = cap(n), []
        for seq, act in level:
            for c in d.chords:
                if (not d.composable(seq[-1], c.id) if seq
                        else c.tail_comp not in lambda0) or \
                        act + actions[c.id] > cap_n:
                    continue
                if c.tip_comp in lambda0:
                    out.append(Word(d, seq + (c.id,)))
                else:       # interior endpoints stay on the handles
                    longer.append((seq + (c.id,), act + actions[c.id]))
        level, n = longer, n + 1
    return out


def _grid(d: ResolvedDiagram) -> Tuple[int, List[Tuple[int, int]]]:
    """(unit, basepoints): the push-outs' integer grid and the face
    basepoints as int pairs on it, built at the first push-out rather than
    in ``resolve``, so it holds basepoints moved in between.  Chord points
    are over ``d._scale`` and PUSH_OFF / 2 is 1/16, so on the lcm of
    32 * _scale and the basepoints' denominators the passage arcs, their
    offsets and corners are ints."""
    key = ("grid",)
    if key not in d.memo:
        bps = [f.basepoint for f in d.faces_list]
        unit = lcm(32 * d._scale, *(v.denominator for p in bps for v in p))
        d.memo[key] = unit, _on_grid(bps, unit)
    return d.memo[key]


def _crossings(d: ResolvedDiagram, points) -> Tuple[int, ...]:
    """The signed crossings of the push-out piece through ``points``, ints
    on the grid, with the leftward ray from each face basepoint.  A piece
    through a basepoint is a fault: ``PUSH_OFF`` keeps them off."""
    try:
        return tuple(winding_number(points, bp, closed=False)
                     for bp in _grid(d)[1])
    except ValueError as exc:
        raise DiagramError(f"push-out piece meets a face basepoint: "
                           f"{exc}") from exc


def _step(d: ResolvedDiagram, comp: int, k: int):
    """(start, end, crossings) of passage arc k of comp offset on the grid,
    memoized per arc; a repeated point of the offset crosses no ray.  The
    arc's points are ints over ``d._scale``, which divides the grid's
    unit, so one int factor puts them on the grid.  The arc is the
    diagram's own, so a ValueError of the offset is a fault."""
    steps = d.memo.setdefault(("steps",), {})
    if (comp, k) not in steps:
        unit = _grid(d)[0]
        m = unit // d._scale
        try:
            arc = offset_polyline([(x * m, y * m) for x, y in
                                   d._arcs[comp][k]],
                                  "left" if d.surgery[comp] == 1
                                  else "right", PUSH_OFF, unit=unit)
        except ValueError as exc:
            raise DiagramError(f"push-out fault on passage arc {k} of "
                               f"component {comp}: {exc}") from exc
        steps[comp, k] = arc[0], arc[-1], _crossings(d, arc)
    return steps[comp, k]


def _letter_crossings(d: ResolvedDiagram, j1: int, j2: int
                      ) -> Tuple[int, ...]:
    """The crossings of letter r_j1 r_j2's share of a push-out, memoized
    per pair: its capping arc, the steps along the letter's passage arcs
    from r_j1's tip passage to r_j2's tail passage, then the jump across
    r_j2, memoized per chord, from the end of the step into r_j2's tail
    passage (arc k - 1 of its component) to the start of the step out of
    its tip passage.  Chord points lie inside segments, so the whole arc's
    offset passes through each shifted passage point, and its crossings
    are the steps' sums."""
    rows = d.memo.setdefault(("crossings",), {})
    if (j1, j2) not in rows:
        comp = d.chord(j1).tip_comp
        arc = map(sum, zip(*(_step(d, comp, k)[2]
                             for k in d.letter(j1, j2).arcs)))
        jumps = d.memo.setdefault(("jumps",), {})
        if j2 not in jumps:
            comp, k = d._passage_of[j2, "tail"]
            end = _step(d, comp, (k - 1) % len(d.passages[comp]))[1]
            nxt = _step(d, *d._passage_of[j2, "tip"])[0]
            jumps[j2] = _crossings(d, [end, nxt])
        rows[j1, j2] = tuple(map(add, arc, jumps[j2]))
    return rows[j1, j2]


def push_out(d: ResolvedDiagram, w: CyclicWord) -> Tuple[int, ...]:
    """Winding numbers of the orbit of w homotoped off the surgery handles
    around the face basepoints, in ``faces_list`` order.

    The curve follows each capping arc at the offset ``PUSH_OFF``: on the
    left of the component when its coefficient is +1, on the right when -1
    (sides taken relative to the direction of travel), and jumps across
    each chord of the word.  Its windings are the sums of its letters'
    memoized crossings; the curve itself is never assembled.
    """
    return tuple(map(sum, zip(*(_letter_crossings(d, a, b)
                                for a, b in w.pairs()))))
