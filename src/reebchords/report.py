"""Generator tables and differential-candidate filtering.

Assembles, per orbit word within bounds, everything the chain-level analysis
needs (grading, homology class, action, hyperbolic type, intersection
grading), then filters candidate targets of the degree-1-down differential
with every available obstruction.  Counts are only ever asserted where a
bubbling face forces them; all other survivors stay "count unknown".  The
search runs in ints: costs over one common denominator, fiber vectors as
``effective_fiber_vector`` gives them, over ``H1Presentation.exponent``.
Its pool is read off one table per (pool length, eps) in the diagram's
memo, sorted once by (action, chords), with actions and costs as ints
over one denominator: a search sorts nothing and compares no ``Fraction``.
``chain`` asks each distinct question once (``candidate_reports``), and
ranks the questions by the same int budget.

A search's filters are one table of int rows over its pool (distinct face
rows, class rows, the degree row), built per search from what the
diagram's memo keeps per word: its ``OrbitClass.lift`` and its fiber
vector.  The walk keeps a product's face-row slacks and z-graded degree
window as fixed-width fields of one int, whose width a bound on the
factors makes exact, so both prunes are one sign-mask test and a product
passes on its congruence sums and one mask.  Under the
intersection-grading filter a proof that no product the class rows admit
has a fractional fiber count runs once per pool, skipped for a pool
inside one already proven, and an exact branch and bound over the same
rows decides whether a non-constant product passes, once the walk has
examined as many products as its LP has rows x (columns + rows): at most
MAX_NODES products plus MAX_NODES // that many LPs.  A proof that none
does ends the search complete.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add
from typing import List, Optional, Tuple

from .diagram import DiagramError, ResolvedDiagram
from .dynamics import hyperbolic_type, is_bad, return_map
from .homology import H1Presentation, orbit_class_monomial
from .indices import canonical_grading_valid, cz_integral
from .lp import feasible_vertex
from .quiver import bubbling_faces, effective_fiber_vector, i_grading
from .words import CyclicWord, enumerate_orbit_words, surgered_chords, unpack

# The work bound of one generator's candidate search: it stops after
# examining MAX_NODES products under the action budget (each one visited or
# cut by a prune), or at the first survivor beyond MAX_SURVIVORS, and its
# report names the reason.  The survivors it keeps are then the first
# entries of the full list, in order.
MAX_NODES = 100_000
MAX_SURVIVORS = 48


class GeneratorRecord(object):
    """One orbit word with its chain-level invariants."""

    __slots__ = ("word", "cz", "degree", "orbit_class", "hyperbolic",
                 "threshold", "good", "igrading")

    def __init__(self, d: ResolvedDiagram, h1: H1Presentation, w: CyclicWord):
        self.word = w
        self.cz = cz_integral(d, w)
        self.degree = self.cz - 1
        self.orbit_class = orbit_class_monomial(d, h1, w)
        self.hyperbolic, self.threshold = hyperbolic_type(
            self.cz % 2, return_map(d, w).trace())
        self.good = not is_bad(d, w)
        self.igrading: Optional[Tuple[int, ...]] = None
        if h1.finite and self.orbit_class.is_zero():
            self.igrading = i_grading(d, h1, w)

    @property
    def action(self) -> Fraction:
        """The word's action, a ``Fraction`` built at its first read."""
        return self.word.action()

    def __repr__(self):
        flag = "good" if self.good else "bad"
        return f"<{self.word} cz={self.cz} {flag}>"


def generator_record(d: ResolvedDiagram, h1: H1Presentation,
                     w: CyclicWord) -> GeneratorRecord:
    """The one GeneratorRecord of w, memoized per diagram."""
    key = ("record", w.chords)
    if key not in d.memo:
        d.memo[key] = GeneratorRecord(d, h1, w)
    return d.memo[key]


def generators(d: ResolvedDiagram, h1: H1Presentation,
               max_len: Optional[int] = None,
               max_action: Optional[Fraction] = None,
               epsilon: Optional[Fraction] = None) -> List[GeneratorRecord]:
    """All orbit words within bounds, bad ones included and flagged."""
    return [generator_record(d, h1, w) for w in
            enumerate_orbit_words(d, max_len, max_action, epsilon)]


class Candidate(object):
    """A surviving monomial in the filtered differential of a generator."""

    def __init__(self, factors: Tuple[CyclicWord, ...], label: str,
                 faces=None, trail=None):
        self.factors = factors           # () is the constant term 1
        self.label = label
        self.faces = faces or []         # bubbling witnesses, constant term only
        self.trail = trail or {}

    def is_constant(self):
        return not self.factors

    @property
    def sign_ambiguous(self) -> bool:
        """Two or more witness faces: their +-1 counts may cancel."""
        return len(self.faces) > 1

    def __repr__(self):
        name = "1" if self.is_constant() else \
            "".join(f"({w})" for w in self.factors)
        return f"Candidate[{name}: {self.label}]"


class CandidateReport(object):
    def __init__(self, survivors: List[Candidate], z_graded: bool,
                 warning: Optional[str] = None,
                 truncated: Optional[str] = None, nodes: int = 0):
        self.survivors = survivors
        self.z_graded = z_graded
        self.warning = warning
        # None, "survivors" or "nodes"; "nodes" means that a non-constant
        # product passes or that no branch and bound had proved otherwise
        self.truncated = truncated
        self.nodes = nodes              # products the search examined


def _constant_term(d: ResolvedDiagram, g: GeneratorRecord,
                   trail) -> Candidate:
    """The constant term 1 of g's differential, of trail ``trail``, with
    the bubbling faces whose corner word is g's word as its witnesses."""
    faces = [f for f, word in bubbling_faces(d) if word == g.word.chords]
    return Candidate((), "constant term, count +-1 (bubbling face witness)"
                     if faces else "unobstructed, count unknown",
                     faces=faces, trail=trail)


def _pool_length_cap(d: ResolvedDiagram, target_degree: int) -> Optional[int]:
    """Largest word length a degree <= target generator can have, if bounded.

    Every letter of a word adds at least min_step to its index, where
    min_step ranges over the letter indices of the composable pairs; a
    positive min_step caps the length of candidate factors.  min_step
    depends only on the diagram, so it is found once per diagram.
    """
    key = ("min_step",)
    if key not in d.memo:
        chords = surgered_chords(d)
        d.memo[key] = min((d.letter(a, b).index for a in chords
                           for b in chords if d.composable(a, b)),
                          default=None)
    step = d.memo[key]
    if step is None or step <= 0:
        return None
    return max(1, (target_degree + 1) // step)


def _action_terms(d: ResolvedDiagram, epsilon: Fraction,
                  w: CyclicWord) -> Tuple[int, int]:
    """(action, slack) of w as ints over lcm(eps's denominator, the
    diagram's ``action_den``): its action and 3 eps len(w).  Their sum is
    the action budget of w's candidate search, their difference w's cost
    as a factor of a candidate."""
    den = lcm(epsilon.denominator, d.action_den)
    return (den // d.action_den * w.act,
            3 * epsilon.numerator * (den // epsilon.denominator) * len(w))


def _pool_words(d: ResolvedDiagram, h1: H1Presentation, g: GeneratorRecord,
                epsilon: Fraction, pool_len: Optional[int],
                max_degree: Optional[int]):
    """g's candidate pool (records, costs, top, actions, den): the good
    words of ``enumerate_orbit_words`` at g's budget, of degree at most
    max_degree unless it is None, by (action, chords).  They are read off
    one table per (pool_len, epsilon), of one enumeration at the largest
    budget so far (a word's prefixes cost less), sorted once, its actions
    and costs ints over den (``_action_terms``).  Costs and the budget top
    come divided by their gcd with den, so over the least denominator of
    them all."""
    key = ("pool", pool_len, epsilon)
    if key not in d.memo:
        d.memo[key] = [lcm(epsilon.denominator, d.action_den), 0, []]
    den, built, rows = table = d.memo[key]
    top = sum(_action_terms(d, epsilon, g.word))
    if top > built:
        rows = []
        for w in enumerate_orbit_words(d, pool_len, Fraction(top, den),
                                       epsilon):
            r = generator_record(d, h1, w)
            if r.good:
                act, slack = _action_terms(d, epsilon, w)
                rows.append((act, w.chords, act - slack, r))
        rows.sort()                     # chords differ: records never meet
        table[1:] = top, rows
    keep = [row for row in rows if row[2] <= top and (
        max_degree is None or row[3].degree <= max_degree)]
    common = gcd(den, top, *(row[2] for row in keep))
    return ([row[3] for row in keep], [row[2] // common for row in keep],
            top // common, [row[0] for row in keep], den)


def _field_width(fields, factors: int) -> int:
    """The width W of the walk's packed fields, for fields (a, t) of
    coefficient lists a and targets t, and at most ``factors`` factors in a
    product (and so in a suffix bound k).  A field the walk forms is t - s
    - v - k * m: s a sum of factors' coefficients, v and m one each, and
    no more than 2 * factors + 1 of them in all, so at most max|t| + (2 *
    factors + 1) * M in size, M the greatest |coefficient|.  With W - 1 >=
    the bit_length of that, every field lies in [-2^(W-1), 2^(W-1))."""
    most = max((max(map(abs, a), default=0) for a, _t in fields), default=0)
    bound = max((abs(t) for _a, t in fields), default=0) + \
        (2 * factors + 1) * most
    return bound.bit_length() + 1


def _pack(values, width: int) -> int:
    """Fields of ``width`` bits, the first lowest: the int sum of value_f *
    2^(width f).  A sum or difference of packed ints packs the fieldwise
    sums or differences, and with 2^(width - 1) added to every field (a
    bias) a field whose value lies in [-2^(width-1), 2^(width-1)) holds
    value + 2^(width-1) in [0, 2^width) with no carry into the next: its
    top bit is set exactly when the value is >= 0, so one mask, the packed
    biases high, tests all signs at once: state & high == high."""
    return sum(v << width * f for f, v in enumerate(values))


def _packed_tables(fields, n: int, width: int):
    """(columns, suffix_lo): ``_pack`` of the fields' entries of word j and
    of their minima over words i.. capped at 0, for j < n and i <= n,
    built field by field, field f adding its value << width * f once."""
    columns, suffix_lo = [0] * n, [0] * (n + 1)
    for f, (a, _t) in enumerate(fields):
        lows = list(accumulate(reversed(a), min, initial=0))[::-1]
        columns = [c + (v << width * f) for c, v in zip(columns, a)]
        suffix_lo = [c + (v << width * f) for c, v in zip(suffix_lo, lows)]
    return columns, suffix_lo


def _search_rows(d: ResolvedDiagram, h1: H1Presentation, g: GeneratorRecord,
                 pool, z_graded: bool):
    """g's filters as rows (a, mod, t) over its pool, for a product with
    multiplicities x, and each face's index among them.  a.x <= t when mod
    is None: one row per distinct face row (its fiber counts and target),
    in face order, under the i-grading filter.  Then a.x = t mod ``mod``
    (a.x = t when mod is 0): one class row (U v).x per elementary divisor
    != 1 of h1, read off each word's ``OrbitClass.lift``, and the degree
    row, last.  Each word's fiber vector and class are memoized per
    diagram, so a search only gathers them into its rows."""
    rows, face_row = [], []
    if g.igrading is not None:
        per_face = list(zip(*(effective_fiber_vector(d, h1, r.word)
                              for r in pool))) or [()] * len(g.igrading)
        distinct = {}
        face_row = [distinct.setdefault((a, t * h1.exponent), len(distinct))
                    for a, t in zip(per_face, g.igrading)]
        rows = [(list(a), None, t) for a, t in distinct]
    rows += [([r.orbit_class.lift[k] for r in pool], mod, t) for k, (mod, t)
             in enumerate(zip(h1.diagonal, g.orbit_class.reduced))
             if mod != 1]
    rows.append(([r.degree for r in pool], 0 if z_graded else 2,
                 g.degree - 1))
    return rows, face_row


def _prove_integral_fibers(rows, nf: int, exponent: int) -> None:
    """Raise unless F.x = 0 mod e = ``exponent``, F the face rows, on L =
    {x : a.x = 0 mod ``mod``, each class row}.  For a class-0 generator
    an x >= 0 is in L exactly when the collection x is null-homologous, so
    of integral fiber counts, and L holds e * Z^n: each x in L plus some
    e * (c, ..., c) is such a collection, visited or not.  Column steps on
    the pool's [class rows; face rows] columns and one column mod * e_k per
    class row k clear the class rows in turn (Euclid folds each nonzero
    entry's column into a pivot, which leaves): the rest span F.L."""
    faces, classes = rows[:nf], rows[nf:-1]
    r = len(classes)
    columns = [list(col) for col in zip(*(a for a, _m, _t in classes + faces))]
    columns += [[mod if i == k else 0 for i in range(r + nf)]
                for k, (_a, mod, _t) in enumerate(classes)]
    for k in range(r):
        pivot, *folds = [col for col in columns if col[k]]
        columns = [col for col in columns if not col[k]]
        for col in folds:
            while col[k]:
                q = pivot[k] // col[k]
                pivot, col = col, [u - q * v for u, v in zip(pivot, col)]
            columns.append(col)
    if any(v % exponent for col in columns for v in col[r:]):
        raise DiagramError("fractional fiber count on a "
                           "null-homologous collection")


def _prove_once(d: ResolvedDiagram, pool, rows, nf: int,
                exponent: int) -> None:
    """``_prove_integral_fibers`` of a search's rows, unless a proof over a
    pool that holds this one passed already: a sub-pool's class lattice is
    that of the larger pool on fewer columns, so its proof is implied.
    Only successes are kept, so every search over a pool that fails it
    raises."""
    proven = d.memo.setdefault(("proven",), [])
    if not any(p.issuperset(pool) for p in proven):
        _prove_integral_fibers(rows, nf, exponent)
        proven.append(frozenset(pool))


def _integer_point(pool, costs, top, rows, cap: int):
    """Branch and bound for a non-constant product that passes the filters:
    an integer point (x, helpers), False when there is none, or None once
    it has solved ``cap`` LPs without a verdict.  Its rows are the
    search's rows (a, mod, t): a.x <= t for mod None, a.x = t for mod 0
    and a.x - mod h = t with an integer helper h for mod >= 2, each helper
    shifted by its least value under x_j <= (top - 1) // cost_j when that
    is negative; then cost.x < top and sum(x) >= 1.  x_j > 1 on an odd word
    gets one child, x_j <= 1; else the first fractional coordinate gets
    two, the upper one first.  A child's LP is its parent's rows plus one
    bound, solved by ``feasible_vertex`` from the parent's final
    tableau."""
    n = len(pool)
    mods = [(a, mod, t) for a, mod, t in rows if mod]
    cols = n + len(mods)
    pad = [0] * len(mods)
    ge = [([-v for v in a] + pad, -t) for a, mod, t in rows if mod is None]
    ge += [([-c for c in costs] + pad, 1 - top), ([1] * n + pad, 1)]
    eq = [(a + pad, t) for a, mod, t in rows if mod == 0]
    most = [(top - 1) // c for c in costs]
    for k, (a, mod, t) in enumerate(mods):
        low = min(0, (sum(min(0, v) * m for v, m in zip(a, most)) - t) // mod)
        eq.append((a + [-mod if c == k else 0 for c in range(len(pad))],
                   t + mod * low))

    def bound(j, sign, value):          # sign * x_j >= value
        return [sign if c == j else 0 for c in range(cols)], value

    # each open node: its parent's tableau (None at the root) and its
    # branch bounds, the last one new
    stack = [(None, [])]
    while stack and cap:
        cap -= 1
        parent, bounds = stack.pop()
        node = feasible_vertex(cols, eq, ge + bounds, parent)
        if node is not None:
            x, tableau = node
            over = [j for j in range(n) if pool[j].degree % 2 and x[j] > 1]
            split = [j for j, v in enumerate(x) if v.denominator != 1]
            if over:
                stack.append((tableau, bounds + [bound(over[0], -1, -1)]))
            elif split:
                f = x[split[0]] // 1
                stack += [(tableau, bounds + [bound(split[0], -1, -f)]),
                          (tableau, bounds + [bound(split[0], 1, f + 1)])]
            else:
                return x
    return None if stack else False


def differential_candidates(g: GeneratorRecord, d: ResolvedDiagram,
                            h1: H1Presentation,
                            epsilon: Fraction,
                            max_pool_len: Optional[int] = None
                            ) -> CandidateReport:
    """Monomials not excluded by grading, homology, action, or intersections.

    Searches products of good generators of total degree one below g, equal
    homology class, and word action under g's with the 3*eps*wordlength
    safety slack, then drops anything whose intersection-grading difference
    has a negative entry.  Constant terms get annotated with the bubbling
    faces whose corner word is g's word.  The search skips every subtree
    that degree, the action budget, odd squares or the intersection
    grading rule out, and stops at the work bound of MAX_NODES and
    MAX_SURVIVORS, which the report's ``truncated`` names.  Each filter
    but the action budget is a row of one table over the pool, which the
    walk's checks and prunes and the branch and bound all read.  Under
    the i-grading filter the pool's fiber proof comes first
    (``_prove_once``: a pool inside one proven before needs none, and a
    failed proof raises in every search over its pool), and the walk calls
    ``_integer_point`` once, when it has examined ``lp_at`` products, and
    stops complete if that proves that no non-constant product survives
    (the constant term may).  Its report is pure per generator:
    ``candidate_reports`` shares one report among the rows of ``chain``.
    """
    epsilon = Fraction(epsilon)
    z_graded = canonical_grading_valid(d, h1.finite, g.orbit_class.is_zero())
    warning = None if z_graded else \
        "degree grading is only mod 2 here; filtering by parity"
    target_degree = g.degree - 1
    # without a positive per-letter index step the pool's word length is
    # bounded by the CLI's --max-len only
    pool_len = _pool_length_cap(d, target_degree) if z_graded else None
    pool_len = min((n for n in (pool_len, max_pool_len) if n is not None),
                   default=None)
    # the search runs over integers: costs and the budget share one
    # denominator, and fiber vectors are ints over h1.exponent
    pool, costs, top, actions, den = _pool_words(
        d, h1, g, epsilon, pool_len, target_degree if z_graded else None)
    use_igrading = g.igrading is not None
    n = len(pool)
    rows, face_row = _search_rows(d, h1, g, pool, z_graded)
    nf = len(set(face_row))
    if use_igrading:
        _prove_once(d, pool, rows, nf, h1.exponent)
    congruences = rows[nf:-1] if z_graded else rows[nf:]
    ccols = list(zip(*(a for a, _mod, _t in congruences))) or [()] * n
    # The walk's state of a product is one int of biased fields (see
    # _pack): each distinct face row's slack t - s and, z-graded, the degree
    # window's two sides, target - s and s - target, the second over the
    # negated degrees.  A word's column and the suffix minima suffix_lo[i]
    # over pool[i:], capped at 0, are packed alike.  Every cost is positive
    # (the enumeration rejects a slack of a chord's action), so a node with
    # budget_left whose children start at i has at most k = (budget_left -
    # 1) // suffix_min[i] more factors, which add at most -k * suffix_lo[i]
    # to each field: a face row's sum must stay at most its target, and the
    # z-graded degree row's must reach its target exactly.  Once
    # suffix_min[i] reaches the budget left no later child fits, so the
    # child loop stops there.
    degrees = rows[-1][0]
    fields = [(a, t) for a, _mod, t in rows[:nf]]
    if z_graded:
        fields += [(degrees, target_degree),
                   ([-v for v in degrees], -target_degree)]
    # a product has at most K factors, and k <= K too
    width = _field_width(fields, (top - 1) // min(costs) if costs else 0)
    high = _pack([1 << width - 1] * len(fields), width)
    columns, suffix_lo = _packed_tables(fields, n, width)
    suffix_min = list(accumulate(reversed(costs), min, initial=top))[::-1]
    # an LP costs about its tableau, rows x (columns + rows), its rows the
    # table's and cost < top and sum(x) >= 1: the branch and bound runs
    # once the search has examined that many products, for at most
    # MAX_NODES // that many LPs, so short searches never start it
    size = len(rows) + 2
    lp_at = size * (n + size) if use_igrading and pool else None
    found: List[Candidate] = []
    chosen: List[int] = []              # pool indices of the product's factors
    nodes = 1                           # the empty product
    truncated = None

    def consider(state: int, sums: List[int]) -> bool:
        """Keep the product of ``chosen``, of packed state ``state`` and
        congruence row sums ``sums``, if its sums pass and one mask finds
        every field >= 0 (face slacks and the degree window); True when it
        is a survivor beyond MAX_SURVIVORS, which ends the search."""
        nonlocal truncated
        for s, (_a, mod, t) in zip(sums, congruences):
            if (s - t) % mod if mod else s != t:
                return False
        if state & high != high:
            return False                # a face row or the degree fails
        if len(found) == MAX_SURVIVORS:
            truncated = "survivors"
            return True
        trail = {"degree": target_degree if z_graded else sums[-1],
                 "class": tuple(g.orbit_class.reduced),
                 "action": Fraction(sum(actions[j] for j in chosen), den)}
        if use_igrading:
            delta = unpack(state - high, width) + (0,) * nf
            trail["delta_i"] = tuple(delta[c] // h1.exponent
                                     for c in face_row)
        found.append(Candidate(tuple(pool[j].word for j in chosen),
                               "unobstructed, count unknown", trail=trail)
                     if chosen else _constant_term(d, g, trail))
        return False

    # Depth first over the products, children in pool order: one frame
    # [next child, budget left, state, congruence sums] for the empty
    # product and one for each factor in ``chosen``.
    empty = [0] * len(congruences)
    start = _pack([t for _a, t in fields], width) + high
    stack = [] if consider(start, empty) else [[0, top, start, empty]]
    while stack:
        i, budget_left, state, sums = frame = stack[-1]
        if suffix_min[i] >= budget_left:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        frame[0] = i + 1
        left = budget_left - costs[i]
        if left <= 0:
            continue
        if nodes == lp_at and _integer_point(
                pool, costs, top, rows, MAX_NODES // lp_at) is False:
            break
        # every product under the budget counts, whether a prune cuts it or
        # not, so the bound covers the prunes' work too
        if nodes == MAX_NODES:
            truncated = "nodes"
            break
        nodes += 1
        # odd generators square to zero: after one, the next factor is a
        # later word
        nxt = i + pool[i].degree % 2
        state -= columns[i]
        k = (left - 1) // suffix_min[nxt]
        if (state - k * suffix_lo[nxt]) & high != high:
            continue                    # a prune: some field goes negative
        sums = list(map(add, sums, ccols[i]))
        chosen.append(i)
        if consider(state, sums):
            break
        stack.append([nxt, left, state, sums])
    return CandidateReport(found, z_graded, warning, truncated, nodes)


def candidate_reports(gens: List[GeneratorRecord], d: ResolvedDiagram,
                      h1: H1Presentation, epsilon: Fraction,
                      max_pool_len: Optional[int] = None):
    """{word chords: ``differential_candidates``} of gens' good degree-1
    generators, by descending budget: each pool table is enumerated once.
    A search reads g only through its budget g.action + 3 eps len(g.word)
    (an int over the pool's denominator, ``_action_terms``),
    reduced class (so z_graded, pool length, class rows), i-grading and
    constant term: a generator asking an answered question gets that
    report with its own constant term, whose faces are its word's."""
    asked = {g: (sum(_action_terms(d, epsilon, g.word)),
                 g.orbit_class.reduced, g.igrading)
             for g in gens if g.good and g.degree == 1}
    reps, answers = {}, {}
    for g in sorted(asked, key=lambda g: asked[g][0], reverse=True):
        rep = answers.get(asked[g])
        if rep is None:
            rep = answers[asked[g]] = differential_candidates(
                g, d, h1, epsilon, max_pool_len)
        else:
            rep = CandidateReport([_constant_term(d, g, c.trail)
                                   if c.is_constant() else c
                                   for c in rep.survivors], rep.z_graded,
                                  rep.warning, rep.truncated, rep.nodes)
        reps[g.word.chords] = rep
    return reps
