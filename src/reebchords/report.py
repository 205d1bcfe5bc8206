"""Generator tables and differential-candidate filtering.

Assembles, per orbit word within bounds, everything the chain-level analysis
needs (grading, homology class, action, hyperbolic type, intersection
grading), then filters candidate targets of the degree-1-down differential
with every available obstruction.  Counts are only ever asserted where a
bubbling face forces them; all other survivors stay "count unknown".
"""

from fractions import Fraction
from math import lcm
from typing import List, Optional, Tuple

from .diagram import DiagramError, ResolvedDiagram
from .dynamics import hyperbolic_type, is_bad
from .homology import H1Presentation, orbit_class_monomial
from .indices import canonical_grading_valid, cz_integral, letter_index
from .lp import solve_lp
from .quiver import bubbling_faces, effective_fiber_vector, i_grading
from .words import CyclicWord, enumerate_orbit_words, surgered_chords

# The work bound of one generator's candidate search: it stops after
# examining MAX_NODES products under the action budget (each one visited or
# cut by a prune), or at the first survivor beyond MAX_SURVIVORS, and its
# report names the reason.  The survivors it keeps are then the first
# entries of the full list, in order.
MAX_NODES = 100_000
MAX_SURVIVORS = 48


class GeneratorRecord(object):
    """One orbit word with its chain-level invariants."""

    __slots__ = ("word", "cz", "degree", "orbit_class", "action",
                 "hyperbolic", "threshold", "bad", "good", "igrading")

    def __init__(self, d: ResolvedDiagram, h1: H1Presentation, w: CyclicWord):
        self.word = w
        self.cz = cz_integral(d, w)
        self.degree = self.cz - 1
        self.orbit_class = orbit_class_monomial(d, h1, w)
        self.action = w.action()
        self.hyperbolic, self.threshold = hyperbolic_type(d, w)
        self.bad = is_bad(d, w)
        self.good = not self.bad
        self.igrading: Optional[Tuple[int, ...]] = None
        if h1.finite and self.orbit_class.is_zero():
            self.igrading = i_grading(d, h1, [(w, None)])

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
    words = enumerate_orbit_words(d, max_len=max_len, max_action=max_action,
                                  epsilon=epsilon)
    return [generator_record(d, h1, w) for w in words]


class Candidate(object):
    """A surviving monomial in the filtered differential of a generator."""

    def __init__(self, factors: Tuple[CyclicWord, ...], label: str,
                 faces=None, sign_ambiguous=False, trail=None):
        self.factors = factors           # () is the constant term 1
        self.label = label
        self.faces = faces or []         # bubbling witnesses, constant term only
        self.sign_ambiguous = sign_ambiguous
        self.trail = trail or {}

    def is_constant(self):
        return not self.factors

    def __repr__(self):
        name = "1" if self.is_constant() else \
            "".join(f"({w})" for w in self.factors)
        return f"Candidate[{name}: {self.label}]"


class CandidateReport(object):
    def __init__(self, source: GeneratorRecord, survivors: List[Candidate],
                 z_graded: bool, warning: Optional[str] = None,
                 truncated: Optional[str] = None, nodes: int = 0):
        self.source = source
        self.survivors = survivors
        self.z_graded = z_graded
        self.warning = warning
        self.truncated = truncated      # None, "nodes" or "survivors"
        self.nodes = nodes              # products the search examined


def _pool_length_cap(d: ResolvedDiagram, target_degree: int) -> Optional[int]:
    """Largest word length a degree <= target generator can have, if bounded.

    Every letter of a word adds at least min_step to its index, where
    min_step ranges over the letter indices of the composable pairs; a
    positive min_step caps the length of candidate factors.
    """
    chords = surgered_chords(d)
    steps = [letter_index(d, a, b) for a in chords for b in chords
             if d.composable(a, b)]
    if not steps or min(steps) <= 0:
        return None
    return max(1, (target_degree + 1) // min(steps))


def _pool_words(d: ResolvedDiagram, pool_len: Optional[int],
                budget: Fraction, epsilon: Fraction) -> List[CyclicWord]:
    """``enumerate_orbit_words`` at budget, filtered from one enumeration
    per (pool_len, epsilon) at the largest budget so far: every chord costs
    over 6*eps, so a word's prefixes pass the enumerator's test if it does."""
    key = ("pool", pool_len, epsilon)
    if key not in d.memo or d.memo[key][0] < budget:
        words = enumerate_orbit_words(d, pool_len, budget, epsilon)
        d.memo[key] = (budget, [(w, w.action() - 3 * epsilon * len(w))
                                for w in words])
    return [w for w, cost in d.memo[key][1] if cost <= budget]


def _no_product_passes(fiber, target_i, costs, top, eq):
    """True when no real x >= 0 over the pool has sum(x) >= 1, fiber sums
    at most target_i, cost at most top - 1 and the ``eq`` rows: this LP
    relaxes the search's filters, so then no non-constant product passes."""
    n = len(costs)
    ge = [([-vec[c] for vec in fiber], -t) for c, t in enumerate(target_i)]
    ge += [([-c for c in costs], 1 - top), ([1] * n, 1)]
    return solve_lp(n, eq, ge, [0] * n) is None


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
    MAX_SURVIVORS, which the report's ``truncated`` names.  Under the
    i-grading filter it stops complete once ``_no_product_passes`` proves
    that no non-constant product survives (the constant term may).
    """
    epsilon = Fraction(epsilon)
    slack = 3 * epsilon
    z_graded = canonical_grading_valid(d, h1.finite, g.orbit_class.is_zero())
    warning = None if z_graded else \
        "degree grading is only mod 2 here; filtering by parity"
    target_degree = g.degree - 1
    budget = g.action + slack * len(g.word.chords)
    # without a positive per-letter index step the pool's word length is
    # bounded by the CLI's --max-len only
    pool_len = _pool_length_cap(d, target_degree) if z_graded else None
    pool_len = min((n for n in (pool_len, max_pool_len) if n is not None),
                   default=None)
    pool = [r for r in (generator_record(d, h1, w) for w in
                        _pool_words(d, pool_len, budget, epsilon)) if r.good]
    if z_graded:
        pool = [r for r in pool if r.degree <= target_degree]
    pool.sort(key=lambda r: (r.action, r.word.chords))
    use_igrading = g.igrading is not None

    # the search runs over integers: costs and the budget share one
    # denominator, fiber vectors another, and a difference of fiber sums is
    # integral exactly when its scaled value is divisible by theirs
    n = len(pool)
    costs = [r.action - slack * len(r.word.chords) for r in pool]
    cost_den = lcm(budget.denominator, *(c.denominator for c in costs))
    costs = [c.numerator * (cost_den // c.denominator) for c in costs]
    top = budget.numerator * (cost_den // budget.denominator)
    n_faces = len(d.faces_list)
    acc_i = [0] * n_faces
    acc_cls = [0] * len(h1.surgered)      # meridian vector of the product
    if use_igrading:
        vectors = [effective_fiber_vector(d, h1, r.word) for r in pool]
        fiber_den = lcm(1, *(v.denominator for vec in vectors for v in vec))
        fiber = [[v.numerator * (fiber_den // v.denominator) for v in vec]
                 for vec in vectors]
        target_i = [v * fiber_den for v in g.igrading]
    # Suffix tables over pool[i:], with a row for i = n: the least cost, the
    # least and greatest degree and, per face, the least scaled fiber count,
    # the last three capped at 0.  Every cost is positive (the enumeration
    # rejects a slack of a chord's action), so a node with budget_left whose
    # children start at i has at most k = (budget_left - 1) // suffix_min[i]
    # more factors, which add between k * deg_lo[i] and k * deg_hi[i] to its
    # degree and at least k * fiber_lo[i][c] to its fiber count at face c.
    # Once suffix_min[i] reaches the budget left no later child fits, so the
    # child loop stops there.
    suffix_min = costs + [top]
    deg_lo = [0] * (n + 1)
    deg_hi = [0] * (n + 1)
    fiber_lo = [[0] * n_faces for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        suffix_min[i] = min(costs[i], suffix_min[i + 1])
        deg_lo[i] = min(pool[i].degree, deg_lo[i + 1])
        deg_hi[i] = max(pool[i].degree, deg_hi[i + 1])
        if use_igrading:
            fiber_lo[i] = [min(v, m) for v, m in zip(fiber[i],
                                                     fiber_lo[i + 1])]
    # the LP costs about its tableau, rows x (columns + rows), so it runs
    # once the search has examined that many products: short ones skip it
    lp_eq = [([r.degree for r in pool], target_degree)] if z_graded else []
    rows = n_faces + 2 + len(lp_eq)
    lp_at = rows * (n + rows) if use_igrading and pool else None
    found: List[Candidate] = []
    chosen: List[int] = []              # pool indices of the product's factors
    nodes = 1                           # the empty product
    truncated = None

    def consider(degree: int) -> bool:
        """Keep the product of ``chosen`` if no filter excludes it; True when
        it is a survivor beyond MAX_SURVIVORS, which ends the search."""
        nonlocal truncated
        if z_graded:
            if degree != target_degree:
                return False
        else:
            if (degree - target_degree) % 2 != 0:
                return False
        cls = g.orbit_class
        if h1.reduce(acc_cls) != cls.reduced:
            return False
        if use_igrading:
            delta = [t - a for t, a in zip(target_i, acc_i)]
            if any(v % fiber_den for v in delta):
                raise DiagramError("fractional fiber count on a "
                                   "null-homologous collection")
            if any(v < 0 for v in delta):
                return False
        if len(found) == MAX_SURVIVORS:
            truncated = "survivors"
            return True
        trail = {"degree": degree, "class": tuple(cls.reduced),
                 "action": sum((pool[j].action for j in chosen), Fraction(0))}
        if use_igrading:
            trail["delta_i"] = tuple(v // fiber_den for v in delta)
        if chosen:
            found.append(Candidate(
                tuple(pool[j].word for j in chosen),
                "unobstructed, count unknown", trail=trail))
        else:
            faces = [f for f, word in bubbling_faces(d)
                     if word == g.word.chords]
            if faces:
                label = "constant term, count +-1 (bubbling face witness)"
            else:
                label = "unobstructed, count unknown"
            found.append(Candidate((), label, faces=faces,
                                   sign_ambiguous=len(faces) > 1,
                                   trail=trail))
        return False

    # Depth first over the products, children in pool order: one frame
    # [next child, budget left, degree sum] for the empty product and one
    # for each factor in ``chosen``.  Popping a factor's frame takes its
    # class and fiber vectors back off the sums.
    stack = [] if consider(0) else [[0, top, 0]]
    while stack:
        frame = stack[-1]
        i, budget_left, degree_sum = frame
        if suffix_min[i] >= budget_left:
            stack.pop()
            if chosen:
                j = chosen.pop()
                for c, v in enumerate(pool[j].orbit_class.vector):
                    acc_cls[c] -= v
                if use_igrading:
                    for c in range(n_faces):
                        acc_i[c] -= fiber[j][c]
            continue
        frame[0] = i + 1
        left = budget_left - costs[i]
        if left <= 0:
            continue
        if nodes == lp_at and _no_product_passes(fiber, target_i, costs,
                                                 top, lp_eq):
            break
        # every product under the budget counts, whether a prune cuts it or
        # not, so the bound covers the prunes' work too
        if nodes == MAX_NODES:
            truncated = "nodes"
            break
        nodes += 1
        r = pool[i]
        degree = degree_sum + r.degree
        # odd generators square to zero: after one, the next factor is a
        # later word
        nxt = i + r.degree % 2
        k = (left - 1) // suffix_min[nxt]
        if z_graded and not (k * deg_lo[nxt] <= target_degree - degree
                             <= k * deg_hi[nxt]):
            continue
        if use_igrading:
            vec = fiber[i]
            if any(a + v + k * m > t for a, v, m, t in
                   zip(acc_i, vec, fiber_lo[nxt], target_i)):
                continue
            for c in range(n_faces):
                acc_i[c] += vec[c]
        chosen.append(i)
        for c, v in enumerate(r.orbit_class.vector):
            acc_cls[c] += v
        if consider(degree):
            break
        stack.append([nxt, left, degree])
    return CandidateReport(g, found, z_graded, warning, truncated,
                           nodes)
