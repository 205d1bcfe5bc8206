"""Combinatorial Reeb dynamics of contact surgeries on Legendrian fronts.

Turn a front diagram with +-1 surgery coefficients into exact planar data:
chords, closed-orbit words, linearized return maps, Conley-Zehnder
indices, homology classes, intersection gradings, and filtered
differential-candidate reports.
"""

from .diagram import (DiagramError, FrontCode, FrontError, ResolvedDiagram,
                      parse_front, resolve)
from .dynamics import (embed_orbit, hyperbolic_type, is_bad, orbit_action,
                       return_map)
from .homology import h1_presentation, orbit_class_monomial
from .indices import c1_class, cz_integral
from .quiver import bubbling_faces, i_grading
from .report import differential_candidates, generators
from .words import (CyclicWord, Word, enumerate_chord_words,
                    enumerate_orbit_words, push_out)

__version__ = "0.1.0"
