"""Exact-arithmetic star-complement search and verification for graphs.

The central question: given a graph H and a scalar mu outside its spectrum,
which graphs G contain H as a star complement for mu, i.e. admit a vertex
set X with G - X = H and mu an eigenvalue of G of multiplicity |X|?  The
package enumerates the candidate H-neighbourhoods, searches compatible
families (optionally under a regularity constraint), and certifies every
result with three independent exact checks.  Complete bipartite complements
K_{t,s} get closed-form candidate equations, pair-relation tables, the
G(r) constructions and the associated feasibility analysis.

No floating point anywhere: scalars live in Q or a real quadratic field
Q(sqrt(d)), linear algebra is fraction-free or over Fraction.
"""

from .algebra import IntPoly, QNum, parse_scalar, qnum
from .canon import CanonicalForm, are_isomorphic, canonical, canonical_graph
from .catalog import (catalog_entry, expected_spectrum, named_graph,
                      spectrum_matches)
from .engine import (CandidateVector, Certificate, Compat, StarContext,
                     StarSolution, VertexType, classify_pair,
                     enumerate_candidates, make_context, multiplicity_cap,
                     search_star_sets, solution_from_assembled,
                     verify_star_pair)
from .errors import (BadTag, DivisibilityViolation, DuplicateNeighbourhood,
                     HypothesisViolated, InternalInconsistency, MalformedGraph6,
                     MuIsEigenvalue, StarCompError, TooLarge, Unbounded,
                     UnknownName)
from .graphs import (Graph, SrgParams, complete, cycle, disjoint_union,
                     graph6_decode, graph6_encode, induced_subgraph,
                     is_connected, make_kts, regular_degree, srg_check)
from .kts import (FamilyReport, GrParams, KssReport, ParamRow, build_Gr,
                  family_type0b, gr_params, kss_analysis, non_main_holds,
                  rho_bounds, rho_of_pair, rho_value, self_pairing_holds,
                  solve_types_fixed, solve_types_parametric, srg_gap)
from .linalg import char_polynomial, minimal_polynomial

__version__ = "0.1.0"
